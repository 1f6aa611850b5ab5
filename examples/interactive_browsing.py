"""Incremental result browsing with cursors.

§4.1: "In interactive applications, k may be only an estimate of the
desired result size or not even specified beforehand.  Hence, it is
essentially desirable to support incremental processing for returning top
results progressively upon user requests."

This example opens a cursor on a ranking query and fetches results in
pages, printing how much work (simulated cost) each page added — the cost
grows with consumption instead of being paid upfront.  It finishes by
saving the database to disk and re-loading it.

Run:  python examples/interactive_browsing.py
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro import Database, DataType
from repro.engine import load_database, save_database


def freshness(days_old):
    return max(0.0, 1 - days_old / 365)


def relevance(score):
    return score


def build() -> Database:
    rng = random.Random(97)
    db = Database()
    db.create_table(
        "article",
        [
            ("title", DataType.TEXT),
            ("days_old", DataType.INT),
            ("match_score", DataType.FLOAT),
        ],
    )
    db.insert(
        "article",
        [
            (f"article-{i}", rng.randrange(365), round(rng.random(), 3))
            for i in range(4000)
        ],
    )
    db.register_predicate("fresh", ["article.days_old"], freshness, cost=1.0)
    db.register_predicate("relevant", ["article.match_score"], relevance, cost=1.0)
    db.create_rank_index("article", "relevant")
    db.analyze()
    return db


def main() -> None:
    db = build()
    sql = """
        SELECT * FROM article
        ORDER BY relevant(article.match_score) + fresh(article.days_old)
        LIMIT 10
    """
    print("Browsing results page by page (the LIMIT is just a hint):\n")
    with db.open_cursor(sql) as cursor:
        previous_cost = 0.0
        for page in range(1, 4):
            rows = []
            for __ in range(5):
                pair = cursor.fetch_next_scored()
                if pair is None:
                    break
                rows.append(pair)
            cost = cursor.metrics.simulated_cost
            print(f"--- page {page} (+{cost - previous_cost:.0f} cost units)")
            for (title, days_old, match), score in rows:
                print(f"    {title:<14} age={days_old:>3}d match={match:.2f} "
                      f"score={score:.3f}")
            previous_cost = cost
        print(
            f"\nTotal work after 15 results: {previous_cost:.0f} units "
            f"({cursor.metrics.tuples_scanned} of 4000 tuples scanned)"
        )

    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "articles_db"
        save_database(db, target)
        restored = load_database(
            target, predicates={"fresh": freshness, "relevant": relevance}
        )
        result = restored.query(sql)
        print(f"\nReloaded from {target.name}: top result is "
              f"{result.rows[0][0]} (score {result.scores[0]:.3f})")


if __name__ == "__main__":
    main()
