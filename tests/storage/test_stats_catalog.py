"""Unit tests for statistics and the catalog."""

import pytest

from repro.algebra.predicates import RankingPredicate
from repro.storage import Catalog, CatalogError, DataType, Schema, analyze_table


class TestAnalyzeTable:
    def make_catalog(self):
        catalog = Catalog()
        table = catalog.create_table(
            "t",
            Schema.of(("k", DataType.INT), ("x", DataType.FLOAT), ("s", DataType.TEXT)),
        )
        table.insert_many(
            [
                (1, 0.5, "a"),
                (2, 1.5, "b"),
                (2, 2.5, None),
                (3, 3.5, "a"),
            ]
        )
        return catalog, table

    def test_row_count(self):
        __, table = self.make_catalog()
        stats = analyze_table(table)
        assert stats.row_count == 4

    def test_distinct_counts(self):
        __, table = self.make_catalog()
        stats = analyze_table(table)
        assert stats.column("k").n_distinct == 3
        assert stats.column("s").n_distinct == 2

    def test_min_max(self):
        __, table = self.make_catalog()
        stats = analyze_table(table)
        assert stats.column("x").min_value == 0.5
        assert stats.column("x").max_value == 3.5

    def test_min_max_skip_nulls(self):
        __, table = self.make_catalog()
        stats = analyze_table(table)
        assert stats.column("s").min_value == "a"
        assert stats.column("s").max_value == "b"

    def test_all_null_column(self):
        catalog = Catalog()
        table = catalog.create_table(
            "n", Schema.of(("k", DataType.INT), ("v", DataType.FLOAT))
        )
        table.insert_many([(1, None), (2, None)])
        stats = analyze_table(table)
        column = stats.column("v")
        assert column.n_distinct == 0
        assert column.min_value is None and column.max_value is None
        # No distinct values on either side: the join selectivity falls
        # back to 1 rather than dividing by zero.
        assert stats.join_selectivity("v", stats, "v") == 1.0

    def test_join_selectivity(self):
        catalog, table = self.make_catalog()
        other = catalog.create_table("u", Schema.of(("k", DataType.INT)))
        other.insert_many([(i,) for i in range(10)])
        mine = analyze_table(table)
        theirs = analyze_table(other)
        assert abs(mine.join_selectivity("k", theirs, "k") - 1 / 10) < 1e-9

    def test_empty_table(self):
        catalog = Catalog()
        table = catalog.create_table("e", Schema.of("a"))
        stats = analyze_table(table)
        assert stats.row_count == 0
        assert stats.column("a").n_distinct == 0


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        table = catalog.create_table("t", Schema.of("a"))
        assert catalog.table("t") is table
        assert catalog.has_table("t")

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", Schema.of("a"))
        with pytest.raises(CatalogError):
            catalog.create_table("t", Schema.of("a"))

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_drop_table(self):
        catalog = Catalog()
        catalog.create_table("t", Schema.of("a"))
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        with pytest.raises(CatalogError):
            catalog.drop_table("t")

    def test_stats_cached_and_refreshed(self):
        catalog = Catalog()
        table = catalog.create_table("t", Schema.of("a"))
        table.insert([1.0])
        first = catalog.stats("t")
        assert first.row_count == 1
        table.insert([2.0])
        # Cached until re-analyzed.
        assert catalog.stats("t").row_count == 1
        assert catalog.analyze("t").row_count == 2

    def test_predicate_registry(self):
        catalog = Catalog()
        predicate = RankingPredicate("p", ["t.a"], lambda v: v)
        catalog.register_predicate(predicate)
        assert catalog.predicate("p") is predicate
        assert catalog.has_predicate("p")
        with pytest.raises(CatalogError):
            catalog.register_predicate(predicate)
        with pytest.raises(CatalogError):
            catalog.predicate("missing")

    def test_tables_iteration(self):
        catalog = Catalog()
        catalog.create_table("a", Schema.of("x"))
        catalog.create_table("b", Schema.of("x"))
        assert sorted(t.name for t in catalog.tables()) == ["a", "b"]
