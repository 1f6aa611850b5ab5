"""Interactive SQL shell, one-shot query runner, and the serve command.

Usage::

    python -m repro --demo                  # interactive shell on demo data
    python -m repro --demo -c "SELECT ..."  # one query, print, exit
    python -m repro --load hotels=hotels.csv --schema "name:text,price:float" ...
    python -m repro serve --demo --port 5433 --workers 4   # TCP query server

The shell accepts the library's top-k dialect plus a few meta commands:

    \\d               list tables
    \\explain Q       show the chosen plan without executing
    \\metrics         toggle printing execution metrics
    \\cache           show planner/plan-cache statistics
    \\stats           dump the metrics registry (counters, gauges, p50/p95/p99)
    \\trace           show the last finished query trace (span tree + timings)
    \\trace on|off    enable/disable structured tracing
    \\set             list shell variables
    \\set name value  set a variable (feeds :name placeholders)
    \\unset name      remove a variable
    \\connect H:P     attach the shell to a serving database (client mode)
    \\disconnect      return to the local embedded database
    \\quit            exit

Statements may use named bind variables (``:name``): the shell supplies
values from its ``\\set`` variables, so re-running a template with a new
``\\set`` reuses the cached plan with fresh constants.

``BEGIN`` / ``COMMIT`` / ``ROLLBACK`` open, publish and discard a
multi-statement transaction on the active backend (local session or the
connected server alike): inside one, queries read the BEGIN-time snapshot
plus the transaction's own buffered writes.  A ``COMMIT`` that loses
first-committer-wins validation reports the serialization error; retry
the transaction from ``BEGIN``.

Local statements run through one :class:`~repro.planner.Session`, so
re-running a statement reuses its cached plan.  Reuse shows in
``\\cache`` as the plan cache's ``hits`` and the session's
``plan_cache_hits``.

After ``\\connect host:port`` statements travel over the line-delimited
JSON protocol to a ``python -m repro serve`` process instead — into the
same ``Session`` class on the server side; ``\\cache`` then shows the
*server's* shared-cache and session counters.

Statements run in one of two execution regimes, chosen per segment by the
optimizer: rank-aware operators always run tuple-at-a-time, and a
traditional materialize-then-sort segment runs as one compiled function
when that prices cheaper.  ``REPRO_EXECUTION`` (``auto`` | ``row`` |
``compiled``) overrides the choice engine-wide.
"""

from __future__ import annotations

import argparse
import random
import sys

from .engine.database import Database
from .observe.system_tables import is_system_query
from .sql.lexer import TokenType, tokenize
from .storage.schema import DataType

_TYPE_NAMES = {
    "int": DataType.INT,
    "float": DataType.FLOAT,
    "text": DataType.TEXT,
    "bool": DataType.BOOL,
}

#: the execution-regime note both parsers print under ``--help``
_REGIME_EPILOG = (
    "execution regime: REPRO_EXECUTION=auto|row|compiled (default auto: "
    "each sort-topped segment runs compiled when that prices cheaper, "
    "everything else tuple-at-a-time)"
)


#: the demo's predicate callables, by name — handed to ``load_database``
#: when reopening a durable demo directory so its rank indexes can rebind
DEMO_PREDICATES = {
    "cheap": lambda p: max(0.0, 1 - p / 400),
    "starry": lambda s: s / 5,
    "tasty": lambda p: max(0.0, 1 - p / 90),
}


def build_demo_database(
    seed: int = 7,
    db: "Database | None" = None,
) -> Database:
    """The quickstart hotel/restaurant demo database.  Pass ``db`` to
    populate an existing (e.g. durability-attached) database instead of
    creating a fresh in-memory one."""
    rng = random.Random(seed)
    if db is None:
        db = Database()
    db.create_table(
        "hotel",
        [("name", DataType.TEXT), ("price", DataType.FLOAT), ("stars", DataType.INT),
         ("area", DataType.INT)],
    )
    db.create_table(
        "restaurant",
        [("name", DataType.TEXT), ("cuisine", DataType.TEXT),
         ("price", DataType.FLOAT), ("area", DataType.INT)],
    )
    cuisines = ["italian", "thai", "french", "mexican"]
    db.insert(
        "hotel",
        [(f"hotel-{i}", round(rng.uniform(40, 400), 2), rng.randrange(1, 6),
          rng.randrange(10)) for i in range(500)],
    )
    db.insert(
        "restaurant",
        [(f"rest-{i}", rng.choice(cuisines), round(rng.uniform(10, 90), 2),
          rng.randrange(10)) for i in range(500)],
    )
    db.register_predicate("cheap", ["hotel.price"], DEMO_PREDICATES["cheap"])
    db.register_predicate("starry", ["hotel.stars"], DEMO_PREDICATES["starry"])
    db.register_predicate("tasty", ["restaurant.price"], DEMO_PREDICATES["tasty"])
    db.create_rank_index("hotel", "cheap")
    db.create_rank_index("restaurant", "tasty")
    db.analyze()
    return db


def _add_durability_args(parser: argparse.ArgumentParser) -> None:
    """The durability flags shared by the shell and ``serve``."""
    parser.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="durable database directory: recovered if it exists "
        "(checkpoint + WAL replay), created otherwise",
    )
    parser.add_argument(
        "--durability", default="auto",
        choices=("auto", "wal", "checkpoint", "none"),
        help="durability mode for --data-dir (auto = whatever the "
        "directory already uses, wal for a fresh one)",
    )
    parser.add_argument(
        "--fsync", default=None, choices=("commit", "always", "never"),
        help="WAL fsync discipline (default: the directory's, or commit)",
    )


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help="log queries slower than MS as single-line JSON to stderr "
        "(default: REPRO_SLOW_QUERY_MS, off otherwise)",
    )


def open_database(args, out) -> Database:
    """The database the shell/server runs on, honouring ``--data-dir``.

    An existing directory is recovered (atomic checkpoint + WAL tail
    replay); a fresh one is created durable.  Without ``--data-dir`` the
    database is in-memory, with the demo loaded when ``--demo`` asks.
    """
    if args.data_dir is None:
        return build_demo_database() if args.demo else Database()
    from pathlib import Path

    from .engine.persistence import CATALOG_FILE, load_database

    path = Path(args.data_dir)
    durability = None if args.durability == "none" else args.durability
    if (path / CATALOG_FILE).exists():
        # Always offer the demo predicate callables: a directory created
        # with --demo must reopen without the flag ("run --demo --data-dir
        # trip.db" then "serve --data-dir trip.db"); unused entries are
        # ignored, and non-demo predicates still fail with the load_database
        # error telling the user to register them.
        db = load_database(
            path,
            predicates=DEMO_PREDICATES,
            persist=True,
            durability=durability,
            fsync=args.fsync,
        )
        stats = db.recovery_stats or {}
        recovered = stats.get("replayed", 0)
        print(
            f"opened {path}: {sum(1 for __ in db.catalog.tables())} table(s)"
            + (
                f", replayed {recovered} committed transaction(s) from the WAL"
                if recovered
                else ""
            ),
            file=out,
        )
        return db
    db = Database(
        persist_dir=path,
        durability="wal" if durability == "auto" else durability,
        fsync=args.fsync or "commit",
    )
    if args.demo:
        build_demo_database(db=db)
    print(
        f"created durable database in {path} "
        f"(durability={db.durability or 'none'}, fsync={db.fsync_mode})",
        file=out,
    )
    return db


def parse_schema(spec: str) -> list[tuple[str, DataType]]:
    """Parse ``"name:text,price:float"`` into column specs."""
    out = []
    for part in spec.split(","):
        name, __, type_name = part.strip().partition(":")
        if not name:
            raise ValueError(f"bad column spec: {part!r}")
        dtype = _TYPE_NAMES.get(type_name.strip().lower() or "float")
        if dtype is None:
            raise ValueError(f"unknown type {type_name!r} in {part!r}")
        out.append((name, dtype))
    return out


def format_result(result, show_metrics: bool = False) -> str:
    """Render a QueryResult (or a remote RemoteResult) as an aligned text
    table — remote results carry plain column names instead of a schema."""
    if hasattr(result, "schema"):
        names = result.schema.qualified_names() + ["score"]
    else:
        names = list(result.columns) + ["score"]
    rows = [
        [("" if v is None else str(v)) for v in row] + [f"{score:.4f}"]
        for row, score in zip(result.rows, result.scores)
    ]
    widths = [len(n) for n in names]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(n.ljust(w) for n, w in zip(names, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    if show_metrics:
        metrics = result.metrics
        summary = metrics.summary() if hasattr(metrics, "summary") else metrics
        lines.append(
            "metrics: "
            + ", ".join(f"{key}={value:g}" for key, value in summary.items())
        )
    return "\n".join(lines)


class ShellState:
    """Mutable shell settings + the session every statement runs through.

    ``remote`` (after ``\\connect``) redirects statements to a serving
    database over TCP; ``\\disconnect`` drops back to the local session.
    """

    def __init__(self, db: Database, show_metrics: bool = False):
        self.db = db
        self.session = db.session()
        self.show_metrics = show_metrics
        #: \set variables feeding :name placeholders
        self.variables: dict[str, object] = {}
        #: active remote session (client mode), if any
        self.remote = None

    def execute(self, sql: str, params=None):
        """Run a statement on the active backend (remote when connected)."""
        if self.remote is not None:
            return self.remote.execute(sql, params=params)
        return self.session.execute(sql, params=params)

    def explain(self, sql: str, params=None) -> str:
        if self.remote is not None:
            return self.remote.explain(sql, params=params)
        return self.session.explain(sql, params=params)

    def begin(self):
        """Open a transaction on the active backend; returns its id."""
        if self.remote is not None:
            return self.remote.begin()
        return self.session.begin().txn_id

    def commit(self) -> int:
        """Commit the open transaction; returns the commit sequence."""
        if self.remote is not None:
            return self.remote.commit()
        return self.session.commit()

    def rollback(self) -> None:
        if self.remote is not None:
            self.remote.rollback()
        else:
            self.session.rollback()

    def disconnect(self) -> None:
        if self.remote is not None:
            self.remote.close()
            self.remote = None


def parse_variable_value(text: str) -> object:
    """Parse a ``\\set`` value: number, true/false, 'quoted' or bare string."""
    stripped = text.strip()
    if len(stripped) >= 2 and stripped[0] == "'" and stripped[-1] == "'":
        return stripped[1:-1]
    lowered = stripped.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError:
        pass
    return stripped


def statement_params(state: ShellState, sql: str) -> "dict[str, object] | None":
    """Bindings for a statement's ``:name`` placeholders from ``\\set``
    variables; None for literal statements.  Raises ``ValueError`` with a
    shell-appropriate message for ``?`` placeholders or unset variables."""
    names: set[str] = set()
    for token in tokenize(sql):
        if token.type is not TokenType.PARAM:
            continue
        if token.value == "?":
            raise ValueError(
                "positional (?) parameters are not supported in the shell; "
                "use :name placeholders with \\set name value"
            )
        names.add(token.value[1:])
    if not names:
        return None
    missing = sorted(name for name in names if name not in state.variables)
    if missing:
        raise ValueError(
            f"unset parameter(s): {', '.join(missing)}; "
            f"use \\set <name> <value> first"
        )
    return {name: state.variables[name] for name in sorted(names)}


#: statements the shell routes to the transaction surface, not the planner
TXN_KEYWORDS = ("begin", "commit", "rollback")


def transaction_keyword(statement: str) -> "str | None":
    """``"begin"``/``"commit"``/``"rollback"`` when the statement is one of
    the transaction-control keywords (case-insensitive, optional ``;``)."""
    word = statement.strip().rstrip(";").strip().lower()
    return word if word in TXN_KEYWORDS else None


def run_statement(state: ShellState, statement: str, out) -> None:
    stripped = statement.strip()
    if not stripped:
        return
    if stripped.startswith("\\"):
        _meta_command(state, stripped, out)
        return
    keyword = transaction_keyword(stripped)
    if keyword == "begin":
        print(f"BEGIN (transaction {state.begin()})", file=out)
        return
    if keyword == "commit":
        print(f"COMMIT (sequence {state.commit()})", file=out)
        return
    if keyword == "rollback":
        state.rollback()
        print("ROLLBACK", file=out)
        return
    result = state.execute(stripped, params=statement_params(state, stripped))
    print(format_result(result, state.show_metrics), file=out)


def _meta_command(state: ShellState, command: str, out) -> None:
    db = state.db
    if command == "\\d":
        if state.remote is not None:
            print("\\d is unavailable in client mode (\\disconnect first)", file=out)
            return
        for table in db.catalog.tables():
            columns = ", ".join(
                f"{c.name} {c.dtype.value}" for c in table.schema
            )
            print(f"{table.name}({columns})  [{table.row_count} rows]", file=out)
        return
    if command.startswith("\\connect "):
        from .server.client import connect

        target = command[len("\\connect "):].strip()
        host, sep, port_text = target.rpartition(":")
        if not sep or not port_text.isdigit():
            print("usage: \\connect <host>:<port>", file=out)
            return
        state.disconnect()
        state.remote = connect(host or "127.0.0.1", int(port_text))
        print(
            f"connected to {target} as session {state.remote.session_id}",
            file=out,
        )
        return
    if command == "\\disconnect":
        if state.remote is None:
            print("not connected", file=out)
        else:
            state.disconnect()
            print("disconnected (back to local database)", file=out)
        return
    if command.startswith("\\explain "):
        sql = command[len("\\explain "):]
        print(state.explain(sql, params=statement_params(state, sql)), file=out)
        return
    if command == "\\set":
        if not state.variables:
            print("no variables set", file=out)
        for name in sorted(state.variables):
            print(f"{name} = {state.variables[name]!r}", file=out)
        return
    if command.startswith("\\set "):
        rest = command[len("\\set "):].strip()
        name, __, value = rest.partition(" ")
        if not name or not value.strip():
            print("usage: \\set <name> <value>", file=out)
            return
        state.variables[name] = parse_variable_value(value)
        print(f"{name} = {state.variables[name]!r}", file=out)
        return
    if command.startswith("\\unset "):
        name = command[len("\\unset "):].strip()
        if state.variables.pop(name, None) is None:
            print(f"variable {name!r} is not set", file=out)
        else:
            print(f"unset {name}", file=out)
        return
    if command == "\\metrics":
        state.show_metrics = not state.show_metrics
        print(
            f"metrics {'on' if state.show_metrics else 'off'}", file=out
        )
        return
    if command == "\\stats":
        if state.remote is not None:
            payload = state.remote.stats()
            metrics = payload.get("metrics", {})
        else:
            metrics = db.registry.collect()
        for name in sorted(metrics):
            value = metrics[name]
            if isinstance(value, dict):
                detail = ", ".join(
                    f"{key}={value[key]:g}"
                    for key in ("count", "p50", "p95", "p99")
                    if isinstance(value.get(key), (int, float))
                )
                print(f"{name}: {detail}", file=out)
            else:
                print(f"{name}: {value:g}", file=out)
        return
    if command == "\\trace" or command.startswith("\\trace "):
        argument = command[len("\\trace"):].strip().lower()
        if argument in ("on", "off"):
            if state.remote is not None:
                print("\\trace on|off controls the local tracer only", file=out)
                return
            db.tracer.enabled = argument == "on"
            print(f"tracing {argument}", file=out)
            return
        if argument:
            print("usage: \\trace [on|off]", file=out)
            return
        if state.remote is not None:
            traces = state.remote.stats(traces=1).get("traces", [])
            if not traces:
                print("no traces recorded yet", file=out)
                return
            import json

            print(json.dumps(traces[0], indent=2), file=out)
            return
        trace = db.tracer.last()
        if trace is None:
            print(
                "no traces recorded yet"
                + ("" if db.tracer.enabled else " (tracing is off)"),
                file=out,
            )
        else:
            print(trace.render(), file=out)
        return
    if command == "\\cache":
        if state.remote is not None:
            payload = state.remote.metrics()
            label, stats = "server", dict(payload.get("server", {}))
            session = payload.get("session", {})
        else:
            # Namespace each layer's counters — "invalidations" exists in
            # both the cache stats and the planner metrics.
            label, stats = "planner", {
                f"cache_{key}": value
                for key, value in db.planner.cache.stats.summary().items()
            }
            stats.update(
                (f"planner_{key}", value)
                for key, value in db.planner.metrics.summary().items()
            )
            session = state.session.summary()
        stats.update(
            (f"session_{key}", value)
            for key, value in session.items()
            if key != "session_id"
        )
        print(
            f"{label}: "
            + ", ".join(
                f"{key}={value:g}"
                for key, value in sorted(stats.items())
                if isinstance(value, (int, float))
            ),
            file=out,
        )
        return
    print(f"unknown meta command: {command}", file=out)


def _load_tables(db: Database, args, out) -> int:
    """Apply ``--schema``/``--load`` pairs; returns non-zero on bad specs."""
    schemas = {}
    for spec in args.schema:
        table_name, __, columns = spec.partition("=")
        schemas[table_name] = parse_schema(columns)
    for spec in args.load:
        table_name, __, path = spec.partition("=")
        if table_name not in schemas:
            print(f"--load {table_name}: missing --schema", file=out)
            return 2
        db.create_table(table_name, schemas[table_name])
        n = db.load_csv(table_name, path)
        db.analyze(table_name)
        print(f"loaded {n} rows into {table_name}", file=out)
    return 0


def serve_main(argv: list[str], out) -> int:
    """``python -m repro serve``: run the TCP query server until killed."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="RankSQL concurrent query server",
        epilog=_REGIME_EPILOG,
    )
    parser.add_argument("--demo", action="store_true", help="serve the demo database")
    parser.add_argument(
        "--load", action="append", default=[], metavar="TABLE=FILE.csv",
        help="load a CSV file into a new table (repeatable)",
    )
    parser.add_argument(
        "--schema", action="append", default=[], metavar="TABLE=name:type,...",
        help="schema for a --load table (types: int,float,text,bool)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=5433, help="TCP port (0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=4, help="worker threads")
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve Prometheus-text GET /metrics on this port "
        "(0 = ephemeral)",
    )
    _add_durability_args(parser)
    _add_observability_args(parser)
    args = parser.parse_args(argv)

    database = open_database(args, out)
    with database as db:
        if args.slow_query_ms is not None:
            db.tracer.slow_query_ms = args.slow_query_ms
        status = _load_tables(db, args, out)
        if status:
            return status
        with db.serve(
            host=args.host,
            port=args.port,
            workers=args.workers,
            metrics_port=args.metrics_port,
        ) as server:
            host, port = server.address
            print(
                f"serving on {host}:{port} with {args.workers} workers — "
                f"connect with \\connect {host}:{port} (Ctrl-C stops)",
                file=out,
            )
            if server.metrics_port is not None:
                print(
                    f"metrics endpoint on http://{host}:{server.metrics_port}/metrics",
                    file=out,
                )
            import time

            try:
                while True:
                    time.sleep(1)
            except KeyboardInterrupt:
                # Graceful: refuse new statements, drain in-flight ones,
                # roll back open transactions, checkpoint durable state.
                print("shutting down (draining in-flight statements)", file=out)
                server.shutdown()
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:], out)
    if argv and argv[0] == "run":  # explicit alias of the default shell
        argv = argv[1:]
    parser = argparse.ArgumentParser(
        prog="repro", description="RankSQL top-k SQL shell", epilog=_REGIME_EPILOG
    )
    parser.add_argument("--demo", action="store_true", help="load the demo database")
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="TABLE=FILE.csv",
        help="load a CSV file into a new table (repeatable)",
    )
    parser.add_argument(
        "--schema",
        action="append",
        default=[],
        metavar="TABLE=name:type,...",
        help="schema for a --load table (types: int,float,text,bool)",
    )
    parser.add_argument("-c", "--command", help="run one SQL statement and exit")
    parser.add_argument(
        "--metrics", action="store_true", help="print execution metrics per query"
    )
    _add_durability_args(parser)
    _add_observability_args(parser)
    args = parser.parse_args(argv)

    database = open_database(args, out)
    with database as db:
        if args.slow_query_ms is not None:
            db.tracer.slow_query_ms = args.slow_query_ms
        status = _load_tables(db, args, out)
        if status:
            return status

        state = ShellState(db, show_metrics=args.metrics)
        if args.command:
            try:
                run_statement(state, args.command, out)
            except Exception as error:  # surface engine errors as text, exit 1
                print(f"error: {error}", file=out)
                return 1
            return 0

        # Interactive loop.
        print("RankSQL shell — \\d lists tables, \\quit exits", file=out)
        buffer: list[str] = []
        while True:
            try:
                prompt = "ranksql> " if not buffer else "    ...> "
                line = input(prompt)
            except EOFError:
                break
            if line.strip() in ("\\quit", "\\q", "exit", "quit"):
                break
            if line.strip().startswith("\\") and not buffer:
                try:
                    _meta_command(state, line.strip(), out)
                except Exception as error:
                    print(f"error: {error}", file=out)
                continue
            buffer.append(line)
            joined = " ".join(buffer)
            if (
                joined.rstrip().endswith(";")
                or "limit" in joined.lower()
                or is_system_query(joined)
                or transaction_keyword(joined) is not None
            ):
                buffer.clear()
                try:
                    run_statement(state, joined.rstrip(" ;"), out)
                except Exception as error:
                    print(f"error: {error}", file=out)
        state.disconnect()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
