"""The two kinds of workload: embedded (``q_rank``, ``q_sort``,
``adhoc_plan``) and served (``serve_rw_durable``).

A workload object owns the system under test and knows how to issue one
op plainly (what the measured rounds time), how to issue it under spans
(the traced round), and how to check what came back.  Checks run outside
the op timer.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.engine.persistence import load_database
from repro.server import RemoteResult, connect, protocol
from repro.sql import parse, tokenize
from repro.storage.wal import list_segments, scan_segments
from repro.workloads import PREDICATE_LAYOUT, WorkloadConfig, build_workload

from .spans import Spans
from .spec import (
    DATA_SEED,
    JOIN_SELECTIVITY,
    TABLE_SIZE,
    Op,
    WorkloadSpec,
    statement,
)

#: counters taken from ``QueryResult.metrics.summary()`` per read
WORK_KEYS = (
    "tuples_scanned", "predicate_evaluations", "join_pairs_examined",
    "simulated_cost",
)


def build_dataset():
    """The one dataset every workload runs on (see ``spec.DATA_SEED``)."""
    config = WorkloadConfig(
        table_size=TABLE_SIZE, join_selectivity=JOIN_SELECTIVITY, seed=DATA_SEED
    )
    return build_workload(config).database


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


# ----------------------------------------------------------------------
# one read under spans — shared by the embedded traced rounds and the
# probes on the served workload's in-process replica
# ----------------------------------------------------------------------
def traced_read(db, spans: Spans, sql, strategy, params=None, snapshot=None):
    """``Database.query``'s two steps, each under its own span."""
    with spans.span("planner.prepare", "planner") as index:
        entry, hit = db.planner.prepare(sql, strategy=strategy, params=params)
    spans.rows[index][0] = "planner.prepare_hit" if hit else "planner.prepare_miss"
    with spans.span("execution.execute", "execution"):
        result = db.execute(
            entry.executable, entry.scoring, k=entry.k,
            evaluators=entry.evaluators, plan_cached=hit, snapshot=snapshot,
            entry=entry,
        )
    return result, (index, sql, strategy, params, hit)


def probe_read(db, spans: Spans, pending) -> None:
    """Split the prepare span just recorded: time the SQL front end on the
    same text, and on a miss the optimizer by planning it again uncached."""
    index, sql, strategy, params, hit = pending
    lex, __ = timed(tokenize, sql)
    syntax, __ = timed(parse, sql)
    bound, __ = timed(db.bind, sql)
    spans.probe(index, "sql.tokenize", "sql", lex)
    spans.probe(index, "sql.parse", "sql", syntax - lex)
    spans.probe(index, "sql.bind", "sql", bound - syntax)
    if not hit:
        optimize, compile_ = optimizer_seconds(db, sql, strategy, params, bound)
        spans.probe(index, "optimizer.compile", "optimizer", compile_)
        spans.probe(index, "optimizer.optimize", "optimizer", optimize)


def optimizer_seconds(db, sql, strategy, params, bound: float):
    """Plan ``sql`` again past the cache: ``(optimize, compile)`` seconds,
    the front end's ``bound`` seconds taken out."""
    seconds, (entry, __) = timed(
        db.planner.prepare, sql, strategy=strategy, params=params,
        use_cache=False,
    )
    return seconds - bound - entry.compile_seconds, entry.compile_seconds


def answer(result) -> list:
    """What correctness compares: ``(rid, score)`` best first.  A joined
    row's rid lists its base rows in the plan's join order, so it is sorted
    here: two plans returning the same row must compare equal."""
    return [
        [sorted(map(list, scored.row.rid)), score]
        for scored, score in zip(result.scored_rows, result.scores)
    ]


class Workload:
    """What the round runner needs from either kind."""

    #: whether the process under test is this process (so the calibration
    #: loop's CPU has to be taken out of ``cpu_seconds``)
    in_process = True

    def __init__(self, spec: WorkloadSpec, seed: int, out: Path):
        self.spec = spec
        self.seed = seed
        self.out = out
        #: label of the op just issued (its class, or a finer one)
        self.tag = ""
        #: per-round work counters, reset by the runner
        self.work: Counter = Counter()

    def cycle(self) -> tuple[Op, ...]:
        return self.spec.cycle

    def warm_up(self) -> None:
        for op in self.cycle():
            self.check(op, self.issue(op))

    def after_traced(self, spans: Spans) -> None:
        """Probes that follow a traced op, outside its root span."""

    def abandon(self) -> None:
        """Release what ``setup`` started when the run dies half way."""

    def count_read(self, metrics: dict, rows: int) -> None:
        for key in WORK_KEYS:
            self.work[key] += metrics[key]
        self.work["reads"] += 1
        self.work["results"] += rows


# ----------------------------------------------------------------------
# embedded
# ----------------------------------------------------------------------
class Embedded(Workload):
    def __init__(self, spec, seed, out):
        super().__init__(spec, seed, out)
        self.unique = spec.name == "adhoc_plan"
        #: adhoc_plan's literal counter; seeds start far apart
        self._n = 1 + (seed % 997) * 4096
        self._pending = None
        self.observed: dict[str, list] = {}

    def setup(self) -> None:
        self.db = build_dataset()

    def cycle(self):
        # the seed reaches the static workloads as a rotation of the cycle
        shift = 0 if self.unique else self.seed % len(self.spec.cycle)
        return self.spec.cycle[shift:] + self.spec.cycle[:shift]

    def warm_up(self) -> None:
        """Plan and run every distinct statement once (``adhoc_plan`` has
        none to warm: it runs one cycle)."""
        ops = self.cycle() if self.unique else sorted(
            set(self.spec.cycle), key=lambda o: o.cls
        )
        for op in ops:
            self.issue(op)

    def text(self, op: Op) -> str:
        self.tag = op.cls
        if not self.unique:
            return statement(op.shape, op.k)
        # always true (A.p1 < 1), and never seen before: a plan-cache miss
        self._n += 1
        return statement(
            op.shape, op.k, f" AND A.p1 <= {1.0 + self._n * 1e-6:.6f}"
        )

    def issue(self, op: Op):
        return self.db.query(self.text(op), strategy=self.spec.strategy)

    def issue_traced(self, op: Op, spans: Spans):
        result, self._pending = traced_read(
            self.db, spans, self.text(op), self.spec.strategy
        )
        return result

    def after_traced(self, spans: Spans) -> None:
        probe_read(self.db, spans, self._pending)

    def check(self, op: Op, result) -> bool:
        """Every result of a class must equal the first one seen;
        ``finish`` compares that one with the reference answer."""
        self.count_read(result.metrics.summary(), len(result))
        got = answer(result)
        return got == self.observed.setdefault(op.cls, got)

    # -- the process under test is this one ----------------------------
    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def planner_counters(self) -> dict[str, int]:
        stats, metrics = self.db.planner.cache.stats, self.db.planner.metrics
        return {
            "hits": stats.hits, "misses": stats.misses,
            "evictions": stats.evictions,
            "invalidations": metrics.invalidations,
            "plans_built": metrics.plans_built,
        }

    def finish(self) -> dict:
        """Compare what the rounds returned with reference answers from
        the materialise-then-sort plan run tuple at a time: one reference
        per statement shape at its largest k, whose prefixes are the
        answers for smaller k.  (Computed here, not in set-up, because it
        costs three times the rest of set-up and no user pays it.)"""
        violations = []
        seen = [op for op in set(self.spec.cycle) if op.cls in self.observed]
        for shape in sorted({op.shape for op in seen}):
            ops = [op for op in seen if op.shape == shape]
            reference = answer(
                self.db.query(
                    statement(shape, max(op.k for op in ops)),
                    strategy="traditional", execution="row",
                )
            )
            violations += [
                f"{op.cls}: the answer differs from the reference"
                for op in ops
                if self.observed[op.cls] != reference[: op.k]
            ]
        digest = hashlib.sha256(
            json.dumps(self.observed, sort_keys=True).encode()
        ).hexdigest()
        return {"answers_sha": digest[:16], "violations": violations}


# ----------------------------------------------------------------------
# served
# ----------------------------------------------------------------------
KEY_A, KEY_B = 1_000, 1_000_000  # outside the join domain 0..199
CAPS = [round(0.900 + 0.005 * step, 3) for step in range(20)]
TEMPLATES = {
    shape: statement(shape, 10, " AND A.p1 <= :cap") for shape in ("S1", "S2")
}


class Script:
    """The wire messages of each op, generated from the seed: every child
    of a run walks its own ``Script`` and so sends the same requests in the
    same order."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._caps = list(CAPS)
        self._rng.shuffle(self._caps)
        self._reads = 0
        self.inserted = {"A": 0, "B": 0}
        self.deleted = {"A": 0, "B": 0}
        #: templates whose next read is the first after a commit
        self.stale: set[str] = set()
        self.user_bytes = 0
        self.commits = 0

    def _row(self, table: str) -> list:
        key = (KEY_A if table == "A" else KEY_B) + self.inserted[table]
        self.inserted[table] += 1
        rng = self._rng
        return [key, key, rng.random() < 0.4, rng.random(), rng.random()]

    def _read(self, shape: str) -> dict:
        cap = self._caps[self._reads % len(self._caps)]
        self._reads += 1
        return {"op": "query", "sql": TEMPLATES[shape], "params": {"cap": cap}}

    def _insert(self, table: str) -> dict:
        return {"op": "insert", "table": table, "rows": [self._row(table)]}

    def _delete(self, table: str) -> dict:
        """Delete the oldest live inserted row (inserted two cycles ago)."""
        key = (KEY_A if table == "A" else KEY_B) + self.deleted[table]
        self.deleted[table] += 1
        return {"op": "delete", "table": table, "column": "jc1", "equals": key}

    def seed_rows(self) -> list[dict]:
        """Two rows per written table, so that the first two cycles have a
        row 'inserted two cycles earlier' to delete and sizes stay constant."""
        return [self._insert(t) for t in ("A", "A", "B", "B")]

    def messages(self, op: Op) -> tuple[str, list[dict]]:
        """``(tag, wire messages)`` of one op."""
        if op.shape in TEMPLATES:
            first = op.shape in self.stale
            self.stale.discard(op.shape)
            return ("read_after_commit" if first else op.cls), [self._read(op.shape)]
        if op.shape == "insert":
            messages = [self._insert("A")]
        elif op.shape == "delete":
            messages = [self._delete("A")]
        else:
            messages = [
                {"op": "begin"}, self._read("S1"), self._insert("B"),
                self._delete("B"), {"op": "commit"},
            ]
        self.committed(messages)
        return op.cls, messages

    def committed(self, messages: list[dict]) -> None:
        self.stale = set(TEMPLATES)
        self.commits += 1
        for message in messages:
            if message["op"] == "insert":
                self.user_bytes += len(json.dumps(message["rows"]))
            elif message["op"] == "delete":
                self.user_bytes += len(json.dumps(message["equals"]))

    def live_keys(self, table: str) -> set[int]:
        base = KEY_A if table == "A" else KEY_B
        return {
            base + i for i in range(self.deleted[table], self.inserted[table])
        }


def dispatch(session, message: dict):
    """One data message through the public client."""
    if message["op"] == "query":
        return session.execute(message["sql"], params=message["params"])
    if message["op"] == "insert":
        return session.insert(message["table"], message["rows"])
    return session.delete(message["table"], message["column"], message["equals"])


class RawClient:
    """A second connection speaking the protocol through
    ``protocol.encode`` / ``decode`` directly, so the traced round can put
    a span around each of encode, round trip and decode."""

    def __init__(self, address):
        self._sock = socket.create_connection(address, timeout=10.0)
        self._reader = self._sock.makefile("rb")
        #: one raw 10-row result line, for the codec probes
        self.sample_line = b""
        self.call({"op": "hello"}, Spans())

    def call(self, message: dict, spans: Spans):
        with spans.span("server.encode", "server"):
            data = protocol.encode(message)
        with spans.span("server.roundtrip", "server"):
            self._sock.sendall(data)
            line = self._reader.readline()
        with spans.span("server.decode", "server"):
            response = protocol.check_response(protocol.decode(line))
        if message["op"] != "query":
            return response.get("inserted", response.get("deleted"))
        if len(response["rows"]) == 10:
            self.sample_line = line
        return RemoteResult(response)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


class Served(Workload):
    in_process = False

    def __init__(self, spec, seed, out):
        super().__init__(spec, seed, out)
        self.proc: "subprocess.Popen | None" = None
        self.directory: "Path | None" = None
        self.raw: "RawClient | None" = None

    def setup(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="tmp-serve-", dir=self.out))
        self.script = Script(self.seed)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.ledger._server",
             str(self.directory)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the server process did not start")
        self.address = ("127.0.0.1", json.loads(line)["port"])
        self.session = connect(*self.address)
        seeds = self.script.seed_rows()
        for message in seeds:
            dispatch(self.session, message)
            self.script.committed([message])

    # -- issuing -------------------------------------------------------
    def issue(self, op: Op):
        self.tag, messages = self.script.messages(op)
        if len(messages) == 1:
            return messages, [dispatch(self.session, messages[0])]
        inner = messages[1:-1]
        # begin-to-ack as one op; a serialization abort is retried
        return messages, self.session.run_transaction(
            lambda session: [dispatch(session, m) for m in inner]
        )

    def issue_traced(self, op: Op, spans: Spans):
        if self.raw is None:
            self.raw = RawClient(self.address)
        self.tag, messages = self.script.messages(op)
        values = [self.raw.call(m, spans) for m in messages]
        return messages, (values[1:-1] if len(messages) > 1 else values)

    def check(self, op: Op, outcome) -> bool:
        messages, values = outcome
        data = [m for m in messages if m["op"] not in ("begin", "commit")]
        ok = len(values) == len(data)
        for message, value in zip(data, values):
            if message["op"] == "query":
                ok &= self._check_read(message["params"]["cap"], value)
            else:
                ok &= value == 1
        return ok

    def _check_read(self, cap: float, result: RemoteResult) -> bool:
        self.count_read(result.metrics, len(result))
        position = result.columns.index("A.p1")
        return (
            len(result) <= 10
            and all(a >= b for a, b in zip(result.scores, result.scores[1:]))
            and all(row[position] <= cap for row in result.rows)
        )

    # -- the process under test is the server --------------------------
    def _usage(self) -> dict:
        """The server's own ``process_time`` and ``ru_maxrss``: finer than
        the 10 ms ticks of ``/proc/<pid>/stat``, which would quantise a
        one-second round to 1 %."""
        self.proc.stdin.write(b"usage\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def cpu_seconds(self) -> float:
        return self._usage()["cpu_seconds"]

    def peak_rss_mb(self) -> float:
        return self._usage()["peak_rss_mb"]

    def planner_counters(self) -> dict[str, int]:
        registry = self.session.stats(traces=0)["metrics"]
        return {
            "hits": registry["plan_cache.hits"],
            "misses": registry["plan_cache.misses"],
            "evictions": registry["plan_cache.evictions"],
            "invalidations": registry["planner.invalidations"],
            "plans_built": registry["planner.plans_built"],
        }

    def wal_bytes(self) -> int:
        return sum(p.stat().st_size for __, p in list_segments(self.directory))

    # -- the in-process replica ----------------------------------------
    def replica(self):
        """The served database again, in this process and without a WAL:
        what the storage, planner and wire-overhead probes run on."""
        db = build_dataset()
        for message in Script(self.seed).seed_rows():
            db.insert(message["table"], [tuple(r) for r in message["rows"]])
        return db

    # -- the end: kill, recover, compare -------------------------------
    def finish(self) -> dict:
        """Kill the server without a shutdown checkpoint, reopen its
        directory and require exactly the acknowledged, undeleted rows."""
        out: dict = {"answers_sha": "", "violations": []}
        try:
            self.session.close()
            if self.raw is not None:
                self.raw.close()
            self.proc.kill()
            self.proc.wait()
            out["wal_bytes"] = self.wal_bytes()
            records = scan_segments(self.directory, truncate=False)
            out["wal_commit_records"] = sum(r["t"] == "commit" for r in records)
            out["commits"] = self.script.commits
            out["user_bytes"] = self.script.user_bytes
            scorers = {name: (lambda v: v) for name in PREDICATE_LAYOUT}
            seconds, db = timed(load_database, self.directory, predicates=scorers)
            out["recovery_seconds"] = seconds
            for table in ("A", "B"):
                rows = list(db.catalog.table(table).rows())
                extra = {row[0] for row in rows if row[0] >= KEY_A}
                expected = self.script.live_keys(table)
                if extra != expected or len(rows) != TABLE_SIZE + len(expected):
                    out["violations"].append(
                        f"{table}: recovered {len(rows)} rows with written keys "
                        f"{sorted(extra)}, expected {sorted(expected)}"
                    )
            db.close(flush=False)
        finally:
            self.abandon()
        return out

    def abandon(self) -> None:
        """Stop the server and remove its directory (idempotent)."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            for stream in (self.proc.stdin, self.proc.stdout):
                stream.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


def make(spec: WorkloadSpec, seed: int, out: Path) -> Workload:
    kind = Served if spec.name == "serve_rw_durable" else Embedded
    return kind(spec, seed, out)
