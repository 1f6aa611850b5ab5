"""Per-layer metrics: each layer measured from outside, by timing calls
into its public functions, after the traced round.

Everything here runs in the workload child once the measured rounds are
over, so it cannot disturb an end-to-end number.  Metric names are the
ledger's vocabulary (``BENCHMARK.json`` ``per_layer``); a metric of a
layer that does nothing on a workload is reported as 0.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.optimizer.plans import BatchSegmentPlan
from repro.server import protocol
from repro.storage.wal import WriteAheadLog

from .spans import Spans
from .spec import declared, median, statement
from .workloads import (
    CAPS,
    KEY_A,
    TEMPLATES,
    optimizer_seconds,
    probe_read,
    timed,
    traced_read,
)

#: layers with a ``*.share``: the client's spans cannot see below the server,
#: so ``storage`` has probes but no share until spans land inside the engine
LAYERS = ("sql", "planner", "optimizer", "execution", "server")
#: layers that only the served workload exercises
SERVED_ONLY = ("storage.", "server.", "engine.checkpoint_ms", "engine.recovery_ms")


class Metrics(dict):
    """Metric name -> value, plus the sample count behind each timing."""

    def __init__(self, *args):
        super().__init__(*args)
        self.n: dict[str, int] = {}

    def timing(self, name: str, seconds: list[float], scale: float) -> None:
        """The median of ``seconds`` in the metric's unit (0 when the
        layer was never entered)."""
        self[name] = median(seconds) * scale if seconds else 0.0
        self.n[name] = len(seconds)


def layer_metrics(workload, spans: Spans, traced, rounds, out: Path) -> dict:
    """``traced`` and ``rounds`` are the traced and the untraced rounds."""
    served = not workload.in_process
    m = Metrics(
        (name, 0.0) for name in _declared_names() if name.startswith(SERVED_ONLY)
    )
    replica_spans = Spans()
    if served:
        # What happens inside a round trip cannot be seen from outside: the
        # layers below the server are probed on an in-process replica.
        db = workload.replica()
        scanned = _replica_probes(m, db, replica_spans)
        source = replica_spans
    else:
        db, source = workload.db, spans
        scanned = sum(r["work"]["tuples_scanned"] for r in traced)

    for stage in ("tokenize", "parse", "bind"):
        m.timing(f"sql.{stage}_us", source.durations(f"sql.{stage}"), 1e6)
    m.timing("planner.prepare_hit_us", source.durations("planner.prepare_hit"), 1e6)
    m.timing("planner.prepare_miss_ms", source.durations("planner.prepare_miss"), 1e3)
    _optimizer(m, workload, db, source)
    m.update(_shares(spans))
    _execution(m, workload, db, source, rounds, scanned)
    embedded_read_ms = _query_overhead(m, workload, db)
    per_op = sorted(r["op_seconds"] / r["ops"] for r in rounds)
    # what reporting the quietest round leaves out: how much slower the
    # median round was (host noise, or work that not every round does)
    m["host.round_spread"] = (median(per_op) - per_op[0]) / per_op[0]
    m["observe.bench_trace_overhead_share"] = (
        min(r["op_seconds"] / r["ops"] for r in traced) - per_op[0]
    ) / per_op[0]
    if served:
        _durable_storage(m, db, out)
        _server(m, workload, rounds, embedded_read_ms)
    spans.dump(
        out / f"{workload.spec.name}.trace.json",
        workload=workload.spec.name, seed=workload.seed,
        replica_spans=replica_spans.to_dicts(),
    )
    return m


def durability_metrics(report: dict) -> dict:
    """What the kill-and-recover step of the served workload measured."""
    commits = report["commits"]
    return {
        "engine.recovery_ms": report["recovery_seconds"] * 1e3,
        "storage.wal_bytes_per_commit": report["wal_bytes"] / commits,
        "storage.wal_fsyncs_per_commit": report["wal_commit_records"] / commits,
        "storage.wal_bytes_per_user_byte": report["wal_bytes"] / report["user_bytes"],
    }


def _declared_names() -> list[str]:
    return [metric["name"] for metric in declared()["per_layer"]]


def _shares(spans: Spans) -> dict:
    own = spans.layer_self_seconds()
    total = spans.op_seconds()
    shares = {f"{layer}.share": own.get(layer, 0.0) / total for layer in LAYERS}
    shares["observe.trace_coverage"] = 1.0 - own.get("bench", 0.0) / total
    return shares


def _template_reads(workload) -> list[tuple[str, dict | None]]:
    """``(sql, params)`` of each distinct statement of the cycle."""
    if not workload.in_process:
        return [(sql, {"cap": 0.95}) for sql in TEMPLATES.values()]
    ops = sorted(set(workload.spec.cycle), key=lambda o: o.cls)
    return [(statement(op.shape, op.k), None) for op in ops]


def _optimizer(m: Metrics, workload, db, source: Spans) -> None:
    optimize = source.durations("optimizer.optimize")
    compile_ = source.durations("optimizer.compile")
    strategy = workload.spec.strategy
    if not optimize:
        # no op missed the cache in the traced round: plan each template
        # once more, uncached, so the layer still has a number
        for sql, params in _template_reads(workload):
            bound, __ = timed(db.bind, sql)
            spent = optimizer_seconds(db, sql, strategy, params, bound)
            optimize.append(spent[0])
            compile_.append(spent[1])
    explorer = db.optimizer(db.bind(statement("S3", 1)))
    explorer.optimize()
    m.timing("optimizer.optimize_ms", optimize, 1e3)
    m.timing("optimizer.compile_ms", compile_, 1e3)
    m["optimizer.plans_generated"] = explorer.plans_generated


def _execution(m: Metrics, workload, db, source: Spans, rounds, scanned) -> None:
    """``scanned`` is the tuples the reads under ``source``'s
    ``execution.execute`` spans scanned between them."""
    work = {
        key: sum(r["work"][key] for r in rounds) for key in rounds[0]["work"]
    }
    reads = work["reads"]
    executes = source.durations("execution.execute")
    compiled = lowered = 0
    for sql, params in _template_reads(workload):
        entry, __ = db.planner.prepare(
            sql, strategy=workload.spec.strategy, params=params
        )
        compiled += entry.compiled_segments
        lowered += sum(
            isinstance(node, BatchSegmentPlan) for node in entry.executable.walk()
        )
    m.timing("execution.execute_ms", executes, 1e3)
    m.update({
        "execution.tuples_scanned_per_op": work["tuples_scanned"] / reads,
        "execution.predicate_evals_per_op": work["predicate_evaluations"] / reads,
        "execution.join_pairs_per_op": work["join_pairs_examined"] / reads,
        "execution.simulated_cost_per_op": work["simulated_cost"] / reads,
        "execution.tuples_scanned_per_result": work["tuples_scanned"] / work["results"],
        "execution.ns_per_tuple_scanned": sum(executes) / scanned * 1e9,
        "execution.compiled_segments": compiled,
        "execution.batch_segments": lowered - compiled,
    })


def _query_overhead(m: Metrics, workload, db, pairs: int = 100) -> float:
    """``Database.query`` against its two steps called directly, on the
    cheapest statement so that the difference is not lost in the noise.
    Returns the ``Database.query`` p50 in ms."""
    strategy = workload.spec.strategy
    served = not workload.in_process
    sql = TEMPLATES["S1"] if served else statement("S1", 10)
    whole, extra = [], []
    for i in range(pairs):
        params = {"cap": CAPS[i % len(CAPS)]} if served else None
        whole.append(timed(db.query, sql, params=params, strategy=strategy)[0])
        prepare, (entry, hit) = timed(
            db.planner.prepare, sql, strategy=strategy, params=params
        )
        execute, __ = timed(
            db.execute, entry.executable, entry.scoring, k=entry.k,
            evaluators=entry.evaluators, plan_cached=hit, entry=entry,
        )
        extra.append(whole[-1] - prepare - execute)
    m.timing("engine.query_overhead_us", extra, 1e6)
    return median(whole) * 1e3


def _replica_probes(m: Metrics, db, spans: Spans, passes: int = 8) -> int:
    """What a served cycle does to the storage and the planner, called
    directly on the replica: publish a row of A, read both templates (a
    plan-cache miss each, as after a served commit) and again (hits, in
    the cycle's three S1 to one S2), delete the row, rebuild the columnar
    view.  Returns the tuples the reads scanned."""
    table = db.catalog.table("A")
    inserts, deletes, rebuilds = [], [], []
    scanned = reads = 0
    for i in range(passes):
        key = KEY_A * 10 + i
        inserts.append(timed(db.insert, "A", [(key, key, False, 0.5, 0.5)])[0])
        for shape in ("S1", "S2", "S1", "S1", "S1", "S2"):
            params = {"cap": CAPS[reads % len(CAPS)]}
            with spans.op(shape):
                result, pending = traced_read(
                    db, spans, TEMPLATES[shape], "rank-aware", params
                )
            probe_read(db, spans, pending)
            scanned += result.metrics.summary()["tuples_scanned"]
            reads += 1
        deletes.append(timed(db.delete_where, "A", column="jc1", equals=key)[0])
        rebuilds.append(timed(table.columns)[0])
    m.timing("storage.insert_publish_us", inserts, 1e6)
    m.timing("storage.delete_publish_us", deletes, 1e6)
    m.timing("storage.columns_rebuild_us", rebuilds, 1e6)
    m.timing("storage.snapshot_us", [timed(db.snapshot)[0] for __ in range(200)], 1e6)
    return scanned


def _durable_storage(m: Metrics, db, out: Path) -> None:
    """The WAL on a scratch log, then the replica made durable."""
    scratch = Path(tempfile.mkdtemp(prefix="tmp-probe-", dir=out))
    try:
        record = {
            "t": "insert", "txn": 1, "table": "A",
            "rows": [[2000, [KEY_A, KEY_A, False, 0.5, 0.5]]],
        }
        with WriteAheadLog(scratch / "wal") as log:
            appends = [timed(log.append, record)[0] for __ in range(50)]
            synced = [timed(log.append, record, sync=True)[0] for __ in range(20)]
        m.timing("storage.wal_append_us", appends, 1e6)
        m.timing("storage.wal_fsync_us", synced, 1e6)
        m["storage.wal_fsync_us"] -= m["storage.wal_append_us"]
        db.attach_durability(scratch / "db", mode="wal", fsync="commit")
        commits = []
        for i in range(10):
            key = KEY_A * 20 + i
            commits.append(timed(db.insert, "A", [(key, key, False, 0.5, 0.5)])[0])
        m.timing("storage.commit_ms", commits, 1e3)
        m.timing(
            "engine.checkpoint_ms",
            [timed(db.checkpoint)[0] for __ in range(3)], 1e3,
        )
        db.close(flush=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _server(m: Metrics, workload, rounds, embedded_read_ms: float) -> None:
    by_tag: dict[str, list[float]] = {}
    for r in rounds:
        for tag, seconds in r["classes"]:
            by_tag.setdefault(tag, []).append(seconds)
    line = workload.raw.sample_line
    payload = protocol.decode(line)
    m.timing(
        "server.encode_us",
        [timed(protocol.encode, payload)[0] for __ in range(200)], 1e6,
    )
    m.timing(
        "server.decode_us",
        [timed(protocol.decode, line)[0] for __ in range(200)], 1e6,
    )
    m.timing(
        "server.roundtrip_floor_us",
        [timed(workload.session.metrics)[0] for __ in range(50)], 1e6,
    )
    m.timing("server.read_ms_p50", by_tag["S1@k=10"] + by_tag["S2@k=10"], 1e3)
    for tag in ("read_after_commit", "insert", "delete", "txn"):
        m.timing(f"server.{tag}_ms_p50", by_tag[tag], 1e3)
    m.timing("server.wire_overhead_ms", by_tag["S1@k=10"], 1e3)
    m["server.wire_overhead_ms"] -= embedded_read_ms
    busy = sum(r["cpu_ms_per_op"] * r["ops"] for r in rounds) / 1e3
    m["server.cpu_share"] = busy / sum(r["op_seconds"] for r in rounds)
