"""One workload in one fresh process.

``python -m benchmarks.ledger._child <workload> <seed> <scale> <mode>
<out> <spawned>`` — started by the driver (which has pinned itself, and so
this process, to one CPU), never by hand.  Modes:

* ``e2e``    set-up, warm-up, every measured round of the run;
* ``setup``  set-up and warm-up only (one more sample of ``setup_s``);
* ``trace``  set-up, warm-up, half the rounds untraced (for the counts and
  the untraced baseline), a fifth of them traced, the layer probes;
* ``plain``  set-up, warm-up, a quarter of the rounds — the driver starts
  it with ``REPRO_TRACE=0`` to price the engine's own tracer.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

from . import probes
from .spans import Spans
from .spec import DISTURBED_SPREAD, WORKLOADS, percentile
from .workloads import make

#: share of the run's rounds a mode runs (untraced, traced)
ROUND_SHARES = {
    "e2e": (1.0, 0.0), "setup": (0.0, 0.0), "trace": (0.5, 0.2),
    "plain": (0.25, 0.0),
}
CALIBRATION_ITERATIONS = 60_000


def calibrate() -> tuple[float, float]:
    """A fixed pure-Python loop: ``(wall seconds, cpu seconds)``."""
    cpu, wall = time.process_time(), time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - wall, time.process_time() - cpu


def run_round(workload, cycles: int, calibration: list, spans=None) -> dict:
    """One round: ``cycles`` passes over the cycle, each op timed alone."""
    gc.collect()
    workload.work = Counter()
    latencies, tags, failed = [], [], 0
    calibration_cpu = 0.0
    cpu = workload.cpu_seconds()
    for __ in range(cycles):
        wall, used = calibrate()
        calibration.append(wall)
        calibration_cpu += used
        for op in workload.cycle():
            start = time.perf_counter()
            try:
                if spans is None:
                    outcome = workload.issue(op)
                else:
                    with spans.op(op.cls):
                        outcome = workload.issue_traced(op, spans)
            except Exception as error:  # a failed op, not a failed run
                outcome = error
            elapsed = time.perf_counter() - start
            if isinstance(outcome, Exception):
                ok = False
                print(f"op failed: {op.cls}: {outcome!r}", file=sys.stderr)
            else:
                if spans is not None:
                    workload.after_traced(spans)
                ok = workload.check(op, outcome)
            failed += not ok
            # a failed op is slower than every percentile
            latencies.append(elapsed if ok else float("inf"))
            tags.append(workload.tag)
    cpu = workload.cpu_seconds() - cpu
    if workload.in_process:
        cpu -= calibration_cpu
    finite = [v for v in latencies if v != float("inf")]
    return {
        "ops": len(latencies),
        "failed": failed,
        "op_seconds": sum(finite),
        "throughput_ops_s": len(finite) / sum(finite) if finite else 0.0,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "cpu_ms_per_op": cpu * 1e3 / len(latencies),
        "work": dict(workload.work),
        "classes": list(zip(tags, latencies)),
    }


def measure(workload, run_rounds: int, mode: str, out: Path, spawned: float) -> dict:
    workload.warm_up()
    report: dict = {"setup_s": time.time() - spawned}
    calibration: list[float] = []
    cycles = workload.spec.round_cycles
    plain, traced = (
        math.ceil(run_rounds * share) for share in ROUND_SHARES[mode]
    )
    before = workload.planner_counters()
    rounds = [run_round(workload, cycles, calibration) for __ in range(plain)]
    untraced = workload.planner_counters()
    measured = list(rounds)
    layers = probes.Metrics()
    if mode == "trace":
        spans = Spans()
        measured += [
            run_round(workload, cycles, calibration, spans) for __ in range(traced)
        ]
        # A traced round looks up and fills the plan cache exactly as an
        # untraced one does, so the cache counts run over both kinds
        # (adhoc_plan needs them all to overflow the cache); its probes plan
        # statements again, so the planner's own counts stop before them.
        cache = workload.planner_counters()
        layers = probes.layer_metrics(workload, spans, measured[plain:], rounds, out)
        layers.update({
            "planner.cache_hit_rate":
                (cache["hits"] - before["hits"])
                / (cache["hits"] - before["hits"] + cache["misses"] - before["misses"]),
            "planner.cache_evictions": cache["evictions"] - before["evictions"],
            "planner.invalidations":
                untraced["invalidations"] - before["invalidations"],
            "planner.plans_built": untraced["plans_built"] - before["plans_built"],
        })
    report["peak_rss_mb"] = workload.peak_rss_mb()
    report.update(workload.finish())
    if mode == "trace" and "recovery_seconds" in report:
        layers.update(probes.durability_metrics(report))
    if calibration:
        p50 = percentile(calibration, 50)
        spread = (percentile(calibration, 90) - percentile(calibration, 10)) / p50
        layers.timing("host.calib_ms_p50", calibration, 1e3)
        layers["host.calib_spread"] = spread
        report["disturbed"] = spread > DISTURBED_SPREAD
    report["attempted"] = sum(r["ops"] for r in measured)
    report["failed"] = sum(r["failed"] for r in measured)
    for r in measured:
        del r["classes"]  # per-op samples: only the probes needed them
    report.update(rounds=rounds, layers=layers, layer_n=layers.n)
    return report


def main() -> None:
    name, seed, scale, mode, out, spawned = sys.argv[1:7]
    spec = WORKLOADS[name]
    workload = make(spec, int(seed), Path(out))
    try:
        workload.setup()
        report = measure(
            workload, spec.rounds_at(float(scale)), mode, Path(out), float(spawned)
        )
    except BaseException:
        workload.abandon()
        raise
    report.update(workload=name, mode=mode)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
