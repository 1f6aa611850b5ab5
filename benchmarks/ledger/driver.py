"""The ledger's driver: validates the run, starts one pinned child per
measurement, picks the quietest round and prints every metric by name.

    python -m benchmarks.ledger [--workload W] [--seed N] [--trace 0|1]
                                [--seconds S | --scale X] [--out DIR]
                                [--check-repeat N]

Without ``--workload`` all four run; without ``--trace`` both the
end-to-end run (``--trace 0``) and the traced run (``--trace 1``) are made;
``--seconds`` and ``--trace`` are how the benchmark contract calls it.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .spec import (
    LEDGER_DIR,
    NOMINAL_SECONDS,
    REPO_ROOT,
    WORKLOADS,
    declared,
    guard,
    median,
    placement,
)

#: children whose set-up is timed per end-to-end run (``setup_s`` = their
#: median: the contract asks for several set-ups in a run)
SETUP_SAMPLES = 3
#: per-layer metrics that are counts of work: they repeat exactly
COUNT_METRICS = (
    "planner.cache_hit_rate", "planner.cache_evictions",
    "planner.invalidations", "planner.plans_built",
    "optimizer.plans_generated", "execution.tuples_scanned_per_op",
    "execution.predicate_evals_per_op", "execution.join_pairs_per_op",
    "execution.simulated_cost_per_op", "execution.tuples_scanned_per_result",
    "execution.compiled_segments", "execution.batch_segments",
    "storage.wal_bytes_per_commit", "storage.wal_fsyncs_per_commit",
    "storage.wal_bytes_per_user_byte",
)


def pin() -> None:
    """Run this process, and so every child and the server grandchild, on
    the highest-numbered allowed CPU."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as error:
        print(f"note: not pinned to one CPU ({error})")


def spawn(name: str, seed: int, scale: float, mode: str, out: Path, **env) -> dict:
    """Run one child to completion and return the report it printed."""
    source = str(REPO_ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")
    environment = dict(
        os.environ, PYTHONHASHSEED="0",
        PYTHONPATH=source + (os.pathsep + inherited if inherited else ""),
        **env,
    )
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger._child", name, str(seed),
         repr(scale), mode, str(out), repr(time.time())],
        cwd=REPO_ROOT, env=environment, stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{name}: the {mode} child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


class Outcome:
    """Metric values of one workload, with what the contract needs."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.n: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.disturbed = False
        self.answers_sha = ""

    def absorb(self, report: dict) -> None:
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.violations += report["violations"]
        self.disturbed |= report.get("disturbed", False)
        self.answers_sha = report["answers_sha"]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.violations


def op_time(r: dict) -> float:
    """Mean time of a round's successful ops."""
    return r["op_seconds"] / max(1, r["ops"] - r["failed"])


def measure_end_to_end(name, seed, scale, out: Path, outcome: Outcome, spec: dict):
    """Every measured round in one child.  The four timings are those of
    one round, the quietest (least time per op): host noise only ever adds
    time, in bursts shorter than a run, and a median of rounds carries it
    into the ledger (see README, 'Bounds from measurement').  Two more
    children only set up, for ``setup_s``."""
    report = spawn(name, seed, scale, "e2e", out)
    outcome.absorb(report)
    rounds = report["rounds"]
    quietest = min(rounds, key=op_time)
    for metric in spec["end_to_end"]:
        if metric["name"] in quietest:
            outcome.values[metric["name"]] = quietest[metric["name"]]
            outcome.n[metric["name"]] = (
                f"{quietest['ops']} (quietest of {len(rounds)} rounds)"
            )
    setups = [report["setup_s"]] + [
        spawn(name, seed, scale, "setup", out)["setup_s"]
        for __ in range(SETUP_SAMPLES - 1)
    ]
    outcome.values["setup_s"] = median(setups)
    outcome.n["setup_s"] = str(len(setups))
    outcome.values["peak_rss_mb"] = report["peak_rss_mb"]
    outcome.n["peak_rss_mb"] = "1"


def measure_layers(name: str, seed: int, scale: float, out: Path, outcome: Outcome):
    """One traced child for the per-layer numbers, and one child with the
    engine's tracer off to price it."""
    report = spawn(name, seed, scale, "trace", out)
    outcome.absorb(report)
    outcome.values.update(report["layers"])
    outcome.n.update({k: str(v) for k, v in report["layer_n"].items()})
    plain = spawn(name, seed, scale, "plain", out, REPRO_TRACE="0")
    outcome.failed += plain["failed"]
    on = min(map(op_time, report["rounds"]))
    off = min(map(op_time, plain["rounds"]))
    outcome.values["observe.engine_tracer_share"] = (on - off) / on


def run_workload(name, seed, scale, out, traces, spec) -> Outcome:
    outcome = Outcome()
    if 0 in traces:
        measure_end_to_end(name, seed, scale, out, outcome, spec)
    if 1 in traces:
        measure_layers(name, seed, scale, out, outcome)
    return outcome


def emitted(outcome: Outcome, traces, spec: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every declared metric of the
    modes that ran; a name the run did not produce is an error."""
    wanted = (spec["end_to_end"] if 0 in traces else []) + (
        spec["per_layer"] if 1 in traces else []
    )
    out = {}
    for metric in wanted:
        value = outcome.values[metric["name"]]
        # a percentile that landed on a failed op is infinite
        out[metric["name"]] = {
            "value": value if math.isfinite(value) else 1e12,
            "unit": metric["unit"],
        }
    return out


def show(name: str, outcome: Outcome, metrics: dict) -> None:
    print(f"== {name}  ({WORKLOADS[name].why})")
    for metric, entry in metrics.items():
        n = outcome.n.get(metric)
        print(
            f"  {metric:42s} {entry['value']:>14.4f} {entry['unit']:<8s}"
            + (f" n={n}" if n else "")
        )
    print(
        f"  ops attempted {outcome.attempted}, failed {outcome.failed}"
        + (f", answers_sha {outcome.answers_sha}" if outcome.answers_sha else "")
        + (", DISTURBED (calibration spread > 8%)" if outcome.disturbed else "")
    )
    for violation in outcome.violations:
        print(f"  VIOLATION: {violation}")


def validate(names, scale: float) -> None:
    """The start-up guard: refuse a run whose percentiles would not mean
    what the ledger says they mean."""
    fatal = []
    for name in names:
        spec = WORKLOADS[name]
        where = placement(spec)
        print(
            f"{name}: {spec.rounds_at(scale)} rounds x {spec.round_cycles} "
            f"cycles x {len(spec.cycle)} ops; "
            + ", ".join(f"{p} in {cls} ({d:.0f} pts from a boundary)"
                        for p, (cls, d) in where.items())
        )
        problems, notes = guard(spec, scale)
        fatal += problems
        for note in notes:
            print(f"note (smoke size): {note}")
    if fatal:
        raise SystemExit("refusing to run:\n  " + "\n  ".join(fatal))


def prepare_out(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    ignore = out / ".gitignore"
    if not ignore.exists():
        ignore.write_text("*\n")
    return out.resolve()


# ----------------------------------------------------------------------
# --check-repeat
# ----------------------------------------------------------------------
def check_repeat(runs: int, names, seed: int, scale: float, out: Path, spec) -> int:
    """Two alternating sets of ``runs`` full runs of the working tree:
    do the sets agree within the bounds, and do the counts repeat?"""
    sets: tuple[list, list] = ([], [])
    disturbed, incorrect = [], []
    for i in range(runs):
        for which in ((0, 1) if i % 2 == 0 else (1, 0)):
            results = {
                n: run_workload(n, seed, scale, out, (0, 1), spec) for n in names
            }
            sets[which].append(results)
            for n, outcome in results.items():
                if outcome.disturbed:
                    disturbed.append(f"set {'AB'[which]} run {i + 1} {n}")
                if not outcome.correct:
                    incorrect.append(f"set {'AB'[which]} run {i + 1} {n}")
            print(f"  finished set {'AB'[which]} run {i + 1}", file=sys.stderr)
    bad = len(incorrect)
    print(f"{'workload':18s}{'metric':20s}{'median A':>12s}{'q1..q3 A':>22s}"
          f"{'median B':>12s}{'q1..q3 B':>22s}{'diff':>8s}{'bound':>7s}")
    for name in names:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a, b = ([run[name].values[key] for run in s] for s in sets)
            qa, qb = (statistics.quantiles(v, n=4) for v in (a, b))
            diff = abs(median(b) - median(a)) / median(a)
            over = diff > metric["bound"]
            bad += over
            print(
                f"{name:18s}{key:20s}{median(a):12.4f}"
                f"{qa[0]:11.4f}..{qa[2]:<9.4f}{median(b):12.4f}"
                f"{qb[0]:11.4f}..{qb[2]:<9.4f}{diff:8.2%}{metric['bound']:7.0%}"
                + ("  OVER" if over else "")
            )
        for key in COUNT_METRICS:
            seen = {run[name].values[key] for s in sets for run in s}
            if len(seen) != 1:
                bad += 1
                print(f"{name:18s}{key}: count differs between runs: {sorted(seen)}")
    print("disturbed runs: " + (", ".join(disturbed) or "none"))
    print("runs with failed ops or violations: " + (", ".join(incorrect) or "none"))
    print("check-repeat: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--seconds", type=float,
                      help=f"timed work per run ({NOMINAL_SECONDS:.0f} = full size)")
    size.add_argument("--scale", type=float,
                      help="uniform op-count multiplier (0.05 = smoke)")
    parser.add_argument("--out", type=Path, default=LEDGER_DIR / "out")
    parser.add_argument("--check-repeat", type=int, nargs="?", const=5)
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro").is_dir():
        raise SystemExit("no src/repro next to the benchmark: nothing to measure")
    spec = declared()
    scale = args.scale if args.scale is not None else (
        (args.seconds or spec["run_seconds"]) / NOMINAL_SECONDS
    )
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = (0, 1) if args.trace is None else (args.trace,)
    validate(names, scale)
    pin()
    out = prepare_out(args.out)
    if args.check_repeat:
        return check_repeat(args.check_repeat, names, args.seed, scale, out, spec)

    outcomes = {
        n: run_workload(n, args.seed, scale, out, traces, spec) for n in names
    }
    metrics = {n: emitted(o, traces, spec) for n, o in outcomes.items()}
    for name, outcome in outcomes.items():
        show(name, outcome, metrics[name])
    correct = all(o.correct for o in outcomes.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": metrics[args.workload] if args.workload else metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
