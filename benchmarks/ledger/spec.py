"""What the ledger runs: dataset, statement shapes, the four workloads'
cycles, and the start-up guard on percentile placement.

Nothing here imports the engine, so the driver can validate a run before
it spawns a child.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent

#: the paper's §6 tables at the scale ``benchmarks/conftest.py`` uses
#: (fan-out j·s = 10 preserved).  The data seed is a constant, not
#: ``--seed``: the depth a rank-aware plan reaches depends on the drawn
#: scores, and across data seeds 1..10 the warm ``S3@k=10`` latency ranges
#: 72–156 ms — ten times the regression bound, and the benchmark contract
#: judges the ledger by the spread of runs on different seeds.  ``--seed``
#: drives the bindings, the unique literals, the written rows and the cycle
#: rotation.
TABLE_SIZE = 2000
JOIN_SELECTIVITY = 0.005
DATA_SEED = 42

#: timed work of one full-size (``--scale 1``) workload on a 2.1 GHz core.
#: The benchmark contract passes ``--seconds``; it is turned into a scale by
#: dividing by this
NOMINAL_SECONDS = 36.0
#: the highest reported percentile needs this many samples beyond it over
#: the measured rounds (the issue's 20 holds at ``--scale 1``; the contract's
#: time cap halves the run, and the metrics guide asks for ten)
MIN_TAIL_SAMPLES = 10
#: below this scale a run is a smoke run: the sample count is not enforced
SMOKE_BELOW = 0.25
#: p50/p95 must sit this many percentage points from a class boundary
BOUNDARY_MARGIN = 3.0
#: a run whose calibration loop spread exceeds this is flagged
DISTURBED_SPREAD = 0.08

SHAPES = {
    "S1": "SELECT * FROM A WHERE A.b{extra} "
          "ORDER BY f1(A.p1) + f2(A.p2) LIMIT {k}",
    "S2": "SELECT * FROM A, B WHERE A.b AND A.jc1 = B.jc1{extra} "
          "ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) LIMIT {k}",
    "S3": "SELECT * FROM A, B, C WHERE A.b AND B.b AND A.jc1 = B.jc1 "
          "AND B.jc2 = C.jc2{extra} ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) "
          "+ f4(B.p2) + f5(C.p1) LIMIT {k}",
}


def statement(shape: str, k: int, extra: str = "") -> str:
    return SHAPES[shape].format(k=k, extra=extra)


@dataclass(frozen=True)
class Op:
    """One client-visible request of a cycle."""

    shape: str  # S1 | S2 | S3 | insert | delete | txn
    k: int = 0

    @property
    def cls(self) -> str:
        return f"{self.shape}@k={self.k}" if self.k else self.shape


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: cycles in one round, at every scale: short, so that a burst of host
    #: noise spoils few rounds
    round_cycles: int
    #: measured rounds at ``--scale 1``
    rounds: int
    cycle: tuple[Op, ...]
    #: class -> latency measured on the reference host; used only to order
    #: the classes when the guard locates p50 and p95
    nominal_ms: dict[str, float]
    strategy: str = "rank-aware"

    def rounds_at(self, scale: float) -> int:
        return max(2, round(self.rounds * scale))

    @property
    def round_ops(self) -> int:
        return self.round_cycles * len(self.cycle)


def _ops(*groups: tuple[str, int, int]) -> tuple[Op, ...]:
    return tuple(Op(shape, k) for shape, k, count in groups for _ in range(count))


_Q_CYCLE = _ops(("S3", 10, 4), ("S3", 1, 2), ("S3", 100, 2), ("S2", 10, 2))
_R1, _R2 = Op("S1", 10), Op("S2", 10)
_INS, _DEL, _TXN = Op("insert"), Op("delete"), Op("txn")

WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "q_rank",
            "warm rank-aware top-k: rank-scan, mu and HRJN do almost all "
            "the work; sql/planner cost <1%, optimizer, server and WAL idle",
            1, 40,
            _Q_CYCLE,
            {"S2@k=10": 9, "S3@k=1": 46, "S3@k=10": 88, "S3@k=100": 290},
        ),
        WorkloadSpec(
            "q_sort",
            "the same statements materialised, sorted and cut: the costed "
            "row/batch/compiled regimes work, rank operators idle; control "
            "for q_rank",
            1, 60,
            _Q_CYCLE,
            {"S2@k=10": 13, "S3@k=1": 66, "S3@k=10": 67, "S3@k=100": 81},
            strategy="traditional",
        ),
        WorkloadSpec(
            "adhoc_plan",
            "every statement text is unique, so each op parses, binds, "
            "enumerates and lowers a plan and the plan cache overflows; "
            "k=1 keeps execution shallow",
            2, 40,
            _ops(("S2", 1, 5), ("S3", 1, 3), ("S1", 1, 2)),
            {"S1@k=1": 3, "S2@k=1": 12.5, "S3@k=1": 110},
        ),
        WorkloadSpec(
            "serve_rw_durable",
            "one TCP client against a WAL-durable server: socket, protocol, "
            "session, planner, executor, commit, fsync; writes beside reads "
            "invalidate cached plans",
            6, 40,
            # 13 S1, 4 S2 and three commits spread so that each commit is
            # followed by a read of both templates (6 of 18 prepares miss)
            (_R1, _R1, _R1, _R2, _R1, _INS, _R1, _R1, _R2, _R1,
             _R1, _DEL, _R1, _R1, _R2, _R1, _TXN, _R1, _R1, _R2),
            {"insert": 2.0, "delete": 2.0, "S1@k=10": 3.3, "txn": 11,
             "S2@k=10": 20},
        ),
    )
}


# ----------------------------------------------------------------------
# statistics shared by driver and child
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a sample."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    if position == low or ordered[low] == math.inf:
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * (position - low)


median = statistics.median


# ----------------------------------------------------------------------
# start-up guard
# ----------------------------------------------------------------------
def placement(spec: WorkloadSpec) -> dict[str, tuple[str, float]]:
    """Where p50 and p95 fall in the class mix, from the cycle alone:
    ``{"p50": (class, distance to the nearest inner boundary in points)}``."""
    counts: dict[str, int] = {}
    for op in spec.cycle:
        counts[op.cls] = counts.get(op.cls, 0) + 1
    edges = []  # (class, low %, high %) in ascending nominal latency
    low = 0.0
    for cls in sorted(counts, key=lambda c: spec.nominal_ms[c]):
        high = low + 100.0 * counts[cls] / len(spec.cycle)
        edges.append((cls, low, high))
        low = high
    out = {}
    for label, q in (("p50", 50.0), ("p95", 95.0)):
        for cls, low, high in edges:
            if low <= q <= high:
                inner = [e for e in (low, high) if 0.0 < e < 100.0]
                distance = min((abs(q - e) for e in inner), default=100.0)
                out[label] = (cls, distance)
                break
    return out


def guard(spec: WorkloadSpec, scale: float) -> tuple[list[str], list[str]]:
    """``(reasons this workload must not run at this scale, notes)``."""
    problems, notes = [], []
    for label, (cls, distance) in placement(spec).items():
        if distance < BOUNDARY_MARGIN:
            problems.append(
                f"{spec.name}: {label} sits {distance:.1f} points from a "
                f"class boundary (in {cls}); need >= {BOUNDARY_MARGIN}"
            )
    ops = spec.rounds_at(scale) * spec.round_ops
    tail = math.floor(ops * 0.05)
    if tail < MIN_TAIL_SAMPLES:
        (notes if scale < SMOKE_BELOW else problems).append(
            f"{spec.name}: {tail} samples beyond p95 in {ops} ops; "
            f"need >= {MIN_TAIL_SAMPLES}"
        )
    return problems, notes


def declared() -> dict:
    """``BENCHMARK.json`` — the one place metric names and units live."""
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)
