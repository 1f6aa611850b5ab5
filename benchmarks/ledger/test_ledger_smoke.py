"""Schema and smoke test of the perf ledger.

The schema test holds ``BENCHMARK.json`` to the limits its reader
enforces.  The smoke test runs the driver at ``--scale 0.05``: the
end-to-end run on an embedded workload (``q_sort``) and the traced run on
the served one (``serve_rw_durable``), side by side on two CPUs where the
machine has them, and checks that each prints exactly the declared names
with the declared units, fails no op and leaves nothing behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    # the issue's cap: a workload that cannot hold it is changed, not the bound
    assert bounds["throughput_ops_s"] <= 0.10 and bounds["latency_p50_ms"] <= 0.10
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _start(workload: str, trace: int, out: Path, cpu: "int | None"):
    pin = None
    if cpu is not None:
        def pin():
            os.sched_setaffinity(0, {cpu})
    return subprocess.Popen(
        [sys.executable, "-m", "benchmarks.ledger", "--workload", workload,
         "--scale", "0.05", "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=pin,
    )


def _servers_under(out: Path) -> list[str]:
    """Command lines of live ledger servers whose directory is in ``out``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes().decode(errors="replace")
            except OSError:
                continue
            if "benchmarks.ledger._server" in command and str(out) in command:
                found.append(command)
    return found


def test_driver_smoke(tmp_path):
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    first, second = (cpus[-1], cpus[-2]) if len(cpus) > 1 else (None, None)
    runs = {
        ("q_sort", "end_to_end"): _start("q_sort", 0, tmp_path / "a", first),
        ("serve_rw_durable", "per_layer"):
            _start("serve_rw_durable", 1, tmp_path / "b", second),
    }
    for (workload, key), process in runs.items():
        stdout, stderr = process.communicate(timeout=170)
        assert process.returncode == 0, stderr
        result = json.loads(stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {
            name: entry["unit"] for name, entry in result["metrics"].items()
        } == declared
        for name in declared:  # every name is printed, with its unit
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {declared[name]}\b",
                             stdout, re.MULTILINE), name
    if os.path.isdir("/proc"):
        assert _servers_under(tmp_path) == []
    assert list(tmp_path.glob("*/tmp-*")) == []
    assert (tmp_path / "b" / "serve_rw_durable.trace.json").exists()
