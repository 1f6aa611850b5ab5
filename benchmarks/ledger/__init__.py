"""The perf ledger: four single-core workloads measured end to end and
layer by layer.  Run it with ``python -m benchmarks.ledger`` from the
repository root; see ``README.md`` in this directory."""
