"""The served database of ``serve_rw_durable``: its own process.

Builds the dataset, attaches WAL durability (``fsync="commit"``) in the
given directory, serves it on an ephemeral port with two workers and prints
``{"port": …}``.  Each line it then reads on stdin is answered with its own
``{"cpu_seconds": …, "peak_rss_mb": …}`` — the client asks at round
boundaries, outside every op timer.  It exits on its own, without a
checkpoint, when its stdin closes — so it cannot outlive a dead parent.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from .workloads import build_dataset


def main() -> None:
    directory = sys.argv[1]
    db = build_dataset()
    db.attach_durability(directory, mode="wal", fsync="commit")
    server = db.serve(port=0, workers=2)
    print(json.dumps({"port": server.address[1]}), flush=True)
    for __ in sys.stdin:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(json.dumps({
            # user + system CPU of every thread of this process
            "cpu_seconds": time.process_time(),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }), flush=True)
    os._exit(0)


if __name__ == "__main__":
    main()
