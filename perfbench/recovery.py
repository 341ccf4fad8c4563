"""Recovery process of the benchmark: time a fresh replica catching up
with a finished run's log.

Run as ``python3 perfbench/recovery.py --wal DIR [--trace]``.  It builds
a fresh ``ReplicaEngine`` on the log and syncs it once, which brings it
to the primary's final head.  The process is fresh, so the timing does
not depend on the load generator's heap.  Prints one JSON object:
``run`` (seconds, records applied, head, state digest) and ``spans``
(recorded with ``--trace`` only).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: The replica entry points a traced recovery wraps.
REPLICA_HOOKS = [
    ("repro.store.engine", "StoreEngine.from_wal_record", "replica.restore"),
    ("repro.store.engine", "StoreEngine.apply_wal_record", "replica.apply"),
]


def recover(wal: str, recorder) -> dict:
    from launcher import state_digest
    from repro.server import ReplicaEngine

    recorder.enabled = True
    started = time.monotonic()
    try:
        replica = ReplicaEngine(wal)
        applied = replica.sync()
        seconds = time.monotonic() - started
    finally:
        recorder.enabled = False
    head = replica.head_version("main")
    out = {"seconds": seconds, "applied": applied, "head": head.vid,
           "digest": state_digest(head.state)}
    replica.close()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--wal", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from spans import SpanRecorder

    recorder = SpanRecorder()
    if args.trace:
        recorder.install(REPLICA_HOOKS)
    run = recover(args.wal, recorder)
    print(json.dumps({"run": run, "spans": recorder.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
