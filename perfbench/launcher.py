"""Server process of the benchmark: build a primary from a saved
document and serve it until told to stop.

Run as ``python3 perfbench/launcher.py --doc DOC --wal DIR --dump OUT
[--trace]``.  It builds the store only from public constructors
(``io.load``, ``WriteAheadLog``, ``StoreEngine``, ``StoreServer``),
prints ``port <n>`` once the listener is bound, and then obeys one
command per stdin line:

``mark``    start recording spans (traced runs only), answered ``ok``;
``unmark``  stop recording, answered ``ok``;
``stop``    shut the server down, write the dump and exit.

The dump is the server's side of the output checks: the final head,
a digest of its state, the full audit verdict, every version id in the
graph with its relation sizes, and (traced runs) the recorded spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Commits between automatic checkpoints on the durable primary.  A
#: replica replays at most 9 records after the newest checkpoint, at
#: about 1 ms each, so recovery time varies little with where a run
#: happened to stop (with 50, recovery of a ``mixed_contended`` run
#: varied 2x between seeds; with 20, by a third).
CHECKPOINT_EVERY = 10


def _op_tag(args, kwargs, result):
    return result[1]


def _rows_tag(args, kwargs, result):
    return "rows" in kwargs


def _frame_tag(args, kwargs, result):
    return ["rows" in args[0], len(result)]


def _record_tag(args, kwargs, result):
    return args[1].get("type")


#: The server-side layer entry points a traced run wraps:
#: (module, attribute, span name[, tag]).
SERVER_HOOKS = [
    ("repro.server.protocol", "validate_request", "server.validate",
     _op_tag),
    ("repro.server.protocol", "ok_response", "server.ok_response",
     _rows_tag),
    ("repro.server.server", "encode_frame", "server.encode", _frame_tag),
    ("repro.store.session", "Session.begin", "session.begin"),
    ("repro.store.txn", "Transaction.apply_records", "txn.apply_records"),
    ("repro.store.session", "Session.commit", "session.commit"),
    ("repro.store.engine", "StoreEngine.commit", "engine.commit"),
    ("repro.store.txn", "Transaction.net_changes", "txn.net_changes"),
    ("repro.store.engine", "validate_changes", "txn.validate"),
    ("repro.store.engine", "check_all", "axioms.check_all"),
    ("repro.core.extension", "DatabaseExtension.apply_changes",
     "extension.apply_changes"),
    ("repro.store.engine", "checkpoint_record", "engine.checkpoint_record"),
    ("repro.store.wal", "WriteAheadLog.append", "wal.append", _record_tag),
    ("repro.store.wal", "WriteAheadLog.rotate", "wal.rotate"),
    ("os", "fsync", "wal.fsync"),
]


def state_digest(state) -> str:
    """Order-independent digest of every relation of one state."""
    from repro import io

    doc = io.extension_to_dict(state)
    canon = {name: sorted(json.dumps(row, sort_keys=True) for row in rows)
             for name, rows in doc["relations"].items()}
    return hashlib.sha256(
        json.dumps(canon, sort_keys=True).encode()).hexdigest()


def build_server(doc: str, wal_dir: str):
    """The durable primary every workload serves."""
    from repro import io
    from repro.server import StoreServer
    from repro.store import StoreEngine, WriteAheadLog

    db, constraints = io.load(doc)
    Path(wal_dir).mkdir()  # a directory selects the segmented log
    wal = WriteAheadLog(wal_dir, sync=True)
    engine = StoreEngine(db, constraints, wal=wal,
                         checkpoint_every=CHECKPOINT_EVERY)
    return engine, StoreServer(engine)


def dump(engine) -> dict:
    names = sorted(e.name for e in engine.schema)
    head = engine.head_version("main")
    report = engine.audit()
    return {
        "head": head.vid,
        "digest": state_digest(head.state),
        "audit_ok": report.ok(),
        "relations": names,
        "main": [v.vid for v in engine.graph.log("main")],
        "sizes": {v.vid: [len(v.state.R(n)) for n in names]
                  for v in engine.graph.log()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--doc", required=True)
    parser.add_argument("--wal", required=True)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from spans import SpanRecorder

    recorder = SpanRecorder()
    if args.trace:
        recorder.install(SERVER_HOOKS)
    engine, server = build_server(args.doc, args.wal)
    host, port = server.start_background()
    print(f"port {port}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            recorder.enabled = command == "mark"
            print("ok", flush=True)
    finally:
        recorder.enabled = False
        server.stop()
    out = dump(engine)
    out["spans"] = recorder.spans
    engine.close()
    Path(args.dump).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
