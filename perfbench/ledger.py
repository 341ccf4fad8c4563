"""Per-layer metrics of a traced run, and the request ledger.

The ledger splits the mean end-to-end latency of one operation into
parts that add up to it exactly:

* client side, from the load generator's spans: request encode,
  response decode, and the time an operation spends in the client
  outside its requests;
* server side, from the launcher's spans: request validation, read
  handling plus its response encode, the ``begin``/``stage`` handlers,
  ``Session.commit``, and every other response encode;
* ``server.unattributed``: what the client waited for its replies
  minus every server-side span above — frame decode, dispatch, commit
  slot wait, the executor hop, the response write and the socket.

Every server span lies inside the client wait of the request that
caused it, so the residual is never negative.
"""

from __future__ import annotations

from collections import defaultdict

# Span tuple fields, as written by spans.SpanRecorder.
ID, PARENT, NAME, START, END, THREAD, TAG = range(7)

#: Ledger parts in report order; their sum is ``ledger.e2e_us_per_op``.
LEDGER_PARTS = (
    "client_encode", "client_decode", "client_other", "server_validate",
    "server_read_encode", "server_begin_stage", "session_commit",
    "server_response_encode", "server_unattributed",
)

#: Per-layer metrics a traced run reports, with their units.
LAYER_METRICS = {
    "client.round_trips_per_commit": "count",
    "client.wait_us_per_op": "us",
    "client.encode_us_per_op": "us",
    "client.decode_us_per_op": "us",
    "io.request_bytes_per_op": "count",
    "io.response_bytes_per_op": "count",
    "server.unattributed_us_per_op": "us",
    "server.read_encode_us_per_read": "us",
    "session.commit_us_per_commit": "us",
    "session.retries_per_commit": "count",
    "engine.commit_us_per_commit": "us",
    "engine.self_us_per_commit": "us",
    "engine.conflicts_per_commit": "count",
    "engine.noops_per_commit": "count",
    "engine.checkpoint_us_per_commit": "us",
    "txn.net_changes_us_per_commit": "us",
    "txn.validate_us_per_commit": "us",
    "axioms.check_all_us_per_commit": "us",
    "extension.apply_changes_us_per_commit": "us",
    "kernel.sweeps_per_commit": "count",
    "kernel.sweeps": "count",
    "wal.append_us_per_commit": "us",
    "wal.fsync_us_per_commit": "us",
    "wal.fsyncs_per_commit": "count",
    "wal.commit_fsync_hist_us_per_commit": "us",
    "replica.checkpoint_restore_s": "s",
    "replica.records_applied": "count",
    "replica.apply_us_per_record": "us",
    "version_graph.versions_retained": "count",
    "trace.overhead_p50_pct": "%",
    "trace.overhead_mean_pct": "%",
    "ledger.e2e_us_per_op": "us",
    **{f"ledger.{part}_us_per_op": "us" for part in LEDGER_PARTS},
}

#: Counts that do not depend on timing, per workload: two runs of one
#: seed report them identically (the smoke test holds the benchmark to
#: it).  On ``mixed_contended`` only the round trips qualify: which
#: commits turn out to be no-ops, and so the fsyncs, sweeps and the rows
#: a ``replace`` sends, depend on how the two clients interleave.
DETERMINISTIC_COUNTS = {
    "read_head": ("io.request_bytes_per_op", "io.response_bytes_per_op",
                  "client.round_trips_per_commit", "wal.fsyncs_per_commit",
                  "kernel.sweeps"),
    "mixed_contended": ("client.round_trips_per_commit",),
}

_COMMIT_OPS = ("begin", "stage", "commit")


def _dur(span) -> float:
    return span[END] - span[START]


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def _self_time(spans: list, name: str) -> float:
    """Total time of ``name`` spans minus their direct children."""
    children = defaultdict(float)
    for s in spans:
        children[s[PARENT]] += _dur(s)
    return sum(_dur(s) - children[s[ID]] for s in spans if s[NAME] == name)


def read_handler_time(server_spans: list) -> float:
    """Time the server spent handling reads before encoding: from the
    end of a read request's validation to the end of the ``ok_response``
    that follows it on the same thread (the read handler never awaits,
    so nothing interleaves)."""
    total = 0.0
    by_thread = defaultdict(list)
    for s in server_spans:
        if s[NAME] in ("server.validate", "server.ok_response"):
            by_thread[s[THREAD]].append(s)
    for seq in by_thread.values():
        seq.sort(key=lambda s: s[START])
        for a, b in zip(seq, seq[1:]):
            if a[NAME] == "server.validate" and a[TAG] == "read" \
                    and b[NAME] == "server.ok_response" and b[TAG]:
                total += b[END] - a[END]
    return total


def layer_metrics(records: list[tuple], client_spans: list,
                  server_spans: list, counters_before: dict,
                  counters_after: dict, replica_spans: list,
                  replica_applied: int, versions: int) -> dict:
    """Every :data:`LAYER_METRICS` entry except the tracing overhead."""
    commits = sum(1 for r in records if r[0] == "commit")
    reads = sum(1 for r in records if r[0] == "read")
    ops = commits + reads
    e2e = sum(r[2] - r[1] for r in records if r[0] in ("commit", "read"))

    def total(spans, name, tag=None):
        return sum(_dur(s) for s in spans if s[NAME] == name
                   and (tag is None or s[TAG] == tag))

    def count(spans, name):
        return sum(1 for s in spans if s[NAME] == name)

    request = total(client_spans, "client.request")
    c_encode = total(client_spans, "client.encode")
    c_decode = total(client_spans, "client.decode")
    wait = request - c_encode - c_decode

    top = [s for s in server_spans if s[PARENT] == 0]
    read_handling = read_handler_time(server_spans)
    read_encode = sum(_dur(s) for s in top
                      if s[NAME] == "server.encode" and s[TAG][0])
    parts_s = {
        "client_encode": c_encode,
        "client_decode": c_decode,
        "client_other": e2e - request,
        "server_validate": total(top, "server.validate"),
        "server_read_encode": read_handling + read_encode,
        "server_begin_stage": (total(top, "session.begin")
                               + total(top, "txn.apply_records")),
        "session_commit": total(top, "session.commit"),
        "server_response_encode": sum(
            _dur(s) for s in top
            if s[NAME] == "server.encode" and not s[TAG][0]),
    }
    parts_s["server_unattributed"] = wait - sum(
        v for k, v in parts_s.items() if not k.startswith("client_"))

    def delta(name):
        return counters_after.get(name, 0) - counters_before.get(name, 0)

    sweeps = delta("kernel.sweep.runs") + delta("kernel.sweep.rechecks")
    fsync_hist = (counters_after.get("hist.fsync_sum", 0.0)
                  - counters_before.get("hist.fsync_sum", 0.0))
    checkpoint = (total(server_spans, "engine.checkpoint_record")
                  + total(server_spans, "wal.rotate")
                  + total(server_spans, "wal.append", "checkpoint"))
    fsyncs = count(server_spans, "wal.fsync")
    restore = [s for s in replica_spans if s[NAME] == "replica.restore"]
    us = 1e6
    out = {
        "client.round_trips_per_commit": _per(sum(
            1 for s in client_spans
            if s[NAME] == "client.request" and s[TAG] in _COMMIT_OPS),
            commits),
        "client.wait_us_per_op": _per(wait, ops) * us,
        "client.encode_us_per_op": _per(c_encode, ops) * us,
        "client.decode_us_per_op": _per(c_decode, ops) * us,
        "io.request_bytes_per_op": _per(sum(
            s[TAG] for s in client_spans if s[NAME] == "client.encode"),
            ops),
        "io.response_bytes_per_op": _per(sum(
            s[TAG] for s in client_spans if s[NAME] == "client.decode"),
            ops),
        "server.unattributed_us_per_op":
            _per(parts_s["server_unattributed"], ops) * us,
        "server.read_encode_us_per_read":
            _per(parts_s["server_read_encode"], reads) * us,
        "session.commit_us_per_commit":
            _per(total(server_spans, "session.commit"), commits) * us,
        "session.retries_per_commit": _per(
            count(server_spans, "engine.commit")
            - count(server_spans, "session.commit"), commits),
        "engine.commit_us_per_commit":
            _per(total(server_spans, "engine.commit"), commits) * us,
        "engine.self_us_per_commit":
            _per(_self_time(server_spans, "engine.commit"), commits) * us,
        "engine.conflicts_per_commit":
            _per(delta("store.commit_conflicts"), commits),
        "engine.noops_per_commit":
            _per(delta("store.commit_noops"), commits),
        "engine.checkpoint_us_per_commit": _per(checkpoint, commits) * us,
        "txn.net_changes_us_per_commit":
            _per(total(server_spans, "txn.net_changes"), commits) * us,
        "txn.validate_us_per_commit":
            _per(total(server_spans, "txn.validate"), commits) * us,
        "axioms.check_all_us_per_commit":
            _per(total(server_spans, "axioms.check_all"), commits) * us,
        "extension.apply_changes_us_per_commit": _per(
            total(server_spans, "extension.apply_changes"), commits) * us,
        "kernel.sweeps_per_commit": _per(sweeps, commits),
        "kernel.sweeps": sweeps,
        "wal.append_us_per_commit":
            _per(total(server_spans, "wal.append", "commit"), commits) * us,
        "wal.fsync_us_per_commit":
            _per(total(server_spans, "wal.fsync"), commits) * us,
        "wal.fsyncs_per_commit": _per(fsyncs, commits),
        "wal.commit_fsync_hist_us_per_commit":
            _per(fsync_hist, commits) * us,
        "replica.checkpoint_restore_s": sum(_dur(s) for s in restore),
        "replica.records_applied": replica_applied,
        "replica.apply_us_per_record": _per(
            total(replica_spans, "replica.apply"),
            count(replica_spans, "replica.apply")) * us,
        "version_graph.versions_retained": versions,
        "ledger.e2e_us_per_op": _per(e2e, ops) * us,
    }
    for part, seconds in parts_s.items():
        out[f"ledger.{part}_us_per_op"] = _per(seconds, ops) * us
    return out


def flatten_metrics(snapshot: dict) -> dict:
    """The counters a traced run diffs, from one ``metrics`` op reply:
    ``store.*`` and ``kernel.sweep.*`` counters plus the fsync
    histogram's sum."""
    metrics = snapshot["metrics"]
    out = {k: v for k, v in metrics["counters"].items()
           if k.startswith(("store.", "kernel.sweep."))}
    hist = metrics["histograms"].get("store.commit.fsync_seconds",
                                     {"sum": 0.0})
    out["hist.fsync_sum"] = hist["sum"]
    return out
