"""The benchmark's workloads: seeded per-connection operation plans and
the closed-loop client threads that execute them.

Every workload serves ``serving_state(1000)`` (five relations of
337-1000 rows).  A plan is a fixed list of operations per connection,
generated up front from the seed, so two runs with one seed do the same
work.  A client thread holds one :class:`StoreClient` and calls only
``StoreClient.run`` and ``StoreClient.read``, each blocking on its
reply (a closed loop).  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import random
import threading
import time

#: ``serving_state`` size: rows per relation.
STATE_ROWS = 1000
#: Connections (and client threads) of every workload.
CONNECTIONS = 2
#: ``manager`` rows both ``mixed_contended`` clients write.
HOT_ROWS = 8
#: Untimed operations each client runs before timing starts.
WARMUP_OPS = 20
#: Commits ending each ``mixed_contended`` plan: a row of the client's
#: own inserted and deleted again, never a no-op.  Together they outnumber
#: the records a replica replays after the newest checkpoint, so that
#: replay never includes a whole-relation ``replace`` (one of those in
#: the tail made recovery of a run up to 1.7x slower than another's).
TRAILER_COMMITS = 30

#: Operations per connection per second of ``--seconds``: a run is a
#: fixed operation count, sized so it takes at most about ``--seconds``
#: on one CPU of the reference host.  Fixed counts keep memory and log
#: bytes comparable between two builds at equal work.
OPS_PER_SECOND = {
    "read_head": 100,
    "mixed_contended": 100,
}

WORKLOADS = tuple(OPS_PER_SECOND)


def make_document(path) -> None:
    """Save the served state as a database document."""
    from repro import io
    from repro.core import ConstraintSet
    from repro.workloads.sessions import serving_state

    schema, db, constraints = serving_state(STATE_ROWS)
    io.save(path, db, ConstraintSet(schema, constraints))


def _row_op(kind: str, row: dict) -> dict:
    return {"op": kind, "relation": "manager", "row": row,
            "propagate": True}


def plans(workload: str, seed: int, ops: int) -> list[list[tuple]]:
    """One operation list per connection.

    Operations are ``("read", relation)``, ``("commit", [op records])``
    and ``("replace", hot_row)``: a read of ``manager`` followed by a
    commit replacing it with the rows read, ``hot_row`` toggled.
    """
    from repro.workloads.sessions import manager_stream

    relations = ["dept", "manager", "office", "person", "worksfor"]
    rng = random.Random(seed)
    stream = manager_stream(STATE_ROWS, 2 * (STATE_ROWS // 3))
    rng.shuffle(stream)
    out: list[list[tuple]] = []
    if workload == "read_head":
        for c in range(CONNECTIONS):
            offset = rng.randrange(len(relations))
            out.append([("read", relations[(offset + i) % len(relations)])
                        for i in range(ops)])
    elif workload == "mixed_contended":
        # Exact shares, shuffled: a seed changes the order, not the mix.
        hot = stream[:HOT_ROWS]
        replaces = max(1, ops // 100)
        reads = ops * 3 // 4
        for c in range(CONNECTIONS):
            plan = [("read", relations[i % len(relations)])
                    for i in range(reads)]
            plan += [("replace", hot[i % HOT_ROWS])
                     for i in range(replaces)]
            plan += [("commit", [_row_op(("insert", "delete")[i % 2],
                                         hot[(i // 2) % HOT_ROWS])])
                     for i in range(ops - reads - replaces - TRAILER_COMMITS)]
            rng.shuffle(plan)
            own = stream[HOT_ROWS + c]
            plan += [("commit", [_row_op(("insert", "delete")[i % 2], own)])
                     for i in range(TRAILER_COMMITS)]
            out.append(plan)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _replace_rows(rows: list[dict], hot_row: dict) -> list[dict]:
    kept = [r for r in rows if r["pname"] != hot_row["pname"]]
    return kept if len(kept) < len(rows) else rows + [hot_row]


def run_client(client, plan: list[tuple], records: list[tuple],
               start: threading.Barrier) -> None:
    """Execute ``plan`` on ``client``, appending one record per
    operation to ``records``: ``(kind, start, end, timed, detail)``.
    ``detail`` is the acked version id of a commit, ``(relation, row
    count)`` of a read, or the error text of a failed operation
    (``kind == "error"``).  The first :data:`WARMUP_OPS` operations are
    logged untimed."""
    clock = time.monotonic
    start.wait()
    for i, (kind, arg) in enumerate(plan):
        timed = i >= WARMUP_OPS
        t0 = clock()
        try:
            if kind == "read":
                rows = client.read(arg)
                t1 = clock()
                records.append(("read", t0, t1, timed, (arg, len(rows))))
            elif kind == "commit":
                vid = client.run(arg)["version"]
                records.append(("commit", t0, clock(), timed, vid))
            else:
                rows = client.read("manager")
                t1 = clock()
                records.append(("read", t0, t1, timed,
                                ("manager", len(rows))))
                ops = [{"op": "replace", "relation": "manager",
                        "rows": _replace_rows(rows, arg)}]
                t1 = clock()
                vid = client.run(ops)["version"]
                records.append(("commit", t1, clock(), timed, vid))
        except Exception as exc:  # every failure counts against the run
            records.append(("error", t0, clock(), timed,
                            f"{kind}: {type(exc).__name__}: {exc}"))


def run_load(clients: list, plan_lists: list[list[tuple]]) -> list[tuple]:
    """Run each plan on its own client and thread, all released
    together; returns every thread's records once all are done."""
    logs: list[list[tuple]] = [[] for _ in plan_lists]
    barrier = threading.Barrier(len(plan_lists) + 1)
    threads = [threading.Thread(target=run_client,
                                args=(c, p, log, barrier), daemon=True)
               for c, p, log in zip(clients, plan_lists, logs)]
    for t in threads:
        t.start()
    barrier.wait()
    for t in threads:
        t.join()
    return [r for log in logs for r in log]
