"""Output checks: does what the clients saw agree with the server?

Pure functions over plain data (the client logs and the server's
dump), so the smoke test can hand them a tampered result.
"""

from __future__ import annotations

import bisect


def _running_max(pairs) -> tuple[list[float], list[int]]:
    """Times sorted ascending, each with the largest position seen at
    or before it."""
    times, best, top = [], [], 0
    for t, pos in sorted(pairs):
        top = max(top, pos)
        times.append(t)
        best.append(top)
    return times, best


def _newest(index: tuple[list[float], list[int]], t: float) -> int:
    """The largest position recorded strictly before ``t`` (0, the
    root, when none is)."""
    times, best = index
    i = bisect.bisect_left(times, t)
    return best[i - 1] if i else 0


def check_reads(records: list[tuple], dump: dict) -> list[str]:
    """Each read's row count must equal its relation's size at a
    version the read could have been served at.

    Head reads are linearizable, so a read that started at ``t0`` and
    returned at ``t1`` saw a ``main`` version no older than the newest
    one acked before ``t0`` and no newer than the newest one acked by a
    commit that started before ``t1``.  Returns one problem per read
    that fails.
    """
    names = dump["relations"]
    sizes = dump["sizes"]
    main = dump["main"]
    order = {vid: i for i, vid in enumerate(main)}
    commits = [(r[1], r[2], order.get(r[4], 0))
               for r in records if r[0] == "commit"]
    by_end = _running_max((end, pos) for _, end, pos in commits)
    by_start = _running_max((start, pos) for start, _, pos in commits)
    problems = []
    for kind, t0, t1, _, detail in records:
        if kind != "read":
            continue
        relation, count = detail
        column = names.index(relation)
        low = _newest(by_end, t0)
        high = max(low, _newest(by_start, t1))
        seen = {sizes[main[p]][column] for p in range(low, high + 1)}
        if count not in seen:
            problems.append(
                f"read of {relation} returned {count} rows; its size "
                f"was {sorted(seen)} at every version it could have "
                "been served at")
    return problems


def check_run(records: list[tuple], dump: dict,
              replica: dict) -> list[str]:
    """Every whole-run check; an empty list means the run is correct.

    * the final primary state passes the full audit;
    * every acked commit's version id is in the primary's graph;
    * the recovered replica's head and state equal the primary's.
    """
    problems = []
    if not dump["audit_ok"]:
        problems.append("final primary state fails StoreEngine.audit()")
    missing = sorted({r[4] for r in records if r[0] == "commit"}
                     - set(dump["sizes"]))
    if missing:
        problems.append(f"{len(missing)} acked version(s) missing from "
                        f"the primary's graph, e.g. {missing[:3]}")
    if replica["head"] != dump["head"]:
        problems.append(f"recovered head {replica['head']} != primary "
                        f"head {dump['head']}")
    if replica["digest"] != dump["digest"]:
        problems.append("recovered state differs from the primary's")
    return problems
