"""Command-line interface: inspect, audit, render, and serve databases.

Usage (after installation)::

    python -m repro.cli inspect db.json            # tables + figures
    python -m repro.cli check db.json [--json]     # axiom + constraint audit
    python -m repro.cli topology db.json           # S/G/CO and subbase report
    python -m repro.cli fd db.json --closure       # dependency closure
    python -m repro.cli example employee out.json  # write the paper's example
    python -m repro.cli serve db.json --wal w.d    # run store traffic
    python -m repro.cli serve db.json --wal w.d --listen :7071
                                                   # network store server
    python -m repro.cli replica w.d --listen :7072
                                                   # WAL-tailing read replica
    python -m repro.cli replica w.d --once         # one sync + lag report
    python -m repro.cli promote w.d --listen :7073
                                                   # failover: next epoch
    python -m repro.cli supervise w.d --id r1 --primary :7071
                                                   # self-healing failover loop
    python -m repro.cli log w.d                    # print the WAL history
    python -m repro.cli replay w.d --verify        # rebuild + audit from WAL
    python -m repro.cli checkpoint w.d             # append a checkpoint
    python -m repro.cli gc w.d                     # prune checkpointed segments
    python -m repro.cli metrics :7071 --watch 2    # live telemetry snapshot
    python -m repro.cli trace :7071 -n 5           # slowest recent traces

Documents use the JSON format of :mod:`repro.io`; ``serve``/``log``/
``replay``/``checkpoint``/``gc`` drive the versioned store of
:mod:`repro.store` and share the ``check --json`` audit-report shape, so
CI can consume every audit surface uniformly.  ``serve --listen`` and
``replica`` expose a store over the wire protocol of
:mod:`repro.server` (see ``src/repro/server/README.md``).

A WAL path is a segment directory (``wal.000001.jsonl``, …), created
when missing.  A regular file there is a single-file log from an older
release and is refused with the migration recipe: ``mkdir D && mv F
D/wal.000001.jsonl``, then ``checkpoint D`` if an ``F.epoch`` sidecar
exists.  Replay starts from the newest checkpoint unless ``--full``
asks for v0.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import io
from repro.core import (
    ArmstrongEngine,
    check_all,
    designer_bias_report,
)
from repro.viz import (
    contributor_table,
    disk_matrix,
    entity_table,
    extension_table,
    generalisation_table,
    isa_forest,
    specialisation_table,
)


def _cmd_inspect(args: argparse.Namespace) -> int:
    db, _ = io.load(args.document)
    print(entity_table(db.schema))
    print()
    print(disk_matrix(db.schema))
    print()
    print(isa_forest(db.schema))
    print()
    print(extension_table(db))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    db, constraints = io.load(args.document)
    report = check_all(db.schema, db, constraints=constraints.constraints,
                       contributors=db.contributors)
    problems = constraints.report(db)
    ok = report.ok() and not problems
    if args.json:
        print(json.dumps(io.report_to_dict(report, problems),
                         indent=2, sort_keys=True))
        return 0 if ok else 1
    print(report.render())
    for name, messages in problems.items():
        for message in messages:
            print(f"[constraint {name}] {message}")
    print("verdict:", "CONSISTENT" if ok else "VIOLATIONS FOUND")
    return 0 if ok else 1


def _cmd_topology(args: argparse.Namespace) -> int:
    db, _ = io.load(args.document)
    schema = db.schema
    print(specialisation_table(schema))
    print()
    print(generalisation_table(schema))
    print()
    print(contributor_table(schema))
    print()
    bias = designer_bias_report(schema)
    print("essential entity types:",
          sorted(e.name for e in bias["essential"]))
    print("derivable (constructed) candidates:",
          sorted(e.name for e in bias["redundant"]))
    return 0


def _cmd_fd(args: argparse.Namespace) -> int:
    db, constraints = io.load(args.document)
    premises = constraints.functional_dependencies()
    if not premises:
        print("no functional dependencies declared in the document")
        return 0
    print("declared dependencies:")
    for fd in premises:
        print(f"  {fd!r}")
    if args.closure:
        engine = ArmstrongEngine(db.schema, premises)
        derived = sorted(engine.nontrivial_derived(), key=repr)
        print(f"\nnon-trivial closure ({len(derived)} dependencies):")
        for fd in derived:
            print(f"  {fd!r}")
    from repro.core.fd import holds

    broken = [fd for fd in premises if not holds(fd, db)]
    print("\nall declared dependencies hold in the state"
          if not broken else f"\nVIOLATED: {broken}")
    return 0 if not broken else 1


def _cmd_example(args: argparse.Namespace) -> int:
    if args.name != "employee":
        print(f"unknown example {args.name!r}; available: employee",
              file=sys.stderr)
        return 2
    from repro.core.employee import employee_constraints, employee_extension

    db = employee_extension()
    io.save(args.output, db, employee_constraints(db.schema))
    print(f"wrote the paper's employee database to {args.output}")
    return 0


def _parse_listen(listen: str) -> tuple[str, int]:
    """``HOST:PORT`` (``:PORT`` binds localhost; port 0 picks one)."""
    host, _, port = listen.rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"--listen wants HOST:PORT, got {listen!r}")


def _serve_until_interrupt(server, banner: str) -> int:
    import time

    host, port = server.start_background()
    print(f"{banner} on {host}:{port} (ctrl-C to stop)")
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run generated session traffic against a store built from the
    document — the smallest end-to-end serving exercise: N worker
    threads, optimistic commits, optional WAL, and a final audit.  With
    ``--listen``, serve the store over the wire protocol instead."""
    import random
    import threading
    import time

    from repro.errors import CommitRejected, TransactionConflict
    from repro.store import SessionService, StoreEngine, WriteAheadLog
    from repro.workloads import random_txn_specs

    db, constraints = io.load(args.document)
    wal = None if args.wal is None else WriteAheadLog(
        args.wal, segment_records=args.segment_records)
    engine = StoreEngine(db, constraints, wal=wal,
                         checkpoint_every=args.checkpoint_every)
    if args.listen is not None:
        from repro.server import StoreServer

        host, port = _parse_listen(args.listen)
        try:
            return _serve_until_interrupt(
                StoreServer(engine, host, port,
                            max_connections=args.max_connections,
                            idle_timeout=args.idle_timeout),
                f"serving {args.document}")
        finally:
            engine.close()
    service = SessionService(engine)
    rng = random.Random(args.seed)
    specs = random_txn_specs(rng, db, args.txns)
    shards = [specs[i::args.threads] for i in range(args.threads)]
    counts = {"rejected": 0, "conflicts": 0}
    tally = threading.Lock()
    errors: list[BaseException] = []

    def worker(shard):
        session = service.session()
        rejected = conflicts = 0
        for ops in shard:
            try:
                session.run(ops)
            except CommitRejected:
                rejected += 1
            except TransactionConflict:
                conflicts += 1  # retries exhausted under contention
            except BaseException as exc:  # re-raised after join
                errors.append(exc)
                break
        with tally:
            counts["rejected"] += rejected
            counts["conflicts"] += conflicts

    threads = [threading.Thread(target=worker, args=(shard,))
               for shard in shards]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    # Committed count comes from graph growth (authoritative under
    # concurrency — a no-op commit returns a head another writer may
    # have just advanced, so per-thread attribution would race).
    counts["committed"] = len(engine.graph) - 1
    counts["noop"] = (args.txns - counts["committed"] - counts["rejected"]
                      - counts["conflicts"])
    report = engine.audit()
    engine.close()
    summary = {
        "txns": args.txns,
        "threads": args.threads,
        **counts,
        "versions": len(engine.graph),
        "head": engine.head_version().vid,
        "seconds": round(elapsed, 4),
        "commits_per_s": round(counts["committed"] / elapsed, 1)
        if elapsed else None,
        "audit": io.report_to_dict(report),
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for key in ("txns", "threads", "committed", "rejected",
                    "conflicts", "noop", "versions", "head", "seconds",
                    "commits_per_s"):
            print(f"{key}: {summary[key]}")
        print("final audit:", "CONSISTENT" if report.ok()
              else report.render())
    return 0 if report.ok() else 1


def _cmd_replica(args: argparse.Namespace) -> int:
    """Tail a primary's WAL as a read replica.

    ``--once`` syncs to the current end of the log and prints the
    staleness/lag report — with ``--max-lag-bytes N`` the exit status
    doubles as a staleness alarm (non-zero when the replica is more
    than N log bytes behind), so external monitors can alert on stale
    replicas with one invocation.  Otherwise the replica serves
    read-only wire traffic on ``--listen`` while a background task
    keeps following the log."""
    from repro.server import ReplicaEngine, StoreServer

    replica = ReplicaEngine(args.wal, from_checkpoint=not args.full,
                            verify=args.verify)
    replica.catch_up(timeout=args.timeout)
    if args.once:
        status = replica.status()
        bound = args.max_lag_bytes
        lag_ok = (bound is None
                  or int(status.get("behind_bytes", 0)) <= bound)
        status["max_lag_bytes"] = bound
        status["lag_ok"] = lag_ok
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            for key in ("role", "ready", "wal", "behind_bytes",
                        "max_lag_bytes", "lag_ok", "applied_records",
                        "seq", "versions", "branches"):
                if key in status and status[key] is not None:
                    print(f"{key}: {status[key]}")
        return 0 if replica.ready and lag_ok else 1
    host, port = _parse_listen(args.listen)
    return _serve_until_interrupt(
        StoreServer(replica, host, port, sync_interval=args.interval,
                    max_connections=args.max_connections,
                    idle_timeout=args.idle_timeout),
        f"replica of {args.wal}")


def _cmd_promote(args: argparse.Namespace) -> int:
    """Promote a WAL's tail into the next epoch — the failover step.

    Tails the log to its durable end (applying the torn-tail repair a
    crashed primary leaves behind), stamps the next epoch record, and
    either prints the takeover summary or, with ``--listen``, serves
    the promoted primary over the wire.  Any old-epoch primary still
    holding the log is fenced from the stamp onward."""
    from repro.server import ReplicaEngine, StoreServer, promote

    replica = ReplicaEngine(args.wal, from_checkpoint=not args.full,
                            verify=args.verify)
    engine = promote(replica, timeout=args.timeout, sync=args.sync,
                     segment_records=args.segment_records)
    summary = {"wal": str(args.wal), "epoch": engine.epoch,
               "seq": engine.graph.seq,
               "branches": engine.graph.branches()}
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"promoted {args.wal} to epoch {engine.epoch} "
              f"(seq {summary['seq']}, heads {summary['branches']})")
    if args.listen is None:
        engine.close()
        return 0
    host, port = _parse_listen(args.listen)
    try:
        return _serve_until_interrupt(
            StoreServer(engine, host, port,
                        max_connections=args.max_connections,
                        idle_timeout=args.idle_timeout),
            f"primary (epoch {engine.epoch}) over {args.wal}")
    finally:
        engine.close()


def _cmd_supervise(args: argparse.Namespace) -> int:
    """Run one replica's seat in the self-healing loop.

    A :class:`~repro.server.HealthMonitor` probes the primary (and any
    ``--peer`` replicas) over the wire ``status`` op; when the primary
    is declared dead the :class:`~repro.server.Coordinator` runs the
    deterministic election — most-caught-up WAL position wins, replica
    id breaks ties — and, if this replica wins, promotes it and (with
    ``--listen``) serves the new primary.  Losers keep tailing and
    re-pin to the winner's epoch.  ``--once`` runs a single supervision
    step and prints the state; ``--max-ticks`` bounds the loop (useful
    for scripted failover drills)."""
    import time

    from repro.server import (
        Coordinator,
        HealthMonitor,
        ReplicaEngine,
        StoreServer,
        wire_probe,
    )

    monitor = HealthMonitor(probe_interval=args.interval,
                            suspect_after=args.suspect_after,
                            dead_after=args.dead_after, seed=args.seed)
    monitor.add_peer(args.primary_id,
                     wire_probe(_parse_listen(args.primary),
                                timeout=args.probe_timeout))
    for spec in args.peer or ():
        peer_id, _, addr = spec.partition("=")
        if not peer_id or not addr:
            raise SystemExit(f"--peer wants ID=HOST:PORT, got {spec!r}")
        monitor.add_peer(peer_id, wire_probe(_parse_listen(addr),
                                             timeout=args.probe_timeout))
    replica = ReplicaEngine(args.wal, from_checkpoint=not args.full,
                            verify=args.verify)
    replica.catch_up(timeout=args.timeout)
    coordinator = Coordinator(args.id, replica, monitor,
                              primary_id=args.primary_id,
                              promote_timeout=args.timeout,
                              segment_records=args.segment_records)
    ticks = 0
    try:
        while True:
            event = coordinator.step()
            ticks += 1
            if event is not None and not args.json:
                detail = {k: v for k, v in event.items()
                          if k not in ("action", "replica_id")}
                print(f"[tick {ticks}] {event['action']} {detail}")
            if coordinator.role == "primary" or args.once:
                break
            if args.max_ticks is not None and ticks >= args.max_ticks:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    summary = coordinator.describe()
    summary["ticks"] = ticks
    summary["primary_state"] = (
        monitor.state(coordinator.primary_id)
        if coordinator.primary_id in monitor.peer_ids() else None)
    if args.json:
        print(json.dumps({**summary,
                          "events": coordinator.events},
                         indent=2, sort_keys=True))
    else:
        for key in ("replica_id", "role", "primary_id", "primary_state",
                    "epoch", "elections", "ticks"):
            print(f"{key}: {summary[key]}")
    if coordinator.role == "primary" and args.listen is not None:
        engine = coordinator.engine
        host, port = _parse_listen(args.listen)
        try:
            return _serve_until_interrupt(
                StoreServer(engine, host, port, cluster=monitor),
                f"promoted primary (epoch {engine.epoch}) over "
                f"{args.wal}")
        finally:
            engine.close()
    return 0


def _cmd_log(args: argparse.Namespace) -> int:
    """Print a write-ahead log's history, one line per record."""
    from repro.store import WriteAheadLog

    for record in WriteAheadLog.records(args.wal):
        if args.json:
            print(json.dumps(record, sort_keys=True))
            continue
        kind = record["type"]
        if kind == "snapshot":
            doc = record["document"]
            print(f"{record['version']}  snapshot  [{record['branch']}]  "
                  f"{len(doc.get('entity_types', {}))} types, "
                  f"{sum(map(len, doc.get('relations', {}).values()))} rows")
        elif kind == "branch":
            print(f"branch {record['name']!r} at {record['at']}")
        elif kind == "checkpoint":
            heads = ", ".join(
                f"{name}@{info['version']}"
                for name, info in sorted(record["branches"].items()))
            print(f"checkpoint  seq {record['seq']}  heads: {heads}")
        elif kind == "epoch":
            heads = ", ".join(
                f"{name}@{vid}"
                for name, vid in sorted(record.get("heads", {}).items()))
            print(f"epoch {record['epoch']}  (promotion)"
                  + (f"  seq {record['seq']}" if "seq" in record else "")
                  + (f"  heads: {heads}" if heads else ""))
        else:
            ops = ", ".join(
                f"{op['op']} {op['relation']}" for op in record["ops"])
            print(f"{record['version']}  <- {record['parent']}  "
                  f"[{record['branch']}]  {ops}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Rebuild the version graph from a WAL, audit the head, and
    optionally write it back out as a document."""
    from repro.store import StoreEngine

    engine = StoreEngine.replay(args.wal, verify=args.verify,
                                from_checkpoint=not args.full)
    heads = engine.graph.branches()
    report = engine.audit()
    if args.out:
        io.save(args.out, engine.state(), engine.constraint_set)
    if args.json:
        print(json.dumps({
            "versions": len(engine.graph),
            "branches": heads,
            "verified": args.verify,
            "audit": io.report_to_dict(report),
        }, indent=2, sort_keys=True))
    else:
        print(f"replayed {len(engine.graph)} versions; branches: {heads}")
        print("head audit:", "CONSISTENT" if report.ok()
              else report.render())
        if args.out:
            print(f"wrote head state to {args.out}")
    return 0 if report.ok() else 1


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Append a checkpoint record to a WAL: replay it (trusting the
    log), adopt the log, then write every branch head back as a full
    document under the replayed epoch — after which ``replay`` starts
    here and ``gc`` can drop older segments."""
    from repro.store import StoreEngine, WriteAheadLog

    engine = StoreEngine.replay(args.wal)
    with engine.adopt_wal(WriteAheadLog(args.wal)) as wal:
        record = engine.checkpoint()
        segment = wal.current_segment
    summary = {
        "seq": record["seq"],
        "branches": {name: info["version"]
                     for name, info in sorted(record["branches"].items())},
        "segment": str(segment),
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        heads = ", ".join(f"{name}@{vid}"
                          for name, vid in summary["branches"].items())
        print(f"checkpointed seq {record['seq']} ({heads}) to {segment}")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    """Prune WAL segments older than the newest checkpointed one.

    The replay-from-checkpoint comes first: segments are only dropped
    once the checkpoint has proven it can restore the store without
    them."""
    from repro.store import StoreEngine, WriteAheadLog

    engine = StoreEngine.replay(args.wal)  # proves the checkpoint restores
    if args.dry_run:
        segments = WriteAheadLog.segment_paths(args.wal)
        victims = segments[:WriteAheadLog.checkpoint_floor(segments)]
    else:
        victims = WriteAheadLog.prune(args.wal, archive=args.archive)
    remaining = [str(p) for p in WriteAheadLog.segment_paths(args.wal)]
    summary = {
        "versions": len(engine.graph),
        "branches": engine.graph.branches(),
        "pruned": [str(p) for p in victims],
        "remaining": remaining,
        "dry_run": args.dry_run,
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"replayed {len(engine.graph)} versions; "
              f"branches: {summary['branches']}")
        verb = "would prune" if args.dry_run else \
            "archived" if args.archive else "pruned"
        if victims:
            for p in summary["pruned"]:
                print(f"{verb}: {p}")
        else:
            print("nothing to prune (no checkpointed segment boundary)")
        print(f"{len(remaining)} segment(s) remain")
    return 0


def _fmt_seconds(value) -> str:
    """A duration for humans: seconds, milliseconds, or microseconds,
    whichever reads best."""
    if value is None:
        return "-"
    value = float(value)
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}us"


def _render_metrics(payload: dict) -> str:
    """A ``metrics`` response as an aligned human-readable report."""
    snapshot = payload.get("metrics", {})
    lines: list[str] = []
    for section in ("counters", "gauges"):
        table = snapshot.get(section) or {}
        if not table:
            continue
        lines.append(f"{section}:")
        width = max(len(name) for name in table)
        for name, value in sorted(table.items()):
            shown = int(value) if float(value) == int(value) else value
            lines.append(f"  {name:<{width}}  {shown}")
    hists = snapshot.get("histograms") or {}
    if hists:
        lines.append("histograms:")
        width = max(len(name) for name in hists)
        lines.append(f"  {'':<{width}}  {'count':>7}  {'p50':>9}  "
                     f"{'p95':>9}  {'p99':>9}  {'max':>9}")
        for name, s in sorted(hists.items()):
            lines.append(
                f"  {name:<{width}}  {s.get('count', 0):>7}  "
                f"{_fmt_seconds(s.get('p50')):>9}  "
                f"{_fmt_seconds(s.get('p95')):>9}  "
                f"{_fmt_seconds(s.get('p99')):>9}  "
                f"{_fmt_seconds(s.get('max')):>9}")
    slow = payload.get("slow_commits") or []
    if slow:
        lines.append(f"slow commits ({len(slow)}, newest last):")
        for rec in slow[-5:]:
            phases = ", ".join(
                f"{name}={_fmt_seconds(value)}"
                for name, value in sorted(rec.get("phases", {}).items()))
            lines.append(f"  {rec.get('version')}  "
                         f"total={_fmt_seconds(rec.get('total'))}  "
                         f"groups={rec.get('group_count')}  [{phases}]")
    return "\n".join(lines) if lines else "no metrics recorded yet"


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Fetch and render a server's observability snapshot; ``--watch``
    polls forever (ctrl-C to stop)."""
    import time

    from repro.server import StoreClient

    host, port = _parse_listen(args.address)
    try:
        while True:
            with StoreClient(host, port) as client:
                payload = client.metrics()
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                print(_render_metrics(payload))
            if not args.watch:
                return 0
            time.sleep(args.watch)
            print()
    except (KeyboardInterrupt, BrokenPipeError):
        return 0
    except OSError as exc:
        print(f"error: cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 1


def _print_span(span: dict, depth: int) -> None:
    pad = "  " * depth
    tags = span.get("tags") or {}
    suffix = ""
    if tags:
        suffix = "  [" + " ".join(f"{k}={v}"
                                  for k, v in sorted(tags.items())) + "]"
    print(f"{pad}{span.get('name')}  "
          f"{_fmt_seconds(span.get('duration'))}{suffix}")
    for child in span.get("spans") or ():
        _print_span(child, depth + 1)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Fetch the server's slowest recent traces and render them as
    indented span trees (``--json`` for the raw dicts)."""
    from repro.server import StoreClient

    host, port = _parse_listen(args.address)
    try:
        with StoreClient(host, port) as client:
            payload = client.metrics(traces=args.n)
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"error: cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 1
    traces = payload.get("traces") or []
    if args.json:
        print(json.dumps(traces, indent=2, sort_keys=True))
        return 0
    if not traces:
        print("no traces recorded yet")
        return 0
    for trace in traces:
        _print_span(trace, 0)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Siebes & Kersten (1987) axiom-model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="render tables and figures")
    p_inspect.add_argument("document")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_check = sub.add_parser("check", help="axiom and constraint audit")
    p_check.add_argument("document")
    p_check.add_argument("--json", action="store_true",
                         help="emit the audit report (verdicts + witnesses) "
                              "as machine-readable JSON")
    p_check.set_defaults(func=_cmd_check)

    p_topology = sub.add_parser("topology", help="S/G/CO and subbase report")
    p_topology.add_argument("document")
    p_topology.set_defaults(func=_cmd_topology)

    p_fd = sub.add_parser("fd", help="dependency report")
    p_fd.add_argument("document")
    p_fd.add_argument("--closure", action="store_true",
                      help="print the Armstrong closure")
    p_fd.set_defaults(func=_cmd_fd)

    p_example = sub.add_parser("example", help="write a bundled example document")
    p_example.add_argument("name")
    p_example.add_argument("output")
    p_example.set_defaults(func=_cmd_example)

    p_serve = sub.add_parser(
        "serve", help="run session traffic against a versioned store")
    p_serve.add_argument("document")
    p_serve.add_argument("--txns", type=int, default=100,
                         help="transactions to generate (default 100)")
    p_serve.add_argument("--threads", type=int, default=4,
                         help="concurrent writer sessions (default 4)")
    p_serve.add_argument("--wal", default=None,
                         help="write-ahead log directory (durable commits)")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="traffic generator seed (default 0)")
    p_serve.add_argument("--checkpoint-every", type=int, default=None,
                         metavar="N",
                         help="write a WAL checkpoint record after every "
                              "N commits (keeps replay O(recent))")
    p_serve.add_argument("--segment-records", type=int, default=None,
                         metavar="N",
                         help="start a new WAL segment after every N "
                              "records")
    p_serve.add_argument("--json", action="store_true",
                         help="emit the serving summary + audit as JSON")
    p_serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                         help="serve the store over the wire protocol "
                              "instead of running generated traffic "
                              "(':0' picks a free port)")
    p_serve.add_argument("--max-connections", type=int, default=64,
                         help="bound on simultaneous connections under "
                              "--listen (default 64)")
    p_serve.add_argument("--idle-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="close connections idle for this long "
                              "(default: never) so abandoned clients "
                              "stop pinning the connection cap")
    p_serve.set_defaults(func=_cmd_serve)

    p_replica = sub.add_parser(
        "replica", help="tail a primary's WAL as a read replica")
    p_replica.add_argument("wal")
    p_replica.add_argument("--listen", default="127.0.0.1:0",
                           metavar="HOST:PORT",
                           help="serve read-only wire traffic here "
                                "(default: localhost, free port)")
    p_replica.add_argument("--once", action="store_true",
                           help="sync to the end of the log, print the "
                                "staleness report, and exit")
    p_replica.add_argument("--interval", type=float, default=0.05,
                           metavar="SECONDS",
                           help="background sync cadence while serving "
                                "(default 0.05s)")
    p_replica.add_argument("--timeout", type=float, default=5.0,
                           help="initial catch-up budget in seconds "
                                "(default 5)")
    p_replica.add_argument("--full", action="store_true",
                           help="bootstrap from v0 instead of the newest "
                                "checkpoint")
    p_replica.add_argument("--verify", action="store_true",
                           help="re-gate every followed commit through "
                                "this replica's own axiom validation")
    p_replica.add_argument("--max-connections", type=int, default=64,
                           help="bound on simultaneous connections "
                                "(default 64)")
    p_replica.add_argument("--idle-timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="close connections idle for this long "
                                "(default: never)")
    p_replica.add_argument("--max-lag-bytes", type=int, default=None,
                           metavar="N",
                           help="with --once: exit non-zero when the "
                                "replica is more than N log bytes "
                                "behind (a staleness alarm for "
                                "external monitors)")
    p_replica.add_argument("--json", action="store_true",
                           help="emit the --once staleness report as JSON")
    p_replica.set_defaults(func=_cmd_replica)

    p_promote = sub.add_parser(
        "promote", help="promote a WAL's tail to the next epoch "
                        "(failover)")
    p_promote.add_argument("wal")
    p_promote.add_argument("--listen", default=None, metavar="HOST:PORT",
                           help="serve the promoted primary here "
                                "(default: print the summary and exit)")
    p_promote.add_argument("--timeout", type=float, default=5.0,
                           help="catch-up budget in seconds (default 5)")
    p_promote.add_argument("--full", action="store_true",
                           help="bootstrap from v0 instead of the newest "
                                "checkpoint")
    p_promote.add_argument("--verify", action="store_true",
                           help="re-gate every followed commit through "
                                "the axiom validation while catching up")
    p_promote.add_argument("--sync", action="store_true",
                           help="fsync every commit on the promoted "
                                "primary")
    p_promote.add_argument("--segment-records", type=int, default=None,
                           metavar="N",
                           help="segment rotation bound for the promoted "
                                "primary's appends")
    p_promote.add_argument("--max-connections", type=int, default=64,
                           help="bound on simultaneous connections under "
                                "--listen (default 64)")
    p_promote.add_argument("--idle-timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="close connections idle for this long "
                                "(default: never)")
    p_promote.add_argument("--json", action="store_true",
                           help="emit the takeover summary as JSON")
    p_promote.set_defaults(func=_cmd_promote)

    p_supervise = sub.add_parser(
        "supervise", help="run a replica's seat in the self-healing "
                          "failover loop")
    p_supervise.add_argument("wal")
    p_supervise.add_argument("--id", required=True, metavar="REPLICA_ID",
                             help="this replica's election id (ties on "
                                  "WAL position break toward the "
                                  "highest id)")
    p_supervise.add_argument("--primary", required=True,
                             metavar="HOST:PORT",
                             help="the current primary's address to "
                                  "probe")
    p_supervise.add_argument("--primary-id", default="primary",
                             help="the primary's peer id in the health "
                                  "view (default 'primary')")
    p_supervise.add_argument("--peer", action="append", default=[],
                             metavar="ID=HOST:PORT",
                             help="a fellow replica to probe and rank "
                                  "against (repeatable)")
    p_supervise.add_argument("--listen", default=None,
                             metavar="HOST:PORT",
                             help="serve the promoted primary here "
                                  "after winning an election")
    p_supervise.add_argument("--interval", type=float, default=0.5,
                             metavar="SECONDS",
                             help="probe/supervision cadence "
                                  "(default 0.5s)")
    p_supervise.add_argument("--suspect-after", type=int, default=2,
                             metavar="MISSES",
                             help="consecutive probe misses before a "
                                  "peer is suspect (default 2; one "
                                  "dropped frame never elects)")
    p_supervise.add_argument("--dead-after", type=int, default=4,
                             metavar="MISSES",
                             help="consecutive probe misses before a "
                                  "peer is dead and an election runs "
                                  "(default 4)")
    p_supervise.add_argument("--probe-timeout", type=float, default=1.0,
                             metavar="SECONDS",
                             help="per-probe dial/roundtrip budget "
                                  "(default 1)")
    p_supervise.add_argument("--timeout", type=float, default=5.0,
                             help="catch-up/promotion budget in "
                                  "seconds (default 5)")
    p_supervise.add_argument("--seed", type=int, default=0,
                             help="seeds the monitor's probe jitter "
                                  "(default 0)")
    p_supervise.add_argument("--max-ticks", type=int, default=None,
                             metavar="N",
                             help="stop after N supervision steps "
                                  "(default: run until promoted or "
                                  "interrupted)")
    p_supervise.add_argument("--once", action="store_true",
                             help="run one supervision step, print the "
                                  "state, and exit")
    p_supervise.add_argument("--full", action="store_true",
                             help="bootstrap from v0 instead of the "
                                  "newest checkpoint")
    p_supervise.add_argument("--verify", action="store_true",
                             help="re-gate every followed commit "
                                  "through the axiom validation")
    p_supervise.add_argument("--segment-records", type=int, default=None,
                             metavar="N",
                             help="segment rotation bound after "
                                  "promotion")
    p_supervise.add_argument("--json", action="store_true",
                             help="emit the final state (and event "
                                  "log) as JSON")
    p_supervise.set_defaults(func=_cmd_supervise)

    p_log = sub.add_parser("log", help="print a write-ahead log's history")
    p_log.add_argument("wal")
    p_log.add_argument("--json", action="store_true",
                       help="emit raw records as JSON lines")
    p_log.set_defaults(func=_cmd_log)

    p_replay = sub.add_parser(
        "replay", help="rebuild a store from its write-ahead log")
    p_replay.add_argument("wal")
    p_replay.add_argument("--verify", action="store_true",
                          help="re-validate every logged commit through "
                               "the axiom gate")
    p_replay.add_argument("--out", default=None,
                          help="write the replayed head state to a document")
    p_replay.add_argument("--full", action="store_true",
                          help="replay the whole log from v0 instead of "
                               "the newest checkpoint")
    p_replay.add_argument("--json", action="store_true",
                          help="emit the replay summary + audit as JSON")
    p_replay.set_defaults(func=_cmd_replay)

    p_checkpoint = sub.add_parser(
        "checkpoint", help="append a checkpoint record to a WAL")
    p_checkpoint.add_argument("wal")
    p_checkpoint.add_argument("--json", action="store_true",
                              help="emit the checkpoint summary as JSON")
    p_checkpoint.set_defaults(func=_cmd_checkpoint)

    p_gc = sub.add_parser(
        "gc", help="prune WAL segments behind the newest checkpoint")
    p_gc.add_argument("wal")
    p_gc.add_argument("--archive", default=None, metavar="DIR",
                      help="move pruned segments here instead of "
                           "deleting them")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be pruned without touching "
                           "the log")
    p_gc.add_argument("--json", action="store_true",
                      help="emit the gc summary as JSON")
    p_gc.set_defaults(func=_cmd_gc)

    p_metrics = sub.add_parser(
        "metrics",
        help="a live server's observability snapshot (counters, "
             "commit-phase histograms, slow commits)")
    p_metrics.add_argument("address", metavar="HOST:PORT",
                           help="a serving store (serve --listen or a "
                                "replica)")
    p_metrics.add_argument("--json", action="store_true",
                           help="emit the raw snapshot as JSON")
    p_metrics.add_argument("--watch", type=float, default=0.0,
                           metavar="SECONDS",
                           help="re-poll every SECONDS (ctrl-C to stop)")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_trace = sub.add_parser(
        "trace",
        help="a live server's slowest recent traces as span trees")
    p_trace.add_argument("address", metavar="HOST:PORT")
    p_trace.add_argument("-n", type=int, default=5,
                         help="how many traces to fetch (default 5)")
    p_trace.add_argument("--json", action="store_true",
                         help="emit the raw trace dicts as JSON")
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like other
        # well-behaved CLI tools.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
