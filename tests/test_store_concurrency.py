"""Concurrency tests: N writer threads against one store.

The serializability oracle: after the threads finish, re-apply every
committed version's logged operations *single-threaded*, in commit
order, and demand the identical state at every version — which is
exactly the claim the optimistic rebase makes (a commit admitted with a
disjoint footprint equals the commit that would have happened serially
at the head).

The quick test runs in tier-1; the heavier mixes and the
delta-vs-global-lock throughput gate live in the slow lane
(``-m slow``, wired into CI's slow job).
"""

import random
import threading
import time

import pytest

from repro.core import DatabaseExtension, check_all
from repro.errors import CommitRejected
from repro.store import SessionService, StoreEngine, Transaction
from repro.workloads import (
    contended_commit_specs,
    disjoint_commit_specs,
    manager_stream,
    random_txn_specs,
    serving_state,
)


def _engine(n, **kwargs):
    schema, db, constraints = serving_state(n)
    return StoreEngine(db, constraints, **kwargs)


def _drive(engine, per_writer_specs, max_retries=64):
    """Run each writer's commit specs in its own thread; returns
    (committed, rejected) counts.  The committed count is read off
    graph growth — under concurrency a no-op commit returns a head
    another writer may have just advanced, so per-thread attribution
    would race."""
    service = SessionService(engine)
    before = len(engine.graph)
    counts = {"rejected": 0}
    tally = threading.Lock()
    errors = []

    def worker(specs):
        session = service.session()
        rejected = 0
        for ops in specs:
            try:
                session.run(ops, max_retries=max_retries)
            except CommitRejected:
                rejected += 1
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)
                return
        with tally:
            counts["rejected"] += rejected

    threads = [threading.Thread(target=worker, args=(specs,))
               for specs in per_writer_specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return len(engine.graph) - before, counts["rejected"]


def _global_lock_drive(schema, state, constraints, per_writer_specs):
    """The global-lock baseline, built from public pieces: one lock
    around every commit, which derives the successor with
    ``apply_changes(validate=True)``, rebuilds it through the public
    constructor and audits it cold with ``check_all``.  Returns the
    number of commits installed."""
    lock = threading.Lock()
    store = {"head": state, "commits": 0}

    def worker(specs):
        for ops in specs:
            with lock:
                head = store["head"]
                txn = Transaction(schema, None)
                for kind, relation, row, *propagate in ops:
                    getattr(txn, kind)(relation, row, *propagate)
                changes = txn.net_changes(head)
                derived = head.apply_changes(
                    changes.added, changes.removed, validate=True)
                candidate = DatabaseExtension(
                    schema, {e.name: derived.R(e) for e in schema},
                    head.contributors)
                if check_all(schema, candidate, constraints=constraints,
                             contributors=candidate.contributors).ok():
                    store["head"] = candidate
                    store["commits"] += 1

    threads = [threading.Thread(target=worker, args=(specs,))
               for specs in per_writer_specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return store["commits"]


def _assert_serializable(engine, branch="main"):
    """Replaying the committed ops serially reproduces every state."""
    versions = list(engine.graph.log(branch))
    state = versions[0].state
    for version in versions[1:]:
        txn = Transaction(engine.schema, None, branch)
        txn.ops = list(version.ops)
        changes = txn.net_changes(state)
        state = state.apply_changes(changes.added, changes.removed)
        assert state == version.state, version.vid
    return state


class TestDisjointWriters:
    def test_all_commit_and_serialize(self):
        n, writers, per_writer = 120, 4, 10
        engine = _engine(n)
        specs = disjoint_commit_specs(
            manager_stream(n, writers * per_writer), writers)
        committed, rejected = _drive(engine, specs)
        assert (committed, rejected) == (writers * per_writer, 0)
        assert len(engine.graph) == committed + 1
        final = _assert_serializable(engine)
        assert final == engine.state()
        assert engine.audit().ok()


@pytest.mark.slow
class TestStress:
    def test_contended_writers_serialize(self):
        """Every writer races to insert the same rows: duplicates net to
        no-ops, footprint collisions retry, and the result must equal
        one serial pass."""
        n, writers = 120, 6
        engine = _engine(n)
        rows = manager_stream(n, 12)
        committed, rejected = _drive(
            engine, contended_commit_specs(rows, writers))
        assert rejected == 0
        assert committed >= len(rows)  # at least one win per row
        managers = engine.state().R("manager")
        assert all(any(t["pname"] == r["pname"] for t in managers)
                   for r in rows)
        _assert_serializable(engine)
        assert engine.audit().ok()

    def test_mixed_random_traffic_serializes(self):
        n, writers = 80, 5
        engine = _engine(n)
        rng = random.Random(7)
        specs = random_txn_specs(rng, engine.state(), 60, ops_per_txn=3)
        committed, rejected = _drive(
            engine, [specs[i::writers] for i in range(writers)])
        assert committed + rejected > 0
        _assert_serializable(engine)
        assert engine.audit().ok()

    def test_disjoint_and_conflicting_mix_with_wal(self, tmp_path):
        n, writers = 120, 4
        path = tmp_path / "stress.wal"
        engine = _engine(n, wal=path)
        rows = manager_stream(n, 24)
        disjoint = disjoint_commit_specs(rows[:16], writers)
        contended = contended_commit_specs(rows[16:], writers)
        mixed = [d + c for d, c in zip(disjoint, contended)]
        _drive(engine, mixed)
        _assert_serializable(engine)
        engine.close()
        replayed = StoreEngine.replay(path, verify=True)
        assert replayed.state() == engine.state()

    def test_throughput_disjoint_delta_vs_global_lock(self):
        """The acceptance gate: concurrent disjoint-writer commits
        through the delta gate must beat the global-lock (serial
        rebuild + cold audit) baseline by >= 5x at 1000 rows/relation.
        The real margin is orders of magnitude; 5x keeps the assertion
        robust on loaded CI machines."""
        n, writers = 1000, 4
        rows = manager_stream(n, 64)

        schema, db, constraints = serving_state(n)
        delta_engine = StoreEngine(db, constraints)
        specs = disjoint_commit_specs(rows, writers)
        start = time.perf_counter()
        committed, _ = _drive(delta_engine, specs)
        delta_rate = committed / (time.perf_counter() - start)
        assert committed == len(rows)
        assert delta_engine.audit().ok()

        serial_rows = rows[:6]  # each commit costs a full rebuild+audit
        start = time.perf_counter()
        committed = _global_lock_drive(
            schema, db, constraints,
            disjoint_commit_specs(serial_rows, writers))
        serial_rate = committed / (time.perf_counter() - start)
        assert committed == len(serial_rows)

        assert delta_rate >= 5 * serial_rate, (delta_rate, serial_rate)
