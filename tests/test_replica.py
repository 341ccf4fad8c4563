"""Replica differential suite: a WAL-tailing replica converges to the
exact graph a full replay produces.

The acceptance property: a :class:`ReplicaEngine` attached to a live
primary's write-ahead log — syncing *while* the primary commits, across
checkpoint rotations, and through an injected torn tail at the segment
boundary — ends byte-identical to ``StoreEngine.replay`` of the same
log: same version ids in the same order, same parent edges, same branch
heads, same per-version states.  The replica and replay share one
record-application path (``apply_wal_record``), and this suite is what
holds that refactor to its contract.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import CommitRejected, StoreError
from repro.server import ReplicaEngine
from repro.store import SessionService, StoreEngine, WriteAheadLog
from repro.workloads.sessions import manager_stream, serving_state

from generators import random_database_states
from repro.workloads import random_txn_specs

SEEDS = range(25)  # 25 seeds x ~8-16 versions each => 200+ state checks


def _assert_same_graph(left, right, context=""):
    """Version-for-version identity: ids, order, parent edges, branch
    heads, and the full state documents."""
    lefts = list(left.log())
    rights = list(right.log())
    assert [v.vid for v in lefts] == [v.vid for v in rights], context
    for a, b in zip(lefts, rights):
        assert a.state == b.state, (context, a.vid)
        assert a.branch == b.branch, (context, a.vid)
        assert (a.parent.vid if a.parent else None) == \
            (b.parent.vid if b.parent else None), (context, a.vid)
    assert left.branches() == right.branches(), context
    assert left.seq == right.seq, context


def _drive(rng, engine, db, n_txns, replica=None, sync_odds=0.5):
    """Commit seeded random traffic, optionally interleaving replica
    syncs mid-stream (the live-tail part of the differential)."""
    session = SessionService(engine).session()
    for ops in random_txn_specs(rng, db, n_txns):
        try:
            session.run(ops)
        except CommitRejected:
            pass  # rejected traffic is traffic: the WAL never sees it
        if replica is not None and rng.random() < sync_odds:
            replica.sync()
    return session


# ----------------------------------------------------------------------
# the live-tail differential
# ----------------------------------------------------------------------
class TestLiveTailDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_live_tail_converges_to_full_replay(self, seed, tmp_path):
        """A replica born with the log and syncing *during* the
        primary's write stream — across segment rotations and
        checkpoints — equals both the primary's graph and a full
        (from-v0) replay of the finished log."""
        rng = random.Random(seed)
        (schema, db), *_ = random_database_states(rng, rows_per_leaf=2)
        wal_dir = tmp_path / "wal"
        wal = WriteAheadLog(wal_dir, segment_records=6)
        engine = StoreEngine(db, (), wal=wal, checkpoint_every=5)
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        replica.sync()  # bootstrap from the snapshot record
        assert replica.ready

        _drive(rng, engine, db, 14, replica=replica)
        if len(engine.graph) > 3 and rng.random() < 0.5:
            engine.branch("side", at="v1")
            side = SessionService(engine).session("side")
            try:
                side.run(random_txn_specs(rng, db, 1)[0])
            except CommitRejected:
                pass
        engine.close()
        assert len(engine.graph) >= 2, "seed produced no traffic"

        replica.catch_up()
        assert replica.behind_bytes() == 0
        full = StoreEngine.replay(wal_dir, from_checkpoint=False)
        _assert_same_graph(replica.graph, full.graph, f"seed {seed}")
        _assert_same_graph(replica.graph, engine.graph, f"seed {seed}")

    @pytest.mark.parametrize("seed", range(5))
    def test_unbounded_wal_live_tail(self, seed, tmp_path):
        """The same convergence over a log with no rotation bound: only
        checkpoints start a new segment, and each heads its own."""
        rng = random.Random(100 + seed)
        (schema, db), *_ = random_database_states(rng, rows_per_leaf=2)
        path = tmp_path / "store.wal"
        engine = StoreEngine(db, (), wal=path, checkpoint_every=4)
        replica = ReplicaEngine(path, from_checkpoint=False)
        _drive(rng, engine, db, 10, replica=replica)
        engine.close()
        heads = [WriteAheadLog.first_record(p)["type"]
                 for p in WriteAheadLog.segment_paths(path)]
        assert heads == ["snapshot"] + ["checkpoint"] * (len(heads) - 1)
        replica.catch_up()
        full = StoreEngine.replay(path, from_checkpoint=False)
        _assert_same_graph(replica.graph, full.graph)
        _assert_same_graph(replica.graph, engine.graph)

    def test_verifying_replica_re_gates_commits(self, tmp_path):
        """``verify=True`` re-runs every followed commit through the
        replica's own axiom gate — and still converges identically when
        the primary was honest."""
        schema, db, constraints = serving_state(8)
        wal_dir = tmp_path / "wal"
        engine = StoreEngine(db, constraints,
                             wal=WriteAheadLog(wal_dir, segment_records=4),
                             checkpoint_every=3)
        session = SessionService(engine).session()
        for row in manager_stream(8, 4):
            session.run([("insert", "manager", row)])
        engine.close()
        replica = ReplicaEngine(wal_dir, from_checkpoint=False,
                                verify=True)
        replica.catch_up()
        _assert_same_graph(replica.graph, engine.graph)


# ----------------------------------------------------------------------
# checkpoint bootstrap
# ----------------------------------------------------------------------
class TestCheckpointBootstrap:
    @pytest.mark.parametrize("seed", range(8))
    def test_bootstrap_matches_replay_from_checkpoint(self, seed,
                                                      tmp_path):
        """The default (checkpoint) bootstrap equals
        ``replay(from_checkpoint=True)``: pre-checkpoint versions are
        absent from both, everything after is identical."""
        rng = random.Random(300 + seed)
        (schema, db), *_ = random_database_states(rng, rows_per_leaf=2)
        wal_dir = tmp_path / "wal"
        engine = StoreEngine(db, (),
                             wal=WriteAheadLog(wal_dir, segment_records=5),
                             checkpoint_every=4)
        _drive(rng, engine, db, 12)
        engine.close()

        replica = ReplicaEngine(wal_dir)  # from_checkpoint=True default
        replica.catch_up()
        ck = StoreEngine.replay(wal_dir, from_checkpoint=True)
        _assert_same_graph(replica.graph, ck.graph, f"seed {seed}")
        # and the head it serves is the primary's head
        assert replica.head_version().vid == engine.head_version().vid

    def test_bootstrap_from_unbounded_log_checkpoint(self, tmp_path):
        """With no rotation bound the newest checkpoint still heads its
        own segment, so the bootstrap seek lands on it directly."""
        schema, db, constraints = serving_state(8)
        path = tmp_path / "store.wal"
        engine = StoreEngine(db, constraints, wal=path,
                             checkpoint_every=2)
        session = SessionService(engine).session()
        for row in manager_stream(8, 5):
            session.run([("insert", "manager", row)])
        engine.close()
        assert len(WriteAheadLog.segment_paths(path)) == 3
        replica = ReplicaEngine(path)
        replica.catch_up()
        ck = StoreEngine.replay(path, from_checkpoint=True)
        _assert_same_graph(replica.graph, ck.graph)
        assert replica.graph.root.vid == "v4"  # the newest checkpoint


# ----------------------------------------------------------------------
# the crash-recovery contract on the read side
# ----------------------------------------------------------------------
class TestTornTail:
    def _build(self, tmp_path, n_txns=12, segment_records=5):
        rng = random.Random(0x7042)
        (schema, db), *_ = random_database_states(rng, rows_per_leaf=2)
        wal_dir = tmp_path / "wal"
        engine = StoreEngine(
            db, (), wal=WriteAheadLog(wal_dir, segment_records=segment_records),
            checkpoint_every=4)
        _drive(rng, engine, db, n_txns)
        engine.close()
        return wal_dir, engine

    def test_torn_tail_at_segment_boundary(self, tmp_path):
        """A crash mid-append at the end of the newest segment: the
        replica *waits* (no error, no partial application), repair
        truncates the torn line, and the replica then converges to the
        full replay of the repaired log."""
        wal_dir, engine = self._build(tmp_path)
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        replica.catch_up()
        assert replica.behind_bytes() == 0

        # Crash injection: a record missing its trailing newline at the
        # tail of the final segment — exactly what a torn append leaves.
        last = WriteAheadLog.segment_paths(wal_dir)[-1]
        torn = b'{"type": "commit", "version": "v999", "parent"'
        with last.open("ab") as fh:
            fh.write(torn)

        assert replica.sync() == 0          # waits; applies nothing
        assert replica.behind_bytes() == len(torn)
        assert replica.sync() == 0          # still waiting, still calm

        dropped = WriteAheadLog.repair(wal_dir)  # crash recovery
        assert dropped == len(torn)
        assert replica.sync() == 0          # offset clamps to the truncation
        assert replica.behind_bytes() == 0

        full = StoreEngine.replay(wal_dir, from_checkpoint=False)
        _assert_same_graph(replica.graph, full.graph)
        _assert_same_graph(replica.graph, engine.graph)

    def test_torn_tail_mid_stream_then_completed(self, tmp_path):
        """The benign race: the replica polls while the primary is
        half-way through an append.  The partial line is left alone and
        applied whole once its newline lands.  Staged by peeling the
        log's real final record off and re-appending it in two halves
        around the replica's polls."""
        wal_dir, engine = self._build(tmp_path)
        last = WriteAheadLog.segment_paths(wal_dir)[-1]
        lines = last.read_bytes().splitlines(keepends=True)
        final = lines[-1]
        last.write_bytes(b"".join(lines[:-1]))

        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        before = replica.catch_up()
        assert replica.behind_bytes() == 0

        split = max(1, len(final) // 2)
        with last.open("ab") as fh:
            fh.write(final[:split])
        assert replica.sync() == 0           # mid-append: wait
        assert replica.behind_bytes() == split
        with last.open("ab") as fh:
            fh.write(final[split:])
        assert replica.sync() == 1           # the whole record, once
        assert replica._applied_records == before + 1
        _assert_same_graph(replica.graph, engine.graph)

    def test_corrupt_mid_log_line_raises(self, tmp_path):
        """A newline-*terminated* unparsable line is corruption, not a
        torn tail — the replica must refuse it loudly."""
        wal_dir, _ = self._build(tmp_path)
        last = WriteAheadLog.segment_paths(wal_dir)[-1]
        with last.open("ab") as fh:
            fh.write(b'{"type": "commit", "version"\n')
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        with pytest.raises(StoreError, match="corrupt"):
            replica.catch_up()

    def test_pruned_under_cursor_resyncs_from_checkpoint(self, tmp_path):
        """GC pruning segments the cursor still points into is a
        detectable StoreError; ``resync`` re-bootstraps from the newest
        checkpoint and converges with ``replay(from_checkpoint=True)``."""
        wal_dir, engine = self._build(tmp_path, n_txns=16,
                                      segment_records=4)
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        replica.sync(max_records=2)  # cursor parked in the oldest segment
        assert replica.ready
        pruned = WriteAheadLog.prune(wal_dir)
        if not pruned:
            pytest.skip("seeded traffic produced no prunable segment")
        with pytest.raises(StoreError, match="resynchronise"):
            replica.catch_up()
        replica.resync()
        replica.catch_up()
        ck = StoreEngine.replay(wal_dir, from_checkpoint=True)
        _assert_same_graph(replica.graph, ck.graph)


# ----------------------------------------------------------------------
# the staleness report
# ----------------------------------------------------------------------
class TestStalenessReport:
    def test_status_and_lag_shapes(self, tmp_path):
        schema, db, constraints = serving_state(8)
        wal_dir = tmp_path / "wal"
        engine = StoreEngine(db, constraints,
                             wal=WriteAheadLog(wal_dir, segment_records=4),
                             checkpoint_every=3)
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)

        status = replica.status()
        assert status["role"] == "replica"
        assert status["ready"] is False
        assert "versions" not in status

        session = SessionService(engine).session()
        rows = manager_stream(8, 4)
        session.run([("insert", "manager", rows[0])])
        replica.catch_up()
        status = replica.status()
        assert status["ready"] is True
        assert status["behind_bytes"] == 0
        assert status["applied_records"] >= 2
        assert status["branches"] == engine.graph.branches()
        assert replica.lag()["current"] is True

        # fresh primary commits show up as measurable lag ...
        for row in rows[1:]:
            session.run([("insert", "manager", row)])
        assert replica.behind_bytes() > 0
        assert replica.lag()["current"] is False
        # ... and vanish after a sync
        replica.catch_up()
        engine.close()
        replica.catch_up()
        assert replica.lag()["current"] is True
        assert replica.describe()["role"] == "replica"

    def test_reads_before_bootstrap_fail_loudly(self, tmp_path):
        (tmp_path / "wal").mkdir()
        replica = ReplicaEngine(tmp_path / "wal")
        with pytest.raises(StoreError, match="not bootstrapped"):
            replica.read("dept")


class TestCatchUpDeadline:
    """The hard form of catch_up: a supervision loop polling a dead or
    torn primary must fail loudly and boundedly (DeadlineExceeded with
    the transient failure chained), never back off past any bound."""

    def _torn_log(self, tmp_path, n=8):
        schema, db, constraints = serving_state(n)
        wal = tmp_path / "torn.jsonl"
        engine = StoreEngine(db, constraints, wal=wal)
        session = SessionService(engine).session()
        session.run([("insert", "manager", manager_stream(n, 1)[0])])
        engine.close()
        with open(WriteAheadLog.segment_paths(wal)[-1], "ab") as f:
            f.write(b'{"type": "commit", "ver')  # forever half-written
        return wal

    def test_deadline_lapses_boundedly_on_a_torn_tail(self, tmp_path):
        import time as _time

        from repro.errors import DeadlineExceeded

        replica = ReplicaEngine(self._torn_log(tmp_path))
        start = _time.monotonic()
        with pytest.raises(DeadlineExceeded, match="bytes behind"):
            replica.catch_up(deadline=0.3)
        elapsed = _time.monotonic() - start
        assert elapsed < 2.0  # bounded, not unbounded backoff
        assert replica.behind_bytes() > 0
        assert replica.ready  # the durable prefix still applied

    def test_deadline_overrides_timeout_and_sleeps_are_capped(
            self, tmp_path):
        import time as _time

        from repro.errors import DeadlineExceeded

        replica = ReplicaEngine(self._torn_log(tmp_path))
        start = _time.monotonic()
        with pytest.raises(DeadlineExceeded):
            # timeout says 30s; the hard deadline must win, and the
            # backoff sleeps must be clipped against what remains.
            replica.catch_up(timeout=30.0, poll_interval=5.0,
                             deadline=0.2)
        assert _time.monotonic() - start < 1.5

    def test_transient_oserror_is_retried_then_chained(self, tmp_path):
        from repro.errors import DeadlineExceeded

        schema, db, constraints = serving_state(8)
        wal = tmp_path / "w.jsonl"
        engine = StoreEngine(db, constraints, wal=wal)
        engine.close()
        replica = ReplicaEngine(wal)
        replica.sync = lambda max_records=None: (_ for _ in ()).throw(
            OSError("flaky disk"))
        with pytest.raises(DeadlineExceeded) as caught:
            replica.catch_up(deadline=0.2)
        assert isinstance(caught.value.__cause__, OSError)
        assert "flaky disk" in str(caught.value.__cause__)
        del replica.sync  # the class method again
        assert replica.catch_up(deadline=1.0) >= 0  # recovers cleanly

    def test_soft_mode_keeps_the_historical_contract(self, tmp_path):
        replica = ReplicaEngine(self._torn_log(tmp_path))
        # No deadline: lapse quietly with the prefix applied ...
        applied = replica.catch_up(timeout=0.2)
        assert applied >= 2 and replica.behind_bytes() > 0
        # ... and transient OSErrors propagate as before.
        replica.sync = lambda max_records=None: (_ for _ in ()).throw(
            OSError("flaky disk"))
        with pytest.raises(OSError, match="flaky disk"):
            replica.catch_up(timeout=0.2)
        del replica.sync
