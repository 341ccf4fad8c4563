"""Failover: promotion, epoch fencing, retry policy, and the
kill-and-promote client — fast typed-contract tests plus the slow
differential suite (every crash offset; seeded chaos workloads).

Slow-lane assertions carry the seed / fault-plan recipe, so a CI chaos
failure is replayed by re-running the printed seed."""

from __future__ import annotations

import shutil
import threading
import time
import warnings
from random import Random

import pytest

from repro.errors import (
    CommitRejected,
    DeadlineExceeded,
    EpochFenced,
    ProtocolError,
    ServerOverloaded,
    StoreError,
    TornTailWarning,
)
from repro.faults import FaultPlan, FaultyWal, InjectedCrash
from repro.server import (
    ClientPool,
    FailoverClient,
    ReplicaEngine,
    RetryPolicy,
    StoreClient,
    StoreServer,
    promote,
)
from repro.store import SessionService, StoreEngine, WriteAheadLog
from repro.workloads import manager_stream, serving_state

from generators import chaos_seeds


def _mk_engine(n=30, **kwargs):
    schema, db, constraints = serving_state(n)
    return StoreEngine(db, constraints, **kwargs)


def _commit_rows(engine, rows, branch="main"):
    session = SessionService(engine).session(branch)
    return [session.commit(session.begin().insert("manager", row))
            for row in rows]


def _graphs_equal(a, b):
    """Head-for-head, state-for-state equality of two engines."""
    assert a.graph.branches() == b.graph.branches()
    assert len(a.graph) == len(b.graph)
    for name in a.graph.branches():
        assert a.state(branch=name) == b.state(branch=name), name


# ----------------------------------------------------------------------
# promotion & fencing
# ----------------------------------------------------------------------
class TestPromotion:
    def test_promote_stamps_the_next_epoch(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 3))
        replica = ReplicaEngine(wal)
        promoted = promote(replica)
        assert promoted.epoch == 1
        assert promoted.describe()["epoch"] == 1
        _graphs_equal(promoted, primary)
        # The promoted engine serves writes under the new epoch.
        _commit_rows(promoted, manager_stream(30, 4)[3:])
        assert promoted.graph.seq == primary.graph.seq + 1

    def test_demoted_primary_append_is_fenced(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        promote(ReplicaEngine(wal))
        with pytest.raises(EpochFenced) as caught:
            _commit_rows(primary, manager_stream(30, 3)[2:])
        assert caught.value.held == 0
        assert caught.value.current == 1

    def test_promoted_replica_stops_tailing_itself(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        replica = ReplicaEngine(wal)
        promote(replica)
        with pytest.raises(EpochFenced):
            replica.sync()
        with pytest.raises(EpochFenced):
            replica.resync()
        assert replica.status()["promoted"] is True

    def test_tracking_follower_crosses_the_epoch(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        follower = ReplicaEngine(wal)
        follower.sync()
        promoted = promote(ReplicaEngine(wal))
        _commit_rows(promoted, manager_stream(30, 3)[2:])
        follower.sync()
        assert follower.engine.epoch == 1
        _graphs_equal(follower.engine, promoted)

    def test_pinned_follower_is_fenced_at_the_epoch(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        pinned = ReplicaEngine(wal, follow_epochs=False)
        pinned.sync()
        promote(ReplicaEngine(wal))
        with pytest.raises(EpochFenced) as caught:
            pinned.sync()
        assert caught.value.current == 1

    def test_live_tail_refuses_promotion(self, tmp_path):
        """A log that keeps growing after catch-up means the old
        primary is alive — promotion must refuse, not fork."""
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        replica = ReplicaEngine(wal)
        replica.sync()
        real_catch_up = replica.catch_up

        def racing_catch_up(**kwargs):
            result = real_catch_up(**kwargs)
            _commit_rows(primary, manager_stream(30, 3)[2:])
            return result

        replica.catch_up = racing_catch_up
        with pytest.raises(StoreError, match="appears to be alive"):
            promote(replica)
        assert replica.promoted is False

    def test_promotion_race_loser_is_fenced_and_resumes(self, tmp_path):
        """The TOCTOU window: a second promoter frozen between its
        catch-up and its stamp must lose to the winner's stamp, roll
        back its promoted mark, and resume following."""
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        loser = ReplicaEngine(wal)
        loser.sync()  # bootstrapped at epoch 0

        # Freeze the loser's view of the log...
        loser.sync = lambda max_records=None: 0
        loser.catch_up = lambda **kwargs: None
        loser.behind_bytes = lambda: 0
        # ...while the winner stamps epoch 1.
        winner = promote(ReplicaEngine(wal))
        assert winner.epoch == 1

        with pytest.raises(EpochFenced) as caught:
            promote(loser)
        assert caught.value.held == 0 and caught.value.current == 1
        assert loser.promoted is False  # rolled back: free to follow
        del loser.sync  # unfreeze (restore the class methods)
        del loser.catch_up, loser.behind_bytes
        loser.sync()
        assert loser.engine.epoch == 1
        _graphs_equal(loser.engine, winner)

    def test_double_promotion_advances_the_epoch_again(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        first = promote(ReplicaEngine(wal))
        _commit_rows(first, manager_stream(30, 3)[2:])
        second = promote(ReplicaEngine(wal))
        assert second.epoch == 2
        with pytest.raises(EpochFenced):
            _commit_rows(first, manager_stream(30, 4)[3:])

    def test_epoch_survives_restart_and_replay(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        promoted = promote(ReplicaEngine(wal))
        _commit_rows(promoted, manager_stream(30, 3)[2:])
        promoted.wal.close()
        replayed = StoreEngine.replay(wal)
        assert replayed.epoch == 1
        _graphs_equal(replayed, promoted)


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
class _Flaky:
    """Fails ``failures`` times with ``exc_type``, then returns 42."""

    def __init__(self, failures, exc_type=OSError):
        self.failures = failures
        self.exc_type = exc_type
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc_type(f"failure {self.calls}")
        return 42


class _NoSleep(RetryPolicy):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.slept = []

    def sleep(self, delay):
        self.slept.append(delay)


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        for exc in (OSError("x"), ConnectionResetError("x"),
                    ProtocolError("x"), ServerOverloaded("x")):
            assert policy.retryable(exc), exc
        for exc in (CommitRejected("x", findings=[]), StoreError("x"),
                    ValueError("x"),
                    EpochFenced("x", held=0, current=1)):
            assert not policy.retryable(exc), exc

    def test_seeded_delays_are_deterministic_and_bounded(self):
        a = RetryPolicy(seed=7, base_delay=0.01, max_delay=0.5)
        b = RetryPolicy(seed=7, base_delay=0.01, max_delay=0.5)
        prev_a = prev_b = None
        for _ in range(20):
            prev_a, prev_b = a.next_delay(prev_a), b.next_delay(prev_b)
            assert prev_a == prev_b
            assert 0.01 <= prev_a <= 0.5

    def test_retries_until_success(self):
        fn = _Flaky(failures=3)
        policy = _NoSleep(max_attempts=6, seed=0)
        assert policy.call(fn) == 42
        assert fn.calls == 4 and len(policy.slept) == 3

    def test_fatal_error_raises_immediately(self):
        fn = _Flaky(failures=5, exc_type=ValueError)
        policy = _NoSleep(max_attempts=6, seed=0)
        with pytest.raises(ValueError):
            policy.call(fn)
        assert fn.calls == 1 and policy.slept == []

    def test_attempts_exhausted_reraises_the_last_failure(self):
        fn = _Flaky(failures=99)
        policy = _NoSleep(max_attempts=3, seed=0)
        with pytest.raises(OSError, match="failure 3"):
            policy.call(fn)
        assert fn.calls == 3

    def test_deadline_exceeded_chains_the_last_failure(self):
        fn = _Flaky(failures=99)
        policy = RetryPolicy(max_attempts=10, base_delay=5.0,
                             max_delay=5.0, seed=0)
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded) as caught:
            policy.call(fn, deadline=0.05)
        assert time.monotonic() - start < 1.0  # never slept 5 s
        assert isinstance(caught.value.__cause__, OSError)
        assert fn.calls == 1

    def test_epoch_fenced_is_fatal_to_the_bare_policy(self):
        fn = _Flaky(failures=1, exc_type=lambda m: EpochFenced(
            m, held=0, current=1))
        policy = _NoSleep(max_attempts=6, seed=0)
        with pytest.raises(EpochFenced):
            policy.call(fn)
        assert fn.calls == 1

    def test_rejects_zero_attempts(self):
        with pytest.raises(StoreError):
            RetryPolicy(max_attempts=0)


# ----------------------------------------------------------------------
# the wire: epochs in hello/status, fencing over the protocol
# ----------------------------------------------------------------------
class TestWireEpoch:
    def test_hello_and_status_carry_the_epoch(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        promoted = promote(ReplicaEngine(wal))
        with StoreServer(promoted) as server:
            with StoreClient(*server.address) as client:
                assert client.server_info["epoch"] == 1
                status = client.status()
                assert status["epoch"] == 1
                assert status["idle_closed"] == 0

    def test_fenced_commit_crosses_the_wire_typed(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        with StoreServer(primary) as server:  # serving while demoted
            promote(ReplicaEngine(wal))
            with StoreClient(*server.address) as client:
                with pytest.raises(EpochFenced) as caught:
                    client.run([{"op": "insert", "relation": "manager",
                                 "row": manager_stream(30, 3)[2]}])
        assert caught.value.held == 0
        assert caught.value.current == 1

    def test_replica_status_reports_epoch_and_promoted(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 2))
        replica = ReplicaEngine(wal)
        replica.sync()
        with StoreServer(replica) as server:
            with StoreClient(*server.address) as client:
                status = client.status()
        assert status["role"] == "replica"
        assert status["epoch"] == 0
        assert status["promoted"] is False
        assert status["behind_bytes"] == 0


# ----------------------------------------------------------------------
# idle timeout & pool eviction
# ----------------------------------------------------------------------
class TestIdleTimeout:
    def test_rejects_non_positive_timeout(self):
        engine = _mk_engine()
        with pytest.raises(StoreError):
            StoreServer(engine, idle_timeout=0)
        with pytest.raises(StoreError):
            StoreServer(engine, idle_timeout=-1.0)
        engine.close()

    def test_idle_connection_is_closed_and_counted(self):
        engine = _mk_engine()
        with StoreServer(engine, idle_timeout=0.15) as server:
            idle = StoreClient(*server.address)
            deadline = time.monotonic() + 5.0
            while True:
                with StoreClient(*server.address) as probe:
                    if probe.status()["idle_closed"] >= 1:
                        break
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert idle.is_stale()  # server hung up on the idler
            idle.close()
        engine.close()

    def test_active_connection_survives_the_timeout(self):
        engine = _mk_engine()
        with StoreServer(engine, idle_timeout=0.2) as server:
            with StoreClient(*server.address) as client:
                for _ in range(4):
                    time.sleep(0.1)
                    assert client.ping()  # traffic resets the clock
        engine.close()


class TestPoolEviction:
    def test_stale_pooled_client_is_evicted_on_acquire(self):
        engine = _mk_engine()
        server = StoreServer(engine)
        server.start_background()
        host, port = server.address
        pool = ClientPool(host, port, size=1)  # the next acquire must
        # draw the pooled corpse, not an undialled slot
        with pool.acquire() as client:
            assert client.ping()
        server.stop()  # the pooled socket is now dead
        server2 = StoreServer(engine, host=host, port=port)
        server2.start_background()
        try:
            with pool.acquire() as client:
                assert client.ping()  # fresh dial, not the corpse
            assert pool.evicted == 1
        finally:
            pool.close()
            server2.stop()
            engine.close()


@pytest.mark.slow
class TestPoolUnderChurn:
    def test_concurrent_borrowers_survive_server_churn(self):
        """Seeded churn: worker threads acquire/ping/release against a
        server that a churn thread keeps killing and restarting on the
        same port, so stale-peek eviction races real disconnects and
        failed dials.  The invariant under fire is slot conservation —
        after the dust settles a ``size``-deep nest of acquires must
        still succeed, which it cannot if any error path leaked a
        slot."""
        for seed in chaos_seeds(3):
            engine = _mk_engine()
            sizer = StoreServer(engine)
            sizer.start_background()
            host, port = sizer.address
            sizer.stop()  # the port is now ours to churn on
            stop_churn = threading.Event()

            def churn():
                rng = Random(seed)
                while not stop_churn.is_set():
                    try:
                        server = StoreServer(engine, host=host,
                                             port=port)
                        server.start_background()
                    except OSError:
                        time.sleep(0.01)  # port not released yet
                        continue
                    time.sleep(rng.uniform(0.05, 0.15))
                    server.stop()
                    time.sleep(rng.uniform(0.0, 0.03))

            pool = ClientPool(host, port, size=3)
            successes = []

            def worker(wseed):
                rng = Random(wseed)
                won = 0
                for _ in range(40):
                    try:
                        with pool.acquire() as client:
                            client.ping()
                        won += 1
                    except (ProtocolError, OSError, StoreError):
                        pass  # a kill mid-borrow: the slot must free
                    time.sleep(rng.uniform(0.0, 0.005))
                successes.append(won)

            churner = threading.Thread(target=churn)
            workers = [threading.Thread(target=worker,
                                        args=(seed * 100 + i,))
                       for i in range(6)]
            churner.start()
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
            stop_churn.set()
            churner.join(timeout=10)
            assert not any(w.is_alive() for w in workers), (
                f"borrower deadlocked under churn: seed={seed}")
            assert sum(successes) > 0, f"seed={seed}"
            # Slot conservation: with a stable server back, the full
            # pool depth must still be acquirable at once.
            stable = StoreServer(engine, host=host, port=port)
            stable.start_background()

            def drain():
                with pool.acquire() as a, pool.acquire() as b, \
                        pool.acquire() as c:
                    assert a.ping() and b.ping() and c.ping()

            guard = threading.Thread(target=drain)
            guard.start()
            guard.join(timeout=10)
            assert not guard.is_alive(), (
                f"pool leaked a slot under churn: seed={seed} "
                f"evicted={pool.evicted}")
            pool.close()
            stable.stop()
            engine.close()


# ----------------------------------------------------------------------
# the failover client
# ----------------------------------------------------------------------
class TestFailoverClient:
    def test_requires_addresses(self):
        with pytest.raises(StoreError):
            FailoverClient([])

    def test_refuses_a_stale_epoch_primary(self):
        engine = _mk_engine()
        with StoreServer(engine) as server:  # serves epoch 0
            with FailoverClient([server.address]) as fc:
                fc.epoch = 1  # the client has seen a promotion
                with pytest.raises(EpochFenced) as caught:
                    fc._primary()
                assert caught.value.held == 0
                assert caught.value.current == 1
        engine.close()

    def test_writes_and_reads_against_a_healthy_primary(self):
        engine = _mk_engine()
        rows = manager_stream(30, 2)
        with StoreServer(engine) as server:
            with FailoverClient([server.address]) as fc:
                result = fc.run([{"op": "insert", "relation": "manager",
                                  "row": rows[0]}])
                assert result["version"]
                assert fc.epoch == 0
                assert rows[0] in fc.read("manager")
                assert fc.heartbeat() is True
        engine.close()

    def test_heartbeat_detects_a_dead_primary(self):
        engine = _mk_engine()
        server = StoreServer(engine)
        server.start_background()
        fc = FailoverClient([server.address])
        assert fc.heartbeat() is False  # no connection yet
        fc._primary()
        assert fc.heartbeat() is True
        server.stop()
        assert fc.heartbeat() is False  # dropped, will re-resolve
        fc.close()
        engine.close()

    def test_read_degrades_to_a_fresh_replica(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        engine = _mk_engine(wal=wal)
        rows = manager_stream(30, 1)
        _commit_rows(engine, rows)
        replica = ReplicaEngine(wal)
        replica.sync()
        primary = StoreServer(engine)
        primary.start_background()
        with StoreServer(replica) as mirror:
            fc = FailoverClient([primary.address, mirror.address],
                                staleness_budget=0,
                                policy=RetryPolicy(seed=0),
                                timeout=1.0)
            assert rows[0] in fc.read("manager")  # via the primary
            primary.stop()
            assert rows[0] in fc.read("manager")  # via the replica
            fc.close()
        engine.close()

    def test_write_deadline_lapses_with_cause_when_no_primary(self):
        engine = _mk_engine()
        replica_like = StoreServer(engine)  # never started: dead addr
        fc = FailoverClient([("127.0.0.1", 1)],  # nothing listens here
                            policy=RetryPolicy(
                                seed=0, base_delay=0.01, max_delay=0.05),
                            timeout=0.2)
        with pytest.raises(DeadlineExceeded) as caught:
            fc.run([{"op": "insert", "relation": "manager",
                     "row": manager_stream(30, 1)[0]}], deadline=0.3)
        assert caught.value.__cause__ is not None
        fc.close()
        engine.close()

    def test_queue_and_flush_land_in_order(self):
        engine = _mk_engine()
        rows = manager_stream(30, 3)
        with StoreServer(engine) as server:
            with FailoverClient([server.address]) as fc:
                assert fc.queue([{"op": "insert", "relation": "manager",
                                  "row": rows[0]}]) == 1
                assert fc.queue([{"op": "insert", "relation": "manager",
                                  "row": rows[1]}]) == 2
                assert fc.queued == 2
                results = fc.flush()
                assert len(results) == 2 and fc.queued == 0
                head = fc.read("manager")
                assert rows[0] in head and rows[1] in head
        engine.close()

    def test_lapsed_flush_keeps_the_unflushed_suffix(self):
        engine = _mk_engine()
        rows = manager_stream(30, 2)
        fc = FailoverClient([("127.0.0.1", 1)],
                            policy=RetryPolicy(
                                seed=0, base_delay=0.01, max_delay=0.05),
                            timeout=0.2)
        fc.queue([{"op": "insert", "relation": "manager", "row": rows[0]}])
        fc.queue([{"op": "insert", "relation": "manager", "row": rows[1]}])
        with pytest.raises(DeadlineExceeded):
            fc.flush(deadline=0.2)
        assert fc.queued == 2  # nothing landed, nothing lost
        fc.close()
        engine.close()


# ----------------------------------------------------------------------
# the slow lane: differential promotion durability & chaos workloads
# ----------------------------------------------------------------------
def _expected_from(path, tmp_path, tag):
    """Replay a *copy* of the log (promotion repairs in place)."""
    copy = tmp_path / f"expected-{tag}.jsonl"
    shutil.copytree(path, copy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TornTailWarning)
        return StoreEngine.replay(copy)


@pytest.mark.slow
class TestPromotionDurability:
    def test_every_crash_offset_of_the_wal_tail(self, tmp_path):
        """Crash the primary at every byte offset of its final WAL
        record; promotion must produce exactly the durable prefix —
        the whole final record or none of it, plus epoch 1."""
        source = tmp_path / "source.jsonl"
        engine = _mk_engine(n=12, wal=source)
        _commit_rows(engine, manager_stream(12, 3))
        engine.close()
        data = WriteAheadLog.segment_paths(source)[-1].read_bytes()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_start + 1, len(data)):
            wal = tmp_path / f"cut-{cut}.jsonl"
            wal.mkdir()
            (wal / "wal.000001.jsonl").write_bytes(data[:cut])
            expected = _expected_from(wal, tmp_path, f"cut-{cut}")
            promoted = promote(ReplicaEngine(wal))
            assert promoted.epoch == 1, f"cut at byte {cut}"
            assert promoted.graph.branches() \
                == expected.graph.branches(), f"cut at byte {cut}"
            assert len(promoted.graph) == len(expected.graph), \
                f"cut at byte {cut}"
            assert promoted.state() == expected.state(), \
                f"cut at byte {cut}"
            # The promoted engine accepts writes over the repaired log.
            _commit_rows(promoted, manager_stream(12, 4)[3:])
            promoted.wal.close()

    def test_seeded_crash_differential(self, tmp_path):
        """25 seeds of live fault injection: a seeded crash shape at a
        seeded commit, power loss, then promote — the promoted graph
        must equal a plain replay of the durable prefix."""
        for seed in chaos_seeds(25):
            rng = Random(seed)
            site = rng.choice(["wal.torn", "wal.short", "wal.fsync_loss"])
            index = rng.randrange(0, 6)
            plan = FaultPlan(seed=seed, trips={site: {index: None}})
            wal = tmp_path / f"seed-{seed}.jsonl"
            engine = _mk_engine(n=30, wal=wal)
            engine.wal = FaultyWal(engine.wal, plan)
            try:
                _commit_rows(engine, manager_stream(30, 7))
            except InjectedCrash:
                pass
            engine.wal.simulate_power_loss()
            expected = _expected_from(wal, tmp_path, f"seed-{seed}")
            promoted = promote(ReplicaEngine(wal))
            recipe = f"seed={seed} plan={plan.describe()}"
            assert promoted.epoch == 1, recipe
            assert promoted.graph.branches() \
                == expected.graph.branches(), recipe
            assert len(promoted.graph) == len(expected.graph), recipe
            for name in expected.graph.branches():
                assert promoted.state(branch=name) \
                    == expected.state(branch=name), recipe
            promoted.wal.close()


@pytest.mark.slow
class TestKillAndPromoteWorkload:
    def test_no_acked_commit_is_ever_lost(self, tmp_path):
        """The acceptance workload, three seeds: write through a
        primary, kill it, queue writes, promote the replica, flush —
        every acknowledged commit must be in the promoted graph."""
        for i, seed in enumerate(chaos_seeds(3)):
            wal = tmp_path / f"w-{seed}.jsonl"
            engine = _mk_engine(n=60, wal=wal)
            replica = ReplicaEngine(wal)
            replica.sync()
            rows = manager_stream(60, 9)
            acked = []
            primary = StoreServer(engine)
            primary.start_background()
            fc = FailoverClient(
                [primary.address],
                policy=RetryPolicy(seed=seed, base_delay=0.01,
                                   max_delay=0.1),
                deadline=15.0, timeout=2.0)
            base = i * 3
            acked.append((rows[base],
                          fc.run([{"op": "insert", "relation": "manager",
                                   "row": rows[base]}])))
            primary.stop()  # the kill
            replica.sync()  # the tail was durable before the kill
            fc.queue([{"op": "insert", "relation": "manager",
                       "row": rows[base + 1]}])
            fc.queue([{"op": "insert", "relation": "manager",
                       "row": rows[base + 2]}])
            promoted = promote(replica)
            with StoreServer(promoted) as successor:
                fc.add_address(successor.address)
                results = fc.flush()
                acked.extend(zip(rows[base + 1:base + 3], results))
                assert fc.epoch == 1, f"seed={seed}"
                head = fc.read("manager")
            fc.close()
            for row, result in acked:
                assert row in head, (
                    f"acked commit lost: seed={seed} "
                    f"version={result['version']}")
            promoted.wal.close()
            engine.close()
