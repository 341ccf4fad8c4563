"""The fault-injection harness: seeded determinism, WAL crash shapes,
and the frame-aware chaos proxy.

Every failure in this suite is *scheduled* by a :class:`FaultPlan`
seed, never by timing: a failing run is replayed by re-running the same
seed (assertions carry it, and the CI chaos lane prints it)."""

from __future__ import annotations

import threading
import time
import warnings

import pytest

from repro.errors import ProtocolError, TornTailWarning
from repro.faults import (
    ChaosProxy,
    FaultPlan,
    FaultyWal,
    InjectedCrash,
    InjectedFault,
)
from repro.io import encode_frame, split_frames
from repro.server import StoreClient, StoreServer
from repro.store import SessionService, StoreEngine, WriteAheadLog
from repro.workloads import manager_stream, serving_state

from generators import chaos_seeds


def _mk_engine(n=30, **kwargs):
    schema, db, constraints = serving_state(n)
    return StoreEngine(db, constraints, **kwargs)


def _commit_rows(engine, rows):
    session = SessionService(engine).session("main")
    return [session.commit(session.begin().insert("manager", row))
            for row in rows]


# ----------------------------------------------------------------------
# split_frames (the proxy's byte layer)
# ----------------------------------------------------------------------
class TestSplitFrames:
    def test_splits_at_boundaries_without_decoding(self):
        f1 = encode_frame({"op": "ping", "id": 1})
        f2 = encode_frame({"op": "status", "id": 2})
        frames, rest = split_frames(f1 + f2)
        assert frames == [f1, f2] and rest == b""

    def test_partial_tail_is_remainder(self):
        f1 = encode_frame({"op": "ping"})
        f2 = encode_frame({"op": "status"})
        blob = f1 + f2
        for cut in range(len(f1) + 1, len(blob)):
            frames, rest = split_frames(blob[:cut])
            assert frames == [f1]
            assert rest == blob[len(f1):cut]

    def test_partial_header_is_remainder(self):
        f1 = encode_frame({"op": "ping"})
        frames, rest = split_frames(f1[:3])
        assert frames == [] and rest == f1[:3]

    def test_bytes_pass_through_untouched(self):
        f1 = encode_frame({"op": "commit", "ops": [], "id": 9})
        frames, _ = split_frames(f1)
        assert frames[0] == f1  # header included, payload verbatim


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_fires_identically(self):
        draws = []
        for _ in range(2):
            plan = FaultPlan(seed=42, rates={"x": 0.25})
            draws.append([bool(plan.fire("x")) for _ in range(200)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, rates={"x": 0.25})
        b = FaultPlan(seed=2, rates={"x": 0.25})
        assert [bool(a.fire("x")) for _ in range(200)] \
            != [bool(b.fire("x")) for _ in range(200)]

    def test_trips_fire_at_exact_indices_with_payloads(self):
        plan = FaultPlan(seed=0, trips={"t": {3: "payload"}, "u": [0, 2]})
        fired = [plan.fire("t") for _ in range(5)]
        assert [bool(e) for e in fired] == [False] * 3 + [True, False]
        assert fired[3]["payload"] == "payload" and fired[3]["index"] == 3
        assert [bool(plan.fire("u")) for _ in range(3)] \
            == [True, False, True]

    def test_zero_rate_site_never_fires(self):
        plan = FaultPlan(seed=0, rates={"x": 0.0})
        assert not any(plan.fire("x") for _ in range(100))
        assert not plan.configured("x")
        assert plan.configured("y") is False

    def test_event_log_records_firings(self):
        plan = FaultPlan(seed=0, trips={"a": [1], "b": {0: 7}})
        plan.fire("a"), plan.fire("b"), plan.fire("a")
        assert [(e["site"], e["index"], e["payload"])
                for e in plan.events] == [("b", 0, 7), ("a", 1, None)]
        recipe = plan.describe()
        assert recipe["seed"] == 0 and len(recipe["fired"]) == 2

    def test_counters_are_per_site(self):
        plan = FaultPlan(seed=0, trips={"a": [1], "b": [1]})
        assert not plan.fire("a") and not plan.fire("b")
        assert plan.fire("a") and plan.fire("b")


# ----------------------------------------------------------------------
# the WAL wrapper
# ----------------------------------------------------------------------
class TestFaultyWal:
    def test_torn_write_leaves_durable_partial_line(self, tmp_path):
        wal = FaultyWal(WriteAheadLog(tmp_path / "w.jsonl"),
                        FaultPlan(seed=1, trips={"wal.torn": {2: 7}}))
        wal.append({"type": "commit", "n": 0})
        wal.append({"type": "commit", "n": 1})
        with pytest.raises(InjectedCrash):
            wal.append({"type": "commit", "n": 2})
        # The torn bytes are fsynced: power loss does not remove them.
        assert wal.simulate_power_loss() == {}
        data = WriteAheadLog.segment_paths(tmp_path / "w.jsonl")[-1] \
            .read_bytes()
        assert len(data.split(b"\n")[-1]) == 7  # the 7-byte cut
        with pytest.warns(TornTailWarning):
            records = list(WriteAheadLog.records(tmp_path / "w.jsonl"))
        assert [r["n"] for r in records] == [0, 1]

    def test_short_write_vanishes_on_power_loss(self, tmp_path):
        wal = FaultyWal(WriteAheadLog(tmp_path / "w.jsonl"),
                        FaultPlan(seed=1, trips={"wal.short": {1: 9}}))
        wal.append({"type": "commit", "n": 0})
        with pytest.raises(InjectedCrash):
            wal.append({"type": "commit", "n": 1})
        dropped = wal.simulate_power_loss()
        assert sum(dropped.values()) == 9
        records = list(WriteAheadLog.records(tmp_path / "w.jsonl"))
        assert [r["n"] for r in records] == [0]  # clean prefix, no tear

    def test_fsync_loss_erases_an_acknowledged_append(self, tmp_path):
        wal = FaultyWal(WriteAheadLog(tmp_path / "w.jsonl"),
                        FaultPlan(seed=1, trips={"wal.fsync_loss": [1]}))
        wal.append({"type": "commit", "n": 0})
        wal.append({"type": "commit", "n": 1})  # acked, never durable
        # Readable now — but a power cut erases the acked record whole.
        assert [r["n"] for r in
                WriteAheadLog.records(tmp_path / "w.jsonl")] == [0, 1]
        dropped = wal.simulate_power_loss()
        assert sum(dropped.values()) > 0
        assert [r["n"] for r in
                WriteAheadLog.records(tmp_path / "w.jsonl")] == [0]

    def test_later_durable_append_recovers_lost_fsync(self, tmp_path):
        """The watermark is a high-water mark on file bytes: a durable
        append after a dropped fsync re-covers the earlier record."""
        wal = FaultyWal(WriteAheadLog(tmp_path / "w.jsonl"),
                        FaultPlan(seed=1, trips={"wal.fsync_loss": [1]}))
        for n in range(3):
            wal.append({"type": "commit", "n": n})
        assert wal.simulate_power_loss() == {}
        assert [r["n"] for r in
                WriteAheadLog.records(tmp_path / "w.jsonl")] == [0, 1, 2]

    def test_io_error_is_transient_and_retryable(self, tmp_path):
        wal = FaultyWal(WriteAheadLog(tmp_path / "w.jsonl"),
                        FaultPlan(seed=1, trips={"wal.io_error": [1]}))
        wal.append({"type": "commit", "n": 0})
        with pytest.raises(InjectedFault) as caught:
            wal.append({"type": "commit", "n": 1})
        assert isinstance(caught.value, OSError)  # classified retryable
        wal.append({"type": "commit", "n": 1})  # the retry goes through
        records = list(WriteAheadLog.records(tmp_path / "w.jsonl"))
        assert [r["n"] for r in records] == [0, 1]  # nothing half-written

    def test_random_cut_is_seed_deterministic(self, tmp_path):
        tails = []
        for run in range(2):
            path = tmp_path / f"w{run}.jsonl"
            wal = FaultyWal(WriteAheadLog(path),
                            FaultPlan(seed=33, trips={"wal.torn": [0]}))
            with pytest.raises(InjectedCrash):
                wal.append({"type": "commit", "n": 0})
            tails.append(WriteAheadLog.segment_paths(path)[-1].read_bytes())
        assert tails[0] == tails[1]

    def test_engine_commit_through_faulty_wal(self, tmp_path):
        """The wrapper is a drop-in for the engine's WAL: a scheduled
        crash mid-commit leaves a torn tail that replay forgives."""
        engine = _mk_engine(n=30, wal=tmp_path / "w.jsonl")
        engine.wal = FaultyWal(engine.wal,
                               FaultPlan(seed=5, trips={"wal.torn": {2: 11}}))
        rows = manager_stream(30, 3)
        _commit_rows(engine, rows[:2])
        with pytest.raises(InjectedCrash):
            _commit_rows(engine, rows[2:])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TornTailWarning)
            replayed = StoreEngine.replay(tmp_path / "w.jsonl")
        assert len(replayed.graph) == 3  # snapshot + 2 durable commits
        assert replayed.state() == engine.state(replayed.head_version().vid)

    def test_segmented_log_watermarks_are_per_file(self, tmp_path):
        path = tmp_path / "seg"
        wal = FaultyWal(WriteAheadLog(path, segment_records=2),
                        FaultPlan(seed=1, trips={"wal.fsync_loss": [3]}))
        for n in range(4):
            wal.append({"type": "commit", "n": n})
        dropped = wal.simulate_power_loss()
        assert len(dropped) == 1  # only the final segment lost bytes
        survivors = [r["n"] for r in WriteAheadLog.records(path)]
        assert survivors == [0, 1, 2]


# ----------------------------------------------------------------------
# the network proxy
# ----------------------------------------------------------------------
@pytest.fixture
def server():
    engine = _mk_engine(n=30)
    with StoreServer(engine) as srv:
        yield srv
    engine.close()


class TestChaosProxy:
    def test_stop_with_a_live_connection_is_prompt_and_leak_free(
            self, server):
        """stop() must wake the threads blocked in accept()/recv()
        (closing a socket alone does not) instead of waiting out their
        joins."""
        proxy = ChaosProxy(server.address, FaultPlan(seed=0))
        proxy.start()
        with StoreClient(*proxy.address) as client:
            assert client.ping()
            start = time.monotonic()
            proxy.stop()
            elapsed = time.monotonic() - start
        assert elapsed < 0.5, elapsed
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("chaos-proxy-")]

    def test_clean_plan_is_a_transparent_relay(self, server):
        with ChaosProxy(server.address, FaultPlan(seed=0)) as proxy:
            with StoreClient(*proxy.address) as client:
                assert client.ping()
                row = manager_stream(30, 1)[0]
                result = client.run([{"op": "insert",
                                      "relation": "manager", "row": row}])
                assert result["version"]
                assert row in client.read("manager")

    def test_dropped_frame_starves_the_caller(self, server):
        plan = FaultPlan(seed=0, trips={"net.drop": [0]})
        with ChaosProxy(server.address, plan) as proxy:
            with StoreClient(*proxy.address, timeout=0.3,
                             hello=False) as client:
                with pytest.raises((ProtocolError, OSError)):
                    client.ping()
        assert plan.events and plan.events[0]["site"] == "net.drop"

    def test_delayed_frame_arrives_late_but_intact(self, server):
        plan = FaultPlan(seed=0, trips={"net.delay": {0: 0.25}})
        with ChaosProxy(server.address, plan) as proxy:
            with StoreClient(*proxy.address, hello=False) as client:
                start = time.monotonic()
                assert client.ping()
                assert time.monotonic() - start >= 0.2

    def test_truncated_frame_kills_the_connection(self, server):
        plan = FaultPlan(seed=0, trips={"net.truncate": {0: 3}})
        with ChaosProxy(server.address, plan) as proxy:
            with StoreClient(*proxy.address, timeout=1.0,
                             hello=False) as client:
                with pytest.raises((ProtocolError, OSError)):
                    client.ping()

    def test_disconnect_closes_both_sides(self, server):
        plan = FaultPlan(seed=0, trips={"net.disconnect": [0]})
        with ChaosProxy(server.address, plan) as proxy:
            with StoreClient(*proxy.address, timeout=1.0,
                             hello=False) as client:
                with pytest.raises((ProtocolError, OSError)):
                    client.ping()

    def test_disconnect_mid_commit_loses_the_ack_not_the_commit(
            self, server):
        """The ambiguous failure: the server applies the commit, the
        client never hears back."""
        engine = server.engine
        plan = FaultPlan(seed=0, trips={"net.commit_disconnect": [0]})
        with ChaosProxy(server.address, plan) as proxy:
            with StoreClient(*proxy.address, timeout=2.0) as client:
                before = engine.graph.seq
                row = manager_stream(30, 2)[1]
                with pytest.raises((ProtocolError, OSError)):
                    client.run([{"op": "insert", "relation": "manager",
                                 "row": row}])
        deadline = time.monotonic() + 5.0
        while engine.graph.seq == before:
            assert time.monotonic() < deadline, plan.describe()
            time.sleep(0.01)
        assert row in [t.as_dict()
                       for t in engine.head_version().state.R("manager")]

    def test_non_commit_frames_pass_while_commit_cut_is_armed(
            self, server):
        plan = FaultPlan(seed=0, trips={"net.commit_disconnect": [0]})
        with ChaosProxy(server.address, plan) as proxy:
            with StoreClient(*proxy.address) as client:
                assert client.ping()  # op inspection spares non-commits
                assert client.status()["role"] == "primary"

    def test_duplicated_frame_desyncs_the_stream_detectably(
            self, server):
        """A duplicated request produces a duplicate response the
        client never asked for — the next request sees the stale id
        and fails typed, never silently."""
        plan = FaultPlan(seed=0, trips={"net.duplicate": [0]})
        with ChaosProxy(server.address, plan) as proxy:
            with StoreClient(*proxy.address, timeout=1.0,
                             hello=False) as client:
                assert client.ping()  # first response matches
                with pytest.raises(ProtocolError):
                    client.ping()  # the duplicate's stale id surfaces
        assert plan.describe()["fired"][0]["site"] == "net.duplicate"

    def test_reordered_frames_swap_but_none_are_lost(self, server):
        """The held frame rides behind the next one: two pipelined
        pings come back answered in swapped order, both answered."""
        plan = FaultPlan(seed=0, trips={"net.reorder": [0]})
        with ChaosProxy(server.address, plan) as proxy:
            with StoreClient(*proxy.address, timeout=2.0,
                             hello=False) as client:
                client.send_message({"id": 1, "op": "ping"})
                client.send_message({"id": 2, "op": "ping"})
                first = client.recv_message()
                second = client.recv_message()
        assert [first["id"], second["id"]] == [2, 1], plan.describe()
        assert first["pong"] and second["pong"]

    def test_partition_starves_probes_then_heals(self, server):
        """A partitioned link eats frames without closing — exactly
        what a heartbeat prober sees — and traffic flows again after
        heal()."""
        with ChaosProxy(server.address, FaultPlan(seed=0)) as proxy:
            with StoreClient(*proxy.address, timeout=0.3,
                             hello=False) as client:
                proxy.partition()
                with pytest.raises((ProtocolError, OSError)):
                    client.ping()
                proxy.heal()
                assert client.ping()

    def test_partition_trip_fires_from_the_plan(self, server):
        plan = FaultPlan(seed=0, trips={"net.partition": {0: 0.2}})
        with ChaosProxy(server.address, plan) as proxy:
            with StoreClient(*proxy.address, timeout=0.4,
                             hello=False) as client:
                start = time.monotonic()
                with pytest.raises((ProtocolError, OSError)):
                    client.ping()  # this frame starts (and feeds) it
                while time.monotonic() - start < 0.25:
                    time.sleep(0.01)  # wait out the timed partition
                assert client.ping()
        fired = plan.describe()["fired"]
        assert any(e["site"] == "net.partition" for e in fired)

    def test_pause_delays_frames_without_losing_any(self, server):
        """A paused relay is a SIGSTOP'd peer: the frame arrives late,
        not never."""
        with ChaosProxy(server.address, FaultPlan(seed=0)) as proxy:
            with StoreClient(*proxy.address, timeout=2.0,
                             hello=False) as client:
                proxy.pause(0.3)
                start = time.monotonic()
                assert client.ping()
                assert time.monotonic() - start >= 0.25


@pytest.mark.slow
class TestChaosSweep:
    """Seeded probabilistic sweeps — each assertion carries the seed
    (and the plan recipe) needed to replay it."""

    def test_lossy_transport_never_corrupts_the_store(self):
        """Under dropped frames and disconnects, a client either gets
        a typed error or a real ack — and every acked commit is in the
        graph.  25 seeds."""
        engine = _mk_engine(n=60)
        rows = manager_stream(60, 30)
        with StoreServer(engine) as server:
            acked = []
            for i, seed in enumerate(chaos_seeds(25)):
                plan = FaultPlan(seed=seed, rates={
                    "net.drop": 0.08, "net.disconnect": 0.05,
                    "net.commit_disconnect": 0.10})
                with ChaosProxy(server.address, plan) as proxy:
                    client = None
                    try:
                        client = StoreClient(*proxy.address, timeout=0.5)
                        result = client.run(
                            [{"op": "insert", "relation": "manager",
                              "row": rows[i]}])
                        acked.append((seed, rows[i],
                                      result["version"]))
                    except (ProtocolError, OSError):
                        pass  # typed transport failure: fine
                    finally:
                        if client is not None:
                            client.close()
            head = [t.as_dict()
                    for t in engine.head_version().state.R("manager")]
            try:
                for seed, row, vid in acked:
                    assert row in head, (
                        f"acked commit lost: seed={seed} version={vid}")
            except BaseException:
                # The seed replays the failure; the server's own
                # registry says what it actually served while the
                # proxy was mangling traffic.
                import json

                print("\nserver metrics at failure:")
                print(json.dumps(server.metrics.snapshot(), indent=2,
                                 sort_keys=True))
                raise
        engine.close()
