"""Self-healing cluster: failure detection, deterministic election,
fan-out reads — fast clock-injected contract tests plus the slow
kill-and-heal acceptance sweep.

The fast lane drives :class:`HealthMonitor` and :class:`Coordinator`
with a fake clock, making every suspicion transition and election a
pure function of ticks; the slow lane kills a live primary mid-stream
under 25 seeds and holds the cluster to the acceptance bar: detection
within ``dead_after`` ticks, the most-caught-up replica promoted,
losers re-pinned, and zero acked commits lost.  Assertions carry the
seed, so a CI failure replays from the printed recipe."""

from __future__ import annotations

import json
import warnings
from random import Random

import pytest

from repro.errors import EpochFenced, StoreError, TornTailWarning
from repro.obs import MetricsRegistry, Tracer
from repro.server import (
    Coordinator,
    FailoverClient,
    HealthMonitor,
    ReadBalancer,
    ReplicaEngine,
    RetryPolicy,
    StoreClient,
    StoreServer,
    election_rank,
    engine_probe,
    wire_probe,
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
    assert a.graph.branches() == b.graph.branches()
    assert len(a.graph) == len(b.graph)
    for name in a.graph.branches():
        assert a.state(branch=name) == b.state(branch=name), name


class FakeClock:
    """An injected time source: ``advance`` is the only way it moves,
    so detector timing is a pure function of ticks."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float = 1.0) -> float:
        self.t += dt
        return self.t


class _Killable:
    """A probe wrapper with a kill switch — the fast-lane stand-in for
    a process that stopped answering."""

    def __init__(self, target):
        self.probe = engine_probe(target)
        self.dead = False

    def __call__(self) -> dict:
        if self.dead:
            raise ConnectionRefusedError("probe: peer is gone")
        return self.probe()


# ----------------------------------------------------------------------
# the failure detector
# ----------------------------------------------------------------------
class TestHealthMonitor:
    def test_threshold_validation(self):
        with pytest.raises(StoreError, match="suspect_after"):
            HealthMonitor(suspect_after=1)
        with pytest.raises(StoreError, match="dead_after"):
            HealthMonitor(suspect_after=3, dead_after=3)

    def test_one_dropped_probe_never_raises_suspicion(self):
        clock = FakeClock()
        monitor = HealthMonitor(clock=clock, probe_interval=1.0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("one dropped frame")
            return {"role": "primary"}

        monitor.add_peer("p", flaky)
        assert monitor.tick() == []  # the miss caused no transition
        assert monitor.state("p") == "alive"
        clock.advance(1.0)
        monitor.tick()
        assert monitor.healthy("p")

    def test_escalation_walks_alive_suspect_dead(self):
        clock = FakeClock()
        monitor = HealthMonitor(clock=clock, probe_interval=1.0,
                                suspect_after=2, dead_after=4)
        probe = _Killable(None)
        probe.dead = True  # dead from the start
        monitor.add_peer("p", probe)
        states = []
        for _ in range(5):
            clock.advance(1.0)
            monitor.tick()
            states.append(monitor.state("p"))
        assert states == ["alive", "suspect", "suspect", "dead", "dead"]
        transitions = [(e["from"], e["to"]) for e in monitor.events]
        assert transitions == [("alive", "suspect"),
                               ("suspect", "dead")]

    def test_recovery_resets_suspicion(self):
        clock = FakeClock()
        monitor = HealthMonitor(clock=clock, probe_interval=1.0)
        probe = _Killable(None)
        probe.probe = lambda: {"role": "replica", "epoch": 0}
        probe.dead = True
        monitor.add_peer("p", probe)
        for _ in range(2):
            clock.advance(1.0)
            monitor.tick()
        assert monitor.state("p") == "suspect"
        probe.dead = False
        clock.advance(1.0)
        events = monitor.tick()
        assert monitor.state("p") == "alive"
        assert monitor._peers["p"].misses == 0
        assert [(e["from"], e["to"]) for e in events] \
            == [("suspect", "alive")]
        assert monitor.status("p") == {"role": "replica", "epoch": 0}

    def test_probe_cadence_follows_the_injected_clock(self):
        clock = FakeClock()
        monitor = HealthMonitor(clock=clock, probe_interval=1.0)
        calls = {"n": 0}

        def counting():
            calls["n"] += 1
            return {}

        monitor.add_peer("p", counting)
        monitor.tick()  # due immediately on add
        monitor.tick()  # not due again: the clock has not moved
        assert calls["n"] == 1
        clock.advance(0.5)
        monitor.tick()
        assert calls["n"] == 1  # still inside the interval
        clock.advance(0.6)
        monitor.tick()
        assert calls["n"] == 2

    def test_gossip_reports_the_suspicion_table(self):
        clock = FakeClock()
        monitor = HealthMonitor(clock=clock, probe_interval=1.0,
                                suspect_after=2, dead_after=4)
        monitor.add_peer("r1", lambda: {"role": "replica", "epoch": 1,
                                        "behind_bytes": 7})
        monitor.tick()
        gossip = monitor.gossip()
        assert gossip["suspect_after"] == 2
        assert gossip["dead_after"] == 4
        entry = gossip["suspicion"]["r1"]
        assert entry["state"] == "alive"
        assert entry["misses"] == 0 and entry["probes"] == 1
        assert entry["role"] == "replica"
        assert entry["epoch"] == 1 and entry["behind_bytes"] == 7

    def test_unknown_peer_raises(self):
        monitor = HealthMonitor(clock=FakeClock())
        with pytest.raises(StoreError, match="unknown peer"):
            monitor.state("ghost")

    def test_wire_probe_round_trip_and_dead_address(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        engine = _mk_engine(wal=wal)
        with StoreServer(engine) as server:
            probe = wire_probe(server.address, timeout=1.0)
            status = probe()
            assert status["role"] == "primary"
            assert status["epoch"] == 0
        with pytest.raises(OSError):
            wire_probe(("127.0.0.1", 1), timeout=0.2)()
        engine.close()


# ----------------------------------------------------------------------
# the election key
# ----------------------------------------------------------------------
class TestElectionRank:
    def test_offset_orders_within_a_segment(self):
        behind = {"position": {"segment": "s1", "offset": 10}}
        ahead = {"position": {"segment": "s1", "offset": 90}}
        assert election_rank(ahead, "r1") > election_rank(behind, "r9")

    def test_segment_orders_lexicographically(self):
        old = {"position": {"segment": "wal-00000002.jsonl",
                            "offset": 9000}}
        new = {"position": {"segment": "wal-00000010.jsonl",
                            "offset": 1}}
        assert election_rank(new, "r1") > election_rank(old, "r2")

    def test_id_breaks_ties(self):
        status = {"position": {"segment": None, "offset": 42}}
        ranks = sorted(election_rank(status, rid)
                       for rid in ("r2", "r10", "r3"))
        # Lexicographic ids: a deliberate, documented total order.
        assert [r[2] for r in ranks] == ["r10", "r2", "r3"]


# ----------------------------------------------------------------------
# the coordinator: detection -> election -> promotion -> re-pinning
# ----------------------------------------------------------------------
def _standing_cluster(tmp_path, tag, replica_ids=("r1", "r2", "r3")):
    """A primary with committed traffic plus followers of its log."""
    wal = tmp_path / f"{tag}.jsonl"
    primary = _mk_engine(n=30, wal=wal)
    _commit_rows(primary, manager_stream(30, 3))
    replicas = {rid: ReplicaEngine(wal) for rid in replica_ids}
    return wal, primary, replicas


def _shared_monitor(clock, primary_probe, replicas, seed=0):
    monitor = HealthMonitor(clock=clock, probe_interval=1.0,
                            suspect_after=2, dead_after=4, seed=seed)
    monitor.add_peer("primary", primary_probe)
    for rid, rep in replicas.items():
        monitor.add_peer(rid, engine_probe(rep))
    return monitor


class TestCoordinator:
    def test_healthy_primary_never_elects(self, tmp_path):
        wal, primary, replicas = _standing_cluster(tmp_path, "healthy")
        for rep in replicas.values():
            rep.sync()
        clock = FakeClock()
        monitor = _shared_monitor(clock, engine_probe(primary), replicas)
        coords = {rid: Coordinator(rid, rep, monitor)
                  for rid, rep in replicas.items()}
        for _ in range(5):
            clock.advance(1.0)
            for coord in coords.values():
                assert coord.step() is None
        for coord in coords.values():
            assert coord.role == "follower" and coord.elections == 0
        primary.close()

    def test_suspicion_alone_never_elects(self, tmp_path):
        wal, primary, replicas = _standing_cluster(
            tmp_path, "suspect", replica_ids=("r1",))
        replicas["r1"].sync()
        clock = FakeClock()
        probe = _Killable(primary)
        probe.dead = True
        monitor = _shared_monitor(clock, probe, replicas)
        coord = Coordinator("r1", replicas["r1"], monitor)
        for tick in range(1, 3):
            clock.advance(1.0)
            assert coord.step() is None, f"tick {tick}"
        assert monitor.state("primary") == "suspect"
        assert coord.elections == 0  # suspect: no election yet
        for _ in range(2):
            clock.advance(1.0)
            coord.step()
        assert monitor.state("primary") == "dead"
        assert coord.elections >= 1
        assert coord.role == "primary"
        coord.engine.wal.close()
        primary.close()

    def test_kill_elects_most_caught_up_and_losers_repin(self, tmp_path):
        wal, primary, replicas = _standing_cluster(tmp_path, "elect")
        replicas["r1"].sync(max_records=2)  # strictly behind
        replicas["r2"].sync()
        replicas["r3"].sync()
        replicas["r1"].sync = lambda max_records=None: 0  # frozen laggard
        primary.close()
        clock = FakeClock()
        probe = _Killable(primary)
        probe.dead = True
        monitor = _shared_monitor(clock, probe, replicas)
        coords = {rid: Coordinator(rid, rep, monitor)
                  for rid, rep in replicas.items()}
        promoted_event = None
        for _ in range(4):
            clock.advance(1.0)
            for rid in ("r1", "r2", "r3"):
                event = coords[rid].step()
                if event and event["action"] == "promoted":
                    promoted_event = event
        assert promoted_event is not None
        # Position ties between r2 and r3; the id breaks it upward.
        assert promoted_event["replica_id"] == "r3"
        assert coords["r3"].role == "primary"
        assert coords["r3"].engine.epoch == 1
        assert set(promoted_event["candidates"]) >= {"r1", "r3"}
        assert promoted_event["candidates"]["r1"] \
            < promoted_event["candidates"]["r3"]
        deferred = [e for e in coords["r2"].events
                    if e["action"] == "deferred"]
        assert deferred and deferred[-1]["winner"] == "r3"
        # The losers cross the stamp and re-pin to the winner.
        del replicas["r1"].sync  # unfreeze: back to the class method
        for _ in range(2):
            clock.advance(1.0)
            for rid in ("r1", "r2"):
                coords[rid].step()
        for rid in ("r1", "r2"):
            repins = [e for e in coords[rid].events
                      if e["action"] == "repinned"]
            assert repins and repins[-1]["epoch"] == 1, rid
            assert coords[rid].primary_id == "r3", rid
            assert coords[rid].role == "follower", rid
            assert replicas[rid].engine.epoch == 1, rid
        _graphs_equal(replicas["r1"].engine, coords["r3"].engine)
        coords["r3"].engine.wal.close()

    def test_split_brain_race_loser_is_fenced_then_repins(self, tmp_path):
        """Two coordinators with disjoint membership views both elect
        themselves; the epoch stamp's race guard lets exactly one win,
        the other records ``election-lost`` and resumes following."""
        wal, primary, replicas = _standing_cluster(
            tmp_path, "split", replica_ids=("rA", "rB"))
        replicas["rA"].sync()
        replicas["rB"].sync()
        primary.close()
        clock = FakeClock()
        probes = {rid: _Killable(primary) for rid in ("rA", "rB")}
        for probe in probes.values():
            probe.dead = True
        # Disjoint views: each monitor knows only itself and the
        # primary, so each coordinator's election has one candidate.
        monitors, coords = {}, {}
        for rid in ("rA", "rB"):
            monitors[rid] = _shared_monitor(clock, probes[rid], {})
            coords[rid] = Coordinator(rid, replicas[rid], monitors[rid])
        # Freeze rB between its catch-up and its stamp (the PR 8
        # race-window trick): it cannot see rA's stamp land.
        replicas["rB"].sync = lambda max_records=None: 0
        replicas["rB"].catch_up = lambda **kwargs: None
        replicas["rB"].behind_bytes = lambda: 0
        events = {"rA": [], "rB": []}
        for _ in range(4):
            clock.advance(1.0)
            for rid in ("rA", "rB"):
                event = coords[rid].step()
                if event:
                    events[rid].append(event)
        assert coords["rA"].role == "primary"
        assert coords["rA"].engine.epoch == 1
        lost = [e for e in events["rB"] if e["action"] == "election-lost"]
        assert lost and lost[0]["held"] == 0 and lost[0]["current"] == 1
        assert coords["rB"].role == "follower"
        assert replicas["rB"].promoted is False
        del replicas["rB"].sync
        del replicas["rB"].catch_up, replicas["rB"].behind_bytes
        clock.advance(1.0)
        event = coords["rB"].step()
        assert event is not None and event["action"] == "repinned"
        assert event["epoch"] == 1
        _graphs_equal(replicas["rB"].engine, coords["rA"].engine)
        coords["rA"].engine.wal.close()

    def test_dead_deferred_winner_drops_out_next_round(self, tmp_path):
        """A winner that dies before stamping is declared dead after
        ``dead_after`` more misses and the next election excludes it —
        the loop stays bounded, nobody waits forever."""
        wal, primary, replicas = _standing_cluster(tmp_path, "dropout")
        for rep in replicas.values():
            rep.sync()
        primary.close()
        clock = FakeClock()
        primary_probe = _Killable(primary)
        primary_probe.dead = True
        r3_probe = _Killable(replicas["r3"])
        monitor = HealthMonitor(clock=clock, probe_interval=1.0,
                                suspect_after=2, dead_after=4)
        monitor.add_peer("primary", primary_probe)
        monitor.add_peer("r1", engine_probe(replicas["r1"]))
        monitor.add_peer("r2", engine_probe(replicas["r2"]))
        monitor.add_peer("r3", r3_probe)
        coords = {rid: Coordinator(rid, replicas[rid], monitor)
                  for rid in ("r1", "r2")}  # r3 has no coordinator
        for _ in range(4):
            clock.advance(1.0)
            for rid in ("r1", "r2"):
                coords[rid].step()
        deferred = [e for e in coords["r2"].events
                    if e["action"] == "deferred"]
        assert deferred and deferred[-1]["winner"] == "r3"
        assert coords["r2"].role == "follower"
        r3_probe.dead = True  # the deferred-to winner dies too
        promoted = None
        for _ in range(4):
            clock.advance(1.0)
            for rid in ("r1", "r2"):
                event = coords[rid].step()
                if event and event["action"] == "promoted":
                    promoted = event
        assert monitor.state("r3") == "dead"
        assert promoted is not None and promoted["replica_id"] == "r2"
        assert "r3" not in promoted["candidates"]
        assert coords["r2"].role == "primary"
        coords["r2"].engine.wal.close()

    def test_no_candidates_is_an_event_not_a_crash(self, tmp_path):
        wal, primary, replicas = _standing_cluster(
            tmp_path, "barren", replica_ids=("r1",))
        # r1 never syncs: not ready, so it cannot stand for election.
        primary.close()
        clock = FakeClock()
        probe = _Killable(primary)
        probe.dead = True
        monitor = _shared_monitor(clock, probe, {})
        coord = Coordinator("r1", replicas["r1"], monitor,
                            sync_on_step=False)
        event = None
        for _ in range(4):
            clock.advance(1.0)
            event = coord.step()
        assert event is not None
        assert event["action"] == "no-candidates"
        assert coord.role == "follower"

    def test_on_promoted_callback_and_describe(self, tmp_path):
        wal, primary, replicas = _standing_cluster(
            tmp_path, "callback", replica_ids=("r1",))
        replicas["r1"].sync()
        primary.close()
        clock = FakeClock()
        probe = _Killable(primary)
        probe.dead = True
        monitor = _shared_monitor(clock, probe, replicas)
        handed = []
        coord = Coordinator("r1", replicas["r1"], monitor,
                            on_promoted=handed.append)
        for _ in range(4):
            clock.advance(1.0)
            coord.step()
        assert handed == [coord.engine]
        summary = coord.describe()
        assert summary["role"] == "primary"
        assert summary["replica_id"] == "r1"
        assert summary["epoch"] == 1
        assert summary["elections"] == 1
        coord.engine.wal.close()


# ----------------------------------------------------------------------
# fan-out reads
# ----------------------------------------------------------------------
class _StubMonitor:
    def __init__(self, states):
        self.states = states

    def state(self, peer_id):
        return self.states.get(peer_id, "alive")


class TestReadBalancer:
    def test_requires_a_replica(self):
        with pytest.raises(StoreError, match="at least one replica"):
            ReadBalancer({})

    def test_spreads_reads_across_replicas(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        rows = manager_stream(30, 2)
        _commit_rows(primary, rows)
        reps = {rid: ReplicaEngine(wal) for rid in ("r1", "r2")}
        servers = {}
        for rid, rep in reps.items():
            rep.sync()
            servers[rid] = StoreServer(rep, sync_interval=0)
            servers[rid].start_background()
        try:
            with ReadBalancer({rid: s.address
                               for rid, s in servers.items()},
                              seed=0) as balancer:
                for _ in range(8):
                    head = balancer.read("manager")
                    assert rows[0] in head and rows[1] in head
                assert balancer.reads["r1"] == 4
                assert balancer.reads["r2"] == 4
                assert balancer.fallbacks == {"primary": 0, "stale": 0}
        finally:
            for server in servers.values():
                server.stop()
            primary.close()

    def test_suspect_replicas_are_ejected(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 1))
        reps = {rid: ReplicaEngine(wal) for rid in ("r1", "r2")}
        servers = {}
        for rid, rep in reps.items():
            rep.sync()
            servers[rid] = StoreServer(rep, sync_interval=0)
            servers[rid].start_background()
        try:
            monitor = _StubMonitor({"r1": "suspect"})
            with ReadBalancer({rid: s.address
                               for rid, s in servers.items()},
                              monitor=monitor, seed=0) as balancer:
                for _ in range(4):
                    balancer.read("manager")
                assert balancer.reads == {"r1": 0, "r2": 4}
        finally:
            for server in servers.values():
                server.stop()
            primary.close()

    def test_staleness_budget_keeps_lagging_replicas_out(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        rows = manager_stream(30, 3)
        _commit_rows(primary, rows[:1])
        fresh, stale = ReplicaEngine(wal), ReplicaEngine(wal)
        fresh.sync()
        stale.sync()
        _commit_rows(primary, rows[1:])
        fresh.sync()  # stale deliberately does not
        assert stale.behind_bytes() > 0
        servers = {"fresh": StoreServer(fresh, sync_interval=0),
                   "stale": StoreServer(stale, sync_interval=0)}
        for server in servers.values():
            server.start_background()
        try:
            with ReadBalancer({rid: s.address
                               for rid, s in servers.items()},
                              staleness_budget=0, refresh_every=1,
                              seed=0) as balancer:
                for _ in range(4):
                    head = balancer.read("manager")
                    assert rows[2] in head  # never a stale answer
                assert balancer.reads == {"fresh": 4, "stale": 0}
        finally:
            for server in servers.values():
                server.stop()
            primary.close()

    def test_falls_back_to_the_primary(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        rows = manager_stream(30, 1)
        _commit_rows(primary, rows)
        with StoreServer(primary) as server:
            with ReadBalancer({"r1": ("127.0.0.1", 1)},  # dead replica
                              primary=server.address,
                              timeout=0.5, seed=0) as balancer:
                assert rows[0] in balancer.read("manager")
                assert balancer.fallbacks["primary"] == 1
        primary.close()

    def test_degrades_to_a_stale_replica_last(self, tmp_path):
        """Primary down, the only replica over its budget: the last
        rung serves the stale-but-reachable answer instead of failing.
        """
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        rows = manager_stream(30, 2)
        _commit_rows(primary, rows[:1])
        rep = ReplicaEngine(wal)
        rep.sync()
        _commit_rows(primary, rows[1:])  # the replica never sees this
        primary.close()
        with StoreServer(rep, sync_interval=0) as server:
            with ReadBalancer({"r1": server.address},
                              primary=("127.0.0.1", 1),  # dead
                              staleness_budget=0, refresh_every=1,
                              timeout=0.5, seed=0) as balancer:
                head = balancer.read("manager")
                assert rows[0] in head and rows[1] not in head
                assert balancer.fallbacks["stale"] == 1

    def test_raises_when_no_rung_answers(self):
        with ReadBalancer({"r1": ("127.0.0.1", 1)},
                          primary=("127.0.0.1", 1),
                          timeout=0.2, seed=0) as balancer:
            with pytest.raises(OSError):
                balancer.read("manager")


# ----------------------------------------------------------------------
# gossip over the wire
# ----------------------------------------------------------------------
class TestGossip:
    def test_status_carries_the_suspicion_table(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        primary = _mk_engine(wal=wal)
        _commit_rows(primary, manager_stream(30, 1))
        monitor = HealthMonitor(clock=FakeClock(), probe_interval=1.0)
        monitor.add_peer("r1", lambda: {"role": "replica", "epoch": 0,
                                        "behind_bytes": 0})
        monitor.tick()
        with StoreServer(primary, cluster=monitor) as server:
            with StoreClient(*server.address) as client:
                status = client.status()
        cluster = status["cluster"]
        assert cluster["suspicion"]["r1"]["state"] == "alive"
        assert cluster["suspect_after"] == monitor.suspect_after
        # A replica front end merges the same gossip object.
        rep = ReplicaEngine(wal)
        rep.sync()
        with StoreServer(rep, sync_interval=0,
                         cluster=monitor) as server:
            with StoreClient(*server.address) as client:
                status = client.status()
        assert status["role"] == "replica"
        assert status["cluster"]["suspicion"]["r1"]["state"] == "alive"
        primary.close()

    def test_status_without_a_cluster_is_unchanged(self, tmp_path):
        primary = _mk_engine()
        with StoreServer(primary) as server:
            with StoreClient(*server.address) as client:
                assert "cluster" not in client.status()
        primary.close()


# ----------------------------------------------------------------------
# the slow lane: the kill-and-heal acceptance sweep
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestKillAndHealSweep:
    def test_cluster_heals_itself_without_losing_acked_commits(
            self, tmp_path):
        """The acceptance bar, 25 seeds: kill a live primary mid
        write stream (half the seeds leave a torn half-record on the
        log's tail); every replica's coordinator must detect the death
        within ``dead_after`` injected-clock ticks, elect the most
        caught-up replica, promote exactly one new primary, re-pin the
        losers, and serve every acked commit to the failover client
        under the new epoch."""
        for seed in chaos_seeds(25):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TornTailWarning)
                try:
                    self._one_seed(tmp_path, seed)
                except BaseException:
                    # The replay seed is in the assertion message; the
                    # snapshot says what the cluster was *doing* —
                    # probes, misses, transitions, elections — when it
                    # failed.
                    print(f"\nobservability at failure (seed={seed}):")
                    print(json.dumps(self._obs.snapshot(), indent=2,
                                     sort_keys=True))
                    for event in self._obs_tracer.recent(20):
                        print(f"  {event['name']} {event['tags']}")
                    raise

    def _one_seed(self, tmp_path, seed):
        rng = Random(seed)
        wal = tmp_path / f"heal-{seed}.jsonl"
        engine = _mk_engine(n=30, wal=wal)
        rows = manager_stream(30, 7)
        primary_server = StoreServer(engine)
        primary_server.start_background()
        fc = FailoverClient(
            [primary_server.address],
            policy=RetryPolicy(seed=seed, base_delay=0.01,
                               max_delay=0.05),
            deadline=10.0, timeout=2.0)
        pre = rng.randrange(2, 6)
        acked = [fc.run([{"op": "insert", "relation": "manager",
                          "row": row}]) for row in rows[:pre]]

        ids = ("r1", "r2", "r3")
        replicas = {rid: ReplicaEngine(wal) for rid in ids}
        laggy_id = rng.choice(ids)
        for rid, rep in replicas.items():
            if rid == laggy_id:  # strictly behind: pre+1 records exist
                rep.sync(max_records=rng.randrange(1, pre + 1))
            else:
                rep.sync()
        # Freeze the laggard so supervision syncs don't catch it up —
        # its stale rank is the point of the seed.
        replicas[laggy_id].sync = lambda max_records=None: 0

        # The kill, mid write stream: the server goes away and, on
        # half the seeds, the crash leaves a torn half-record on the
        # tail (promotion's repair must absorb it).
        primary_addr = primary_server.address
        primary_server.stop()
        engine.close()
        torn = rng.random() < 0.5
        if torn:
            with open(WriteAheadLog.segment_paths(wal)[-1], "ab") as f:
                f.write(b'{"type": "commit", "ver')

        clock = FakeClock()
        self._obs = MetricsRegistry()
        self._obs_tracer = Tracer()
        monitors, coords = {}, {}
        for rid in ids:
            monitor = HealthMonitor(clock=clock, probe_interval=1.0,
                                    suspect_after=2, dead_after=4,
                                    seed=seed)
            monitor.attach_observability(self._obs, self._obs_tracer)
            monitor.add_peer("primary",
                             wire_probe(primary_addr, timeout=0.2))
            for other in ids:
                if other != rid:
                    monitor.add_peer(other,
                                     engine_probe(replicas[other]))
            monitors[rid] = monitor
            coords[rid] = Coordinator(rid, replicas[rid], monitor,
                                      promote_timeout=2.0)
            coords[rid].attach_observability(self._obs,
                                             self._obs_tracer)

        recipe = (f"seed={seed} pre={pre} laggy={laggy_id} "
                  f"torn={torn}")
        max_ticks = monitors["r1"].dead_after + 2  # the bounded budget
        ticks_used = None
        order = list(ids)
        for tick in range(1, max_ticks + 1):
            clock.advance(1.0)
            rng.shuffle(order)
            for rid in order:
                coords[rid].step()
            if any(c.role == "primary" for c in coords.values()):
                ticks_used = tick
                break
        primaries = [rid for rid, c in coords.items()
                     if c.role == "primary"]
        assert ticks_used is not None, (
            f"no promotion within {max_ticks} ticks: {recipe}")
        assert len(primaries) == 1, (
            f"split brain: {primaries}: {recipe}")
        winner = primaries[0]
        expected = max(rid for rid in ids if rid != laggy_id)
        assert winner == expected, (
            f"wrong winner {winner} (expected {expected}): {recipe}")
        promoted = coords[winner].engine
        assert promoted.epoch == 1, recipe

        # Heal: the laggard thaws, everyone re-pins to the winner.
        del replicas[laggy_id].sync
        for _ in range(4):
            clock.advance(1.0)
            for rid in ids:
                coords[rid].step()
        for rid in ids:
            if rid == winner:
                continue
            assert coords[rid].role == "follower", f"{rid}: {recipe}"
            assert coords[rid].primary_id == winner, f"{rid}: {recipe}"
            assert replicas[rid].engine.epoch == 1, f"{rid}: {recipe}"

        # Zero acked commits lost: the client re-resolves to the new
        # primary and every pre-kill ack plus the post-kill stream is
        # in the promoted head.
        with StoreServer(promoted) as successor:
            fc.add_address(successor.address)
            fc.queue([{"op": "insert", "relation": "manager",
                       "row": rows[pre]}])
            fc.queue([{"op": "insert", "relation": "manager",
                       "row": rows[pre + 1]}])
            results = fc.flush()
            assert len(results) == 2, recipe
            assert fc.epoch == 1, recipe
            head = fc.read("manager")
        fc.close()
        for i, result in enumerate(acked):
            assert rows[i] in head, (
                f"acked commit lost: version={result['version']} "
                f"{recipe}")
        for i in (pre, pre + 1):
            assert rows[i] in head, f"post-failover row lost: {recipe}"
        promoted.wal.close()
        for rep in replicas.values():
            rep.close()
