"""A13 — cluster: the self-healing cycle, fan-out reads, detector cost.

PR 9 made failover autonomous; this bench measures what the autonomy
costs:

* ``heal_cycle`` — the full detect-elect-promote loop on the injected
  clock: three coordinators tail a killed primary's WAL, walk the
  suspicion ladder to ``dead``, run the deterministic election, and
  the winner promotes (pedantic mode — building the primary's history
  and catching the replicas up is setup, untimed).  ``min_s`` is the
  computational floor of a failover event beyond the detection ticks
  themselves, directly comparable to ``promotion`` (bench_a12) which
  it contains.
* ``balancer_reads`` — :class:`ReadBalancer` fan-out over two live
  replica servers: the rotation, budget bookkeeping and wire round
  trips per read, comparable to ``wire_reads`` (bench_a11).
* ``monitor_ticks`` — 200 ticks of a healthy three-peer
  :class:`HealthMonitor` over local engine probes: the steady-state
  supervision overhead when nothing is wrong.

Run with ``--bench-json`` to record timings in ``BENCH_kernel.json``
(the a13 names are part of the guarded kernel set in
``benchmarks/compare_bench.py``).
"""

from repro.server import (
    Coordinator,
    HealthMonitor,
    ReadBalancer,
    ReplicaEngine,
    StoreServer,
    engine_probe,
)
from repro.store import SessionService, StoreEngine
from repro.workloads import manager_stream, serving_state

ROWS = 200
HISTORY_COMMITS = 40
BALANCED_READS = 50
MONITOR_TICKS = 200

_STATES: dict[int, tuple] = {}


def state(n: int):
    if n not in _STATES:
        _STATES[n] = serving_state(n)
    return _STATES[n]


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _dead_probe():
    raise ConnectionRefusedError("primary is gone")


def _build_history(wal):
    schema, db, constraints = state(ROWS)
    engine = StoreEngine(db, constraints, wal=wal)
    session = SessionService(engine).session()
    for row in manager_stream(ROWS, HISTORY_COMMITS):
        session.run([("insert", "manager", row)])
    engine.close()
    return engine


def test_a13_heal_cycle(benchmark, tmp_path):
    """Detect-elect-promote over caught-up replicas of a dead primary:
    the autonomous-failover floor on the injected clock."""
    built = []

    def fresh():
        wal = tmp_path / f"heal{len(built)}-wal"
        primary = _build_history(wal)
        clock = _Clock()
        replicas = {rid: ReplicaEngine(wal)
                    for rid in ("r1", "r2", "r3")}
        coords = {}
        for rid, rep in replicas.items():
            rep.catch_up()
            monitor = HealthMonitor(clock=clock, probe_interval=1.0,
                                    suspect_after=2, dead_after=4)
            monitor.add_peer("primary", _dead_probe)
            for other, other_rep in replicas.items():
                if other != rid:
                    monitor.add_peer(other, engine_probe(other_rep))
            coords[rid] = Coordinator(rid, rep, monitor)
        built.append((primary, coords))
        return (coords, clock), {}

    def heal(coords, clock):
        for _ in range(6):
            clock.advance(1.0)
            for coord in coords.values():
                coord.step()
            if any(c.role == "primary" for c in coords.values()):
                return coords
        raise AssertionError("no promotion within the tick budget")

    benchmark.pedantic(heal, setup=fresh, rounds=5, iterations=1)
    primary, coords = built[-1]
    primaries = [c for c in coords.values() if c.role == "primary"]
    assert len(primaries) == 1
    assert primaries[0].engine.epoch == 1
    assert primaries[0].engine.head_version().vid \
        == primary.head_version().vid
    for _, coords in built:
        for coord in coords.values():
            if coord.engine is not None:
                coord.engine.wal.close()


def test_a13_balancer_reads(benchmark, tmp_path):
    """Fan-out reads across two live replicas: rotation plus wire cost
    per served read."""
    wal = tmp_path / "balance-wal"
    _build_history(wal)
    replicas = {rid: ReplicaEngine(wal) for rid in ("r1", "r2")}
    servers = {}
    for rid, rep in replicas.items():
        rep.catch_up()
        servers[rid] = StoreServer(rep, sync_interval=0)
        servers[rid].start_background()

    def fan_out():
        with ReadBalancer({rid: s.address
                           for rid, s in servers.items()},
                          seed=0) as balancer:
            for _ in range(BALANCED_READS):
                balancer.read("manager")
            return balancer.reads

    reads = benchmark(fan_out)
    assert sum(reads.values()) == BALANCED_READS
    assert all(count > 0 for count in reads.values())
    for server in servers.values():
        server.stop()


def test_a13_monitor_ticks(benchmark, tmp_path):
    """Steady-state detector overhead: 200 ticks over three healthy
    local probes."""
    wal = tmp_path / "monitor-wal"
    _build_history(wal)
    monitor = HealthMonitor(probe_interval=0.0)
    for rid in ("r1", "r2", "r3"):
        rep = ReplicaEngine(wal)
        rep.catch_up()
        monitor.add_peer(rid, engine_probe(rep))

    def ticks():
        for _ in range(MONITOR_TICKS):
            monitor.tick()
        return monitor

    benchmark(ticks)
    assert all(monitor.healthy(rid) for rid in monitor.peer_ids())
