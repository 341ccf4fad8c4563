"""A9 — store serving throughput: concurrent audited commits.

The serving workload the store exists for: many concurrent sessions
committing small disjoint transactions against a five-relation state
(~n rows per relation), every commit axiom-gated by the engine's one
validator — targeted O(|delta|) probes plus lhs-group optimistic
concurrency.

Each benchmark round commits a fixed batch of disjoint ``manager``
inserts across ``WRITERS`` threads against a *fresh* engine (pedantic
mode: engine construction — root audit, probe indexes — happens in
setup, untimed), so ``min_s / COMMITS`` is the per-commit cost and
``COMMITS / min_s`` the commits/s the store sustains.  The ≥5x gate
over a global-lock baseline (constructor rebuild + cold audit per
commit) lives in ``tests/test_store_concurrency.py``.

A second benchmark times WAL replay (trusted mode) of a committed
history and asserts the rebuilt graph equals the original.

Run with ``--bench-json`` to record the timings in ``BENCH_kernel.json``
(the a9 names are part of the guarded kernel set in
``benchmarks/compare_bench.py``).
"""

import threading

import pytest

from repro.store import SessionService, StoreEngine
from repro.workloads import (
    disjoint_commit_specs,
    manager_stream,
    serving_state,
)

SIZES = [200, 1000]
WRITERS = 8
COMMITS = 240

_STATES: dict[int, tuple] = {}


def state(n: int):
    if n not in _STATES:
        _STATES[n] = serving_state(n)
    return _STATES[n]


def _commit_batch(engine: StoreEngine, specs) -> StoreEngine:
    service = SessionService(engine)

    def worker(shard):
        session = service.session()
        for ops in shard:
            session.run(ops)

    threads = [threading.Thread(target=worker, args=(shard,))
               for shard in specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return engine


@pytest.mark.parametrize("rows", SIZES)
def test_a9_store_commits_delta(benchmark, rows):
    """Targeted delta gate + optimistic concurrency."""
    schema, db, constraints = state(rows)
    # Fresh manager slots cap the batch at small sizes (2n/3 available).
    count = min(COMMITS, (2 * rows) // 3 - 2)
    specs = disjoint_commit_specs(manager_stream(rows, count), WRITERS)

    def fresh():
        return (StoreEngine(db, constraints), specs), {}

    engine = benchmark.pedantic(_commit_batch, setup=fresh,
                                rounds=5, iterations=1)
    assert len(engine.graph) == count + 1
    assert engine.audit().ok()


@pytest.mark.parametrize("rows", [1000])
def test_a9_wal_replay(benchmark, rows, tmp_path):
    """Trusted replay of a 120-commit WAL back into a full version graph."""
    schema, db, constraints = state(rows)
    path = tmp_path / "a9-wal"
    engine = StoreEngine(db, constraints, wal=path)
    _commit_batch(engine, disjoint_commit_specs(
        manager_stream(rows, 120), WRITERS))
    engine.close()

    replayed = benchmark(StoreEngine.replay, path)
    assert [v.vid for v in replayed.graph.log()] == \
        [v.vid for v in engine.graph.log()]
    assert replayed.state() == engine.state()
