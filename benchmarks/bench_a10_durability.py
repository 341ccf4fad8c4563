"""A10 — durability economics: checkpointed recovery and version GC.

PR 6's operational claims, timed:

* **Recovery** — replay of a 520-commit insert/delete churn WAL from
  v0 versus from the newest checkpoint (``checkpoint_every=100``, so
  the checkpointed replay re-applies only the ~20 commits after the
  floor).  The acceptance gate (checkpoint replay >= 5x faster at 500+
  commits) is asserted in ``tests/test_store_durability.py``'s slow
  lane; here the two paths are recorded side by side so the trajectory
  file keeps the ratio visible.
* **Checkpoint cost** — what one ``StoreEngine.checkpoint()`` call
  spends serialising every branch head into the log (the price paid
  every ``checkpoint_every`` commits to keep recovery O(recent)).
* **GC residency** — an 8-writer disjoint commit stream followed by
  ``gc(keep=8)``; the bound the store promises (resident versions
  <= keep * branches + pins) is asserted on every round.

Run with ``--bench-json`` to record the timings in
``BENCH_kernel.json`` (the a10 names are part of the guarded kernel
set in ``benchmarks/compare_bench.py``).
"""

import pytest

from bench_a9_store_throughput import _commit_batch
from repro.store import SessionService, StoreEngine, WriteAheadLog
from repro.workloads import (
    disjoint_commit_specs,
    manager_stream,
    serving_state,
)

WRITERS = 8
CHURN_COMMITS = 520
CHECKPOINT_EVERY = 100

_STATES: dict[int, tuple] = {}


def state(n: int):
    if n not in _STATES:
        _STATES[n] = serving_state(n)
    return _STATES[n]


@pytest.fixture(scope="module")
def churn_wal(tmp_path_factory):
    """A segmented, checkpointed WAL of 520 insert/delete churn commits
    (built once; both replay benchmarks read it)."""
    schema, db, constraints = state(60)
    path = tmp_path_factory.mktemp("a10") / "churn"
    engine = StoreEngine(
        db, constraints,
        wal=WriteAheadLog(path, segment_records=1000),
        checkpoint_every=CHECKPOINT_EVERY)
    rows = manager_stream(60, 40)
    session = SessionService(engine).session()
    for i in range(CHURN_COMMITS // 2):
        row = rows[i % len(rows)]
        session.commit(session.begin().insert("manager", row))
        session.commit(session.begin().delete("manager", row, False))
    engine.close()
    return path


def test_a10_replay_from_v0(benchmark, churn_wal):
    """Full-history replay: the un-checkpointed recovery baseline."""
    replayed = benchmark(StoreEngine.replay, churn_wal,
                         from_checkpoint=False)
    assert replayed.graph.seq == CHURN_COMMITS
    assert len(replayed.graph) == CHURN_COMMITS + 1


def test_a10_replay_from_checkpoint(benchmark, churn_wal):
    """Checkpointed recovery: only the commits after the floor replay."""
    replayed = benchmark(StoreEngine.replay, churn_wal)
    assert replayed.graph.seq == CHURN_COMMITS
    assert len(replayed.graph) <= CHECKPOINT_EVERY + 1
    full = StoreEngine.replay(churn_wal, from_checkpoint=False)
    assert replayed.state() == full.state()


def test_a10_checkpoint_cost(benchmark, tmp_path):
    """One checkpoint record: every branch head serialised to the log."""
    schema, db, constraints = state(1000)
    engine = StoreEngine(db, constraints, wal=tmp_path / "a10-wal")
    _commit_batch(engine, disjoint_commit_specs(
        manager_stream(1000, 120), WRITERS))

    record = benchmark(engine.checkpoint)
    assert record["seq"] == 120
    assert set(record["branches"]) == {"main"}
    engine.close()


def test_a10_gc_residency(benchmark, tmp_path):
    """GC after an 8-writer stream; the residency bound holds each round."""
    schema, db, constraints = state(400)
    specs = disjoint_commit_specs(manager_stream(400, 240), WRITERS)

    def fresh():
        return (_commit_batch(StoreEngine(db, constraints), specs),), {}

    def collect(engine):
        stats = engine.gc(keep=WRITERS)
        assert stats["after"] <= WRITERS * len(engine.graph.heads) \
            + len(stats["pinned"])
        return engine

    engine = benchmark.pedantic(collect, setup=fresh, rounds=5,
                                iterations=1)
    assert len(engine.graph) <= WRITERS
    assert engine.head_version().vid == "v240"
    assert engine.audit().ok()
