"""Durability, recovery, checkpointing, and GC tests for the store.

The crash-safety contract under test: a torn *final* WAL line (the
signature of a crash mid-append) is tolerated — ``records`` warns and
yields the intact prefix, ``repair`` truncates it off, ``replay``
rebuilds the prefix — while corruption anywhere before the final record
raises.  The slow lane injects a crash at *every* byte offset of a
log's last record and checks the replayed graph is exactly the full
graph or exactly the prefix, nothing else.

Checkpoint/GC contract: replay from the newest checkpoint rebuilds
branch heads state-for-state equal to a full replay (differential
tests), pruned segments are never load-bearing, and ``gc`` keeps
resident versions bounded by the keep window plus pins — with the
collected states becoming actual garbage (weakref asserts).
"""

import gc as pygc
import json
import os
import tempfile
import threading
import warnings
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StoreError, TornTailWarning
from repro.server import ReplicaEngine, promote
from repro.store import (
    SessionService,
    StoreEngine,
    WriteAheadLog,
)
from repro.workloads import (
    disjoint_commit_specs,
    manager_stream,
    serving_state,
)


def _mk_engine(n=60, **kwargs):
    schema, db, constraints = serving_state(n)
    return StoreEngine(db, constraints, **kwargs)


def _commit_rows(engine, rows, branch="main"):
    """One single-insert commit per row; returns the new versions."""
    session = SessionService(engine).session(branch)
    return [session.commit(session.begin().insert("manager", row))
            for row in rows]


def _head_states(engine):
    return {name: engine.state(branch=name)
            for name in engine.graph.heads}


def _tail(wal):
    """The log's last segment: where a crash mid-append tears."""
    return WriteAheadLog.segment_paths(wal)[-1]


@pytest.fixture
def logged(tmp_path):
    """A closed one-segment WAL holding a snapshot + 5 commits."""
    wal = tmp_path / "store.wal"
    engine = _mk_engine(wal=wal)
    _commit_rows(engine, manager_stream(60, 5))
    engine.close()
    return wal, engine


# ----------------------------------------------------------------------
# torn tails and corruption
# ----------------------------------------------------------------------
class TestTornTail:
    def test_records_tolerates_torn_final_line(self, logged):
        wal, _ = logged
        data = _tail(wal).read_bytes()
        _tail(wal).write_bytes(data[:-7])  # tear the last record mid-line
        with pytest.warns(TornTailWarning):
            records = list(WriteAheadLog.records(wal))
        assert len(records) == 5  # snapshot + 4 intact commits
        assert records[-1]["version"] == "v4"

    def test_torn_tail_policies(self, logged):
        wal, _ = logged
        _tail(wal).write_bytes(_tail(wal).read_bytes()[:-7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = list(WriteAheadLog.records(wal, torn_tail="ignore"))
        assert len(records) == 5
        with pytest.raises(StoreError):
            list(WriteAheadLog.records(wal, torn_tail="error"))
        with pytest.raises(ValueError):
            list(WriteAheadLog.records(wal, torn_tail="nonsense"))

    def test_record_missing_final_newline_is_complete(self, logged):
        wal, _ = logged
        _tail(wal).write_bytes(_tail(wal).read_bytes().rstrip(b"\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = list(WriteAheadLog.records(wal))
        assert len(records) == 6
        assert WriteAheadLog.repair(wal) == 0

    def test_repair_truncates_and_is_idempotent(self, logged):
        wal, _ = logged
        intact = _tail(wal).read_bytes()
        torn = intact[:-7]
        _tail(wal).write_bytes(torn)
        last_line_start = intact.rstrip(b"\n").rfind(b"\n") + 1
        assert WriteAheadLog.repair(wal) == len(torn) - last_line_start
        assert _tail(wal).read_bytes() == intact[:last_line_start]
        assert WriteAheadLog.repair(wal) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(list(WriteAheadLog.records(wal))) == 5

    def test_replay_recovers_intact_prefix(self, logged):
        wal, original = logged
        _tail(wal).write_bytes(_tail(wal).read_bytes()[:-7])
        with pytest.warns(TornTailWarning):
            engine = StoreEngine.replay(wal)
        assert len(engine.graph) == 5  # v0..v4: the torn v5 is dropped
        assert engine.head_version().vid == "v4"
        assert engine.state() == original.state("v4")
        # Replay repaired the file on disk: a second read is clean.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(list(WriteAheadLog.records(wal))) == 5

    def test_mid_log_corruption_raises(self, logged):
        wal, _ = logged
        lines = _tail(wal).read_bytes().splitlines(keepends=True)
        lines[2] = b'{"type": "commit", "version"\n'  # torn, but not final
        _tail(wal).write_bytes(b"".join(lines))
        with pytest.raises(StoreError, match="corrupt WAL line 3"):
            list(WriteAheadLog.records(wal))
        with pytest.raises(StoreError, match="not a torn tail"):
            WriteAheadLog.repair(wal)
        with pytest.raises(StoreError):
            StoreEngine.replay(wal)

    def test_non_object_final_line_is_torn_not_trusted(self, logged):
        wal, _ = logged
        with open(_tail(wal), "ab") as fh:
            fh.write(b'"just a string"\n')
        with pytest.warns(TornTailWarning):
            records = list(WriteAheadLog.records(wal))
        assert len(records) == 6


# ----------------------------------------------------------------------
# WAL lifecycle: close, creation durability, rotation
# ----------------------------------------------------------------------
class TestWalLifecycle:
    def test_append_after_close_raises_store_error(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "w.jsonl")
        wal.append({"type": "noop"})
        wal.close()
        with pytest.raises(StoreError, match="closed"):
            wal.append({"type": "noop"})
        with pytest.raises(StoreError, match="closed"):
            wal.rotate()
        wal.close()  # idempotent

    def test_creation_and_rotation_fsync_directory(self, tmp_path,
                                                   monkeypatch):
        import repro.store.wal as walmod

        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(walmod.os, "fsync", spy)
        wal = WriteAheadLog(tmp_path / "seg", segment_records=2)
        assert synced, "creating a segment must fsync its directory"
        created = len(synced)
        wal.append({"type": "noop"})
        wal.append({"type": "noop"})
        wal.append({"type": "noop"})  # third append rotates
        assert len(WriteAheadLog.segment_paths(tmp_path / "seg")) == 2
        assert len(synced) > created, "rotation must fsync the directory"
        wal.close()

    def test_unbounded_log_creation_fsyncs_directory(self, tmp_path,
                                                     monkeypatch):
        import repro.store.wal as walmod

        synced = []
        monkeypatch.setattr(walmod.os, "fsync",
                            lambda fd: synced.append(fd))
        WriteAheadLog(tmp_path / "w.jsonl").close()
        assert synced

    def test_rotation_bounds(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "seg", segment_records=2)
        for _ in range(5):
            wal.append({"type": "noop"})
        segments = WriteAheadLog.segment_paths(tmp_path / "seg")
        assert [p.name for p in segments] == [
            "wal.000001.jsonl", "wal.000002.jsonl", "wal.000003.jsonl"]
        assert wal.current_segment == segments[-1]
        wal.close()
        # Reopening appends to the highest segment, not a new one.
        wal = WriteAheadLog(tmp_path / "seg", segment_records=2)
        assert wal.current_segment == segments[-1]
        wal.close()

    def test_records_span_segments_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "seg", segment_records=3)
        for i in range(8):
            wal.append({"type": "noop", "i": i})
        wal.close()
        assert [r["i"] for r in WriteAheadLog.records(tmp_path / "seg")] \
            == list(range(8))

    def test_regular_file_path_is_refused_with_the_migration(
            self, tmp_path):
        legacy = tmp_path / "old.wal"
        legacy.write_text('{"type": "noop"}\n')
        for attempt in (lambda: WriteAheadLog(legacy),
                        lambda: list(WriteAheadLog.records(legacy)),
                        lambda: StoreEngine.replay(legacy),
                        lambda: _mk_engine(wal=legacy)):
            with pytest.raises(StoreError, match="regular file") as caught:
                attempt()
            message = str(caught.value)
            assert f"mkdir D && mv {legacy} D/wal.000001.jsonl" in message
            assert "checkpoint D" in message and "old.wal.epoch" in message
        assert legacy.read_text() == '{"type": "noop"}\n'  # untouched

    def test_migration_recipe_keeps_history_and_epoch(self, tmp_path,
                                                       capsys):
        """A single-file log (every record inline, the promotion's epoch
        record included) moved into a directory replays unchanged, and
        the recipe's checkpoint lifts its epoch to a segment head."""
        from repro import cli

        source = tmp_path / "source"
        engine = _mk_engine(wal=source)
        rows = manager_stream(60, 5)
        _commit_rows(engine, rows[:3])
        engine.checkpoint()
        engine.close()
        promoted = promote(ReplicaEngine(source))
        _commit_rows(promoted, rows[3:])
        promoted.close()
        legacy = tmp_path / "old.wal"
        legacy.write_bytes(b"".join(
            p.read_bytes() for p in WriteAheadLog.segment_paths(source)))

        migrated = tmp_path / "D"
        migrated.mkdir()
        legacy.rename(migrated / "wal.000001.jsonl")
        replayed = StoreEngine.replay(migrated, verify=True)
        assert replayed.graph.branches() == promoted.graph.branches()
        assert replayed.state() == promoted.state()
        assert replayed.epoch == 1
        assert WriteAheadLog.current_epoch(migrated) == 0  # epoch inline
        assert cli.main(["checkpoint", str(migrated)]) == 0
        capsys.readouterr()
        assert WriteAheadLog.current_epoch(migrated) == 1
        assert StoreEngine.replay(migrated).epoch == 1

    def test_engine_refuses_populated_wal(self, logged):
        wal, _ = logged
        with pytest.raises(StoreError, match="already has records"):
            _mk_engine(wal=wal)


# ----------------------------------------------------------------------
# checkpointing and replay-from-checkpoint
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_checkpoint_requires_wal(self):
        engine = _mk_engine()
        with pytest.raises(StoreError, match="WAL-backed"):
            engine.checkpoint()

    def test_unbounded_log_checkpoint_heads_a_segment(self, tmp_path):
        """With no rotation bound a checkpoint still starts a new
        segment, so replay finds it by peeking at segment heads."""
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        rows = manager_stream(60, 8)
        _commit_rows(engine, rows[:5])
        record = engine.checkpoint()
        assert record["seq"] == 5
        _commit_rows(engine, rows[5:])
        engine.close()
        segments = WriteAheadLog.segment_paths(wal)
        assert [WriteAheadLog.first_record(p)["type"] for p in segments] \
            == ["snapshot", "checkpoint"]
        assert WriteAheadLog.checkpoint_floor(segments) == 1

        partial = StoreEngine.replay(wal)
        assert len(partial.graph) == 4  # v5 floor + v6..v8
        assert partial.head_version().vid == "v8"
        full = StoreEngine.replay(wal, from_checkpoint=False)
        assert len(full.graph) == 9
        assert partial.state() == full.state() == engine.state()
        floor = partial.graph.get("v5")
        assert floor.parent is None
        assert floor.state == full.state("v5")

    def test_auto_checkpoint_every(self, tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal, checkpoint_every=5)
        _commit_rows(engine, manager_stream(60, 12))
        engine.close()
        kinds = [r["type"] for r in WriteAheadLog.records(wal)]
        assert kinds.count("checkpoint") == 2
        # They land right after the 5th and 10th commits.
        assert kinds.index("checkpoint") == 6

    def test_checkpoint_heads_a_fresh_segment(self, tmp_path):
        engine = _mk_engine(
            wal=WriteAheadLog(tmp_path / "seg", segment_records=500))
        _commit_rows(engine, manager_stream(60, 4))
        engine.checkpoint()
        engine.close()
        segments = WriteAheadLog.segment_paths(tmp_path / "seg")
        assert len(segments) == 2
        first = WriteAheadLog.first_record(segments[-1])
        assert first["type"] == "checkpoint"

    def test_prune_then_replay_differential(self, tmp_path):
        path = tmp_path / "seg"
        engine = _mk_engine(
            wal=WriteAheadLog(path, segment_records=6), checkpoint_every=8)
        _commit_rows(engine, manager_stream(60, 20))
        engine.close()
        full = StoreEngine.replay(path, from_checkpoint=False)
        before = WriteAheadLog.segment_paths(path)
        pruned = WriteAheadLog.prune(path)
        assert pruned and len(WriteAheadLog.segment_paths(path)) \
            == len(before) - len(pruned)
        replayed = StoreEngine.replay(path, verify=True)
        assert replayed.head_version().vid == full.head_version().vid
        assert replayed.state() == full.state()
        # Pruning again finds nothing new.
        assert WriteAheadLog.prune(path) == []

    def test_engine_prune_wal_and_archive(self, tmp_path):
        path = tmp_path / "seg"
        archive = tmp_path / "old"
        engine = _mk_engine(
            wal=WriteAheadLog(path, segment_records=4), checkpoint_every=6)
        _commit_rows(engine, manager_stream(60, 13))
        pruned = engine.prune_wal(archive=archive)
        assert pruned
        assert sorted(p.name for p in archive.iterdir()) \
            == sorted(p.name for p in pruned)
        engine.close()
        assert StoreEngine.replay(path).state() == engine.state()

    def test_multi_branch_checkpoint_replay(self, tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        rows = manager_stream(60, 10)
        _commit_rows(engine, rows[:3])
        engine.branch("dev")
        _commit_rows(engine, rows[3:5], branch="dev")
        _commit_rows(engine, rows[5:7])
        engine.branch("frozen")  # head coincides with main's
        engine.checkpoint()
        _commit_rows(engine, rows[7:9], branch="dev")
        _commit_rows(engine, rows[9:])
        engine.close()

        partial = StoreEngine.replay(wal)
        full = StoreEngine.replay(wal, from_checkpoint=False)
        assert partial.graph.branches() == full.graph.branches()
        for name in ("main", "dev", "frozen"):
            assert partial.state(branch=name) == full.state(branch=name)
        # Branches that shared a head at checkpoint time share one floor.
        assert partial.graph.head("frozen") is partial.graph.get(
            full.graph.head("frozen").vid)

    def test_branch_below_checkpoint_floor(self, tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        _commit_rows(engine, manager_stream(60, 4))
        engine.checkpoint()
        engine.branch("old", at="v1")  # anchored below the future floor
        engine.close()
        with pytest.raises(StoreError, match="below the checkpoint floor"):
            StoreEngine.replay(wal)
        full = StoreEngine.replay(wal, from_checkpoint=False)
        assert full.graph.branches()["old"] == "v1"

    def test_restored_engine_starts_fresh_wal_with_checkpoint(
            self, tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        rows = manager_stream(60, 6)
        _commit_rows(engine, rows[:4])
        engine.checkpoint()
        engine.close()

        fresh = tmp_path / "fresh.wal"
        restored = StoreEngine.replay(wal, wal=fresh)
        _commit_rows(restored, rows[4:])
        restored.close()
        first = WriteAheadLog.first_record(
            WriteAheadLog.segment_paths(fresh)[0])
        assert first["type"] == "checkpoint"
        again = StoreEngine.replay(fresh)
        assert again.head_version().vid == restored.head_version().vid
        assert again.state() == restored.state()

    def test_verified_replay_detects_tampered_checkpoint(self, tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        _commit_rows(engine, manager_stream(60, 3))
        engine.checkpoint()
        engine.close()
        lines = _tail(wal).read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[-1])
        assert record["type"] == "checkpoint"
        doc = record["branches"]["main"]["document"]
        doc["relations"]["manager"].pop()  # drop a row from the document
        lines[-1] = json.dumps(record, sort_keys=True)
        _tail(wal).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(StoreError, match="drift"):
            StoreEngine.replay(wal, from_checkpoint=False, verify=True)


# ----------------------------------------------------------------------
# the segment-head invariant replay, replicas and the fence rely on
# ----------------------------------------------------------------------
ACTIONS = st.lists(
    st.one_of(st.tuples(st.just("commit"), st.integers(0, 3)),
              st.tuples(st.just("checkpoint")),
              st.tuples(st.just("branch"), st.integers(0, 3)),
              st.tuples(st.just("promote"))),
    max_size=14)


class TestSegmentHeadInvariant:
    @settings(max_examples=40, deadline=None)
    @given(actions=ACTIONS,
           segment_records=st.none() | st.integers(1, 6),
           segment_bytes=st.none() | st.integers(200, 4000))
    def test_checkpoints_and_epochs_head_their_segments(
            self, actions, segment_records, segment_bytes):
        """Any interleaving of commits, checkpoints, branches and
        promotions under any rotation bounds (none included): every
        checkpoint or epoch record is its segment's first record, so
        replay from the newest checkpoint-headed segment equals a full
        replay, and a replica bootstrapped there converges to it."""
        bounds = {"segment_records": segment_records,
                  "segment_bytes": segment_bytes}
        rows = iter(manager_stream(30, 20))
        promotions = 0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "wal"
            engine = _mk_engine(n=30, wal=WriteAheadLog(path, **bounds))
            for action in actions:
                names = sorted(engine.graph.heads)
                if action[0] == "commit":
                    name = names[action[1] % len(names)]
                    SessionService(engine).session(name).run(
                        [("insert", "manager", next(rows))])
                elif action[0] == "checkpoint":
                    engine.checkpoint()
                elif action[0] == "branch":
                    engine.branch(f"b{len(names)}",
                                  from_branch=names[action[1] % len(names)])
                else:
                    engine.close()
                    engine = promote(ReplicaEngine(path), **bounds)
                    promotions += 1
            engine.close()

            for segment in WriteAheadLog.segment_paths(path):
                kinds = [json.loads(line)["type"]
                         for line in segment.read_bytes().splitlines()]
                assert all(kind not in ("checkpoint", "epoch")
                           for kind in kinds[1:]), (segment.name, kinds)
            assert WriteAheadLog.current_epoch(path) == promotions

            partial = StoreEngine.replay(path)
            full = StoreEngine.replay(path, from_checkpoint=False)
            assert partial.graph.branches() == full.graph.branches() \
                == engine.graph.branches()
            assert partial.graph.seq == full.graph.seq
            assert partial.epoch == full.epoch == promotions
            for name in full.graph.heads:
                assert partial.state(branch=name) == full.state(branch=name)

            replica = ReplicaEngine(path)
            replica.catch_up()
            assert [v.vid for v in replica.graph.log()] \
                == [v.vid for v in partial.graph.log()]
            for version in partial.graph.log():
                assert replica.graph.get(version.vid).state == version.state
            assert replica.graph.branches() == full.graph.branches()


# ----------------------------------------------------------------------
# version-graph GC and pins
# ----------------------------------------------------------------------
class TestGc:
    def test_gc_keep_window_and_stats(self):
        engine = _mk_engine()
        _commit_rows(engine, manager_stream(60, 8))
        stats = engine.gc(keep=3)
        assert stats == {"before": 9, "after": 3, "collected": 6,
                         "pinned": [], "floors": ["v6"]}
        assert sorted(engine.graph.versions) == ["v6", "v7", "v8"]
        assert engine.graph.get("v6").parent is None
        assert engine.graph.root.vid == "v6"
        with pytest.raises(StoreError):
            engine.gc(keep=0)

    def test_gc_preserves_pins_and_releases_collected_states(self):
        engine = _mk_engine()
        service = SessionService(engine)
        session = service.session()
        refs = {}
        for row in manager_stream(60, 8):
            version = session.commit(session.begin().insert("manager", row))
            refs[version.vid] = weakref.ref(version.state)
        del version
        reader = service.session()
        reader.pin("v3")

        stats = engine.gc(keep=1)
        assert stats["pinned"] == ["v3"]
        assert sorted(stats["floors"]) == ["v3", "v8"]
        assert sorted(engine.graph.versions) == ["v3", "v8"]
        pygc.collect()
        assert refs["v3"]() is not None, "pinned snapshot must survive"
        assert refs["v8"]() is not None
        for vid in ("v1", "v2", "v4", "v5", "v6", "v7"):
            assert refs[vid]() is None, \
                f"collected state {vid} is still resident"

        reader.release()
        engine.gc(keep=1)
        assert sorted(engine.graph.versions) == ["v8"]
        pygc.collect()
        assert refs["v3"]() is None, \
            "a released pin must make the snapshot collectable"

    def test_gc_after_commits_keeps_serving(self):
        engine = _mk_engine()
        rows = manager_stream(60, 10)
        _commit_rows(engine, rows[:6])
        engine.gc(keep=1)
        _commit_rows(engine, rows[6:])
        assert engine.head_version().vid == "v10"
        assert engine.audit().ok()
        expect = {r["pname"] for r in rows}
        got = {t["pname"] for t in engine.state().R("manager").tuples}
        assert expect <= got

    def test_pin_unpin_errors(self):
        engine = _mk_engine()
        versions = _commit_rows(engine, manager_stream(60, 4))
        with pytest.raises(StoreError, match="not pinned"):
            engine.unpin("v2")
        engine.pin("v2")
        engine.pin("v2")  # refcounted
        engine.unpin("v2")
        engine.gc(keep=1)
        assert "v2" in engine.graph.versions  # one pin still held
        engine.unpin("v2")
        engine.gc(keep=1)
        assert "v2" not in engine.graph.versions
        with pytest.raises(StoreError, match="not resident"):
            engine.pin(versions[1])  # collected version object

    def test_session_pin_context_manager(self):
        engine = _mk_engine()
        service = SessionService(engine)
        _commit_rows(engine, manager_stream(60, 5))
        with service.session() as session:
            pinned = session.pin("v2")
            assert [v.vid for v in session.pins()] == ["v2"]
            engine.gc(keep=1)
            assert session.read("manager", pinned) is not None
            with pytest.raises(StoreError, match="no pin"):
                session.release("v4")
        # Leaving the block released the pin.
        assert engine.pinned() == {}
        engine.gc(keep=1)
        assert "v2" not in engine.graph.versions

    def test_transaction_based_below_gc_floor_fails(self):
        engine = _mk_engine()
        rows = manager_stream(60, 6)
        _commit_rows(engine, rows[:1])
        stale = engine.begin()  # based at v1
        _commit_rows(engine, rows[1:5])
        engine.gc(keep=2)
        stale.insert("manager", rows[5])
        with pytest.raises(StoreError, match="not an ancestor"):
            engine.commit(stale)

    def test_gc_leaves_wal_replayable(self, tmp_path):
        wal = tmp_path / "store.wal"
        engine = _mk_engine(wal=wal)
        _commit_rows(engine, manager_stream(60, 6))
        engine.gc(keep=1)
        _commit_rows(engine, manager_stream(60, 8)[6:])
        engine.close()
        full = StoreEngine.replay(wal, from_checkpoint=False)
        assert len(full.graph) == 9  # GC never rewrites history on disk
        assert full.state() == engine.state()


# ----------------------------------------------------------------------
# slow lane: exhaustive crash injection, streams, and timing gates
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestCrashInjection:
    def test_every_byte_offset_of_the_last_record(self, tmp_path):
        wal = tmp_path / "full.wal"
        engine = _mk_engine(n=30, wal=wal)
        _commit_rows(engine, manager_stream(30, 5))
        engine.close()
        data = _tail(wal).read_bytes()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        target = tmp_path / "cut.wal"
        target.mkdir()
        for cut in range(last_start, len(data) + 1):
            (target / "wal.000001.jsonl").write_bytes(data[:cut])
            complete = cut >= len(data) - 1  # only the newline missing
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TornTailWarning)
                replayed = StoreEngine.replay(target)
            if complete:
                assert len(replayed.graph) == 6, f"cut at byte {cut}"
                assert replayed.head_version().vid == "v5"
            else:
                assert len(replayed.graph) == 5, f"cut at byte {cut}"
                assert replayed.head_version().vid == "v4"
            assert engine.state(replayed.head_version().vid) \
                == replayed.state()

    def test_torn_segment_boundary(self, tmp_path):
        """Tearing the last record of a segmented log behaves exactly
        like the one-segment case — only the final segment's final line
        is ever forgiven."""
        path = tmp_path / "seg"
        engine = _mk_engine(n=30, wal=WriteAheadLog(path, segment_records=3))
        _commit_rows(engine, manager_stream(30, 7))
        engine.close()
        last = WriteAheadLog.segment_paths(path)[-1]
        data = last.read_bytes()
        last.write_bytes(data[:-9])
        with pytest.warns(TornTailWarning):
            replayed = StoreEngine.replay(path, from_checkpoint=False)
        assert replayed.head_version().vid == "v6"
        # A torn line in a non-final segment is never forgiven.
        first = WriteAheadLog.segment_paths(path)[0]
        first.write_bytes(first.read_bytes()[:-9])
        with pytest.raises(StoreError):
            StoreEngine.replay(path, from_checkpoint=False)


@pytest.mark.slow
class TestCheckpointStream:
    def test_rotated_checkpointed_replay_matches_full(self, tmp_path):
        """Differential over a long seeded stream: every version of the
        from-checkpoint graph state-equals its full-replay twin."""
        path = tmp_path / "seg"
        engine = _mk_engine(
            n=400,
            wal=WriteAheadLog(path, segment_records=25),
            checkpoint_every=40)
        _commit_rows(engine, manager_stream(400, 130))
        engine.close()
        partial = StoreEngine.replay(path)
        full = StoreEngine.replay(path, from_checkpoint=False)
        assert len(full.graph) == 131
        assert 1 < len(partial.graph) < len(full.graph)
        assert partial.graph.branches() == full.graph.branches()
        for vid in partial.graph.versions:
            assert partial.state(vid) == full.state(vid), vid
        pruned = WriteAheadLog.prune(path)
        assert pruned
        assert StoreEngine.replay(path, verify=True).state() == full.state()

    def test_replay_from_checkpoint_speedup(self, tmp_path):
        """The acceptance gate: at 500+ commits, replay from the newest
        checkpoint is >= 5x faster than replay from v0."""
        import time

        path = tmp_path / "seg"
        engine = _mk_engine(
            n=60,
            wal=WriteAheadLog(path, segment_records=1000),
            checkpoint_every=100)
        rows = manager_stream(60, 40)
        session = SessionService(engine).session()
        for i in range(260):  # insert/delete churn: 520 commits
            row = rows[i % len(rows)]
            session.commit(session.begin().insert("manager", row))
            session.commit(session.begin().delete("manager", row, False))
        engine.close()

        def best_of(k, fn):
            return min(_timed(fn) for _ in range(k))

        def _timed(fn):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        partial = StoreEngine.replay(path)
        full = StoreEngine.replay(path, from_checkpoint=False)
        assert full.graph.seq == 520
        assert partial.state() == full.state()
        t_full = best_of(
            3, lambda: StoreEngine.replay(path, from_checkpoint=False))
        t_partial = best_of(3, lambda: StoreEngine.replay(path))
        speedup = t_full / t_partial
        assert speedup >= 5.0, (
            f"replay-from-checkpoint speedup {speedup:.1f}x "
            f"(full {t_full * 1e3:.1f} ms, "
            f"checkpoint {t_partial * 1e3:.1f} ms)")


@pytest.mark.slow
class TestGcUnderStream:
    def test_gc_bounds_residency_under_eight_writers(self):
        engine = _mk_engine(n=400)
        service = SessionService(engine)
        rows = manager_stream(400, 240)
        shards = disjoint_commit_specs(rows, 8)
        errors = []

        def worker(shard):
            session = service.session()
            for spec in shard:
                for _ in range(50):
                    try:
                        session.run(spec)
                        break
                    except StoreError:
                        # The txn's base fell below the GC floor while
                        # this writer was descheduled; rebase by
                        # retrying from the fresh head.
                        continue
                else:
                    errors.append(spec)

        pinned = service.session()
        pinned.pin()  # v0: a long-lived reader the stream must respect
        threads = [threading.Thread(target=worker, args=(shard,))
                   for shard in shards]
        for t in threads:
            t.start()
        bounds = []
        while any(t.is_alive() for t in threads):
            stats = engine.gc(keep=16)
            bounds.append(stats["after"])
            assert stats["after"] <= 16 + len(stats["pinned"])
        for t in threads:
            t.join()
        assert not errors, f"{len(errors)} commits never landed"

        final = engine.gc(keep=4)
        assert final["after"] <= 4 + 1
        assert "v0" in engine.graph.versions  # the pin held
        got = {t["pname"] for t in engine.state().R("manager").tuples}
        assert {r["pname"] for r in rows} <= got
        assert engine.audit().ok()
