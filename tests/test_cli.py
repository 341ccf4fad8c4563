"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro import cli, io
from repro.core.employee import employee_constraints, employee_extension
from repro.store import WriteAheadLog


@pytest.fixture
def document(tmp_path):
    db = employee_extension()
    path = tmp_path / "employee.json"
    io.save(path, db, employee_constraints(db.schema))
    return str(path)


@pytest.fixture
def broken_document(tmp_path):
    db = employee_extension()
    broken = db.insert("manager", {
        "name": "eva", "age": 47, "depname": "admin", "budget": 100,
    }, propagate=False)
    path = tmp_path / "broken.json"
    io.save(path, broken, employee_constraints(broken.schema))
    return str(path)


class TestInspect:
    def test_renders_tables(self, document, capsys):
        assert cli.main(["inspect", document]) == 0
        out = capsys.readouterr().out
        assert "A = {age, budget, depname, location, name}" in out
        assert "containment: ok" in out


class TestCheck:
    def test_clean_state(self, document, capsys):
        assert cli.main(["check", document]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, broken_document, capsys):
        assert cli.main(["check", broken_document]) == 1
        out = capsys.readouterr().out
        assert "VIOLATIONS FOUND" in out
        assert "Containment" in out


class TestTopology:
    def test_reports_essential_types(self, document, capsys):
        assert cli.main(["topology", document]) == 0
        out = capsys.readouterr().out
        assert "S_person" in out
        assert "essential entity types: "\
            "['department', 'employee', 'manager', 'person']" in out
        assert "['worksfor']" in out


class TestFD:
    def test_closure_listing(self, document, capsys):
        assert cli.main(["fd", document, "--closure"]) == 0
        out = capsys.readouterr().out
        assert "fd(employee, department, worksfor)" in out
        assert "non-trivial closure" in out

    def test_violated_dependency_exit_code(self, tmp_path, capsys):
        db = employee_extension()
        broken = db.insert("worksfor", {
            "name": "ann", "age": 31, "depname": "sales", "location": "delft",
        }, propagate=False)
        path = tmp_path / "fdbroken.json"
        io.save(path, broken, employee_constraints(broken.schema))
        assert cli.main(["fd", str(path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out


class TestExample:
    def test_writes_document(self, tmp_path, capsys):
        out_path = tmp_path / "emp.json"
        assert cli.main(["example", "employee", str(out_path)]) == 0
        db, constraints = io.load(out_path)
        assert db.is_consistent()
        assert constraints.holds(db)

    def test_unknown_example(self, tmp_path):
        assert cli.main(["example", "nothing", str(tmp_path / "x.json")]) == 2


class TestCheckJson:
    def test_clean_state_json(self, document, capsys):
        import json

        assert cli.main(["check", document, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"ok": True, "findings": [], "constraints": {}}

    def test_violations_json_carry_witnesses(self, broken_document, capsys):
        import json

        assert cli.main(["check", broken_document, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        axioms = {f["axiom"] for f in data["findings"]}
        assert "Containment Condition" in axioms
        assert any(f["witnesses"] for f in data["findings"])


class TestServeLogReplay:
    def test_serve_emits_summary_and_wal(self, document, tmp_path, capsys):
        import json

        wal = tmp_path / "serve.wal"
        assert cli.main(["serve", document, "--txns", "30", "--threads", "2",
                         "--wal", str(wal), "--seed", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["audit"]["ok"] is True
        assert data["committed"] + data["rejected"] + data["conflicts"] \
            + data["noop"] == 30
        assert data["versions"] == data["committed"] + 1
        assert wal.exists()

    def test_log_lists_history(self, document, tmp_path, capsys):
        wal = tmp_path / "serve.wal"
        assert cli.main(["serve", document, "--txns", "12", "--threads", "1",
                         "--wal", str(wal), "--seed", "3"]) == 0
        capsys.readouterr()
        assert cli.main(["log", str(wal)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("v0  snapshot")
        assert any("<- v0" in line for line in out)

    def test_log_json_records(self, document, tmp_path, capsys):
        import json

        wal = tmp_path / "serve.wal"
        cli.main(["serve", document, "--txns", "6", "--threads", "1",
                  "--wal", str(wal), "--seed", "3"])
        capsys.readouterr()
        assert cli.main(["log", str(wal), "--json"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert records[0]["type"] == "snapshot"
        assert all(r["type"] in ("snapshot", "commit", "branch")
                   for r in records)

    def test_replay_verifies_and_writes_head(self, document, tmp_path, capsys):
        import json

        from repro import io as _io

        wal = tmp_path / "serve.wal"
        out_doc = tmp_path / "head.json"
        cli.main(["serve", document, "--txns", "20", "--threads", "2",
                  "--wal", str(wal), "--seed", "3"])
        capsys.readouterr()
        assert cli.main(["replay", str(wal), "--verify",
                         "--out", str(out_doc), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["audit"]["ok"] is True
        assert data["verified"] is True
        db, constraints = _io.load(out_doc)
        assert db.is_consistent()

    def test_serve_has_one_validator(self, document, tmp_path, capsys):
        """No mode to pick: the summary names none, ``--mode`` is gone,
        and the same seed gives the same outcome."""
        import json

        outcomes = []
        for _ in range(2):
            assert cli.main(["serve", document, "--txns", "25",
                             "--threads", "1", "--seed", "5",
                             "--json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert "mode" not in data
            outcomes.append((data["committed"], data["rejected"],
                             data["noop"]))
        assert outcomes[0] == outcomes[1]
        with pytest.raises(SystemExit):
            cli.main(["serve", document, "--mode", "audit"])


class TestCheckpointGc:
    """The checkpoint / gc / replay-from-checkpoint surface of the CLI."""

    @pytest.fixture
    def segmented_wal(self, document, tmp_path, capsys):
        wal = tmp_path / "wal"
        assert cli.main(["serve", document, "--txns", "40", "--threads", "1",
                         "--wal", str(wal), "--seed", "3",
                         "--segment-records", "8",
                         "--checkpoint-every", "10"]) == 0
        capsys.readouterr()
        return wal

    def test_serve_rotates_and_checkpoints(self, segmented_wal, capsys):
        import json

        segments = WriteAheadLog.segment_paths(segmented_wal)
        assert len(segments) > 1
        assert cli.main(["log", str(segmented_wal), "--json"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        kinds = {r["type"] for r in records}
        assert "checkpoint" in kinds

    def test_log_renders_checkpoints(self, segmented_wal, capsys):
        assert cli.main(["log", str(segmented_wal)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint  seq" in out
        assert "heads: main@v" in out

    def test_replay_from_checkpoint_matches_full(self, segmented_wal,
                                                 capsys):
        import json

        assert cli.main(["replay", str(segmented_wal), "--json"]) == 0
        partial = json.loads(capsys.readouterr().out)
        assert cli.main(["replay", str(segmented_wal), "--full",
                         "--json"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert partial["branches"] == full["branches"]
        assert partial["versions"] < full["versions"]
        assert partial["audit"]["ok"] and full["audit"]["ok"]

    def test_checkpoint_command_appends_record(self, document, tmp_path,
                                               capsys):
        import json

        wal = tmp_path / "store.wal"
        cli.main(["serve", document, "--txns", "12", "--threads", "1",
                  "--wal", str(wal), "--seed", "3"])
        capsys.readouterr()
        assert cli.main(["checkpoint", str(wal), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["branches"]["main"].startswith("v")
        assert cli.main(["log", str(wal), "--json"]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert records[-1]["type"] == "checkpoint"
        assert records[-1]["seq"] == summary["seq"]
        # And replay now starts from it.
        assert cli.main(["replay", str(wal), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["versions"] == 1
        assert data["audit"]["ok"] is True

    def test_gc_prunes_checkpointed_segments(self, segmented_wal, capsys):
        import json

        before = WriteAheadLog.segment_paths(segmented_wal)
        assert cli.main(["gc", str(segmented_wal), "--dry-run",
                         "--json"]) == 0
        dry = json.loads(capsys.readouterr().out)
        assert dry["dry_run"] is True
        assert dry["pruned"]
        assert WriteAheadLog.segment_paths(segmented_wal) == before

        archive = segmented_wal.parent / "archive"
        assert cli.main(["gc", str(segmented_wal),
                         "--archive", str(archive), "--json"]) == 0
        done = json.loads(capsys.readouterr().out)
        assert done["pruned"] == dry["pruned"]
        remaining = WriteAheadLog.segment_paths(segmented_wal)
        assert [str(p) for p in remaining] == done["remaining"]
        assert len(remaining) < len(before)
        archived = sorted(p.name for p in archive.iterdir())
        assert archived == sorted(
            p.rsplit("/", 1)[-1] for p in done["pruned"])
        # The pruned log still replays to the same head.
        assert cli.main(["replay", str(segmented_wal), "--verify",
                         "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["branches"] == done["branches"]
        assert data["audit"]["ok"] is True

    def test_checkpoint_keeps_the_promoted_epoch(self, tmp_path, capsys):
        """A CLI checkpoint heads a new segment, so it must carry the
        log's epoch: after a promotion to epoch 1, neither the fence
        (read from segment heads) nor a replay may rewind to 0 — a
        later promotion would re-stamp an epoch already used."""
        from repro.server import ReplicaEngine, promote
        from repro.store import SessionService, StoreEngine
        from repro.workloads import manager_stream, serving_state

        schema, db, constraints = serving_state(8)
        wal = tmp_path / "wal"
        wal.mkdir()
        engine = StoreEngine(db, constraints, wal=wal)
        SessionService(engine).session().run(
            [("insert", "manager", manager_stream(8, 1)[0])])
        engine.close()
        promoted = promote(ReplicaEngine(wal))
        assert promoted.epoch == 1
        promoted.wal.close()

        assert cli.main(["checkpoint", str(wal)]) == 0
        capsys.readouterr()
        assert WriteAheadLog.current_epoch(wal) == 1
        assert StoreEngine.replay(wal).epoch == 1

    def test_gc_without_checkpoint_is_noop(self, document, tmp_path,
                                           capsys):
        wal = tmp_path / "plain.wal"
        cli.main(["serve", document, "--txns", "8", "--threads", "1",
                  "--wal", str(wal), "--seed", "3"])
        capsys.readouterr()
        assert cli.main(["gc", str(wal)]) == 0
        assert "nothing to prune" in capsys.readouterr().out


@pytest.fixture
def committed_wal(tmp_path):
    """A closed primary WAL with one committed write."""
    from repro.store import SessionService, StoreEngine
    from repro.workloads import manager_stream, serving_state

    schema, db, constraints = serving_state(8)
    wal = tmp_path / "primary.jsonl"
    engine = StoreEngine(db, constraints, wal=wal)
    session = SessionService(engine).session()
    session.run([("insert", "manager", manager_stream(8, 1)[0])])
    engine.close()
    return wal


class TestReplicaLagBound:
    def test_within_bound_exits_zero(self, committed_wal, capsys):
        assert cli.main(["replica", str(committed_wal), "--once",
                         "--max-lag-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "lag_ok: True" in out
        assert "max_lag_bytes: 0" in out

    def test_over_bound_exits_nonzero(self, committed_wal, capsys):
        with open(WriteAheadLog.segment_paths(committed_wal)[-1],
                  "ab") as f:
            f.write(b'{"type": "commit", "ver')  # a torn, growing tail
        assert cli.main(["replica", str(committed_wal), "--once",
                         "--timeout", "0.3",
                         "--max-lag-bytes", "0"]) == 1
        out = capsys.readouterr().out
        assert "lag_ok: False" in out

    def test_no_bound_keeps_the_old_contract(self, committed_wal,
                                             capsys):
        with open(WriteAheadLog.segment_paths(committed_wal)[-1],
                  "ab") as f:
            f.write(b'{"type": "commit", "ver')
        assert cli.main(["replica", str(committed_wal), "--once",
                         "--timeout", "0.3"]) == 0
        assert "max_lag_bytes" not in capsys.readouterr().out


class TestSupervise:
    def test_once_against_a_live_primary(self, committed_wal, capsys):
        import json as _json

        from repro.server import ReplicaEngine, StoreServer

        replica_like = ReplicaEngine(committed_wal)
        replica_like.sync()
        with StoreServer(replica_like, sync_interval=0) as server:
            host, port = server.address
            assert cli.main(["supervise", str(committed_wal),
                             "--id", "r1",
                             "--primary", f"{host}:{port}",
                             "--once", "--json"]) == 0
        summary = _json.loads(capsys.readouterr().out)
        assert summary["role"] == "follower"
        assert summary["replica_id"] == "r1"
        assert summary["primary_state"] == "alive"
        assert summary["ticks"] == 1

    def test_max_ticks_bounds_a_dead_primary_loop(self, committed_wal,
                                                  capsys):
        assert cli.main(["supervise", str(committed_wal),
                         "--id", "r1",
                         "--primary", "127.0.0.1:1",
                         "--interval", "0.01",
                         "--max-ticks", "2"]) == 0
        out = capsys.readouterr().out
        assert "role: follower" in out
        assert "primary_state: suspect" in out
        assert "ticks: 2" in out

    def test_malformed_peer_spec_is_rejected(self, committed_wal):
        with pytest.raises(SystemExit, match="ID=HOST:PORT"):
            cli.main(["supervise", str(committed_wal), "--id", "r1",
                      "--primary", "127.0.0.1:1",
                      "--peer", "oops", "--once"])
