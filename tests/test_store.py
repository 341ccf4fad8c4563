"""Unit and differential tests for the versioned store (repro.store).

The load-bearing suites are differential:

* the engine's commit gate must agree, accept/reject and state for
  state, with a test-side oracle — derive the candidate with
  ``apply_changes``, judge it with a full ``check_all`` — over seeded
  random transaction streams that mix inserts, deletes, removes and
  replaces, with and without custom constraints, and

* WAL replay must rebuild a version graph whose every state equals the
  original (~200 seeded version comparisons, trusted and verified
  replay, plus a tailing replica).
"""

import random

import pytest

from repro import io
from repro.core import DatabaseExtension, DomainConstraint, check_all
from repro.core.employee import employee_constraints, employee_extension
from repro.errors import (
    CommitRejected,
    ExtensionError,
    StoreError,
    TransactionConflict,
)
from repro.server import ReplicaEngine
from repro.store import (
    SessionService,
    StoreEngine,
    Transaction,
    ValidationPlan,
    VersionGraph,
    WriteAheadLog,
    write_footprint,
)
from repro.workloads import manager_stream, serving_state
from tests.generators import mixed_txn_specs, random_database_states


def _buffer(txn, ops):
    """Buffer ``(kind, relation, payload[, propagate])`` op specs."""
    for kind, relation, payload, *propagate in ops:
        getattr(txn, kind)(relation, payload, *propagate)
    return txn


def _object_level(state, ops):
    """The state ``ops`` lead to through the public DatabaseExtension
    update methods, one op at a time."""
    for kind, relation, payload, *propagate in ops:
        if kind == "insert":
            state = state.insert(relation, payload, *propagate)
        elif kind == "delete":
            state = state.delete(relation, payload, *propagate)
        elif kind == "remove":
            state = state.remove_tuples(relation, payload)
        else:
            state = state.replace(relation, payload)
    return state


def _manager_cap(schema, cap):
    return DomainConstraint("manager-cap", schema["manager"],
                            lambda r: len(r) <= cap,
                            lambda r: [f"{len(r)} managers, cap {cap}"])


@pytest.fixture
def employee_engine():
    db = employee_extension()
    return StoreEngine(db, employee_constraints(db.schema))


def _mk_engine(n=60, **kwargs):
    schema, db, constraints = serving_state(n)
    return StoreEngine(db, constraints, **kwargs)


class TestVersionGraph:
    def test_root_and_heads(self, employee_engine):
        g = employee_engine.graph
        assert g.root.vid == "v0"
        assert g.head().vid == "v0"
        assert g.branches() == {"main": "v0"}

    def test_unknown_version_and_branch(self, employee_engine):
        g = employee_engine.graph
        with pytest.raises(StoreError):
            g.get("v99")
        with pytest.raises(StoreError):
            g.head("nope")

    def test_span_and_lineage(self):
        engine = _mk_engine()
        session = SessionService(engine).session()
        rows = manager_stream(60, 3)
        vids = [session.commit(
            session.begin().insert("manager", r)).vid for r in rows]
        assert vids == ["v1", "v2", "v3"]
        head = engine.head_version()
        assert [v.vid for v in engine.graph.span("v1", head)] == ["v3", "v2"]
        assert engine.graph.span("v3", head) == []
        assert [v.vid for v in engine.graph.lineage("v3")] == \
            ["v0", "v1", "v2", "v3"]

    def test_branching_isolates_heads(self):
        engine = _mk_engine()
        engine.branch("dev")
        dev = SessionService(engine).session("dev")
        main = SessionService(engine).session("main")
        row = manager_stream(60, 1)[0]
        v_dev = dev.commit(dev.begin().insert("manager", row))
        assert engine.head_version("dev") is v_dev
        assert engine.head_version("main").vid == "v0"
        assert row["pname"] not in {
            t["pname"] for t in main.read("manager")}
        with pytest.raises(StoreError):
            engine.branch("dev")  # duplicate name


class TestTransactionBuffering:
    def test_rejects_bad_schema_and_domain(self, employee_engine):
        txn = employee_engine.begin()
        with pytest.raises(ExtensionError):
            txn.insert("manager", {"name": "ann"})
        with pytest.raises(ExtensionError):
            txn.insert("employee",
                       {"name": "nobody", "age": 31, "depname": "sales"})

    def test_single_use(self, employee_engine):
        txn = employee_engine.begin().insert(
            "manager", {"name": "cas", "age": 28, "depname": "sales",
                        "budget": 250})
        employee_engine.commit(txn)
        with pytest.raises(StoreError):
            employee_engine.commit(txn)

    def test_empty_transaction_is_a_noop(self, employee_engine):
        head = employee_engine.head_version()
        assert employee_engine.commit(employee_engine.begin()) is head

    def test_net_changes_match_object_level_updates(self):
        """A transaction's net effect equals chaining the public
        DatabaseExtension update methods op for op — a replace
        included, which the transaction expands into removed and added
        rows."""
        for seed in range(12):
            rng = random.Random(seed)
            (schema, db), *_ = random_database_states(rng)
            for ops in mixed_txn_specs(rng, db, 6):
                txn = _buffer(Transaction(schema, None, "main"), ops)
                changes = txn.net_changes(db)
                derived = db.apply_changes(changes.added, changes.removed)
                assert derived == _object_level(db, ops), (seed, ops)


class TestCommitGate:
    def test_clean_commit_accepted_and_audited(self):
        engine = _mk_engine()
        session = SessionService(engine).session()
        version = session.commit(
            session.begin().insert("manager", manager_stream(60, 1)[0]))
        assert version.vid == "v1"
        assert engine.audit().ok()

    def test_containment_violation_rejected_with_witnesses(self):
        engine = _mk_engine()
        row = manager_stream(60, 1)[0]
        bad = dict(row, budget=(row["budget"] + 1) % 53)  # no worksfor support
        txn = engine.begin().insert("manager", bad, propagate=False)
        with pytest.raises(CommitRejected) as exc:
            engine.commit(txn)
        checks = {f["check"] for f in exc.value.findings}
        assert "containment" in checks
        assert all(f["witnesses"] for f in exc.value.findings
                   if f["check"] == "containment")

    def test_fd_violation_rejected(self):
        engine = _mk_engine()
        # worksfor: person (pname,dname) -> dept (dname,budget); a second
        # row in the same (pname,dname) lhs-group with a different budget
        # breaks the dependency (propagation keeps containment clean, so
        # the FD is the *only* thing wrong).
        state = engine.state()
        t = sorted(state.R("worksfor").tuples, key=repr)[0].as_dict()
        bad = dict(t, budget=(t["budget"] + 1) % 53)
        txn = engine.begin().insert("worksfor", bad)
        with pytest.raises(CommitRejected) as exc:
            engine.commit(txn)
        assert any(f["check"] == "fd" for f in exc.value.findings)

    def test_injectivity_violation_rejected(self):
        engine = _mk_engine()
        state = engine.state()
        victim = sorted(state.R("manager").tuples, key=repr)[0].as_dict()
        twin = dict(victim, bonus=(victim["bonus"] + 1) % 11)
        txn = engine.begin().insert("manager", twin, propagate=False)
        with pytest.raises(CommitRejected) as exc:
            engine.commit(txn)
        assert any(f["check"] == "extension-axiom"
                   for f in exc.value.findings)

    def test_support_stripping_delete_rejected(self):
        engine = _mk_engine()
        state = engine.state()
        # a dept row supporting office (compound of dept): removing it
        # without cascading offices strips contributor support
        office = sorted(state.R("office").tuples, key=repr)[0]
        dept = office.project(state.schema["dept"].attributes)
        txn = engine.begin().remove("dept", [dept])
        with pytest.raises(CommitRejected) as exc:
            engine.commit(txn)
        checks = {f["check"] for f in exc.value.findings}
        assert checks & {"extension-axiom", "containment", "participation"}

    def test_rejection_leaves_store_untouched(self):
        engine = _mk_engine()
        head = engine.head_version()
        bad = dict(manager_stream(60, 1)[0], budget=52)
        with pytest.raises(CommitRejected):
            engine.commit(engine.begin().insert("manager", bad,
                                                propagate=False))
        assert engine.head_version() is head
        assert len(engine.graph) == 1
        assert engine.audit().ok()

    def test_inconsistent_root_refused(self):
        schema, db, constraints = serving_state(30)
        broken = db.insert("manager", dict(manager_stream(30, 1)[0],
                                           budget=52), propagate=False)
        with pytest.raises(StoreError):
            StoreEngine(broken, constraints)

    def test_replace_footprint_is_bounded(self):
        """A replace commits as the rows it removes: its footprint is
        those rows' groups, nothing more."""
        engine = _mk_engine()
        state = engine.state()
        managers = sorted(state.R("manager").tuples, key=repr)
        keep, gone = managers[:3], managers[3:]
        version = engine.commit(
            engine.begin().replace("manager", [t.as_dict() for t in keep]))
        family = engine.plan.probe_family["manager"]
        assert version.writes == frozenset(
            ("manager", attrs, t.project(attrs))
            for t in gone for attrs in family)
        assert len(engine.state().R("manager")) == 3
        assert engine.audit().ok()

    def test_noop_replace_commits_nothing(self):
        engine = _mk_engine()
        head = engine.head_version()
        rows = [t.as_dict() for t in engine.state().R("office").tuples]
        assert engine.commit(engine.begin().replace("office", rows)) is head


class TestCommitGateVsAuditOracle:
    """The commit gate is judged against a test-side oracle: derive the
    candidate with ``apply_changes``, audit it with ``check_all``, and
    demand the same accept/reject decision and the same state, seed for
    seed.  Traffic mixes inserts, deletes, removes and replaces (shrink,
    toggle, restate); every fourth commit promotes a fresh manager
    instead.  The ``custom`` stores carry two domain constraints: one
    that always holds, and one that bans every other fresh manager."""

    @pytest.mark.parametrize("custom", [False, True],
                             ids=["probed", "custom"])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_traffic_agreement(self, seed, custom):
        rng = random.Random(seed)
        n = 40
        schema, db, constraints = serving_state(n)
        fresh = manager_stream(n, 6)
        if custom:
            banned = {row["pname"] for row in fresh[1::2]}
            constraints += [
                DomainConstraint("persons-nonempty", schema["person"],
                                 lambda r: len(r) > 0),
                DomainConstraint(
                    "no-new-managers", schema["manager"],
                    lambda r: all(t["pname"] not in banned for t in r)),
            ]
        engine = StoreEngine(db, constraints)
        decisions, named = [], set()
        for step in range(24):
            head = engine.state()
            ops = mixed_txn_specs(rng, head, 1, ops_per_txn=3)[0]
            if step % 4 == 3:
                ops = [("insert", "manager", fresh[step // 4])]
            changes = _buffer(Transaction(schema, None), ops) \
                .net_changes(head)
            candidate = head.apply_changes(changes.added, changes.removed)
            assert candidate == _object_level(head, ops), (seed, ops)
            expected = check_all(schema, candidate,
                                 constraints=engine.constraints,
                                 contributors=candidate.contributors).ok()
            try:
                engine.commit(_buffer(engine.begin(), ops))
                accepted = True
            except CommitRejected as exc:
                accepted = False
                named.update(f["constraint"] for f in exc.findings
                             if f["check"] == "constraint")
            assert accepted == expected, (seed, ops)
            assert engine.state() == (candidate if expected else head)
            decisions.append(accepted)
        assert True in decisions and False in decisions
        assert ("no-new-managers" in named) == custom
        assert "persons-nonempty" not in named
        assert engine.audit().ok()

    def test_committed_versions_always_audit_clean(self):
        rng = random.Random(99)
        engine = _mk_engine(40)
        session = SessionService(engine).session()
        for ops in mixed_txn_specs(rng, engine.state(), 20):
            try:
                session.run(ops)
            except CommitRejected:
                pass
        for version in engine.graph.log():
            assert engine._audit(version.state).ok(), version.vid


class TestOptimisticConcurrency:
    def test_disjoint_writers_rebase_onto_each_other(self):
        engine = _mk_engine()
        rows = manager_stream(60, 2)
        a = engine.begin().insert("manager", rows[0])
        b = engine.begin().insert("manager", rows[1])  # same base as a
        va = engine.commit(a)
        vb = engine.commit(b)  # stale base, disjoint footprint
        assert (va.vid, vb.vid) == ("v1", "v2")
        assert vb.parent is va
        managers = engine.state().R("manager")
        assert all(any(t["pname"] == r["pname"] for t in managers)
                   for r in rows)
        assert engine.audit().ok()

    def test_overlapping_footprints_conflict(self):
        engine = _mk_engine()
        row = manager_stream(60, 1)[0]
        a = engine.begin().insert("manager", row)
        b = engine.begin().delete("manager", row)
        engine.commit(a)
        with pytest.raises(TransactionConflict) as exc:
            engine.commit(b)
        assert exc.value.keys

    def test_replace_conflicts_with_everything(self):
        engine = _mk_engine()
        state = engine.state()
        keep = [t.as_dict() for t in
                sorted(state.R("manager").tuples, key=repr)]
        a = engine.begin().insert("manager", manager_stream(60, 1)[0])
        b = engine.begin().replace("manager", keep)
        engine.commit(a)
        with pytest.raises(TransactionConflict):
            engine.commit(b)

    def test_session_retry_resolves_conflicts(self):
        engine = _mk_engine()
        session = SessionService(engine).session()
        row = manager_stream(60, 1)[0]
        engine.commit(engine.begin().insert("manager", row))
        txn = session.begin().delete("manager", row)
        # make the base stale AND footprint-overlapping via a same-group
        # second commit
        stale = engine.begin().delete("manager", row)
        stale.base = engine.graph.root
        version = session.commit(stale)  # rebases through the conflict
        assert version.vid == "v2"
        assert txn  # unused txn does not disturb the store

    def test_footprint_granularity_is_lhs_groups(self):
        engine = _mk_engine()
        plan = engine.plan
        rows = manager_stream(60, 2)
        t1 = engine.begin().insert("manager", rows[0])
        t2 = engine.begin().insert("manager", rows[1])
        c1 = t1.net_changes(engine.state())
        c2 = t2.net_changes(engine.state())
        f1, f2 = write_footprint(plan, c1), write_footprint(plan, c2)
        assert f1 and f2 and not (f1 & f2)
        same = engine.begin().insert("manager", rows[0])
        f3 = write_footprint(plan, same.net_changes(engine.state()))
        assert f1 & f3


class TestSessions:
    def test_snapshot_reads_are_pinned(self):
        engine = _mk_engine()
        session = SessionService(engine).session()
        pinned = session.snapshot()
        before = session.read("manager", at=pinned)
        session.commit(
            session.begin().insert("manager", manager_stream(60, 1)[0]))
        assert session.read("manager", at=pinned) == before
        assert len(session.read("manager")) == len(before) + 1

    def test_unknown_branch_fails_fast(self):
        engine = _mk_engine()
        with pytest.raises(StoreError):
            SessionService(engine).session("nope")

    def test_close_releases_pins_and_refuses_new_work(self):
        engine = _mk_engine()
        session = SessionService(engine).session()
        pinned = session.pin()
        assert pinned.vid in engine.pinned()
        session.close()
        assert session.closed
        assert not session.pins()
        assert pinned.vid not in engine.pinned()
        session.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            session.begin()
        with pytest.raises(StoreError, match="closed"):
            session.commit(Transaction(engine.schema,
                                       engine.head_version(), "main"))

    def test_close_surfaces_inflight_conflict_not_swallowed(self):
        """The disconnect race: a session closed while its commit is
        mid-retry raises the pending TransactionConflict at the next
        conflict instead of retrying on — staged by having the commit
        attempt itself flip the flag, exactly where a cross-thread
        close() lands."""
        engine = _mk_engine()
        session = SessionService(engine).session()
        txn = session.begin().insert("manager", manager_stream(60, 1)[0])

        def close_then_conflict(attempt):
            session._closed = True  # the concurrent close() lands here
            raise TransactionConflict("footprint overlap", keys=())

        engine.commit = close_then_conflict  # instance shadow, test-only
        with pytest.raises(TransactionConflict, match="footprint overlap"):
            session.commit(txn, max_retries=10**9)

    def test_close_all_sweeps_every_live_session(self):
        engine = _mk_engine()
        service = SessionService(engine)
        sessions = [service.session() for _ in range(3)]
        sessions[0].pin()
        assert len(service.live_sessions()) == 3
        service.close_all()
        assert service.live_sessions() == ()
        assert all(s.closed for s in sessions)
        assert all(not s.pins() for s in sessions)

    def test_conflict_chains_engine_teardown_cause(self):
        """When the engine's branch head is gone mid-retry (service
        torn down), the conflict is re-raised with the lookup failure
        chained as its cause — the caller learns both facts."""
        engine = _mk_engine()
        session = SessionService(engine).session()
        txn = session.begin().insert("manager", manager_stream(60, 1)[0])

        def conflicted(attempt):
            raise TransactionConflict("lost the race", keys=())

        engine.commit = conflicted
        engine.graph.heads.pop("main")  # simulate torn-down engine
        with pytest.raises(TransactionConflict,
                           match="lost the race") as caught:
            session.commit(txn)
        assert isinstance(caught.value.__cause__, StoreError)


class TestValidationPlan:
    def test_probe_family_covers_all_checks(self):
        schema, db, constraints = serving_state(30)
        plan = ValidationPlan(db, constraints)
        fam = plan.probe_family
        manager = schema["manager"]
        assert schema["worksfor"].attributes in fam["manager"]
        assert schema["person"].attributes in fam["worksfor"]
        assert manager.attributes in fam["manager"]
        assert plan.custom == []

    def test_violated_custom_constraint_rejected_by_name(self):
        schema, db, constraints = serving_state(30)
        cap = _manager_cap(schema, len(db.R("manager")))
        engine = StoreEngine(db, constraints + [cap])
        assert [c for c, _names in engine.plan.custom] == [cap]
        txn = engine.begin().insert("manager", manager_stream(30, 1)[0])
        with pytest.raises(CommitRejected) as exc:
            engine.commit(txn)
        (finding,) = exc.value.findings
        assert finding["check"] == "constraint"
        assert finding["constraint"] == "manager-cap"
        assert "cap" in finding["message"]
        assert engine.head_version().vid == "v0"

    def test_custom_constraint_judged_only_when_touched(self):
        schema, db, constraints = serving_state(30)
        calls = []
        watch = DomainConstraint("office-watch", schema["office"],
                                 lambda r: calls.append(len(r)) or True)
        engine = StoreEngine(db, constraints + [watch])
        calls.clear()  # the root audit judged it
        engine.commit(
            engine.begin().insert("manager", manager_stream(30, 1)[0]))
        assert calls == []
        office = sorted(engine.state().R("office").tuples, key=repr)[0]
        twin = dict(office.as_dict(), floor=(office["floor"] + 1) % 11)
        with pytest.raises(CommitRejected):
            engine.commit(engine.begin().insert("office", twin))
        assert calls == [31]

    def test_matches_checkset_granularity(self):
        """The plan's FD probe sets agree with the lhs grouping the
        kernel CheckSet compiles for the same constraints."""
        from repro.kernel import CheckSet

        schema, db, constraints = serving_state(30)
        plan = ValidationPlan(db, constraints)
        by_context: dict[str, list] = {}
        for _label, context, lhs, rhs in plan.fds:
            by_context.setdefault(context, []).append((lhs, rhs))
        for context, fds in by_context.items():
            inst = db.kernel.instance(context)
            checkset = CheckSet(inst)
            for i, (lhs, rhs) in enumerate(fds):
                checkset.add_fd(i, lhs, rhs)
            assert {inst.indices_of(lhs) for lhs, _ in fds} == \
                set(checkset.lhs_index_sets())


class TestWalReplay:
    def test_wal_is_durable_and_ordered(self, tmp_path):
        path = tmp_path / "store.wal"
        engine = _mk_engine(30, wal=path)
        session = SessionService(engine).session()
        for row in manager_stream(30, 3):
            session.commit(session.begin().insert("manager", row))
        engine.close()
        records = list(WriteAheadLog.records(path))
        assert [r["type"] for r in records] == \
            ["snapshot", "commit", "commit", "commit"]
        assert [r.get("version") for r in records] == \
            ["v0", "v1", "v2", "v3"]

    def test_failed_branch_does_not_poison_wal(self, tmp_path):
        path = tmp_path / "store.wal"
        engine = _mk_engine(30, wal=path)
        engine.branch("dev")
        with pytest.raises(StoreError):
            engine.branch("dev")  # duplicate: refused BEFORE the append
        engine.close()
        replayed = StoreEngine.replay(path)  # log stays replayable
        assert replayed.graph.branches() == engine.graph.branches()

    def test_fresh_engine_refuses_populated_wal(self, tmp_path):
        path = tmp_path / "store.wal"
        engine = _mk_engine(30, wal=path)
        engine.commit(
            engine.begin().insert("manager", manager_stream(30, 1)[0]))
        engine.close()
        with pytest.raises(StoreError):
            _mk_engine(30, wal=path)  # would append a second snapshot

    def test_corrupt_wal_reported(self, tmp_path):
        path = tmp_path / "bad.wal"
        path.mkdir()
        (path / "wal.000001.jsonl").write_text(
            '{"type": "snapshot"\nnot json\n')
        with pytest.raises(StoreError, match="corrupt WAL line 1"):
            list(WriteAheadLog.records(path))
        empty = tmp_path / "empty.wal"
        WriteAheadLog(empty).close()
        with pytest.raises(StoreError, match="empty WAL"):
            StoreEngine.replay(empty)

    def test_tampered_wal_fails_verify(self, tmp_path):
        path = tmp_path / "store.wal"
        engine = _mk_engine(30, wal=path)
        row = manager_stream(30, 1)[0]
        engine.commit(engine.begin().insert("manager", row))
        engine.close()
        # tamper: break the logged row's worksfor support
        segment = WriteAheadLog.segment_paths(path)[-1]
        lines = segment.read_text().splitlines()
        lines[1] = lines[1].replace(f'"budget": {row["budget"]}',
                                    f'"budget": {(row["budget"] + 1) % 53}')
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(CommitRejected):
            StoreEngine.replay(path, verify=True)

    @pytest.mark.parametrize("seed", range(25))
    def test_replay_rebuilds_identical_graph(self, seed, tmp_path):
        """The acceptance differential: every replayed version equals
        the original — same id, parent, state and bounded footprint —
        through trusted replay, verified replay and a replica tailing
        the log as it grows, across seeded random traffic with removes
        and replaces (25 seeds x ~8+ versions each ~ 200+ state
        comparisons per path)."""
        rng = random.Random(seed)
        (schema, db), *_ = random_database_states(rng, rows_per_leaf=2)
        path = tmp_path / "store.wal"
        engine = StoreEngine(db, (), wal=path)
        replica = ReplicaEngine(path, from_checkpoint=False)
        service = SessionService(engine)
        session = service.session()
        for ops in mixed_txn_specs(rng, db, 20):
            try:
                session.run(ops)
            except CommitRejected:
                pass
            replica.sync()
        if len(engine.graph) > 3 and rng.random() < 0.5:
            engine.branch("side", at="v1")
            side = service.session("side")
            try:
                side.run(mixed_txn_specs(rng, db, 1)[0])
            except CommitRejected:
                pass
        engine.close()
        replica.sync()
        assert len(engine.graph) >= 2, "seed produced no committed traffic"
        originals = list(engine.graph.log())
        assert all(isinstance(v.writes, frozenset) for v in originals)
        for rebuilt in (StoreEngine.replay(path),
                        StoreEngine.replay(path, verify=True),
                        replica.engine):
            copies = list(rebuilt.graph.log())
            assert [v.vid for v in originals] == [v.vid for v in copies]
            for orig, copy in zip(originals, copies):
                assert orig.state == copy.state, (seed, orig.vid)
                assert orig.writes == copy.writes, (seed, orig.vid)
                assert orig.parent is None or \
                    orig.parent.vid == copy.parent.vid
            assert engine.graph.branches() == rebuilt.graph.branches()

    def test_logged_noop_replace_still_replays(self, tmp_path):
        """Logs may hold a replace that changed nothing (ops are logged
        as sent); replay installs it as a version so ids line up."""
        path = tmp_path / "store.wal"
        engine = _mk_engine(30, wal=path)
        engine.commit(
            engine.begin().insert("manager", manager_stream(30, 1)[0]))
        rows = [t.as_dict() for t in engine.state().R("office").tuples]
        engine.wal.append({
            "type": "commit", "version": "v2", "parent": "v1",
            "branch": "main",
            "ops": [{"op": "replace", "relation": "office", "rows": rows}]})
        engine.close()
        for verify in (False, True):
            replayed = StoreEngine.replay(path, verify=verify)
            assert [v.vid for v in replayed.graph.log()] == \
                ["v0", "v1", "v2"]
            assert replayed.state() == engine.state()
            assert replayed.head_version().writes == frozenset()

    def test_replay_into_fresh_wal_is_equivalent(self, tmp_path):
        first = tmp_path / "a.wal"
        second = tmp_path / "b.wal"
        engine = _mk_engine(30, wal=first)
        session = SessionService(engine).session()
        for row in manager_stream(30, 2):
            session.commit(session.begin().insert("manager", row))
        engine.close()
        replayed = StoreEngine.replay(first, wal=second)
        replayed.close()
        again = StoreEngine.replay(second)
        assert [v.vid for v in again.graph.log()] == \
            [v.vid for v in engine.graph.log()]
        assert again.state() == engine.state()


class TestStoreWithChainCap:
    def test_tiny_chain_cap_store_still_serves(self):
        """A cap-2 root severs the delta chain constantly; commits,
        audits, and replayed equality must be unaffected."""
        schema, db, constraints = serving_state(30)
        capped = DatabaseExtension(
            schema, {e.name: db.R(e) for e in schema}, chain_cap=2)
        engine = StoreEngine(capped, constraints)
        session = SessionService(engine).session()
        for row in manager_stream(30, 4):
            session.commit(session.begin().insert("manager", row))
        assert engine.audit().ok()
        assert len(engine.graph) == 5
