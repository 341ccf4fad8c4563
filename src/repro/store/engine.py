"""The store engine: axiom-gated commits over a branchable version graph.

:class:`StoreEngine` ties the layers together: a
:class:`~repro.store.version_graph.VersionGraph` of immutable states, a
:class:`~repro.store.wal.WriteAheadLog` for durability, and the
commit-time validation of :mod:`repro.store.txn`.  The store's core
invariant is *clean by induction*: the root is fully audited at
construction (``check_all`` plus every integrity constraint), and a
commit only installs a successor its validation admitted — so every
version ever served satisfies the design axioms.

Every commit goes through one validator: targeted O(|delta|) probes
(:func:`~repro.store.txn.validate_changes`) against the head plus a
mutable head probe index, and — only when the delta touches a relation
one of them ranges over — the constraint kinds the probes cannot
factor, judged whole on the derived candidate
(:func:`~repro.store.txn.custom_findings`).  A ``replace`` is expanded
into the rows it removes and adds, so it is judged like any other
delta.  ``check_all`` runs only as the independent audit: of the root,
in :meth:`StoreEngine.audit`, and on restored checkpoints under
verified replay.

Concurrency contract: reads are lock-free (states are immutable and the
graph is append-only); one engine lock serialises commit installation.
A transaction whose write footprint overlaps a commit that landed after
its base raises :class:`~repro.errors.TransactionConflict` (first
committer wins); disjoint footprints are rebased onto the head
automatically — sound because validation probes and conflict keys are
drawn from the *same* probe family, so a disjoint commit cannot disturb
the groups this one's validation judged.  Every footprint is bounded,
a replace's included: it conflicts only on the groups it changes.
"""

from __future__ import annotations

import threading
import warnings
from collections import deque
from collections.abc import Iterable
from pathlib import Path

from repro.core import ConstraintSet, DatabaseExtension, check_all
from repro.core.axioms import AxiomReport
from repro.errors import (
    CommitRejected,
    DependencyError,
    StoreError,
    TornTailWarning,
    TransactionConflict,
)
from repro.obs.metrics import MetricsRegistry, WalProbe
from repro.obs.trace import NULL_TRACER, Tracer
from repro.store.txn import (
    Transaction,
    ValidationPlan,
    custom_findings,
    validate_changes,
    write_footprint,
)
from repro.store.version_graph import Version, VersionGraph
from repro.store.wal import (
    WriteAheadLog,
    branch_record,
    checkpoint_record,
    commit_record,
    snapshot_record,
)

# The commit path reads its clock unconditionally; with observability
# detached the clock is this constant zero — six trivial calls per
# commit instead of a branch per phase.
_ZERO_CLOCK = lambda: 0.0  # noqa: E731

# The commit gate's phase order; each lands in its own latency
# histogram (``store.commit.<phase>_seconds``) plus ``total``.  fsync
# is timed inside the WAL (see :class:`repro.obs.metrics.WalProbe`)
# because it happens inside ``wal.append``.
COMMIT_PHASES = ("rebase", "validate", "derive", "wal_append", "total")


def _render_groups(writes: frozenset, limit: int = 8) -> list:
    """The touched lhs-groups of a commit footprint, JSON-codable:
    ``[relation, sorted-attrs, repr(projected-row)]`` per group, capped
    at ``limit``."""
    return [[relation, sorted(str(a) for a in attrs), repr(row)]
            for relation, attrs, row in sorted(writes, key=repr)[:limit]]


class ProbeIndex:
    """Mutable projection groups of one branch head.

    For every proper-subset attribute set in a relation's probe family,
    the index keeps ``projected-row -> [rows]`` — the candidate groups
    commit validation and delete cascades look up in O(1) instead of
    scanning the relation.  The engine mutates it in O(|delta|) under
    the commit lock as the head advances; immutable per-state kernel
    caches cannot serve this role because the head is a moving target.
    """

    __slots__ = ("_by_name", "_groups")

    def __init__(self, plan: ValidationPlan, state: DatabaseExtension):
        self._by_name: dict[str, list[tuple[frozenset, dict]]] = {}
        self._groups: dict[tuple[str, frozenset], dict] = {}
        for name, family in plan.probe_family.items():
            full = plan.schema[name].attributes
            for attrs in family:
                if attrs == full:
                    continue
                groups: dict = {}
                for t in state.R(name).tuples:
                    groups.setdefault(t.project(attrs), []).append(t)
                self._groups[(name, attrs)] = groups
                self._by_name.setdefault(name, []).append((attrs, groups))

    def group(self, name: str, attrs: frozenset, key):
        """The head rows of ``name`` projecting onto ``key``, or ``None``
        when ``(name, attrs)`` is not an indexed probe."""
        groups = self._groups.get((name, attrs))
        if groups is None:
            return None
        return groups.get(key, ())

    def apply(self, changes) -> None:
        """Advance the index past one committed delta (O(|delta|) per
        probe)."""
        for name, rows in changes.removed.items():
            for attrs, groups in self._by_name.get(name, ()):
                for t in rows:
                    key = t.project(attrs)
                    bucket = groups.get(key)
                    if bucket is None:
                        continue
                    bucket.remove(t)
                    if not bucket:
                        del groups[key]
        for name, rows in changes.added.items():
            for attrs, groups in self._by_name.get(name, ()):
                for t in rows:
                    groups.setdefault(t.project(attrs), []).append(t)


class StoreEngine:
    """A concurrent, durable, multi-version store of one database.

    Parameters
    ----------
    root:
        The initial :class:`DatabaseExtension`; must pass the full audit
        (an inconsistent root cannot anchor the clean-by-induction
        invariant).
    constraints:
        Integrity constraints (a :class:`ConstraintSet` or an iterable)
        every committed state must satisfy.
    wal:
        Optional segment-directory path or :class:`WriteAheadLog` (pass
        an instance to set rotation bounds); when given, the root
        snapshot and every commit/branch/checkpoint are logged durably.
        Every :meth:`checkpoint` heads a fresh segment, and
        :meth:`WriteAheadLog.prune` drops the segments before it.
        Any :class:`~repro.core.integrity.IntegrityConstraint` kind
        is accepted: functional, cardinality, subset and participation
        constraints are judged through the probe index, any other kind
        (a :class:`~repro.core.DomainConstraint`, say) whole on the
        candidate state of each commit that touches a relation it
        ranges over.
    checkpoint_every:
        When set, a checkpoint record is written automatically after
        every N commits (WAL-backed engines only) — the knob that keeps
        replay O(recent) instead of O(history) for a long-running store.
    """

    def __init__(self, root: DatabaseExtension,
                 constraints: ConstraintSet | Iterable = (),
                 branch: str = "main",
                 wal: WriteAheadLog | str | Path | None = None,
                 sync: bool = False,
                 audit_root: bool = True,
                 checkpoint_every: int | None = None,
                 _floor: tuple | None = None):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise StoreError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.schema = root.schema
        if isinstance(constraints, ConstraintSet):
            self._constraint_set = constraints
        else:
            self._constraint_set = ConstraintSet(self.schema, constraints)
        self.constraints = tuple(self._constraint_set.constraints)
        self._vet_constraints()
        if audit_root:
            report = self._audit(root)
            if not report.ok():
                raise StoreError(
                    "root state is inconsistent; a store only serves "
                    "axiom-valid states:\n" + report.render())
        self.plan = ValidationPlan(root, self.constraints)
        self._lock = threading.Lock()
        self._indexes: dict[str, ProbeIndex] = {}
        self._pins: dict[str, int] = {}
        self.checkpoint_every = checkpoint_every
        self._commits_since_checkpoint = 0
        self._epoch = 0
        if _floor is None:
            self.graph = VersionGraph(root, branch)
        else:
            # Checkpoint restore (StoreEngine.replay): the graph starts
            # at the checkpoint's floor — every branch head a parentless
            # version, the id sequence resumed — instead of at v0.
            seq, entries, self._epoch = _floor
            self.graph = VersionGraph(root, branch,
                                      root_vid=entries[0][0], seq=seq)
            for vid, floor_branch, state in entries[1:]:
                self.graph.add_floor(vid, floor_branch, state)
        for name, head in self.graph.heads.items():
            self._indexes[name] = ProbeIndex(self.plan, head.state)
        if wal is not None:
            target = wal.path if isinstance(wal, WriteAheadLog) else Path(wal)
            if not WriteAheadLog.is_empty(target):
                raise StoreError(
                    f"WAL {target} already has records; a fresh engine "
                    "would append a second snapshot and corrupt it — "
                    "replay it (StoreEngine.replay) or pick a new path")
            if not isinstance(wal, WriteAheadLog):
                wal = WriteAheadLog(target, sync=sync)
        self.wal = wal
        # Observability is detached by default; attach_observability
        # swaps in a real registry/tracer (servers do this on
        # construction).  The zero clock keeps the commit path
        # branch-free either way.
        self.metrics = None
        self.tracer = NULL_TRACER
        self.slow_commit_threshold: float | None = None
        self.slow_commits: deque = deque(maxlen=32)
        self._obs_clock = _ZERO_CLOCK
        self._obs_hists: tuple | None = None
        self._obs_counters: dict | None = None
        if wal is not None:
            if _floor is None:
                wal.append(snapshot_record(root, self._constraint_set,
                                           self.graph.root.vid, branch))
            else:
                # A restored engine logging into a fresh WAL starts it
                # with a checkpoint — the restored graph has no single
                # self-contained root snapshot to offer.
                wal.append(checkpoint_record(self.graph,
                                             self._constraint_set,
                                             epoch=self._epoch))

    def _vet_constraints(self) -> None:
        """Refuse ill-typed dependencies up front: the store judges them
        on every commit, so a constraint that cannot be judged is a
        configuration error, not a per-commit finding."""
        from repro.core.integrity import (
            CardinalityConstraint,
            FunctionalConstraint,
        )
        for c in self.constraints:
            fds = [c.fd] if isinstance(c, FunctionalConstraint) else \
                c.as_fds() if isinstance(c, CardinalityConstraint) else ()
            for fd in fds:
                try:
                    fd.validate(self.schema)
                except DependencyError as exc:
                    raise StoreError(
                        f"constraint {c.name!r} is ill-typed: {exc}") from exc

    def _audit(self, state: DatabaseExtension) -> AxiomReport:
        return check_all(self.schema, state, constraints=self.constraints,
                         contributors=state.contributors)

    # ------------------------------------------------------------------
    # reads (lock-free: immutable states, append-only graph)
    # ------------------------------------------------------------------
    @property
    def constraint_set(self) -> ConstraintSet:
        """The integrity constraints as a :class:`ConstraintSet` — the
        form :mod:`repro.io` documents want (``constraints`` is the same
        content as a plain tuple)."""
        return self._constraint_set

    def head_version(self, branch: str = "main") -> Version:
        return self.graph.head(branch)

    def version(self, vid: str) -> Version:
        return self.graph.get(vid)

    def state(self, vid: str | None = None,
              branch: str = "main") -> DatabaseExtension:
        """A pinned snapshot: the given version's state, or the branch
        head's."""
        if vid is not None:
            return self.graph.get(vid).state
        return self.graph.head(branch).state

    def read(self, relation: str, branch: str = "main",
             at: str | None = None):
        """The instance set ``R_relation`` at one pinned version
        (default: the branch head) — the lock-free read the network
        front end serves, shaped for callers that hold neither a
        :class:`Session` nor a :class:`Version`."""
        return self.state(at, branch).R(relation)

    @property
    def epoch(self) -> int:
        """The promotion epoch this engine serves under (0 until a
        failover ever happens; see :func:`repro.server.failover.promote`
        and :class:`~repro.errors.EpochFenced`)."""
        return self._epoch

    def describe(self) -> dict:
        """A summary of the store for protocol handshakes and status
        probes: branches with their head version ids, the sequence
        counter, the promotion epoch, and the relation names served."""
        return {
            "branches": self.graph.branches(),
            "seq": self.graph.seq,
            "epoch": self._epoch,
            "versions": len(self.graph),
            "relations": sorted(e.name for e in self.schema),
        }

    def audit(self, vid: str | None = None,
              branch: str = "main") -> AxiomReport:
        """A full re-audit of one version (should always come back clean
        — the independent check the store's gate is tested against)."""
        return self._audit(self.state(vid, branch))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def begin(self, branch: str = "main") -> Transaction:
        """A transaction pinned at the branch's current head."""
        return Transaction(self.schema, self.graph.head(branch), branch)

    def branch(self, name: str, at: str | None = None,
               from_branch: str = "main") -> Version:
        """Create branch ``name`` at version ``at`` (default: the head of
        ``from_branch``)."""
        with self._lock:
            version = self.graph.get(at) if at is not None \
                else self.graph.head(from_branch)
            if name in self.graph.heads:
                # Validate before the WAL append: a record for a branch
                # that then fails to create would poison every replay.
                raise StoreError(f"branch {name!r} already exists")
            if self.wal is not None:
                self.wal.append(branch_record(name, version.vid))
            self.graph.create_branch(name, version)
            self._indexes[name] = ProbeIndex(self.plan, version.state)
            return version

    def commit(self, txn: Transaction) -> Version:
        """Validate and install one transaction.

        Raises :class:`CommitRejected` (with witness findings) when the
        delta violates an axiom or constraint, and
        :class:`TransactionConflict` when its footprint overlaps a
        commit that landed after its base (retry from the new head; see
        :meth:`Session.commit` for the retry loop).  A transaction whose
        net effect *against the current head* is empty returns the head
        unchanged — including when concurrent commits already did the
        same work (re-deleting a deleted row, re-inserting a present
        one): an intent the head already satisfies has nothing left to
        conflict over.
        """
        if txn.committed:
            raise StoreError("transaction was already committed")
        if txn.schema is not self.schema:
            raise StoreError("transaction belongs to a different store")
        # Phase timing is explicit timestamp capture, not nested spans:
        # the clock is a constant-zero callable while observability is
        # detached, so the critical section carries six trivial calls
        # instead of context-manager machinery (bounded <3% end to end
        # by bench_a14_obs).
        clock = self._obs_clock
        counters = self._obs_counters
        t0 = clock()
        try:
            with self._lock:
                head = self.graph.head(txn.branch)
                index = self._indexes[txn.branch]
                changes = txn.net_changes(head.state, index)
                if not changes:
                    txn.committed = True
                    if counters is not None:
                        counters["noops"].inc()
                    return head
                writes = write_footprint(self.plan, changes)
                if head is not txn.base:
                    self._check_conflicts(txn, head, writes)
                t1 = clock()
                candidate, findings = self._validate(head.state, changes,
                                                     index)
                if findings:
                    raise CommitRejected(
                        f"commit of {changes!r} violates "
                        f"{len(findings)} check(s)", tuple(findings))
                t2 = clock()
                if candidate is None:
                    candidate = head.state.apply_changes(
                        changes.added, changes.removed, validate=False)
                t3 = clock()
                version, t4 = self._install_locked(txn, head, changes,
                                                   writes, candidate, clock)
        except TransactionConflict:
            if counters is not None:
                counters["conflicts"].inc()
            raise
        except CommitRejected:
            if counters is not None:
                counters["rejected"].inc()
            raise
        if counters is not None:
            counters["commits"].inc()
            self._record_commit(version, writes,
                                t0, t1, t2, t3, t4, clock())
        return version

    def attach_observability(self, metrics: MetricsRegistry | None = None,
                             tracer: Tracer | None = None,
                             slow_commit_threshold: float | None = None,
                             slow_commit_capacity: int = 32) -> None:
        """Wire a metrics registry and/or tracer into the commit path.

        With a registry attached every commit feeds the per-phase
        latency histograms (``store.commit.<phase>_seconds`` for
        rebase/validate/derive/wal_append/total, fsync via the WAL
        probe) and outcome counters; with a tracer, each commit also
        lands as one trace in the ring with its phases as child spans.
        ``slow_commit_threshold`` (seconds, against ``metrics.clock``)
        gates the structured slow-commit log kept on
        :attr:`slow_commits`.  Passing ``metrics=None`` detaches
        everything and restores the zero-cost path.
        """
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.slow_commit_threshold = slow_commit_threshold
        self.slow_commits = deque(maxlen=slow_commit_capacity)
        if metrics is None:
            self._obs_clock = _ZERO_CLOCK
            self._obs_hists = None
            self._obs_counters = None
            if self.wal is not None:
                self.wal.probe = None
            return
        self._obs_clock = metrics.clock
        self._obs_hists = tuple(
            metrics.histogram(f"store.commit.{phase}_seconds")
            for phase in COMMIT_PHASES)
        self._obs_counters = {
            "commits": metrics.counter("store.commits"),
            "noops": metrics.counter("store.commit_noops"),
            "conflicts": metrics.counter("store.commit_conflicts"),
            "rejected": metrics.counter("store.commit_rejected"),
            "retries": metrics.counter("store.commit_retries"),
            "slow": metrics.counter("store.slow_commits"),
        }
        if self.wal is not None:
            self.wal.probe = WalProbe(metrics)

    def _record_commit(self, version: Version, writes: frozenset,
                       t0: float, t1: float, t2: float, t3: float,
                       t4: float, t5: float) -> None:
        """Bookkeeping for one landed commit, outside the critical
        section: phase histograms, one trace in the ring, and — past
        the threshold — a structured slow-commit record."""
        rebase, validate = t1 - t0, t2 - t1
        derive, wal_append = t3 - t2, t4 - t3
        total = t5 - t0
        h_rebase, h_validate, h_derive, h_wal, h_total = self._obs_hists
        h_rebase.observe(rebase)
        h_validate.observe(validate)
        h_derive.observe(derive)
        probe = self.wal.probe if self.wal is not None else None
        if self.wal is not None:
            h_wal.observe(wal_append)
        h_total.observe(total)
        fsync = probe.last_fsync if probe is not None else 0.0
        tracer = self.tracer
        if tracer.enabled:
            def phase(name, start, end, **tags):
                return {"name": name, "start": start, "end": end,
                        "duration": end - start, "tags": tags,
                        "spans": []}
            tracer.record({
                "name": "store.commit",
                "start": t0, "end": t5, "duration": total,
                "tags": {"version": version.vid, "groups": len(writes)},
                "spans": [
                    phase("commit.rebase", t0, t1),
                    phase("commit.validate", t1, t2),
                    phase("commit.derive", t2, t3),
                    phase("commit.wal_append", t3, t4, fsync=fsync),
                ],
            })
        threshold = self.slow_commit_threshold
        if threshold is not None and total >= threshold:
            self._obs_counters["slow"].inc()
            self.slow_commits.append({
                "version": version.vid,
                "at": t5,
                "total": total,
                "phases": {"rebase": rebase, "validate": validate,
                           "derive": derive, "wal_append": wal_append,
                           "fsync": fsync},
                "group_count": len(writes),
                "groups": _render_groups(writes),
            })

    def _after_commit_locked(self) -> None:
        """Periodic checkpointing, driven by the commit counter (called
        with the engine lock held, right after a commit installed)."""
        if self.wal is None or self.checkpoint_every is None:
            return
        self._commits_since_checkpoint += 1
        if self._commits_since_checkpoint >= self.checkpoint_every:
            self._checkpoint_locked()

    def _check_conflicts(self, txn: Transaction, head: Version,
                         writes: frozenset) -> None:
        span = self.graph.span(txn.base.vid, head)
        if span is None:
            raise StoreError(
                f"base version {txn.base.vid} is not an ancestor of the "
                f"{txn.branch!r} head {head.vid}")
        for version in span:
            overlap = writes & version.writes
            if overlap:
                raise TransactionConflict(
                    f"footprint overlaps commit {version.vid} on "
                    f"{len(overlap)} group(s)",
                    keys=tuple(sorted(overlap, key=repr)))

    def _validate(self, head_state: DatabaseExtension, changes, index):
        """(candidate, findings) for one delta: the probe checks, then
        the plan's custom constraints on the derived candidate when the
        delta touches one.  ``candidate`` is ``None`` when no custom
        constraint needed it."""
        findings = validate_changes(self.plan, head_state, changes, index)
        if not self.plan.custom:
            return None, findings
        candidate = head_state.apply_changes(
            changes.added, changes.removed, validate=False)
        return candidate, findings + custom_findings(self.plan, changes,
                                                     candidate)

    def _install_locked(self, txn: Transaction, head: Version, changes,
                        writes: frozenset, candidate: DatabaseExtension,
                        clock=_ZERO_CLOCK) -> tuple[Version, float]:
        """Log, then publish, one admitted delta — the install step
        :meth:`commit` and trusted replay share.  The WAL record lands
        before the graph advances.  Returns the new version and the
        ``clock`` reading right after the WAL append."""
        if self.wal is not None:
            self.wal.append(commit_record(
                self.graph.next_vid(), head.vid, txn.branch, txn.ops))
        appended = clock()
        version = self.graph.add_commit(head, candidate, writes,
                                        tuple(txn.ops), txn.branch)
        self._indexes[txn.branch].apply(changes)
        txn.committed = True
        self._after_commit_locked()
        return version, appended

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Write a checkpoint record: every branch head as a full
        database document plus the id-sequence counter.

        Replay resumes from the newest checkpoint instead of v0, which
        is what keeps recovery time proportional to *recent* history.
        The log rotates first, so the checkpoint is its segment's first
        record and every older segment becomes prunable
        (:meth:`prune_wal`).  The record carries the engine's epoch, so
        the fence survives it.  Returns the record written.
        """
        with self._lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> dict:
        if self.wal is None:
            raise StoreError(
                "checkpointing requires a WAL-backed engine (there is "
                "nothing to replay without one)")
        record = checkpoint_record(self.graph, self._constraint_set,
                                   epoch=self._epoch)
        self.wal.rotate()
        self.wal.append(record)
        self._commits_since_checkpoint = 0
        return record

    def prune_wal(self, archive: str | Path | None = None) -> list[Path]:
        """Drop (or archive) WAL segments older than the newest
        checkpointed one — safe at any time: replay never reads them.
        A no-op for a never-checkpointed log."""
        if self.wal is None:
            raise StoreError("this engine has no WAL to prune")
        with self._lock:
            return WriteAheadLog.prune(self.wal.path, archive=archive)

    # ------------------------------------------------------------------
    # pins and garbage collection
    # ------------------------------------------------------------------
    def pin(self, version: Version | str) -> Version:
        """Refcount-pin a version against :meth:`gc`.

        A pinned version (and therefore its state) stays resident
        through collections until every pin is released; pinning is how
        a long-lived reader holds an old snapshot while GC keeps the
        rest of history bounded.  :meth:`Session.pin` wraps this with
        per-session bookkeeping.
        """
        with self._lock:
            v = version if isinstance(version, Version) \
                else self.graph.get(version)
            if self.graph.versions.get(v.vid) is not v:
                raise StoreError(
                    f"version {v.vid} is not resident in this store "
                    "(already collected, or from another engine)")
            self._pins[v.vid] = self._pins.get(v.vid, 0) + 1
            return v

    def unpin(self, version: Version | str) -> None:
        """Release one pin (the version becomes collectable when its
        count reaches zero and it falls outside the keep window)."""
        vid = version.vid if isinstance(version, Version) else version
        with self._lock:
            count = self._pins.get(vid, 0)
            if count <= 0:
                raise StoreError(f"version {vid} is not pinned")
            if count == 1:
                del self._pins[vid]
            else:
                self._pins[vid] = count - 1

    def pinned(self) -> dict[str, int]:
        """Pin counts by version id (a snapshot; for diagnostics)."""
        with self._lock:
            return dict(self._pins)

    def gc(self, keep: int = 1) -> dict:
        """Collect versions unreachable from branch heads and pins.

        The live set is, per branch, the head and its ``keep - 1``
        nearest ancestors, plus every pinned version.  Everything else
        leaves the graph; parent links crossing the new floor are cut
        and each floor state's delta chain is severed
        (:meth:`DatabaseExtension.sever_history`), so the collected
        states genuinely become garbage — resident versions stay
        bounded by ``keep * branches + pins`` under sustained write
        traffic.

        The WAL is untouched (prune it separately after a checkpoint);
        version ids stay monotone, so WAL replay is unaffected.  A
        transaction begun before a collection whose base version was
        collected can no longer be conflict-checked and fails with
        :class:`StoreError` — size ``keep`` to cover the transactions
        you allow in flight, and pin snapshots readers hold long-term.
        Returns ``{"before", "after", "collected", "pinned",
        "floors"}`` statistics.
        """
        if keep < 1:
            raise StoreError(f"gc keep must be >= 1, got {keep}")
        with self._lock:
            live: dict[str, Version] = {}
            for head in self.graph.heads.values():
                node: Version | None = head
                for _ in range(keep):
                    if node is None:
                        break
                    live[node.vid] = node
                    node = node.parent
            for vid in self._pins:
                live[vid] = self.graph.get(vid)
            before = len(self.graph)
            collected = self.graph.collect(live)
            retained = {id(v.state) for v in self.graph.versions.values()}
            floors = []
            for v in self.graph.versions.values():
                state = v.state
                if v.parent is None:
                    state.sever_history()
                    floors.append(v.vid)
                elif state._kernel_base is not None \
                        and id(state._kernel_base) not in retained:
                    state.drop_kernel_base()
            return {
                "before": before,
                "after": len(self.graph),
                "collected": len(collected),
                "pinned": sorted(self._pins),
                "floors": sorted(floors, key=lambda vid: int(vid[1:])),
            }

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @classmethod
    def replay(cls, wal_path: str | Path,
               verify: bool = False,
               wal: WriteAheadLog | str | Path | None = None,
               from_checkpoint: bool = True,
               checkpoint_every: int | None = None) -> "StoreEngine":
        """Rebuild an engine (and its version graph) from a WAL.

        Recovery is crash-safe: a torn *final* line (crash mid-append)
        is truncated off with a :class:`TornTailWarning` and the intact
        prefix replays; corruption before the final record still raises
        :class:`StoreError`.

        With ``from_checkpoint=True`` (the default) replay starts at
        the newest checkpoint-headed segment — older segments are never
        even read — restoring each checkpointed branch head as a
        parentless *floor* version and re-applying only the commits
        after it; the pre-checkpoint versions are simply absent from
        the rebuilt graph (the in-memory mirror of segment pruning).
        ``from_checkpoint=False`` replays the full history from v0.
        Note that a ``branch`` record anchored at a pre-checkpoint
        version can only be replayed from the full log.

        With ``verify=True`` every logged commit is re-validated
        through the normal gate and every checkpoint's documents are
        compared against the rebuilt states (a clean log replays
        identically; a tampered one raises); the default trusts the log
        and re-applies the operations directly, which still re-derives
        every state and checks that version ids line up.  Pass ``wal``
        to start logging the replayed store into a fresh log.
        """
        try:
            dropped = WriteAheadLog.repair(wal_path)
        except OSError:
            dropped = 0  # read-only media: records() below still copes
        if dropped:
            warnings.warn(
                f"truncated {dropped} torn byte(s) off {wal_path} "
                "(crash mid-append); replaying the intact prefix",
                TornTailWarning, stacklevel=2)
        segments = WriteAheadLog.segment_paths(wal_path)
        start = WriteAheadLog.checkpoint_floor(segments) \
            if from_checkpoint else 0
        records = WriteAheadLog._records_from(segments[start:])
        try:
            first = next(records)
        except StopIteration:
            raise StoreError(f"empty WAL: {wal_path}") from None
        engine = cls.from_wal_record(first, verify=verify, wal=wal,
                                     checkpoint_every=checkpoint_every)
        for record in records:
            engine.apply_wal_record(record, verify=verify)
        return engine

    @classmethod
    def from_wal_record(cls, record: dict, verify: bool = False,
                        wal: WriteAheadLog | str | Path | None = None,
                        checkpoint_every: int | None = None,
                        ) -> "StoreEngine":
        """An engine bootstrapped from one self-contained WAL record —
        a ``snapshot`` (the root state) or a ``checkpoint`` (every
        branch head restored as a floor version).  The entry point
        :meth:`replay` and a tailing :class:`~repro.server.ReplicaEngine`
        share; any other record type raises (it cannot anchor a graph).
        """
        from repro import io

        kind = record.get("type")
        if kind == "snapshot":
            db, constraint_set = io.database_from_dict(record["document"])
            return cls(db, constraint_set, branch=record["branch"],
                       wal=wal, audit_root=verify,
                       checkpoint_every=checkpoint_every)
        if kind == "checkpoint":
            return cls._restore_checkpoint(
                record, verify=verify, wal=wal,
                checkpoint_every=checkpoint_every)
        raise StoreError(
            "WAL must start with a snapshot or checkpoint record, "
            f"got {kind!r}")

    def apply_wal_record(self, record: dict,
                         verify: bool = False) -> Version | None:
        """Apply one logged record to this engine's graph.

        The shared follow hook: :meth:`replay` drains a whole log
        through it and a :class:`~repro.server.ReplicaEngine` feeds it
        records as its WAL cursor yields them.  ``commit`` records
        return the installed :class:`Version` (re-gated through the
        normal validation when ``verify`` is set, trusted otherwise) and
        raise on version-id drift; ``branch`` records create the branch;
        ``checkpoint`` records are consistency-checked against the graph
        built so far and return ``None``.
        """
        kind = record.get("type")
        if kind == "branch":
            try:
                self.branch(record["name"], at=record["at"])
            except StoreError as exc:
                if record["at"] not in self.graph.versions and \
                        self.graph.root.vid != "v0":
                    raise StoreError(
                        f"branch {record['name']!r} is anchored at "
                        f"{record['at']}, below the checkpoint "
                        "floor; replay the full log "
                        "(from_checkpoint=False)") from exc
                raise
            return None
        if kind == "checkpoint":
            self._verify_checkpoint(record, deep=verify)
            return None
        if kind == "epoch":
            self._apply_epoch_record(record)
            return None
        if kind != "commit":
            raise StoreError(f"unknown WAL record type {kind!r}")
        parent = self.graph.get(record["parent"])
        txn = Transaction.from_records(self.schema, parent,
                                       record["branch"], record["ops"])
        version = self.commit(txn) if verify else None
        if version is None or version is parent:
            # Trusted replay, or a logged commit with no net effect
            # (older logs record a replace even when it changed
            # nothing): install it, so version ids line up.
            version = self._install_unverified(txn)
        if version.vid != record["version"]:
            raise StoreError(
                f"replay drift: WAL says {record['version']}, "
                f"graph produced {version.vid}")
        return version

    def _apply_epoch_record(self, record: dict) -> None:
        """Follow a logged promotion: cross-check the takeover point
        (the promoted primary stamped the seq/heads it caught up to)
        and advance this engine's epoch.  A replay target logging into
        a fresh WAL re-stamps the epoch there, so the fence history
        survives re-logging."""
        epoch = int(record.get("epoch", 0))
        if epoch <= self._epoch:
            raise StoreError(
                f"epoch record does not advance: log says {epoch}, "
                f"engine is already at {self._epoch}")
        if "seq" in record and record["seq"] != self.graph.seq:
            raise StoreError(
                f"epoch drift: promotion stamped seq {record['seq']}, "
                f"replayed graph is at {self.graph.seq}")
        if "heads" in record and record["heads"] != self.graph.branches():
            raise StoreError(
                f"epoch drift: promotion stamped heads "
                f"{record['heads']}, replayed graph has "
                f"{self.graph.branches()}")
        if self.wal is not None and self.wal.epoch < epoch:
            self.wal.stamp_epoch(epoch, seq=record.get("seq"),
                                 heads=record.get("heads"))
        self._epoch = epoch

    def adopt_wal(self, wal: WriteAheadLog) -> WriteAheadLog:
        """Attach an already-written log to an engine that was rebuilt
        *from* it — the promotion path: a replica's inner engine has no
        WAL of its own, and the promoted primary must append to the log
        it caught up on, not start a fresh one (which would re-snapshot
        and orphan the history).  The caller vouches that ``wal``'s
        records are exactly this engine's graph."""
        if self.wal is not None:
            raise StoreError(
                "engine already has a WAL; adopt_wal is only for "
                "engines rebuilt from the log they are adopting")
        with self._lock:
            self.wal = wal
            self._epoch = max(self._epoch, wal.epoch)
        return wal

    @classmethod
    def _restore_checkpoint(cls, record: dict, verify: bool, wal,
                            checkpoint_every: int | None) -> "StoreEngine":
        """An engine whose graph starts at the checkpoint's floor: each
        branch head decoded from its document, the id sequence resumed
        from the recorded counter."""
        from repro import io

        states: dict[str, DatabaseExtension] = {}
        constraint_set = None
        entries: list[tuple] = []
        for name in sorted(record["branches"]):
            info = record["branches"][name]
            vid = info["version"]
            if vid not in states:
                states[vid], constraint_set = \
                    io.database_from_dict(info["document"])
            entries.append((vid, name, states[vid]))
        entries.sort(key=lambda e: (int(e[0][1:]), e[1]))
        root_vid, root_branch, root_state = entries[0]
        engine = cls(root_state, constraint_set, branch=root_branch,
                     wal=wal, audit_root=verify,
                     checkpoint_every=checkpoint_every,
                     _floor=(record["seq"], entries,
                             int(record.get("epoch", 0))))
        if verify:
            for vid, state in states.items():
                if state is root_state:
                    continue  # audited by the constructor
                report = engine._audit(state)
                if not report.ok():
                    raise StoreError(
                        f"checkpointed state {vid} is inconsistent:\n"
                        + report.render())
        return engine

    def _verify_checkpoint(self, record: dict, deep: bool = False) -> None:
        """A mid-log checkpoint must agree with the graph replay has
        rebuilt so far: same sequence counter, same branch heads, and —
        under ``deep`` (verified replay) — equal states."""
        from repro import io

        if record.get("seq") != self.graph.seq:
            raise StoreError(
                f"checkpoint drift: WAL says seq {record.get('seq')}, "
                f"replayed graph is at {self.graph.seq}")
        if "epoch" in record and record["epoch"] != self._epoch:
            raise StoreError(
                f"checkpoint drift: WAL checkpoint was taken under "
                f"epoch {record['epoch']}, replayed engine is at "
                f"{self._epoch}")
        for name, info in sorted(record.get("branches", {}).items()):
            head = self.graph.head(name)
            if head.vid != info["version"]:
                raise StoreError(
                    f"checkpoint drift: branch {name!r} head is "
                    f"{head.vid}, WAL checkpoint says {info['version']}")
            if deep:
                state, _ = io.database_from_dict(info["document"])
                if state != head.state:
                    raise StoreError(
                        f"checkpoint drift: branch {name!r} state at "
                        f"{head.vid} does not match its checkpoint "
                        "document")

    def _install_unverified(self, txn: Transaction) -> Version:
        """Re-apply a logged commit without re-judging it (replay trusts
        its own log); states and footprints are still re-derived, so the
        rebuilt graph is structurally identical."""
        with self._lock:
            head = self.graph.head(txn.branch)
            changes = txn.net_changes(head.state, self._indexes[txn.branch])
            candidate = head.state.apply_changes(
                changes.added, changes.removed, validate=False)
            version, _ = self._install_locked(
                txn, head, changes, write_footprint(self.plan, changes),
                candidate)
            return version

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    def __repr__(self) -> str:
        return (f"StoreEngine({len(self.graph)} versions, "
                f"branches={self.graph.branches()})")
