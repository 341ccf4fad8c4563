"""Transactions: buffered updates, net deltas, and commit validation.

A :class:`Transaction` buffers ``insert``/``delete``/``remove``/
``replace`` calls against a pinned base version.  Nothing touches shared
state until the engine commits it; at commit time the buffered
operations are expanded — against the *current branch head*, not the
possibly stale base — into their net row effect (:class:`Changes`):
rows added and rows removed, nothing else.  A ``replace`` is a diff
like any other operation: the relation's rows missing from the new set
are removed and the new rows are added.  The delta lands as one
:meth:`~repro.core.extension.DatabaseExtension.apply_changes`
derivation step.

Commit validation is the store's half of the paper's axiom programme:
every committed state must satisfy the Containment Condition, the
Extension Axiom, and the declared integrity constraints.  Because the
store only ever installs validated states, the head is *clean by
induction* (the root is audited at engine construction), and a commit
need only judge the checks its delta can disturb:

* :class:`ValidationPlan` compiles the schema + constraint set once into
  the per-relation *probe family* — the attribute sets through which any
  extension-level check reads a relation (FD determinants, containment
  projection sets, contributor schemas, participation member sets).
* :func:`validate_changes` re-judges, in O(|delta|) probes against the
  head state, exactly the groups the delta touches — the object-level
  mirror of :meth:`repro.kernel.CheckSet.recheck`'s dirty-lhs-group
  sweep (same granularity as :func:`repro.kernel.dirty_group_keys`).
* :func:`custom_findings` is the one step for constraint kinds the plan
  cannot probe (a custom ``holds`` predicate may read a whole
  relation): each is judged whole on the derived candidate, and only
  when the delta touches a relation it ranges over.
* :func:`write_footprint` projects the delta's rows through the same
  probe family, yielding the ``(relation, attrs, projected-row)``
  conflict keys of optimistic concurrency: two commits whose footprints
  are disjoint cannot disturb each other's probes, so disjoint writers
  commit without re-serialising behind each other's validation.  Every
  delta is a finite row set, so every footprint is bounded.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.integrity import (
    CardinalityConstraint,
    FunctionalConstraint,
    ParticipationConstraint,
    SubsetConstraint,
)
from repro.errors import ExtensionError, StoreError
from repro.relational import Tuple
from repro.store.version_graph import Version

_EMPTY: frozenset = frozenset()


class Op:
    """One buffered operation, in WAL-codec-friendly form."""

    __slots__ = ("kind", "relation", "rows", "propagate")

    def __init__(self, kind: str, relation: str, rows: tuple,
                 propagate: bool = False):
        self.kind = kind
        self.relation = relation
        self.rows = rows
        self.propagate = propagate

    def to_record(self) -> dict:
        """The JSON-ready WAL form (rows via the :mod:`repro.io` value
        convention: attribute->scalar dicts)."""
        record: dict = {"op": self.kind, "relation": self.relation}
        if self.kind in ("insert", "delete"):
            record["row"] = self.rows[0].as_dict()
            record["propagate"] = self.propagate
        else:
            record["rows"] = [t.as_dict() for t in self.rows]
        return record

    def __repr__(self) -> str:
        return f"Op({self.kind}, {self.relation}, {len(self.rows)} row(s))"


class Transaction:
    """Buffered updates against a pinned base version.

    Buffer methods validate shape and domain membership immediately (a
    malformed row is a caller bug, reported as :class:`ExtensionError`
    at the call site); semantic validation happens at commit.  The
    object is single-use: once committed it cannot be reused, but
    :meth:`rebased` produces a fresh transaction with the same buffered
    operations against a newer head (the conflict-retry path).
    """

    __slots__ = ("schema", "base", "branch", "ops", "committed")

    def __init__(self, schema, base: Version, branch: str = "main"):
        self.schema = schema
        self.base = base
        self.branch = branch
        self.ops: list[Op] = []
        self.committed = False

    # ------------------------------------------------------------------
    # buffering
    # ------------------------------------------------------------------
    def _validated(self, relation: str, row) -> Tuple:
        e = self.schema[relation]
        t = row if isinstance(row, Tuple) else Tuple(dict(row))
        if t.schema != e.attributes:
            raise ExtensionError(
                f"tuple schema {sorted(t.schema)} does not match {relation!r}")
        for a in e.attributes:
            if t[a] not in self.schema.universe.domain(a):
                raise ExtensionError(
                    f"value {t[a]!r} for attribute {a!r} of {relation!r} is "
                    f"outside its atomic value set")
        return t

    def insert(self, relation: str, row, propagate: bool = True) -> "Transaction":
        """Buffer an insert; with ``propagate`` the projections onto
        every proper generalisation ride along (containment-preserving,
        exactly like :meth:`DatabaseExtension.insert`)."""
        self.ops.append(Op("insert", relation,
                           (self._validated(relation, row),), propagate))
        return self

    def delete(self, relation: str, row, propagate: bool = True) -> "Transaction":
        """Buffer a delete; with ``propagate`` every specialisation tuple
        projecting onto the deleted one is cascaded away."""
        self.ops.append(Op("delete", relation,
                           (self._validated(relation, row),), propagate))
        return self

    def remove(self, relation: str, rows: Iterable) -> "Transaction":
        """Buffer a bulk non-propagating removal."""
        self.ops.append(Op("remove", relation, tuple(
            self._validated(relation, r) for r in rows)))
        return self

    def replace(self, relation: str, rows: Iterable) -> "Transaction":
        """Buffer a wholesale replacement of one relation's instance set
        (committed as the rows it removes and the rows it adds)."""
        self.ops.append(Op("replace", relation, tuple(
            self._validated(relation, r) for r in rows)))
        return self

    def rebased(self, new_base: Version) -> "Transaction":
        """The same buffered operations against a newer base version."""
        twin = Transaction(self.schema, new_base, self.branch)
        twin.ops = list(self.ops)
        return twin

    def apply_records(self, records: Iterable[Mapping]) -> "Transaction":
        """Buffer operations given in WAL-record form.

        Rows are re-validated through the public buffer methods, so
        neither a corrupted log nor a remote client can smuggle
        malformed tuples into the store — this is the single entry
        point WAL replay and the network ``commit`` op share.  Raises
        :class:`StoreError` on unknown op kinds and ``KeyError``-free
        :class:`StoreError` on structurally broken records.
        """
        for record in records:
            if not isinstance(record, Mapping):
                raise StoreError(
                    f"op record must be an object, got "
                    f"{type(record).__name__}")
            kind = record.get("op")
            try:
                if kind == "insert":
                    self.insert(record["relation"], record["row"],
                                record.get("propagate", True))
                elif kind == "delete":
                    self.delete(record["relation"], record["row"],
                                record.get("propagate", True))
                elif kind == "remove":
                    self.remove(record["relation"], record["rows"])
                elif kind == "replace":
                    self.replace(record["relation"], record["rows"])
                else:
                    raise StoreError(f"unknown WAL op kind: {kind!r}")
            except KeyError as exc:
                raise StoreError(
                    f"op record {record!r} is missing field {exc}") from exc
            except TypeError as exc:
                raise StoreError(
                    f"op record {record!r} is malformed: {exc}") from exc
        return self

    @classmethod
    def from_records(cls, schema, base: Version, branch: str,
                     records: Iterable[Mapping]) -> "Transaction":
        """Rebuild a transaction from WAL op records (see
        :meth:`apply_records`)."""
        return cls(schema, base, branch).apply_records(records)

    # ------------------------------------------------------------------
    # net effect
    # ------------------------------------------------------------------
    def net_changes(self, state, index=None) -> "Changes":
        """The transaction's net row effect against ``state``.

        Simulates the buffered operations in order over an effective
        view of ``state`` (base rows minus pending removals plus pending
        additions), so re-inserting a removed row cancels, duplicate
        inserts dedup, cascades see earlier operations of the same
        transaction, and a ``replace`` diffs against what the earlier
        operations left.  Delete cascades find their victims through
        the engine's head probe index when available (one group
        lookup), falling back to an object-level scan.
        """
        schema = state.schema
        added: dict[str, dict] = {}
        removed: dict[str, dict] = {}

        def present(name: str, t: Tuple) -> bool:
            if t in removed.get(name, _EMPTY):
                return False
            return t in added.get(name, _EMPTY) or t in state.R(name).tuples

        def add(name: str, t: Tuple) -> None:
            if present(name, t):
                return
            if t in removed.get(name, _EMPTY):
                del removed[name][t]
            else:
                added.setdefault(name, {})[t] = None

        def drop(name: str, t: Tuple) -> None:
            if not present(name, t):
                return
            if t in added.get(name, _EMPTY):
                del added[name][t]
            else:
                removed.setdefault(name, {})[t] = None

        def victims(s, e, t: Tuple) -> list[Tuple]:
            # Effective rows of R_s whose projection onto A_e is t.
            group = index.group(s.name, e.attributes, t) \
                if index is not None else None
            if group is None:
                group = [u for u in state.R(s).tuples
                         if u.project(e.attributes) == t]
            out = [u for u in group if u not in removed.get(s.name, _EMPTY)]
            out += [v for v in added.get(s.name, _EMPTY)
                    if v.project(e.attributes) == t]
            return out

        for op in self.ops:
            e = schema[op.relation]
            if op.kind == "insert":
                t = op.rows[0]
                add(e.name, t)
                if op.propagate:
                    for g in state.gen.proper_generalisations(e):
                        add(g.name, t.project(g.attributes))
            elif op.kind == "delete":
                t = op.rows[0]
                if op.propagate:
                    for s in state.spec.proper_specialisations(e):
                        for victim in victims(s, e, t):
                            drop(s.name, victim)
                drop(e.name, t)
            elif op.kind == "remove":
                for t in op.rows:
                    drop(e.name, t)
            else:  # replace: drop what the new set lacks, add the rest
                keep = frozenset(op.rows)
                for t in [*state.R(e).tuples, *added.get(e.name, ())]:
                    if t not in keep:
                        drop(e.name, t)
                for t in op.rows:
                    add(e.name, t)
        return Changes(added, removed)


class Changes:
    """One transaction's net row effect: the unit of commit.

    ``added``/``removed`` map relation names to row tuples (every listed
    row a genuine difference against the commit-time head).
    """

    __slots__ = ("added", "removed", "_added", "_removed")

    def __init__(self, added: Mapping[str, Iterable[Tuple]],
                 removed: Mapping[str, Iterable[Tuple]]):
        self.added = {n: tuple(rows) for n, rows in added.items() if rows}
        self.removed = {n: tuple(rows) for n, rows in removed.items() if rows}
        self._added = {n: frozenset(rows) for n, rows in self.added.items()}
        self._removed = {n: frozenset(rows) for n, rows in self.removed.items()}

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    def touched(self) -> frozenset[str]:
        return frozenset(self.added) | frozenset(self.removed)

    def __repr__(self) -> str:
        return (f"Changes(+{sum(map(len, self.added.values()))}, "
                f"-{sum(map(len, self.removed.values()))})")


class ValidationPlan:
    """The schema + constraint set compiled into per-relation probes.

    Built once per engine.  ``probe_family[name]`` is the set of
    attribute sets through which *any* extension-level check reads
    relation ``name``; it is simultaneously the read granularity of
    :func:`validate_changes` and the write granularity of
    :func:`write_footprint`, which is what makes disjoint-footprint
    commits commute with each other's validation.

    ``custom`` lists the constraints of a kind the plan cannot factor
    through bounded probes (a custom ``holds`` predicate may read a
    whole relation), each with the relation names it ranges over;
    :func:`custom_findings` judges them.
    """

    __slots__ = ("schema", "constraints", "fds", "containment_pairs",
                 "participations", "compounds", "probe_family", "custom")

    def __init__(self, state, constraints: Iterable = ()):
        schema = state.schema
        self.schema = schema
        self.constraints = tuple(constraints)
        self.fds: list[tuple] = []
        pairs: dict[tuple[str, str], frozenset] = {}
        self.participations: list[tuple] = []
        self.compounds: list[tuple] = []
        self.custom: list[tuple] = []
        for c in self.constraints:
            if isinstance(c, FunctionalConstraint):
                fds = [c.fd]
            elif isinstance(c, CardinalityConstraint):
                fds = c.as_fds()
            elif isinstance(c, SubsetConstraint):
                pairs[(c.special.name, c.general.name)] = c.general.attributes
                continue
            elif isinstance(c, ParticipationConstraint):
                self.participations.append(
                    (c.name, c.relationship.name, c.member.name,
                     c.member.attributes))
                continue
            else:
                self.custom.append((c, frozenset(
                    e.name for e in c.entity_types() | {c.context})))
                continue
            for fd in fds:
                self.fds.append((c.name, fd.context.name,
                                 fd.determinant.attributes,
                                 fd.dependent.attributes))
        for e in schema:
            for s in state.spec.S(e):
                if s != e:
                    pairs[(s.name, e.name)] = e.attributes
        self.containment_pairs = sorted(
            (s, e, attrs) for (s, e), attrs in pairs.items())
        for e in sorted(state.contributors.compound_types()):
            cos = sorted(state.contributors.contributors(e))
            if not cos:
                continue
            image = frozenset().union(*(c.attributes for c in cos))
            self.compounds.append(
                (e.name, tuple((c.name, c.attributes) for c in cos), image))
        family: dict[str, set[frozenset]] = {
            e.name: {e.attributes} for e in schema
        }
        for _, context, lhs, _rhs in self.fds:
            family[context].add(lhs)
        for s, _e, attrs in self.containment_pairs:
            family[s].add(attrs)
        for _, rel, _m, m_attrs in self.participations:
            family[rel].add(m_attrs)
        for e_name, cos, image in self.compounds:
            for _c, c_attrs in cos:
                family[e_name].add(c_attrs)
            family[e_name].add(image)
        self.probe_family = {name: frozenset(sets)
                             for name, sets in family.items()}


def write_footprint(plan: ValidationPlan, changes: Changes) -> frozenset:
    """The commit's conflict keys: every changed row projected through
    its relation's probe family — ``(relation, attrs, projected-row)``
    triples at the same lhs-group granularity ``CheckSet.recheck``
    re-sweeps at.
    """
    keys = set()
    for rows_of in (changes.added, changes.removed):
        for name, rows in rows_of.items():
            for attrs in plan.probe_family[name]:
                for t in rows:
                    keys.add((name, attrs, t.project(attrs)))
    return frozenset(keys)


def validate_changes(plan: ValidationPlan, state, changes: Changes,
                     index=None) -> list[dict]:
    """Judge a delta against the (clean) head state in O(|delta|).

    ``state`` is the branch head the delta is about to commit onto; the
    head is clean by the store's induction invariant, so only the groups
    the delta touches can flip, and each check below probes exactly
    those.  Returns structured findings (empty = commit is admissible);
    every finding carries object-level witness rows.  The plan's
    ``custom`` constraints are not judged here (they need the derived
    candidate; see :func:`custom_findings`).
    """
    findings: list[dict] = []
    added, removed = changes.added, changes.removed

    def candidate_has(name: str, t: Tuple) -> bool:
        if t in changes._removed.get(name, _EMPTY):
            return False
        return t in changes._added.get(name, _EMPTY) \
            or t in state.R(name).tuples

    def group(name: str, attrs: frozenset, key: Tuple) -> list[Tuple]:
        # Candidate rows of `name` whose projection onto `attrs` is `key`.
        if attrs == plan.schema[name].attributes:
            return [key] if candidate_has(name, key) else []
        base = index.group(name, attrs, key) if index is not None else None
        if base is None:
            base = [u for u in state.R(name).tuples
                    if u.project(attrs) == key]
        rem = changes._removed.get(name, _EMPTY)
        out = [u for u in base if u not in rem]
        out += [v for v in changes._added.get(name, ())
                if v.project(attrs) == key]
        return out

    # Functional and cardinality constraints: re-judge dirty lhs-groups.
    for label, context, lhs, rhs in plan.fds:
        touched = added.get(context, ()) + removed.get(context, ())
        if not touched:
            continue
        for key in {t.project(lhs) for t in touched}:
            rows = group(context, lhs, key)
            if len(rows) < 2:
                continue
            by_rhs: dict[Tuple, Tuple] = {}
            for u in rows:
                by_rhs.setdefault(u.project(rhs), u)
            if len(by_rhs) > 1:
                witnesses = sorted(by_rhs.values(), key=repr)[:2]
                findings.append({
                    "check": "fd", "constraint": label, "relation": context,
                    "message": (
                        f"constraint {label!r}: {sorted(lhs)} -> "
                        f"{sorted(rhs)} violated in R_{context}"),
                    "witnesses": [w.as_dict() for w in witnesses],
                })

    # Containment Condition (and subset constraints, same shape).
    for s_name, e_name, e_attrs in plan.containment_pairs:
        for t in added.get(s_name, ()):
            p = t.project(e_attrs)
            if not candidate_has(e_name, p):
                findings.append({
                    "check": "containment", "constraint": None,
                    "relation": s_name,
                    "message": (f"pi_{e_name}^{s_name} of an inserted tuple "
                                f"escapes R_{e_name}"),
                    "witnesses": [t.as_dict()],
                })
        for u in removed.get(e_name, ()):
            survivors = group(s_name, e_attrs, u)
            if survivors:
                findings.append({
                    "check": "containment", "constraint": None,
                    "relation": e_name,
                    "message": (f"removing a tuple from R_{e_name} orphans "
                                f"{len(survivors)} tuple(s) of R_{s_name}"),
                    "witnesses": [u.as_dict(), survivors[0].as_dict()],
                })

    # Participation constraints.
    for label, rel_name, m_name, m_attrs in plan.participations:
        for t in added.get(m_name, ()):
            if not group(rel_name, m_attrs, t):
                findings.append({
                    "check": "participation", "constraint": label,
                    "relation": m_name,
                    "message": (f"constraint {label!r}: inserted R_{m_name} "
                                f"tuple does not participate in R_{rel_name}"),
                    "witnesses": [t.as_dict()],
                })
        for u in removed.get(rel_name, ()):
            p = u.project(m_attrs)
            if candidate_has(m_name, p) and not group(rel_name, m_attrs, p):
                findings.append({
                    "check": "participation", "constraint": label,
                    "relation": rel_name,
                    "message": (f"constraint {label!r}: removing a "
                                f"R_{rel_name} tuple strands a R_{m_name} "
                                f"member"),
                    "witnesses": [u.as_dict(), p.as_dict()],
                })

    # Extension Axiom: support and injectivity per compound type.
    for e_name, cos, image_attrs in plan.compounds:
        e_added = added.get(e_name, ())
        e_added_set = frozenset(e_added)
        full = plan.schema[e_name].attributes
        for t in e_added:
            for c_name, c_attrs in cos:
                if not candidate_has(c_name, t.project(c_attrs)):
                    findings.append({
                        "check": "extension-axiom", "constraint": None,
                        "relation": e_name,
                        "message": (f"inserted R_{e_name} tuple is not "
                                    f"supported by contributor R_{c_name}"),
                        "witnesses": [t.as_dict()],
                    })
            if image_attrs != full:
                img = t.project(image_attrs)
                others = [u for u in group(e_name, image_attrs, img)
                          if u != t]
                if others:
                    findings.append({
                        "check": "extension-axiom", "constraint": None,
                        "relation": e_name,
                        "message": (f"R_{e_name} tuples share one "
                                    "contributor combination (injectivity "
                                    "fails)"),
                        "witnesses": [t.as_dict(), others[0].as_dict()],
                    })
        for c_name, c_attrs in cos:
            for u in removed.get(c_name, ()):
                affected = [a for a in group(e_name, c_attrs, u)
                            if a not in e_added_set]
                if affected:
                    findings.append({
                        "check": "extension-axiom", "constraint": None,
                        "relation": c_name,
                        "message": (f"removing a R_{c_name} tuple strips the "
                                    f"contributor support of "
                                    f"{len(affected)} R_{e_name} tuple(s)"),
                        "witnesses": [u.as_dict(), affected[0].as_dict()],
                    })
    return findings


def custom_findings(plan: ValidationPlan, changes: Changes,
                    candidate) -> list[dict]:
    """Judge the plan's ``custom`` constraints on the derived candidate.

    Only constraints ranging over a relation the delta touches are
    evaluated: the head satisfied every constraint (clean by
    induction), so an untouched one still holds.  Each violated
    constraint yields one finding that names it.
    """
    touched = changes.touched()
    findings: list[dict] = []
    for c, names in plan.custom:
        if names.isdisjoint(touched) or c.holds(candidate):
            continue
        findings.append({
            "check": "constraint", "constraint": c.name,
            "relation": c.context.name,
            "message": "; ".join(c.violation_report(candidate))
            or f"constraint {c.name!r} is violated",
            "witnesses": [],
        })
    return findings
