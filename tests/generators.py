"""Shared seeded random-instance generators for the differential suites.

Every kernel-vs-naive equivalence test draws its inputs from here so the
case distributions stay consistent across suites: set families and FD
sets for the PR-1 kernels (topology generation, closure, chase) and
relation instances, MVDs, JDs, and decompositions with known
lossless/lossy status for the instance kernel.  All generators are pure
functions of the passed ``random.Random``, keeping every suite
reproducible from its seed.
"""

from __future__ import annotations

import os
import random

from repro.relational import FD, MVD, JoinDependency, Relation
from repro.relational.algebra import join_all_naive, project_naive


def chaos_seeds(count: int, base: int | None = None) -> list[int]:
    """Seeds for a chaos sweep: ``base + i`` for ``i < count``.

    ``base`` defaults to the ``REPRO_CHAOS_SEED`` environment variable
    (0 when unset), which the CI chaos lane forwards from the workflow
    env and prints in its step name — so a failing nightly seed is
    replayed locally verbatim by exporting the same value.  Assertion
    messages in the sweeps carry the individual seed, so either way
    the failing case is one env var away."""
    if base is None:
        base = int(os.environ.get("REPRO_CHAOS_SEED", "0") or "0")
    return [base + i for i in range(count)]


def random_family(rng: random.Random, points: list[str]) -> list[frozenset[str]]:
    """A small random family of subsets of ``points`` (may repeat/overlap)."""
    n_sets = rng.randint(0, 6)
    return [
        frozenset(rng.sample(points, rng.randint(0, len(points))))
        for _ in range(n_sets)
    ]


def random_fds(rng: random.Random, attrs: list[str], max_fds: int) -> list[FD]:
    """Up to ``max_fds`` random FDs with small sides over ``attrs``."""
    out = []
    for _ in range(rng.randint(0, max_fds)):
        lhs = rng.sample(attrs, rng.randint(0, min(3, len(attrs) - 1)))
        rhs = rng.sample(attrs, rng.randint(1, min(3, len(attrs))))
        out.append(FD(lhs, rhs))
    return out


def random_relation(rng: random.Random, attrs: list[str],
                    max_rows: int = 8, domain: int = 3) -> Relation:
    """A random relation over ``attrs`` with values in ``0..domain-1``.

    The small domain keeps agreement on lhs-groups (and therefore both
    satisfied and violated dependencies) common rather than vanishingly
    rare.
    """
    rows = [
        {a: rng.randint(0, domain - 1) for a in attrs}
        for _ in range(rng.randint(0, max_rows))
    ]
    return Relation(attrs, rows)


def random_attr_subset(rng: random.Random, attrs: list[str],
                       min_size: int = 0) -> frozenset[str]:
    """A random subset of ``attrs`` of size at least ``min_size``."""
    return frozenset(rng.sample(attrs, rng.randint(min_size, len(attrs))))


def random_instance_fd(rng: random.Random, attrs: list[str]) -> FD:
    """One random FD whose sides lie inside ``attrs`` (rhs nonempty)."""
    lhs = rng.sample(attrs, rng.randint(0, len(attrs)))
    rhs = rng.sample(attrs, rng.randint(1, len(attrs)))
    return FD(lhs, rhs)


def random_mvd(rng: random.Random, attrs: list[str]) -> MVD:
    """One random MVD over the universe ``attrs``."""
    lhs = rng.sample(attrs, rng.randint(0, len(attrs)))
    rhs = rng.sample(attrs, rng.randint(0, len(attrs)))
    return MVD(lhs, rhs, attrs)


def random_cover(rng: random.Random, attrs: list[str],
                 max_parts: int = 4) -> list[frozenset[str]]:
    """Random attribute subsets patched to cover ``attrs`` exactly.

    Any attribute the sampled parts miss is appended to a random part,
    so the result is always a legal decomposition of the universe.
    """
    parts = [
        set(rng.sample(attrs, rng.randint(1, len(attrs))))
        for _ in range(rng.randint(1, max_parts))
    ]
    missing = set(attrs) - set().union(*parts)
    for a in missing:
        rng.choice(parts).add(a)
    return [frozenset(p) for p in parts]


def random_jd(rng: random.Random, attrs: list[str],
              max_components: int = 4) -> JoinDependency:
    """One random JD whose components cover the universe ``attrs``."""
    return JoinDependency(random_cover(rng, attrs, max_components), attrs)


def lossless_instance(rng: random.Random, attrs: list[str],
                      parts: list[frozenset[str]],
                      max_rows: int = 8, domain: int = 3) -> Relation:
    """A relation that is lossless for ``parts`` by construction.

    Joining the projections of any relation yields a fixpoint of
    project-then-join (each part's projection of the join equals the
    part's projection of the original), so the join of a random seed
    relation's projections is a known-lossless instance.  Built from the
    naive operators only, keeping the construction independent of the
    kernel under test.
    """
    seed = random_relation(rng, attrs, max_rows=max_rows, domain=domain)
    return join_all_naive(project_naive(seed, part) for part in parts)


def random_database_states(rng: random.Random,
                           n_attrs: int = 6, n_types: int = 5,
                           rows_per_leaf: int = 3) -> list:
    """A random schema's consistent extension plus injected-violation
    states (containment break, injectivity break) when the schema shape
    admits them.  Returns ``[(schema, db), ...]`` — the substrate of the
    batch-vs-sequential extension sweeps.
    """
    from repro.errors import ExtensionError
    from repro.workloads import (
        inject_containment_violation,
        inject_injectivity_violation,
        random_extension,
        random_schema,
    )
    from repro.workloads.schemas import SHAPES

    schema = random_schema(rng, n_attrs=n_attrs, n_types=n_types,
                           shape=rng.choice(SHAPES))
    db = random_extension(rng, schema, rows_per_leaf=rows_per_leaf)
    states = [(schema, db)]
    for inject in (inject_containment_violation, inject_injectivity_violation):
        try:
            states.append((schema, inject(rng, db)))
        except ExtensionError:
            pass  # shape offers no ISA edge / mutable compound to break
    return states


def mixed_txn_specs(rng: random.Random, db, n_txns: int,
                    ops_per_txn: int = 2) -> list[list[tuple]]:
    """``random_txn_specs`` traffic with bulk ops: about a third of the
    transactions gain one, another third are replaced by one alone.  A
    bulk op is a ``remove`` of one or two rows, or a ``replace`` that
    shrinks a relation, toggles one row in or out, or restates it
    unchanged.  Rows are drawn from ``db``, so a replace is relative to
    that state.
    """
    from repro.workloads import random_txn_specs
    from repro.workloads.extensions import random_tuple

    types = sorted(db.schema, key=lambda e: e.name)
    specs = random_txn_specs(rng, db, n_txns, ops_per_txn)
    for ops in specs:
        mix = rng.random()
        if mix < 1 / 3:
            continue
        if mix > 2 / 3:
            ops.clear()
        e = rng.choice(types)
        rows = [t.as_dict() for t in sorted(db.R(e).tuples, key=repr)]
        fresh = random_tuple(rng, db.schema, e.attributes).as_dict()
        shape = rng.choice(("remove", "shrink", "toggle", "restate"))
        if shape == "remove":
            pool = rows or [fresh]
            op = ("remove", e.name,
                  rng.sample(pool, min(len(pool), rng.randint(1, 2))))
        elif shape == "shrink":
            op = ("replace", e.name,
                  rng.sample(rows, max(0, len(rows) - rng.randint(1, 3))))
        elif shape == "toggle":
            if rows and rng.random() < 0.5:
                gone = rng.choice(rows)
                op = ("replace", e.name, [r for r in rows if r != gone])
            else:
                op = ("replace", e.name, rows + [fresh])
        else:
            op = ("replace", e.name, rows)
        ops.insert(rng.randrange(len(ops) + 1), op)
    return specs


def random_update_sequence(rng: random.Random, db, n_ops: int = 8,
                           audit_every: int | None = None,
                           constraints: list | None = None) -> list:
    """Drive ``db`` through a random ``insert``/``delete``/``replace``/
    ``remove_tuples`` sequence, returning every intermediate state.

    The substrate of the delta-equivalence suite: each step exercises
    the patch-derived kernel path (new-symbol inserts, deletes of
    existing and of absent rows, propagating and non-propagating
    updates, bulk removals, wholesale replaces).  With ``audit_every``
    the chain is additionally audited (``check_all``) at that cadence so
    the dirty-context caches are warm mid-sequence, which is exactly the
    update-serving workload.  Returns ``[db, state_1, ..., state_n]``.
    """
    from repro.core import check_all
    from repro.workloads.extensions import random_tuple

    schema = db.schema
    types = sorted(schema, key=lambda t: t.name)
    states = [db]
    for step in range(n_ops):
        op = rng.choice(("insert", "delete", "replace", "remove"))
        e = rng.choice(types)
        if op == "insert":
            db = db.insert(e, random_tuple(rng, schema, e.attributes),
                           propagate=rng.random() < 0.7)
        elif op == "delete":
            pool = sorted(db.R(e).tuples, key=repr)
            if pool and rng.random() < 0.8:
                t = rng.choice(pool)
            else:
                t = random_tuple(rng, schema, e.attributes)
            db = db.delete(e, t, propagate=rng.random() < 0.7)
        elif op == "remove":
            pool = sorted(db.R(e).tuples, key=repr)
            db = db.remove_tuples(
                e, rng.sample(pool, min(len(pool), rng.randint(0, 3))))
        else:
            db = db.replace(e, [random_tuple(rng, schema, e.attributes)
                                for _ in range(rng.randint(0, 3))])
        states.append(db)
        if audit_every and (step + 1) % audit_every == 0:
            check_all(schema, db, constraints=constraints or ())
    return states


def lossy_case(rng: random.Random,
               n_rows: int = 3) -> tuple[Relation, list[frozenset[str]]]:
    """A relation/decomposition pair that is lossy by construction.

    ``n_rows >= 2`` diagonal tuples over ``{a, b}`` split into ``{a}``
    and ``{b}``: the join manufactures all ``n_rows**2`` combinations.
    """
    n_rows = max(2, n_rows)
    rows = [{"a": i, "b": rng.randint(0, 1) * n_rows + i} for i in range(n_rows)]
    return Relation(["a", "b"], rows), [frozenset("a"), frozenset("b")]


# ----------------------------------------------------------------------
# wire-protocol messages (PR 7 frame codec and fuzz suites)
# ----------------------------------------------------------------------

def random_json_value(rng: random.Random, depth: int = 0):
    """An arbitrary JSON value; nesting thins out with ``depth`` so
    generated messages stay small but exercise every shape."""
    choices = ["null", "bool", "int", "float", "string"]
    if depth < 3:
        choices += ["list", "dict"]
    kind = rng.choice(choices)
    if kind == "null":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randint(-10**9, 10**9)
    if kind == "float":
        # repr-exact floats survive a JSON round trip bit-for-bit
        return rng.randint(-10**6, 10**6) / 64
    if kind == "string":
        alphabet = "abcXYZ 0123é世界\\\"{}[]\n\t"
        return "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 12)))
    if kind == "list":
        return [random_json_value(rng, depth + 1)
                for _ in range(rng.randint(0, 4))]
    return {f"k{i}": random_json_value(rng, depth + 1)
            for i in range(rng.randint(0, 4))}


def random_frame_message(rng: random.Random) -> dict:
    """A random JSON-object message (the only payload shape frames
    carry); sometimes request-shaped, sometimes arbitrary."""
    message = {f"f{i}": random_json_value(rng)
               for i in range(rng.randint(0, 5))}
    if rng.random() < 0.5:
        message["id"] = rng.choice([rng.randint(0, 999), "rid", None])
    if rng.random() < 0.5:
        message["op"] = rng.choice(["ping", "hello", "read", "nosuch"])
    return message
