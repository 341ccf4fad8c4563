"""Exception hierarchy for the reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch a single base class.  Axiom violations carry structured
diagnostics (which axiom, which offending objects) so design tools can
report them without parsing messages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class TopologyError(ReproError):
    """A family of sets failed to satisfy the topology axioms."""


class PresheafError(ReproError):
    """A presheaf violated a functor law or a restriction-map constraint."""


class RelationError(ReproError):
    """An ill-formed relation, tuple, or relational-algebra application."""


class SchemaError(ReproError):
    """An ill-formed schema component (attribute, entity type, universe)."""


class AxiomViolationError(SchemaError):
    """One of the six design axioms is violated.

    Attributes
    ----------
    axiom:
        Name of the violated axiom, e.g. ``"Entity Type Axiom"``.
    offenders:
        Tuple of the objects (names, entity types, ...) that witness the
        violation.
    """

    def __init__(self, axiom: str, message: str, offenders: tuple = ()):
        super().__init__(f"{axiom}: {message}")
        self.axiom = axiom
        self.offenders = offenders


class ExtensionError(ReproError):
    """An extension (set of instances) is inconsistent with its intension."""


class ContainmentError(ExtensionError):
    """The Containment Condition pi_e^s(R_s) subseteq R_e failed."""


class DependencyError(ReproError):
    """An ill-formed or inapplicable functional dependency."""


class DerivationError(DependencyError):
    """A requested FD derivation does not exist."""


class ViewError(ReproError):
    """An ill-formed entity view type or an untranslatable view update."""


class EvolutionError(ReproError):
    """A schema change cannot be applied or analysed."""


class IncompleteInformationError(ReproError):
    """Misuse of boolean-algebra-structured (null-carrying) domains."""


class StoreError(ReproError):
    """Misuse of the versioned store (unknown version/branch, bad root)."""


class ProtocolError(ReproError):
    """A malformed wire-protocol frame or message.

    Covers both framing failures (oversized or truncated length-prefixed
    frames, payloads that are not JSON objects) and message-level ones
    (unknown ops, missing fields).  Server connections answer these with
    structured error frames; only failures that desynchronise the byte
    stream itself close the connection.
    """


class StoreWarning(UserWarning):
    """Non-fatal store conditions surfaced through :mod:`warnings`
    (recoverable durability events, not API misuse — so they do not
    derive from :class:`ReproError`)."""


class TornTailWarning(StoreWarning):
    """A write-ahead log's final record was torn by a crash mid-append.

    The replayable prefix is complete and was kept;
    :meth:`repro.store.WriteAheadLog.repair` (run by
    :meth:`StoreEngine.replay`) truncates the torn bytes off the file.
    Corruption anywhere *before* the final record is not recoverable
    and raises :class:`StoreError` instead.
    """


class CommitRejected(StoreError):
    """A transaction's delta violates an axiom or integrity constraint.

    Attributes
    ----------
    findings:
        Tuple of structured diagnostics (dicts with ``check``,
        ``message``, and ``witnesses`` keys) describing every violation
        the commit-time validation found.
    """

    def __init__(self, message: str, findings: tuple = ()):
        super().__init__(message)
        self.findings = tuple(findings)


class EpochFenced(StoreError):
    """A write (or tail) raced a replica promotion and lost.

    Promotion stamps a new *epoch* into the write-ahead log; a demoted
    primary appending under the old epoch, or a replica pinned to it,
    is *fenced* — it fails with this error instead of silently diverging
    from the promoted history.

    Attributes
    ----------
    held:
        The epoch the fenced party believed was current.
    current:
        The epoch actually stamped in the log (``held < current``).
    """

    def __init__(self, message: str, held: int = 0, current: int = 0):
        super().__init__(message)
        self.held = held
        self.current = current


class ServerOverloaded(StoreError):
    """The server refused a connection or request at capacity.

    Transient by construction (capacity frees up as other connections
    finish), so retry policies classify it retryable — unlike most
    :class:`StoreError`\\ s, which are semantic and do not heal by
    waiting.
    """


class DeadlineExceeded(StoreError):
    """A retried operation ran out of deadline before it succeeded.

    Raised by :class:`repro.server.failover.RetryPolicy` (and the
    queue-flush loop of :class:`~repro.server.failover.FailoverClient`)
    with the last underlying failure chained as ``__cause__``, so the
    caller learns both *that* time ran out and *why* each attempt
    failed.
    """


class TransactionConflict(StoreError):
    """Optimistic concurrency failure: the transaction's footprint
    overlaps a commit that landed after its base version.

    Attributes
    ----------
    keys:
        Tuple of the overlapping ``(relation, attrs, projected-row)``
        conflict keys.  Retrying against the new head usually
        succeeds.
    """

    def __init__(self, message: str, keys: tuple = ()):
        super().__init__(message)
        self.keys = tuple(keys)
