"""Failover: replica promotion, epoch fencing, and resilient clients.

The server stack so far has a single point of failure: one primary owns
the WAL, replicas can only follow it.  This module completes the loop:

* :func:`promote` turns a caught-up :class:`ReplicaEngine` into a
  read/write :class:`~repro.store.StoreEngine` — finish the tail,
  apply the PR-6 torn-tail repair, stamp the next **epoch** into the
  log, adopt it for writing.  The stamp is the fence: a demoted
  primary's next append raises :class:`~repro.errors.EpochFenced`
  instead of silently forking history (the Alexandrov reading from
  PAPERS.md — the epoch is an explicit dimension of the version graph,
  not an ambient assumption).
* :class:`RetryPolicy` is the reusable retry loop: exponential backoff
  with *decorrelated jitter*, per-operation deadlines, and a typed
  retryable-vs-fatal classification (transport and capacity errors
  heal with time; semantic errors — a rejected commit stays rejected —
  never do).
* :class:`FailoverClient` drives a fleet of addresses through a
  kill-and-promote event: it tracks the highest epoch it has seen and
  refuses stale primaries (client-side fencing), queues writes until
  promotion completes or the deadline lapses, and lets reads degrade
  to a replica within a bounded staleness budget.

What promotion does — and does not — guarantee: every record durably
in the log at promotion time is in the promoted graph (the
differential suite holds the promoted graph byte-identical to a full
replay of the crashed primary's durable prefix), and no *old-epoch*
write can land after the stamp.  Writes the old primary acknowledged
but never durably logged are gone — exactly the WAL's own crash
contract, now spanning two machines.
"""

from __future__ import annotations

import time
from random import Random
from typing import Any, Callable, Iterable, Sequence

from repro.errors import (
    DeadlineExceeded,
    EpochFenced,
    ProtocolError,
    ServerOverloaded,
    StoreError,
)
from repro.obs.metrics import MetricsRegistry
from repro.server.client import StoreClient
from repro.server.replica import ReplicaEngine
from repro.store.engine import StoreEngine
from repro.store.wal import WriteAheadLog


# ----------------------------------------------------------------------
# promotion
# ----------------------------------------------------------------------
def promote(replica: ReplicaEngine, timeout: float = 5.0,
            sync: bool = False, segment_records: int | None = None,
            segment_bytes: int | None = None) -> StoreEngine:
    """Promote ``replica`` to primary over the log it was tailing.

    The contract, in order:

    1. **Finish the tail** — :meth:`ReplicaEngine.sync` applies every
       complete record already durable in the log.
    2. **Repair** — :meth:`WriteAheadLog.repair` truncates a torn
       final line (the crashed primary's in-flight append; never
       acknowledged, so dropping it loses nothing acknowledged-and-
       durable), then a final catch-up drains what repair exposed.
       Anything still unconsumed after that is a *live* tail — the old
       primary is not actually dead — and promotion refuses.
    3. **Stamp the epoch** — a fresh :class:`WriteAheadLog` handle is
       opened on the log, :meth:`~WriteAheadLog.stamp_epoch` writes an
       ``epoch`` record (new epoch number, the graph's sequence
       counter and branch heads at takeover) heading a fresh segment,
       fsynced.  From this instant every old-epoch handle is fenced.
    4. **Adopt** — the replica's inner engine takes the stamped log as
       its own WAL (:meth:`StoreEngine.adopt_wal`) and is returned,
       ready to serve writes (wrap it in a new
       :class:`~repro.server.StoreServer`).

    The replica is marked *promoted* before the stamp lands, so a
    racing background sync can never re-apply the promotion record to
    the engine that wrote it; if the stamp loses a promotion race
    (:class:`EpochFenced` — another replica stamped first), the mark
    is rolled back and this replica resumes following the winner.

    Two promotions of the same log race safely: epochs must advance,
    so exactly one stamp wins and the loser raises.
    """
    replica.sync()
    repaired = WriteAheadLog.repair(replica.wal_path)
    replica.catch_up(timeout=timeout)
    behind = replica.behind_bytes()
    if behind:
        raise StoreError(
            f"cannot promote: {behind} bytes of log tail are still "
            f"unconsumed after catch-up and repair (dropped "
            f"{repaired} torn bytes) — the old primary appears to be "
            "alive and writing; stop it first")
    engine = replica.engine  # raises until the replica bootstrapped
    replica.mark_promoted()
    try:
        wal = WriteAheadLog(replica.wal_path, sync=sync,
                            segment_records=segment_records,
                            segment_bytes=segment_bytes)
        if wal.epoch > engine.epoch or replica.behind_bytes():
            # Another promotion (or its first writes) landed between
            # our catch-up and opening the handle; that stamp is the
            # truth and this one must lose.
            raise EpochFenced(
                f"promotion raced and lost: the log advanced to epoch "
                f"{wal.epoch} past this replica's epoch {engine.epoch}",
                held=engine.epoch, current=wal.epoch)
        wal.stamp_epoch(seq=engine.graph.seq,
                        heads=engine.graph.branches())
    except EpochFenced:
        replica.unmark_promoted()  # lost the race: follow the winner
        raise
    engine.adopt_wal(wal)
    return engine


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
class RetryPolicy:
    """Exponential backoff with decorrelated jitter plus a typed
    retryable-vs-fatal classification.

    Retryable (heal with time): ``OSError`` (covers ``ConnectionError``
    and socket timeouts), :class:`ProtocolError` (torn streams, lost
    frames), :class:`ServerOverloaded` (capacity frees up).  Fatal
    (retrying replays the failure): everything else — a rejected
    commit, an unknown branch, a malformed row.  :class:`EpochFenced`
    is deliberately *fatal here*: retrying the same peer under a stale
    epoch can never succeed; only :class:`FailoverClient`, which can
    re-resolve the primary, treats it as a reason to try again
    elsewhere.

    Delays follow the decorrelated-jitter scheme: each sleep is drawn
    uniformly from ``[base_delay, 3 * previous]``, capped at
    ``max_delay`` — retries spread out instead of synchronising into
    thundering herds.  Pass ``seed`` to make the sequence
    deterministic (the chaos suite does).

    ``deadline`` bounds one :meth:`call` end to end: when the next
    sleep would overrun it, :class:`DeadlineExceeded` is raised with
    the last underlying failure chained as ``__cause__``.
    """

    RETRYABLE: tuple[type[BaseException], ...] = (
        OSError, ProtocolError, ServerOverloaded)

    def __init__(self, max_attempts: int = 6,
                 base_delay: float = 0.005, max_delay: float = 1.0,
                 deadline: float | None = None,
                 seed: int | None = None,
                 retryable: tuple[type[BaseException], ...] | None = None,
                 metrics: MetricsRegistry | None = None):
        if max_attempts < 1:
            raise StoreError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.deadline = deadline
        self.seed = seed
        self.retryable_types = (self.RETRYABLE if retryable is None
                                else tuple(retryable))
        self._rng = Random(seed)
        self._c_retries = (None if metrics is None
                           else metrics.counter("retry.retries"))

    def retryable(self, exc: BaseException) -> bool:
        """Whether waiting and retrying can plausibly fix ``exc``."""
        if isinstance(exc, EpochFenced):
            return False  # same peer + stale epoch never heals
        return isinstance(exc, self.retryable_types)

    def next_delay(self, previous: float | None = None) -> float:
        """The next sleep: uniform over ``[base, 3*previous]``, capped."""
        previous = self.base_delay if previous is None else previous
        high = max(self.base_delay, previous * 3.0)
        return min(self.max_delay,
                   self._rng.uniform(self.base_delay, high))

    def sleep(self, delay: float) -> None:  # overridable in tests
        time.sleep(delay)

    def call(self, fn: Callable[..., Any], *args: Any,
             deadline: float | None = None, **kwargs: Any) -> Any:
        """Run ``fn`` under the policy: retry retryable failures with
        backoff, re-raise fatal ones immediately, raise
        :class:`DeadlineExceeded` (last failure chained) when the
        deadline would lapse, and re-raise the last failure when
        attempts run out."""
        deadline = self.deadline if deadline is None else deadline
        deadline_at = (time.monotonic() + deadline
                       if deadline is not None else None)
        delay: float | None = None
        last: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if not self.retryable(exc):
                    raise
                last = exc
            if attempt == self.max_attempts:
                break
            delay = self.next_delay(delay)
            if (deadline_at is not None
                    and time.monotonic() + delay > deadline_at):
                raise DeadlineExceeded(
                    f"{deadline}s deadline lapsed after {attempt} "
                    f"attempt(s); last failure: {last}") from last
            if self._c_retries is not None:
                self._c_retries.inc()
            self.sleep(delay)
        raise last

    def __repr__(self) -> str:
        return (f"RetryPolicy(max_attempts={self.max_attempts}, "
                f"base_delay={self.base_delay}, "
                f"max_delay={self.max_delay}, "
                f"deadline={self.deadline}, seed={self.seed})")


# ----------------------------------------------------------------------
# the failover client
# ----------------------------------------------------------------------
class FailoverClient:
    """A client that survives a kill-and-promote event.

    Holds a *candidate list* of server addresses — the current
    primary, its replicas, and (via :meth:`add_address`) whatever gets
    promoted later.  One live primary connection is maintained
    lazily; every address is dialled and asked ``hello`` until one
    answers ``role == "primary"`` with an epoch no lower than the
    highest this client has seen.  That epoch floor is the client-side
    fence: after talking to the promoted primary (epoch *n*), a
    still-running stale primary (epoch *n-1*) is refused even though
    it answers — the client can never be fooled into writing to the
    loser of a failover.

    Write path: :meth:`run` (and the :meth:`queue`/:meth:`flush`
    buffer) keeps trying — reconnecting through the candidate list
    with the policy's backoff — until the commit lands or ``deadline``
    seconds lapse (:class:`DeadlineExceeded`, last failure chained).
    Fatal errors (a rejected commit) surface immediately.  A lost ack
    (disconnect mid-commit) is retried; the store's validation makes
    re-running an already-applied insert/delete batch a no-op commit,
    so the retry is safe.

    Read path: :meth:`read` prefers the primary; when no primary is
    reachable it degrades to any replica whose reported
    ``behind_bytes`` is within ``staleness_budget`` (``None`` budget
    = any replica).  Heartbeats (:meth:`heartbeat`) and the pooled
    :meth:`StoreClient.is_stale` peek detect dead peers between
    operations without a round trip.
    """

    def __init__(self, addresses: Iterable[Sequence],
                 branch: str = "main",
                 policy: RetryPolicy | None = None,
                 deadline: float = 10.0,
                 staleness_budget: int | None = None,
                 timeout: float = 5.0,
                 metrics: MetricsRegistry | None = None):
        self.addresses: list[tuple[str, int]] = [
            (str(a[0]), int(a[1])) for a in addresses]
        if not self.addresses:
            raise StoreError("failover client needs at least one address")
        self.branch = branch
        self.policy = policy or RetryPolicy()
        self.deadline = deadline
        self.staleness_budget = staleness_budget
        self.timeout = timeout
        self.epoch = 0  # highest epoch witnessed; the client-side fence
        self._client: StoreClient | None = None
        self._queue: list[list[dict]] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_reconnects = self.metrics.counter("failover.reconnects")
        self._c_fenced = self.metrics.counter("failover.fenced")
        self._c_retries = self.metrics.counter("failover.retries")
        self._c_replica_reads = self.metrics.counter(
            "failover.replica_reads")

    # -- membership ----------------------------------------------------
    def add_address(self, address: Sequence) -> None:
        """Add a candidate (e.g. the server wrapping a just-promoted
        engine) — idempotent."""
        addr = (str(address[0]), int(address[1]))
        if addr not in self.addresses:
            self.addresses.append(addr)

    # -- connection management ----------------------------------------
    def _drop_client(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def _connect_primary(self) -> StoreClient:
        """Dial the candidate list for a primary at (or past) the
        epoch floor; raises the last failure when none qualifies."""
        last: BaseException | None = None
        for addr in self.addresses:
            try:
                client = StoreClient(*addr, branch=self.branch,
                                     timeout=self.timeout)
            except Exception as exc:
                last = exc
                continue
            if client.role != "primary":
                client.close()
                last = StoreError(f"{addr} is a replica, not a primary")
                continue
            epoch = client.server_epoch
            if epoch < self.epoch:
                client.close()
                last = EpochFenced(
                    f"{addr} serves stale epoch {epoch}; this client "
                    f"has seen epoch {self.epoch}",
                    held=epoch, current=self.epoch)
                continue
            self.epoch = epoch
            self._c_reconnects.inc()
            return client
        raise last if last is not None else StoreError(
            "no candidate addresses")

    def _primary(self) -> StoreClient:
        if self._client is not None and self._client.is_stale():
            self._drop_client()
        if self._client is None:
            self._client = self._connect_primary()
        return self._client

    def heartbeat(self) -> bool:
        """Ping the held primary connection; a dead peer is dropped
        (the next operation re-resolves) and reported as ``False``."""
        if self._client is None:
            return False
        try:
            return self._client.ping()
        except Exception:
            self._drop_client()
            return False

    # -- writes --------------------------------------------------------
    def run(self, ops: Iterable[dict],
            deadline: float | None = None) -> dict:
        """One transaction (one ``commit`` frame carrying ``ops``)
        against the current primary, surviving reconnects and promotions until it
        lands or the deadline lapses."""
        ops = list(ops)
        deadline = self.deadline if deadline is None else deadline
        return self._until(lambda c: c.run(ops),
                           time.monotonic() + deadline)

    def queue(self, ops: Iterable[dict]) -> int:
        """Buffer a write batch for :meth:`flush` (the degraded mode
        while no primary is reachable); returns the queue depth."""
        self._queue.append(list(ops))
        return len(self._queue)

    @property
    def queued(self) -> int:
        return len(self._queue)

    def flush(self, deadline: float | None = None) -> list[dict]:
        """Drain the write queue in order under one shared deadline.
        Batches that landed stay landed — a lapsed deadline leaves the
        unflushed suffix queued for the next flush."""
        deadline = self.deadline if deadline is None else deadline
        deadline_at = time.monotonic() + deadline
        results: list[dict] = []
        while self._queue:
            ops = self._queue[0]
            results.append(
                self._until(lambda c: c.run(ops), deadline_at))
            self._queue.pop(0)
        return results

    def _until(self, op: Callable[[StoreClient], Any],
               deadline_at: float) -> Any:
        """Run ``op`` against a (re)resolved primary until it succeeds,
        the deadline lapses, or a fatal error surfaces."""
        delay: float | None = None
        last: BaseException | None = None
        while True:
            try:
                client = self._primary()
            except Exception as exc:
                # Resolution failures — every candidate down, only
                # replicas answering, or all primaries stale — always
                # retry: a promotion in flight heals exactly this.
                if isinstance(exc, EpochFenced):
                    self.epoch = max(self.epoch, exc.current)
                    self._c_fenced.inc()
                self._drop_client()
                last = exc
            else:
                try:
                    return op(client)
                except EpochFenced as exc:
                    # Demoted mid-conversation: drop it and re-resolve
                    # — the promoted one may already be listed.
                    self.epoch = max(self.epoch, exc.current)
                    self._c_fenced.inc()
                    self._drop_client()
                    last = exc
                except Exception as exc:
                    if not self.policy.retryable(exc):
                        raise
                    self._drop_client()
                    last = exc
            delay = self.policy.next_delay(delay)
            if time.monotonic() + delay > deadline_at:
                raise DeadlineExceeded(
                    f"no primary accepted the operation before the "
                    f"deadline; last failure: {last}") from last
            self._c_retries.inc()
            self.policy.sleep(delay)

    # -- reads ---------------------------------------------------------
    def read(self, relation: str, branch: str | None = None) -> list[dict]:
        """Rows from the primary; degrades to a replica within the
        staleness budget when no primary is reachable."""
        try:
            client = self._primary()
        except Exception:
            # No reachable primary at all: a replica read is the
            # designed degradation for exactly this state.
            self._drop_client()
            rows = self._read_from_replica(relation, branch)
            if rows is None:
                raise
            return rows
        try:
            return client.read(relation, branch=branch)
        except Exception as exc:
            if not (self.policy.retryable(exc)
                    or isinstance(exc, EpochFenced)):
                raise  # semantic failure (unknown relation): no replica
                # read can answer differently
            self._drop_client()
            rows = self._read_from_replica(relation, branch)
            if rows is None:
                raise
            return rows

    def _read_from_replica(self, relation: str,
                           branch: str | None) -> list[dict] | None:
        for addr in self.addresses:
            client = None
            try:
                client = StoreClient(*addr, branch=self.branch,
                                     timeout=self.timeout)
                if client.role != "replica":
                    continue
                status = client.status()
                behind = status.get("behind_bytes")
                if (self.staleness_budget is not None
                        and (behind is None
                             or behind > self.staleness_budget)):
                    continue
                rows = client.read(relation, branch=branch)
                self._c_replica_reads.inc()
                return rows
            except Exception:
                continue
            finally:
                if client is not None:
                    client.close()
        return None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self._drop_client()

    def __enter__(self) -> "FailoverClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"FailoverClient({self.addresses}, epoch={self.epoch}, "
                f"queued={len(self._queue)})")
