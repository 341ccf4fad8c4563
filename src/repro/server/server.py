"""The asyncio network front end over a store engine (or a replica).

One :class:`StoreServer` owns one listening socket and one engine.  A
connection is a sequence of length-prefixed JSON frames (see
:mod:`repro.io` for the bytes and :mod:`repro.server.protocol` for the
messages); each connection gets its own :class:`~repro.store.Session`,
and the same exceptions an embedded caller sees come back as typed
error payloads.  A write transaction is one ``commit`` frame carrying
its ops: the server begins at the branch head, buffers the records and
commits through :meth:`Session.commit`'s retry loop in one executor
call, so the server holds no transaction state between frames.

Robustness posture:

* A frame that *delimits* but does not *parse* (bad JSON, non-object
  payload, unknown op) costs exactly one ``bad-frame``/
  ``protocol-error`` response; the connection — and the accept loop —
  live on.  The fuzz sweep in ``tests/test_server_protocol.py`` holds
  the server to that.
* A frame whose declared length exceeds the cap is *fatal* for that
  connection (the stream offset can no longer be trusted) but for that
  connection only.
* The connection pool is bounded: over-capacity connections receive one
  ``overloaded`` error frame and are closed before any session state is
  allocated.
* Commits run on executor threads behind a bounded semaphore — when the
  commit queue is at depth, further writers *wait* (backpressure)
  rather than stacking unbounded blocking work.
* A disconnect mid-commit closes the session, which flips the closed
  flag the :meth:`Session.commit` retry loop observes — in-flight
  conflicts surface instead of retrying into a dead connection.

A server constructed over a :class:`~repro.server.replica.ReplicaEngine`
is read-only: write ops answer ``read-only``, reads are served from the
replica's graph, and a background task keeps :meth:`ReplicaEngine.sync`
ticking so staleness stays bounded while the primary writes.

Reads are encoded once.  A version's state never changes, and neither
does any :class:`~repro.relational.relation.Relation` in it: a commit
builds a new state that shares every relation it did not touch with its
parent, by identity.  So the ``rows`` JSON of one relation object is the
same bytes every time it is served, at the head, at an older version or
on another branch.  The server keeps those bytes in a small LRU keyed by
the relation's ``id``; each entry holds the relation itself, so the id
cannot be reused while the entry lives, and a cached answer can never be
stale — no invalidation on commit, sync or gc is needed (an entry does
keep its relation alive until it is evicted).  The bytes go
into the response as :class:`~repro.io.RawJSON`, and the frame is
byte-identical to encoding the rows afresh.  The cache's byte budget is
:data:`READ_CACHE_BYTES`; a relation whose rows exceed it is encoded on
every read.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import OrderedDict
from typing import Any

from repro.errors import EpochFenced, ProtocolError, StoreError
from repro.io import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    RawJSON,
    encode_frame,
    raw_json,
)
from repro.kernel.batch import sweep_counts
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.relational.relation import Relation
from repro.server import protocol
from repro.server.replica import ReplicaEngine
from repro.store.engine import StoreEngine
from repro.store.session import Session, SessionService


#: Byte budget of a server's encoded-rows cache.  ``serving_state(1000)``
#: encodes its five relations in 19-47 KB each, so the budget holds the
#: head of such a store several versions deep.
READ_CACHE_BYTES = 1 << 20


class _RowsCache:
    """LRU of encoded ``rows`` JSON, one entry per relation object,
    bounded by total bytes (see the module docstring for why it is
    exact).  Only the event-loop thread touches it."""

    __slots__ = ("budget", "nbytes", "_entries", "_hits", "_misses")

    def __init__(self, budget: int, metrics: MetricsRegistry):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict[int, tuple[Relation, RawJSON]] = \
            OrderedDict()
        self._hits = metrics.counter("server.read_cache.hits")
        self._misses = metrics.counter("server.read_cache.misses")

    def __contains__(self, relation: Relation) -> bool:
        return id(relation) in self._entries

    def rows(self, relation: Relation) -> RawJSON:
        """The relation's rows, in iteration order, as frame-ready JSON."""
        key = id(relation)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._hits.inc()
            return entry[1]
        self._misses.inc()
        encoded = raw_json([t.as_dict() for t in relation])
        if len(encoded) <= self.budget:
            self._entries[key] = (relation, encoded)
            self.nbytes += len(encoded)
            while self.nbytes > self.budget:
                _, (_, old) = self._entries.popitem(last=False)
                self.nbytes -= len(old)
        return encoded


class _Connection:
    """Per-connection state: the bound branch and its session."""

    __slots__ = ("branch", "session")

    def __init__(self) -> None:
        self.branch = "main"
        self.session: Session | None = None


class StoreServer:
    """Serve one engine over a listening socket.

    Parameters
    ----------
    engine:
        A :class:`StoreEngine` (primary — read/write) or a
        :class:`ReplicaEngine` (read-only; a background task keeps it
        synced every ``sync_interval`` seconds).
    host, port:
        Bind address; ``port=0`` picks a free port, readable from
        :attr:`address` after start.
    max_connections:
        Bound on simultaneously served connections; excess connections
        get one ``overloaded`` error frame and are closed.
    max_inflight_commits:
        Bound on commits running on executor threads at once — the
        write-backpressure knob.  Further commit requests queue on the
        semaphore (their connections simply wait; nothing is dropped).
    idle_timeout:
        Seconds a connection may sit between frames before the server
        closes it (``None``, the default, never does) — abandoned
        connections otherwise pin the bounded connection cap forever.
    cluster:
        An optional health view — anything with a ``gossip() -> dict``
        (a :class:`~repro.server.cluster.HealthMonitor`); when set,
        ``status`` responses carry it as their ``cluster`` field, so
        any client can ask one node what it believes about the others.
    metrics, tracer:
        The observability pair the ``metrics`` op serves.  By default
        the server builds its own :class:`MetricsRegistry` and
        :class:`Tracer` and attaches them to the engine
        (``attach_observability``), so a plain ``serve --listen``
        already records commit-phase histograms; pass shared instances
        to aggregate several servers into one registry.  The server's
        own counters (``server.*``) live only in the registry.
    slow_commit_threshold:
        Seconds past which a commit lands in the engine's structured
        slow-commit log (default 0.1; ``None`` disables the log).
    """

    def __init__(self, engine: StoreEngine | ReplicaEngine,
                 host: str = "127.0.0.1", port: int = 0,
                 max_connections: int = 64,
                 max_inflight_commits: int = 8,
                 sync_interval: float = 0.02,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 idle_timeout: float | None = None,
                 cluster: Any = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 slow_commit_threshold: float | None = 0.1):
        self.engine = engine
        self.cluster = cluster
        self.read_only = isinstance(engine, ReplicaEngine)
        self.service = None if self.read_only else SessionService(engine)
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_inflight_commits = max_inflight_commits
        self.sync_interval = sync_interval
        self.max_frame_bytes = max_frame_bytes
        if idle_timeout is not None and idle_timeout <= 0:
            raise StoreError(
                f"idle_timeout must be positive (or None), "
                f"got {idle_timeout}")
        self.idle_timeout = idle_timeout
        self.address: tuple[str, int] | None = None
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._commit_slots: asyncio.Semaphore | None = None
        self._sync_task: asyncio.Task | None = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None \
            else Tracer(clock=self.metrics.clock)
        engine.attach_observability(
            self.metrics, self.tracer,
            slow_commit_threshold=slow_commit_threshold)
        m = self.metrics
        self._g_connections = m.gauge("server.connections")
        self._g_inflight = m.gauge("server.inflight_commits")
        self._c_commits = m.counter("server.commits")
        self._c_rejected_overloaded = m.counter("server.rejected_overloaded")
        self._c_frames_served = m.counter("server.frames_served")
        self._c_bad_frames = m.counter("server.bad_frames")
        self._c_idle_closed = m.counter("server.idle_closed")
        self._rows_cache = _RowsCache(READ_CACHE_BYTES, m)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._commit_slots = asyncio.Semaphore(self.max_inflight_commits)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        if self.read_only and self.sync_interval:
            self._sync_task = self._loop.create_task(self._sync_forever())

    async def _stop(self) -> None:
        if self._sync_task is not None:
            self._sync_task.cancel()
            try:
                await self._sync_task
            except asyncio.CancelledError:
                pass
            self._sync_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        handlers = [t for t in asyncio.all_tasks()
                    if t is not asyncio.current_task()]
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        if self.service is not None:
            self.service.close_all()

    async def serve_forever(self) -> None:
        """Run in the caller's event loop until cancelled (CLI mode)."""
        await self._start()
        try:
            await self._server.serve_forever()
        finally:
            await self._stop()

    def start_background(self) -> tuple[str, int]:
        """Run the server on a dedicated daemon thread; returns the
        bound ``(host, port)`` once accepting."""
        if self._thread is not None:
            raise StoreError("server already started")

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                try:
                    loop.run_until_complete(self._start())
                except BaseException as exc:  # bind failures etc.
                    self._startup_error = exc
                    return
                finally:
                    self._started.set()
                loop.run_forever()
                loop.run_until_complete(self._stop())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-store-server", daemon=True)
        self._thread.start()
        self._started.wait(10.0)
        if self._startup_error is not None:
            self._thread.join(1.0)
            self._thread = None
            raise self._startup_error
        if self.address is None:
            raise StoreError("server failed to start within 10s")
        return self.address

    def stop(self) -> None:
        """Stop a background server: close the listener, cancel the
        sync task, close every session, join the thread."""
        if self._thread is None:
            return
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        self._thread.join(10.0)
        self._thread = None
        self._started.clear()
        self.address = None

    def __enter__(self) -> "StoreServer":
        self.start_background()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # replica upkeep
    # ------------------------------------------------------------------
    async def _sync_forever(self) -> None:
        assert isinstance(self.engine, ReplicaEngine)
        while True:
            try:
                await self._loop.run_in_executor(None, self.engine.sync)
            except EpochFenced:
                # Promoted out from under the server (or pinned to a
                # demoted epoch): the replica will never tail again —
                # keep serving its graph, stop burning the poll.
                return
            except StoreError:
                # Tail pruned out from under the cursor — re-bootstrap
                # from the newest checkpoint and keep following.
                try:
                    await self._loop.run_in_executor(
                        None, self.engine.resync)
                except StoreError:
                    pass  # primary mid-rotation; next tick retries
            await asyncio.sleep(self.sync_interval)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if self._g_connections.value >= self.max_connections:
            self._c_rejected_overloaded.inc()
            await self._send(writer, protocol.error_response(
                None, "overloaded",
                f"server at capacity ({self.max_connections} connections)",
                fatal=True))
            writer.close()
            return
        self._g_connections.inc()
        conn = _Connection()
        try:
            while True:
                try:
                    if self.idle_timeout is not None:
                        message = await asyncio.wait_for(
                            self._read_frame(reader), self.idle_timeout)
                    else:
                        message = await self._read_frame(reader)
                except asyncio.IncompleteReadError:
                    break  # client went away (possibly mid-frame)
                except asyncio.TimeoutError:
                    self._c_idle_closed.inc()
                    break  # idle past the bound: free the slot
                except ProtocolError as exc:
                    fatal = getattr(exc, "fatal", False)
                    self._c_bad_frames.inc()
                    await self._send(writer, protocol.error_response(
                        None, "bad-frame", str(exc), fatal=fatal))
                    if fatal:
                        break
                    continue
                response = await self._dispatch(conn, message)
                self._c_frames_served.inc()
                await self._send(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._g_connections.dec()
            if conn.session is not None:
                try:
                    conn.session.close()
                except StoreError:
                    pass
            writer.close()

    async def _read_frame(self, reader: asyncio.StreamReader) -> dict:
        header = await reader.readexactly(FRAME_HEADER.size)
        (length,) = FRAME_HEADER.unpack(header)
        if length > self.max_frame_bytes:
            exc = ProtocolError(
                f"declared frame length {length} exceeds the "
                f"{self.max_frame_bytes}-byte cap")
            exc.fatal = True  # stream offset no longer trustworthy
            raise exc
        payload = await reader.readexactly(length)
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as bad:
            raise ProtocolError(f"frame payload is not JSON: {bad}") \
                from bad
        if not isinstance(message, dict):
            raise ProtocolError(
                f"frame payload must be a JSON object, got "
                f"{type(message).__name__}")
        return message

    async def _send(self, writer: asyncio.StreamWriter,
                    message: dict) -> None:
        writer.write(encode_frame(message))
        await writer.drain()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, conn: _Connection, message: dict) -> dict:
        try:
            rid, op = protocol.validate_request(message)
        except ProtocolError as exc:
            self._c_bad_frames.inc()
            return {"id": message.get("id") if not isinstance(
                        message.get("id"), (dict, list)) else None,
                    "ok": False, "error": protocol.error_payload(exc)}
        if self.read_only and op in protocol.WRITE_OPS:
            return protocol.error_response(
                rid, "read-only", f"{op!r} is not served by a read-only "
                "replica; connect to the primary")
        # Dispatch tracing is explicit timestamps, not a span context
        # manager: the handler awaits, and a span held across an await
        # would adopt concurrent dispatches as children.
        tracer = self.tracer
        start = tracer.clock() if tracer.enabled else 0.0
        self.metrics.counter(f"server.ops.{op}").inc()
        try:
            handler = getattr(self, f"_op_{op}")
            response = await handler(conn, rid, message)
        except Exception as exc:  # typed errors -> typed payloads
            response = {"id": rid, "ok": False,
                        "error": protocol.error_payload(exc)}
        if tracer.enabled:
            end = tracer.clock()
            tracer.record({
                "name": "server.dispatch", "start": start, "end": end,
                "duration": end - start,
                "tags": {"op": op, "ok": bool(response.get("ok"))},
                "spans": [],
            })
        return response

    @property
    def _store(self) -> StoreEngine:
        """The graph-bearing engine (the replica's inner one when
        read-only)."""
        if self.read_only:
            return self.engine.engine  # raises StoreError until ready
        return self.engine

    async def _op_hello(self, conn, rid, message) -> dict:
        branch = message.get("branch", "main")
        if not isinstance(branch, str):
            raise ProtocolError("'branch' must be a string")
        store = self._store
        store.head_version(branch)  # fail fast on unknown branches
        conn.branch = branch
        if conn.session is not None:
            conn.session.close()
            conn.session = None
        summary = store.describe()
        return protocol.ok_response(
            rid, protocol=protocol.PROTOCOL_VERSION,
            role="replica" if self.read_only else "primary",
            epoch=summary.get("epoch", 0),
            branch=branch, branches=summary["branches"],
            relations=summary["relations"])

    async def _op_ping(self, conn, rid, message) -> dict:
        return protocol.ok_response(rid, pong=True)

    def _status_counters(self) -> dict:
        """The registry's counters and gauges as one flat name->number
        map — the ``counters`` section of the status schema."""
        snap = self.metrics.snapshot()
        counters = dict(snap["counters"])
        counters.update(snap["gauges"])
        return counters

    async def _op_status(self, conn, rid, message) -> dict:
        gossip = ({} if self.cluster is None
                  else {"cluster": self.cluster.gossip()})
        if self.read_only:
            body = self.engine.status()
            counters = dict(body.get("counters", {}))
            counters.update(self._status_counters())
            body["counters"] = counters
            return protocol.ok_response(rid, **body, **gossip)
        summary = self.engine.describe()
        return protocol.ok_response(rid, **gossip, **protocol.status_payload(
            role="primary",
            epoch=summary.get("epoch", 0),
            ready=True,
            counters=self._status_counters(),
            connections=int(self._g_connections.value),
            max_connections=self.max_connections,
            inflight_commits=int(self._g_inflight.value),
            max_inflight_commits=self.max_inflight_commits,
            commits=self._c_commits.value,
            frames_served=self._c_frames_served.value,
            bad_frames=self._c_bad_frames.value,
            rejected_overloaded=self._c_rejected_overloaded.value,
            idle_closed=self._c_idle_closed.value,
            live_sessions=len(self.service.live_sessions()),
            seq=summary["seq"], versions=summary["versions"],
            branches=summary["branches"]))

    async def _op_metrics(self, conn, rid, message) -> dict:
        traces = message.get("traces", 0)
        if isinstance(traces, bool) or not isinstance(traces, int) \
                or traces < 0:
            raise ProtocolError("'traces' must be a non-negative integer")
        snapshot = self.metrics.snapshot()
        # The kernel cannot hold a registry (it never imports upward);
        # its process-wide sweep counters are sampled in at read time.
        snapshot["counters"].update(
            {f"kernel.sweep.{k}": v for k, v in sweep_counts().items()})
        payload: dict[str, Any] = {
            "metrics": snapshot,
            "slow_commits": list(getattr(self.engine,
                                         "slow_commits", ()) or ()),
        }
        if traces:
            payload["traces"] = self.tracer.slowest(traces)
        return protocol.ok_response(rid, **payload)

    def _session(self, conn: _Connection) -> Session:
        if conn.session is None:
            conn.session = self.service.session(conn.branch)
        return conn.session

    async def _op_commit(self, conn, rid, message) -> dict:
        ops = message.get("ops")
        if not isinstance(ops, list):
            raise ProtocolError("'ops' must be a list of op records")
        session = self._session(conn)
        async with self._commit_slots:  # write backpressure
            self._g_inflight.inc()
            try:
                # Begin at the head, buffer, commit: a malformed record
                # raises before anything is committed.
                version = await self._loop.run_in_executor(
                    None, lambda: session.commit(
                        session.begin().apply_records(ops)))
            finally:
                self._g_inflight.dec()
        self._c_commits.inc()
        parent = version.parent.vid if version.parent is not None else None
        return protocol.ok_response(rid, version=version.vid,
                                    parent=parent, branch=version.branch)

    async def _op_read(self, conn, rid, message) -> dict:
        relation = message.get("relation")
        if not isinstance(relation, str):
            raise ProtocolError("'relation' must be a string")
        branch = message.get("branch", conn.branch)
        if not isinstance(branch, str):
            raise ProtocolError("'branch' must be a string")
        at = message.get("at")
        if at is not None and not isinstance(at, str):
            raise ProtocolError("'at' must be a version id string")
        store = self._store
        version = store.graph.get(at) if at is not None \
            else store.head_version(branch)
        rows = self._rows_cache.rows(version.state.R(relation))
        return protocol.ok_response(rid, relation=relation, rows=rows,
                                    version=version.vid)

    async def _op_branch(self, conn, rid, message) -> dict:
        name = message.get("name")
        if not isinstance(name, str):
            raise ProtocolError("'name' must be a branch name string")
        at = message.get("at")
        if at is not None and not isinstance(at, str):
            raise ProtocolError("'at' must be a version id string")
        from_branch = message.get("from_branch", conn.branch)
        if not isinstance(from_branch, str):
            raise ProtocolError("'from_branch' must be a branch name string")
        version = await self._loop.run_in_executor(
            None, self.engine.branch, name, at, from_branch)
        return protocol.ok_response(rid, branch=name, at=version.vid)
