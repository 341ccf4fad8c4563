"""A blocking socket client for the store's wire protocol.

:class:`StoreClient` mirrors the embedded :class:`~repro.store.Session`
API over a TCP connection, with the same exceptions: :meth:`run` sends
one write transaction as one ``commit`` frame, a rejected commit raises
:class:`CommitRejected` with the witness findings the server's axiom
gate produced, a lost optimistic race raises
:class:`TransactionConflict` with the overlapping keys (in their
JSON-flattened wire form).  The client is deliberately simple and
synchronous: tests, benchmarks, and the CLI drive it; concurrency comes
from threads each holding their own client (see
:class:`~repro.server.pool.ClientPool`).
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Iterable

from repro.errors import ProtocolError
from repro.io import FrameDecoder, encode_frame
from repro.server.protocol import PROTOCOL_VERSION, raise_for_error


class StoreClient:
    """One connection to a :class:`~repro.server.StoreServer`.

    Sends the ``hello`` handshake on construction (set ``hello=False``
    to skip, e.g. for protocol tests that speak raw frames).  Methods
    raise the bridged store exceptions on error responses; transport
    problems raise :class:`ProtocolError`.
    """

    def __init__(self, host: str, port: int, branch: str = "main",
                 timeout: float = 30.0, hello: bool = True):
        self.timeout = timeout
        self.sock = socket.create_connection((host, port),
                                             timeout=timeout)
        self._decoder = FrameDecoder()
        self._ids = itertools.count(1)
        self._inbox: list[dict] = []
        self.branch = branch
        self.server_info: dict | None = None
        if hello:
            self.server_info = self.hello(branch)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def send_raw(self, data: bytes) -> None:
        """Ship raw bytes (fuzzing hook — bypasses frame encoding)."""
        self.sock.sendall(data)

    def send_message(self, message: dict) -> None:
        self.sock.sendall(encode_frame(message))

    def recv_message(self) -> dict:
        """The next complete frame from the server."""
        while not self._inbox:
            data = self.sock.recv(65536)
            if not data:
                raise ProtocolError(
                    "server closed the connection" +
                    (" mid-frame" if self._decoder.pending_bytes else ""))
            self._inbox.extend(self._decoder.feed(data))
        return self._inbox.pop(0)

    def request(self, op: str, **fields: Any) -> dict:
        """One round trip: send ``op``, await its response (matched by
        id), raise the bridged exception on an error response."""
        rid = next(self._ids)
        self.send_message({"id": rid, "op": op, **fields})
        response = self.recv_message()
        if not response.get("ok") and response.get("id") is None:
            # server-initiated error (overloaded, fatal bad frame)
            raise_for_error(response.get("error", {}))
        if response.get("id") != rid:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {rid!r}")
        if not response.get("ok"):
            raise_for_error(response.get("error", {}))
        return response

    @property
    def role(self) -> str | None:
        """The server's self-reported role from the ``hello`` handshake
        (``"primary"`` / ``"replica"``; ``None`` without a hello)."""
        return (self.server_info or {}).get("role")

    @property
    def server_epoch(self) -> int:
        """The promotion epoch the server reported at ``hello`` (0
        without a hello — epoch 0 is also the pre-failover epoch)."""
        return int((self.server_info or {}).get("epoch", 0))

    def is_stale(self) -> bool:
        """True when the connection is unusable without a round trip.

        A non-blocking one-byte ``MSG_PEEK``: a clean EOF or an error
        means the peer is gone; *readable data* outside a request also
        means stale (responses must only ever arrive inside
        :meth:`request`, so stray bytes are a desynchronised stream);
        ``BlockingIOError`` — nothing to read — is the healthy case.
        The pool consults this before handing out an idle client.
        """
        if self.sock.fileno() < 0:
            return True
        try:
            self.sock.setblocking(False)
            try:
                self.sock.recv(1, socket.MSG_PEEK)
            finally:
                self.sock.settimeout(self.timeout)
            return True  # EOF (b"") or unsolicited bytes: both stale
        except (BlockingIOError, InterruptedError):
            return False
        except OSError:
            return True

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "StoreClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the session mirror
    # ------------------------------------------------------------------
    def hello(self, branch: str = "main") -> dict:
        info = self.request("hello", branch=branch)
        if info.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server speaks protocol {info.get('protocol')!r}; this "
                f"client speaks protocol {PROTOCOL_VERSION}")
        self.branch = branch
        return info

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def status(self) -> dict:
        response = self.request("status")
        return {k: v for k, v in response.items()
                if k not in ("id", "ok")}

    def metrics(self, traces: int = 0) -> dict:
        """The server's observability snapshot: ``metrics``
        (counters/gauges/histogram summaries), ``slow_commits``, and —
        with ``traces=N`` — the N slowest recent ``traces``."""
        fields: dict[str, Any] = {}
        if traces:
            fields["traces"] = traces
        response = self.request("metrics", **fields)
        return {k: v for k, v in response.items()
                if k not in ("id", "ok")}

    def read(self, relation: str, at: str | None = None,
             branch: str | None = None) -> list[dict]:
        fields: dict[str, Any] = {"relation": relation}
        if at is not None:
            fields["at"] = at
        if branch is not None:
            fields["branch"] = branch
        return self.request("read", **fields)["rows"]

    def read_at(self, relation: str, at: str | None = None,
                branch: str | None = None) -> tuple[list[dict], str]:
        """Rows plus the version id they were served at."""
        fields: dict[str, Any] = {"relation": relation}
        if at is not None:
            fields["at"] = at
        if branch is not None:
            fields["branch"] = branch
        response = self.request("read", **fields)
        return response["rows"], response["version"]

    def create_branch(self, name: str, at: str | None = None,
                      from_branch: str | None = None) -> dict:
        fields: dict[str, Any] = {"name": name}
        if at is not None:
            fields["at"] = at
        if from_branch is not None:
            fields["from_branch"] = from_branch
        response = self.request("branch", **fields)
        return {"branch": response["branch"], "at": response["at"]}

    def run(self, ops: Iterable[dict]) -> dict:
        """Commit ``ops`` (WAL-form op records) as one transaction at
        the head of the connection's branch: one ``commit`` round
        trip."""
        response = self.request("commit", ops=list(ops))
        return {"version": response["version"],
                "parent": response["parent"],
                "branch": response["branch"]}
