"""Encode-once reads: spliced ``RawJSON`` frames and the server's
encoded-rows cache.

Two layers under test.  The codec must splice a pre-encoded top-level
value so that the frame is byte-for-byte the plain key-sorted encoding
of the message it decodes to.  The server must answer every ``read``
with exactly the bytes a fresh encoding of ``[t.as_dict() for t in R]``
gives — on a cache miss, on a hit, at the head, at an older version,
on another branch, on a replica after it syncs — while the cache stays
inside its byte budget and evicts least-recently-used entries first.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.io import FRAME_HEADER, RawJSON, encode_frame, raw_json
from repro.server import ReplicaEngine, StoreClient, StoreServer
from repro.server import server as server_module
from repro.store import SessionService, StoreEngine, WriteAheadLog
from repro.workloads.sessions import manager_stream, serving_state

ROWS = 24
RELATIONS = ("dept", "manager", "office", "person", "worksfor")


def _plain_frame(message: dict) -> bytes:
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return FRAME_HEADER.pack(len(payload)) + payload


def _expected_read(rid, name: str, version) -> bytes:
    """The uncached answer: every row materialised and encoded afresh."""
    rows = [t.as_dict() for t in version.state.R(name)]
    return _plain_frame({"id": rid, "ok": True, "relation": name,
                         "rows": rows, "version": version.vid})


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        assert chunk, "server closed the connection"
        data += chunk
    return data


def _raw_request(sock: socket.socket, message: dict) -> bytes:
    """One request; the response frame exactly as the server sent it."""
    sock.sendall(encode_frame(message))
    header = _recv_exactly(sock, FRAME_HEADER.size)
    (length,) = FRAME_HEADER.unpack(header)
    return header + _recv_exactly(sock, length)


def _counters(server) -> dict:
    snap = server.metrics.snapshot()["counters"]
    return {k: snap.get(f"server.read_cache.{k}", 0)
            for k in ("hits", "misses")}


@pytest.fixture()
def engine():
    schema, db, constraints = serving_state(ROWS)
    return StoreEngine(db, constraints)


def _commit_manager_row(engine, index: int = 0, branch: str = "main"):
    row = manager_stream(ROWS, index + 1)[index]
    session = SessionService(engine).session(branch)
    txn = session.begin()
    txn.insert("manager", row)
    return session.commit(txn), row


# ----------------------------------------------------------------------
# the codec
# ----------------------------------------------------------------------
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=16)


class TestRawJSONSplice:
    @settings(max_examples=300, deadline=None)
    @given(message=st.dictionaries(st.text(max_size=8), JSON_VALUES,
                                   max_size=6),
           data=st.data())
    def test_spliced_frame_equals_plain_encoding(self, message, data):
        """Any subset of top-level values pre-encoded with ``raw_json``
        yields the plain key-sorted encoding, byte for byte."""
        spliced = {key: raw_json(value) if data.draw(
                       st.booleans(), label=f"splice {key!r}") else value
                   for key, value in message.items()}
        expected = _plain_frame(message)
        assert encode_frame(spliced) == expected
        assert encode_frame(message) == expected

    def test_raw_json_is_bytes_of_one_value(self):
        value = {"b": [1, 2.5, None, True], "a": "é世"}
        encoded = raw_json(value)
        assert isinstance(encoded, RawJSON) and isinstance(encoded, bytes)
        assert json.loads(encoded) == value
        assert encoded == b'{"a":"\\u00e9\\u4e16","b":[1,2.5,null,true]}'

    @pytest.mark.parametrize("message", [
        {1: "x"}, {"rows": [raw_json(1)]}], ids=["int-key", "nested-raw"])
    def test_unsplicable_messages_are_refused(self, message):
        with pytest.raises(ProtocolError, match="not JSON-codable"):
            encode_frame(message)


# ----------------------------------------------------------------------
# byte identity of served reads
# ----------------------------------------------------------------------
class TestReadFramesAreByteIdentical:
    def test_every_relation_at_head_old_version_and_branch(self, engine):
        old = engine.head_version("main")
        _commit_manager_row(engine, 0)
        engine.branch("dev", at=old.vid)
        _commit_manager_row(engine, 1, branch="dev")
        with StoreServer(engine) as server:
            sock = socket.create_connection(server.address, timeout=10)
            rid = 0
            for where, version in (
                    ({}, engine.head_version("main")),
                    ({"at": old.vid}, old),
                    ({"branch": "dev"}, engine.head_version("dev"))):
                for name in RELATIONS:
                    for _ in range(2):  # the miss, then the hit
                        rid += 1
                        frame = _raw_request(sock, {
                            "id": rid, "op": "read", "relation": name,
                            **where})
                        assert frame == _expected_read(rid, name, version)
            sock.close()
            # the four untouched relations are one object in all three
            # versions: they and the three ``manager`` relations miss
            # once each
            assert _counters(server) == {"hits": 30 - 7, "misses": 7}

    def test_request_id_is_spliced_around_cached_rows(self, engine):
        with StoreServer(engine) as server:
            sock = socket.create_connection(server.address, timeout=10)
            head = engine.head_version("main")
            for rid in ("a", 7, None, 2.5):
                frame = _raw_request(sock, {"id": rid, "op": "read",
                                            "relation": "dept"})
                assert frame == _expected_read(rid, "dept", head)
            sock.close()


# ----------------------------------------------------------------------
# exactness: the cache never serves stale rows
# ----------------------------------------------------------------------
class TestReadsStayExact:
    def test_read_after_commit_returns_new_rows(self, engine):
        with StoreServer(engine) as server, \
                StoreClient(*server.address) as client:
            before, vid0 = client.read_at("manager")
            version, row = _commit_manager_row(engine, 0)
            after, vid1 = client.read_at("manager")
            assert (vid0, vid1) == (version.parent.vid, version.vid)
            assert row not in before and row in after
            assert after == [t.as_dict() for t in
                             version.state.R("manager")]

    def test_old_version_after_eviction(self, engine, monkeypatch):
        old = engine.head_version("main")
        old_rows = [t.as_dict() for t in old.state.R("manager")]
        version, _ = _commit_manager_row(engine, 0)
        new_rows = [t.as_dict() for t in version.state.R("manager")]
        # room for either manager relation, not for both
        budget = max(len(raw_json(old_rows)), len(raw_json(new_rows)))
        monkeypatch.setattr(server_module, "READ_CACHE_BYTES", budget)
        with StoreServer(engine) as server, \
                StoreClient(*server.address) as client:
            cache = server._rows_cache
            assert client.read("manager", at=old.vid) == old_rows
            assert old.state.R("manager") in cache
            client.read("manager")  # the new head's relation evicts it
            assert old.state.R("manager") not in cache
            assert version.state.R("manager") in cache
            assert client.read("manager", at=old.vid) == old_rows
            assert _counters(server) == {"hits": 0, "misses": 3}

    def test_replica_serves_new_head_after_sync(self, tmp_path):
        schema, db, constraints = serving_state(ROWS)
        wal_dir = tmp_path / "wal"
        engine = StoreEngine(db, constraints,
                             wal=WriteAheadLog(wal_dir))
        replica = ReplicaEngine(wal_dir, from_checkpoint=False)
        replica.catch_up()
        try:
            with StoreServer(replica, sync_interval=0) as mirror, \
                    StoreClient(*mirror.address) as client:
                before, vid0 = client.read_at("manager")
                assert client.read_at("manager") == (before, vid0)
                version, row = _commit_manager_row(engine, 0)
                replica.sync()
                after, vid1 = client.read_at("manager")
                assert vid1 == version.vid != vid0
                assert row in after and row not in before
                assert after == [t.as_dict() for t in
                                 version.state.R("manager")]
                assert _counters(mirror) == {"hits": 1, "misses": 2}
        finally:
            engine.close()


# ----------------------------------------------------------------------
# the byte budget and LRU order
# ----------------------------------------------------------------------
def _sizes(version) -> dict[str, int]:
    return {name: len(raw_json([t.as_dict()
                                for t in version.state.R(name)]))
            for name in RELATIONS}


class TestCacheBound:
    def test_relation_over_budget_is_served_uncached(self, engine,
                                                     monkeypatch):
        head = engine.head_version("main")
        sizes = _sizes(head)
        monkeypatch.setattr(server_module, "READ_CACHE_BYTES",
                            sizes["manager"] - 1)
        with StoreServer(engine) as server:
            sock = socket.create_connection(server.address, timeout=10)
            for rid in range(3):
                frame = _raw_request(sock, {"id": rid, "op": "read",
                                            "relation": "manager"})
                assert frame == _expected_read(rid, "manager", head)
            sock.close()
            cache = server._rows_cache
            assert head.state.R("manager") not in cache
            assert cache.nbytes == 0
            assert _counters(server) == {"hits": 0, "misses": 3}

    def test_bytes_stay_within_budget_and_eviction_is_lru(
            self, engine, monkeypatch):
        head = engine.head_version("main")
        sizes = _sizes(head)
        # room for dept beside person or office, not for all three
        budget = sizes["dept"] + max(sizes["person"], sizes["office"])
        monkeypatch.setattr(server_module, "READ_CACHE_BYTES", budget)
        with StoreServer(engine) as server, \
                StoreClient(*server.address) as client:
            cache = server._rows_cache
            R = head.state.R
            for name in ("dept", "person", "dept", "office"):
                client.read(name)
                assert cache.nbytes <= budget
            # person was least recently used when office arrived
            assert R("person") not in cache
            assert R("dept") in cache and R("office") in cache
            assert cache.nbytes == sizes["dept"] + sizes["office"]
            for name in RELATIONS * 3:
                client.read(name)
                assert 0 < cache.nbytes <= budget
            assert cache.nbytes == sum(
                sizes[n] for n in RELATIONS if R(n) in cache)


# ----------------------------------------------------------------------
# counters in the registry
# ----------------------------------------------------------------------
class TestCacheCounters:
    def test_static_head_misses_once_per_relation(self, engine):
        n = 6
        with StoreServer(engine) as server, \
                StoreClient(*server.address) as client:
            for _ in range(n):
                for name in RELATIONS:
                    client.read(name)
            metrics = client.request("metrics")["metrics"]["counters"]
            status = client.status()["counters"]
        expected = {"hits": len(RELATIONS) * (n - 1),
                    "misses": len(RELATIONS)}
        for counters in (metrics, status):
            assert {k: counters[f"server.read_cache.{k}"]
                    for k in ("hits", "misses")} == expected
