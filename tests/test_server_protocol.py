"""Wire-protocol tests: frame codec round trips and a malformed-frame
fuzz sweep against a live server.

Two layers under test.  The sans-IO layer (``repro.io.encode_frame`` /
``FrameDecoder``) must round-trip every JSON object message regardless
of how the byte stream is chunked, and must classify bad input: a
payload that *delimits* but does not *parse* costs an error and nothing
else, while an oversized declared length desynchronises the stream and
poisons the decoder.  The live layer (``StoreServer``) must keep that
classification under fire: the fuzz sweep throws hundreds of malformed
frames — truncated length prefixes, truncated payloads, oversized
declarations, invalid JSON, non-object payloads, unknown ops — and the
accept loop must survive every one of them, with recoverable cases
answered by a typed error on the *same* connection.
"""

from __future__ import annotations

import json
import random
import socket
import struct

import pytest

from repro.errors import (
    CommitRejected,
    ExtensionError,
    ProtocolError,
    StoreError,
    TransactionConflict,
)
from repro.io import FRAME_HEADER, encode_frame, FrameDecoder
from repro.server import ReplicaEngine, StoreClient, StoreServer, protocol
from repro.server.protocol import (
    PROTOCOL_VERSION,
    WRITE_OPS,
    error_payload,
    ok_response,
    raise_for_error,
    validate_request,
)
from repro.store import SessionService, StoreEngine, WriteAheadLog
from repro.workloads.sessions import manager_stream, serving_state

from generators import random_frame_message, random_json_value

SEEDS = range(40)
MESSAGES_PER_SEED = 5  # 40 x 5 = 200 seeded round-trip cases


# ----------------------------------------------------------------------
# sans-IO codec
# ----------------------------------------------------------------------
class TestFrameRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_messages_survive_arbitrary_chunking(self, seed):
        """Encode a batch of random messages, replay the byte stream in
        random-sized dribbles, and require the exact messages back in
        order — the core framing property."""
        rng = random.Random(1000 + seed)
        messages = [random_frame_message(rng)
                    for _ in range(MESSAGES_PER_SEED)]
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        decoded = []
        i = 0
        while i < len(stream):
            step = rng.randint(1, 17)
            decoded.extend(decoder.feed(stream[i:i + step]))
            i += step
        assert decoded == messages
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_value_payload_fidelity(self, seed):
        """Every JSON value shape survives inside a message field."""
        rng = random.Random(2000 + seed)
        message = {"value": random_json_value(rng)}
        decoder = FrameDecoder()
        (out,) = decoder.feed(encode_frame(message))
        assert out == message

    def test_header_is_big_endian_length(self):
        frame = encode_frame({"a": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert json.loads(frame[4:]) == {"a": 1}

    def test_encode_rejects_non_dict(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            encode_frame([1, 2, 3])

    def test_encode_rejects_unencodable(self):
        with pytest.raises(ProtocolError):
            encode_frame({"x": object()})

    def test_encode_rejects_oversize(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"x": "y" * 64}, max_bytes=32)


class TestFrameDecoderErrors:
    def test_bad_json_payload_raises_but_decoder_survives(self):
        decoder = FrameDecoder()
        bad = b"{nope"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decoder.feed(FRAME_HEADER.pack(len(bad)) + bad)
        (out,) = decoder.feed(encode_frame({"ok": 1}))
        assert out == {"ok": 1}

    def test_non_object_payload_raises_but_decoder_survives(self):
        decoder = FrameDecoder()
        payload = b"[1, 2]"
        with pytest.raises(ProtocolError, match="JSON object"):
            decoder.feed(FRAME_HEADER.pack(len(payload)) + payload)
        assert decoder.feed(encode_frame({"ok": 2})) == [{"ok": 2}]

    def test_messages_before_a_bad_frame_are_not_lost(self):
        """A chunk carrying [good, bad] raises on the bad frame but the
        good message is delivered by the next feed call."""
        decoder = FrameDecoder()
        bad = b"!!!"
        chunk = encode_frame({"first": True}) + \
            FRAME_HEADER.pack(len(bad)) + bad
        with pytest.raises(ProtocolError):
            decoder.feed(chunk)
        assert decoder.feed() == [{"first": True}]

    def test_oversize_declaration_poisons_the_decoder(self):
        decoder = FrameDecoder(max_bytes=64)
        with pytest.raises(ProtocolError, match="frame limit"):
            decoder.feed(FRAME_HEADER.pack(1 << 20))
        # ... and permanently: the stream offset is untrustworthy.
        with pytest.raises(ProtocolError, match="desynchronised"):
            decoder.feed(encode_frame({"ok": 1}))

    def test_pending_bytes_tracks_partial_frames(self):
        decoder = FrameDecoder()
        frame = encode_frame({"k": "v"})
        decoder.feed(frame[:5])
        assert decoder.pending_bytes == 5
        decoder.feed(frame[5:])
        assert decoder.pending_bytes == 0


# ----------------------------------------------------------------------
# the exception bridge
# ----------------------------------------------------------------------
class TestErrorBridge:
    def test_commit_rejected_round_trips_findings(self):
        findings = ({"check": "containment", "relation": "worksfor",
                     "witnesses": [{"pname": 1}]},)
        exc = CommitRejected("violated", findings)
        payload = error_payload(exc)
        assert payload["code"] == "commit-rejected"
        with pytest.raises(CommitRejected) as caught:
            raise_for_error(payload)
        assert caught.value.findings == findings

    def test_conflict_round_trips_keys(self):
        exc = TransactionConflict(
            "lost the race",
            keys=(("manager", frozenset({"pname"}), "row"),))
        payload = error_payload(exc)
        assert payload["code"] == "conflict"
        with pytest.raises(TransactionConflict) as caught:
            raise_for_error(payload)
        assert caught.value.keys == (("manager", ["pname"], "'row'"),)

    @pytest.mark.parametrize("exc, code", [
        (StoreError("gone"), "store-error"),
        (ExtensionError("bad tuple"), "extension-error"),
        (ProtocolError("bad frame"), "protocol-error"),
        (ValueError("anything else"), "store-error"),
    ])
    def test_code_mapping(self, exc, code):
        payload = error_payload(exc)
        assert payload["code"] == code
        with pytest.raises(Exception):
            raise_for_error(payload)

    def test_validate_request(self):
        assert validate_request({"op": "ping", "id": 7}) == (7, "ping")
        assert validate_request({"op": "ping"}) == (None, "ping")
        with pytest.raises(ProtocolError, match="no 'op'"):
            validate_request({"id": 1})
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "frobnicate"})
        with pytest.raises(ProtocolError, match="scalar"):
            validate_request({"op": "ping", "id": {"a": 1}})

    def test_ok_response_echoes_id(self):
        assert ok_response("r1", pong=True) == \
            {"id": "r1", "ok": True, "pong": True}


# ----------------------------------------------------------------------
# a live server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    schema, db, constraints = serving_state(10)
    engine = StoreEngine(db, constraints)
    with StoreServer(engine, max_frame_bytes=1 << 16) as srv:
        yield srv


@pytest.fixture()
def client(server):
    c = StoreClient(*server.address)
    yield c
    c.close()


class TestServerOps:
    def test_hello_describes_the_store(self, client):
        info = client.server_info
        assert info["role"] == "primary"
        assert info["relations"] == [
            "dept", "manager", "office", "person", "worksfor"]
        assert "main" in info["branches"]

    def test_hello_unknown_branch_errors(self, server):
        with StoreClient(*server.address, hello=False) as c:
            with pytest.raises(StoreError, match="branch"):
                c.hello("nonesuch")
            assert c.ping()  # connection survives the refusal

    def test_ping(self, client):
        assert client.ping() is True

    def test_commit_then_read_at_the_acked_version(self, client):
        row = manager_stream(10, 1)[0]
        result = client.run([{"op": "insert", "relation": "manager",
                              "row": row, "propagate": True}])
        assert result["branch"] == "main"
        rows, vid = client.read_at("manager", at=result["version"])
        assert row in rows and vid == result["version"]

    def test_commit_rejection_carries_findings(self, client):
        with pytest.raises(CommitRejected) as caught:
            client.run([{"op": "insert", "relation": "worksfor",
                         "row": {"pname": 9, "dname": 8, "budget": 50,
                                 "role": 1},
                         "propagate": False}])
        assert caught.value.findings  # witness findings crossed the wire
        assert any("witnesses" in f for f in caught.value.findings)

    def test_empty_commit_returns_the_head(self, client):
        head = client.status()["branches"]["main"]
        result = client.run([])
        assert result["version"] == head and result["branch"] == "main"
        assert client.status()["branches"]["main"] == head

    def test_malformed_record_fails_the_whole_commit(self, tmp_path):
        """One bad record sinks the frame: the valid record before it is
        not installed, nothing reaches the WAL, the connection serves."""
        schema, db, constraints = serving_state(10)
        wal = tmp_path / "w.jsonl"
        engine = StoreEngine(db, constraints, wal=WriteAheadLog(wal))
        row = manager_stream(10, 2)[1]
        with StoreServer(engine) as srv, StoreClient(*srv.address) as c:
            head = c.status()["branches"]["main"]
            wal_bytes = wal.stat().st_size
            with pytest.raises((StoreError, ExtensionError)):
                c.run([{"op": "insert", "relation": "manager",
                        "row": row},
                       {"op": "insert", "relation": "manager",
                        "row": {"pname": row["pname"]}}])  # wrong schema
            assert c.status()["branches"]["main"] == head
            assert wal.stat().st_size == wal_bytes
            assert row not in c.read("manager")
            assert c.ping()
        engine.close()

    def test_read_unknown_relation_errors_cleanly(self, client):
        with pytest.raises((StoreError, ExtensionError)):
            client.read("nonesuch")
        assert client.ping()

    def test_read_unknown_version_errors_cleanly(self, client):
        with pytest.raises(StoreError, match="unknown version"):
            client.read("dept", at="v9999")
        assert client.ping()

    def test_branch_and_read_at_branch(self, client):
        head = client.status()["branches"]["main"]
        out = client.create_branch("proto-dev")
        assert out == {"branch": "proto-dev", "at": head}
        assert client.read("dept", branch="proto-dev") == \
            client.read("dept", at=head)

    @pytest.mark.parametrize("message", [
        {"op": "read", "relation": "dept", "branch": ["x"]},
        {"op": "read", "relation": "dept", "branch": 3},
        {"op": "branch", "name": "proto-bad", "from_branch": ["x"]},
        {"op": "branch", "name": "proto-bad", "at": ["v0"]},
    ], ids=["read-branch-list", "read-branch-int",
            "branch-from-list", "branch-at-list"])
    def test_non_string_names_answer_protocol_error(self, server,
                                                    message):
        """Malformed branch/version names are the client's protocol
        error, not an internal TypeError surfacing as a store error."""
        with StoreClient(*server.address) as c:
            c.send_message({"id": 1, **message})
            response = c.recv_message()
            assert response["ok"] is False
            assert response["error"]["code"] == "protocol-error"
            assert "TypeError" not in response["error"]["message"]
            assert "proto-bad" not in c.status()["branches"]

    def test_status_gauges(self, client):
        status = client.status()
        assert status["role"] == "primary"
        assert status["connections"] >= 1
        assert status["max_inflight_commits"] >= 1

    def test_request_id_is_echoed_verbatim(self, server):
        with StoreClient(*server.address, hello=False) as c:
            for rid in ("abc", 0, None, 3.5):
                c.send_message({"id": rid, "op": "ping"})
                response = c.recv_message()
                assert response["id"] == rid and response["ok"]

    def test_hello_refuses_another_protocol_version(self, server,
                                                    monkeypatch):
        monkeypatch.setattr(protocol, "PROTOCOL_VERSION",
                            PROTOCOL_VERSION + 1)
        with StoreClient(*server.address, hello=False) as c:
            with pytest.raises(ProtocolError) as caught:
                c.hello()
        message = str(caught.value)
        assert f"protocol {PROTOCOL_VERSION + 1}" in message
        assert f"protocol {PROTOCOL_VERSION}" in message

    def test_pipelined_requests_answer_in_order(self, server):
        with StoreClient(*server.address, hello=False) as c:
            for rid in range(5):
                c.send_message({"id": rid, "op": "ping"})
            for rid in range(5):
                assert c.recv_message()["id"] == rid


class TestReadOnlyReplica:
    def test_replica_answers_read_only_to_every_write_op(self, tmp_path):
        wal = tmp_path / "w.jsonl"
        schema, db, constraints = serving_state(10)
        primary = StoreEngine(db, constraints, wal=WriteAheadLog(wal))
        rows = manager_stream(10, 2)
        SessionService(primary).session().commit(
            primary.begin().insert("manager", rows[0]))
        replica = ReplicaEngine(wal)
        replica.sync()
        graph = replica.engine.graph
        before = (len(graph), graph.branches())
        writes = {
            "commit": {"ops": [{"op": "insert", "relation": "manager",
                                "row": rows[1]}]},
            "branch": {"name": "replica-dev"},
        }
        assert set(writes) == WRITE_OPS
        with StoreServer(replica, sync_interval=0) as srv, \
                StoreClient(*srv.address) as c:
            for op, fields in writes.items():
                c.send_message({"id": op, "op": op, **fields})
                response = c.recv_message()
                assert response["id"] == op and response["ok"] is False
                assert response["error"]["code"] == "read-only"
            with pytest.raises(StoreError, match="^read-only replica: "):
                c.run(writes["commit"]["ops"])
            with pytest.raises(StoreError, match="^read-only replica: "):
                c.create_branch("replica-dev")
            assert c.ping()
        assert (len(graph), graph.branches()) == before
        primary.close()


class TestConnectionBounds:
    def test_over_capacity_connection_is_refused(self):
        schema, db, constraints = serving_state(6)
        with StoreServer(StoreEngine(db, constraints),
                         max_connections=2) as srv:
            a = StoreClient(*srv.address)
            b = StoreClient(*srv.address)
            with StoreClient(*srv.address, hello=False) as c:
                response = c.recv_message()
                assert not response["ok"]
                assert response["error"]["code"] == "overloaded"
            a.close()
            # capacity freed: the next connection is served
            for _ in range(100):
                try:
                    d = StoreClient(*srv.address)
                    break
                except (StoreError, ProtocolError):
                    continue
            assert d.ping()
            d.close()
            b.close()


# ----------------------------------------------------------------------
# the malformed-frame fuzz sweep
# ----------------------------------------------------------------------
FUZZ_CASES = 240

#: Categories that end the connection (by design or by the client
#: hanging up mid-frame); everything else must be answered by a typed
#: error on the same connection.
FATAL = {"truncated-header", "truncated-payload", "oversize"}
CATEGORIES = tuple(FATAL) + (
    "bad-json", "bad-utf8", "non-object", "missing-op", "unknown-op",
    "bad-id", "bad-field-types")


def _raw_conn(server) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=10.0)
    return sock


def _fuzz_bytes(rng: random.Random, category: str,
                max_frame: int) -> bytes:
    if category == "truncated-header":
        return bytes(rng.randrange(256)
                     for _ in range(rng.randint(1, 3)))
    if category == "truncated-payload":
        declared = rng.randint(1, 128)
        return FRAME_HEADER.pack(declared) + \
            b"x" * rng.randint(0, declared - 1)
    if category == "oversize":
        return FRAME_HEADER.pack(
            rng.randint(max_frame + 1, 2**31 - 1))
    if category == "bad-json":
        junk = bytes(rng.choice(b"{}[]:,x\"' ")
                     for _ in range(rng.randint(1, 20))) or b"{"
        try:  # ensure it is genuinely invalid JSON
            json.loads(junk)
            junk += b"{"
        except Exception:
            pass
        return FRAME_HEADER.pack(len(junk)) + junk
    if category == "bad-utf8":
        junk = b"\xff\xfe" + bytes(rng.randrange(256)
                                   for _ in range(rng.randint(0, 8)))
        return FRAME_HEADER.pack(len(junk)) + junk
    if category == "non-object":
        payload = json.dumps(
            rng.choice([[1, 2], "str", 7, None, True])).encode()
        return FRAME_HEADER.pack(len(payload)) + payload
    if category == "missing-op":
        return encode_frame({"id": rng.randint(0, 99)})
    if category == "unknown-op":
        return encode_frame({"id": 1, "op": rng.choice(
            ["frobnicate", "", "commit ", "READ", "delete-everything",
             "begin", "stage"])})
    if category == "bad-id":
        return encode_frame({"id": {"nested": True}, "op": "ping"})
    assert category == "bad-field-types"
    return encode_frame(rng.choice([
        {"id": 1, "op": "read", "relation": 42},
        {"id": 2, "op": "commit"},
        {"id": 3, "op": "commit", "ops": "not-a-list"},
        {"id": 7, "op": "commit", "ops": [["insert", "manager"]]},
        {"id": 4, "op": "hello", "branch": ["main"]},
        {"id": 5, "op": "branch", "name": None},
        {"id": 6, "op": "read", "relation": "dept", "at": 11},
    ]))


class TestMalformedFrameFuzz:
    def test_fuzz_sweep_never_kills_the_server(self, server):
        """>= 200 malformed frames across every category; recoverable
        ones are answered in-connection, fatal ones cost only their own
        connection, and the accept loop survives the lot."""
        rng = random.Random(0xF422)
        survivor = StoreClient(*server.address, hello=False)
        counts = {c: 0 for c in CATEGORIES}
        for case in range(FUZZ_CASES):
            category = CATEGORIES[case % len(CATEGORIES)]
            counts[category] += 1
            blob = _fuzz_bytes(rng, category, server.max_frame_bytes)
            if category in FATAL:
                sock = _raw_conn(server)
                sock.sendall(blob)
                if category == "oversize":
                    # one fatal bad-frame error, then the server closes
                    decoder = FrameDecoder()
                    data = sock.recv(65536)
                    (response,) = decoder.feed(data)
                    assert response["error"]["code"] == "bad-frame"
                    assert response["error"]["fatal"] is True
                    assert sock.recv(65536) == b""  # server closed
                sock.close()
            else:
                survivor.send_raw(blob)
                response = survivor.recv_message()
                assert response["ok"] is False
                assert response["error"]["code"] in (
                    "bad-frame", "protocol-error", "store-error",
                    "extension-error")
                # same connection still serves real traffic
                assert survivor.ping()
        assert sum(counts.values()) >= 200
        assert all(counts[c] > 0 for c in CATEGORIES)
        survivor.close()
        # the accept loop is intact: fresh connections do real work
        with StoreClient(*server.address) as c:
            assert c.ping()
            assert len(c.read("dept")) > 0

    def test_interleaved_partial_frames_then_valid_traffic(self, server):
        """A frame dribbled byte-by-byte across many sends is still one
        message; a client that stalls mid-frame then resumes is fine."""
        with StoreClient(*server.address, hello=False) as c:
            frame = encode_frame({"id": 1, "op": "ping"})
            for i in range(len(frame)):
                c.send_raw(frame[i:i + 1])
            assert c.recv_message()["ok"]

    def test_disconnect_mid_frame_is_quiet(self, server):
        """Hanging up after half a frame must not disturb the server."""
        for _ in range(10):
            sock = _raw_conn(server)
            sock.sendall(FRAME_HEADER.pack(100) + b"half")
            sock.close()
        with StoreClient(*server.address) as c:
            assert c.ping()
