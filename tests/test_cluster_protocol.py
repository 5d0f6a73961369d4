"""Unit tests for the cluster wire protocol and artifact shipping.

These run without any coordinator: frames go over a local socketpair,
and the shipping helpers are exercised directly against a temp-dir
store.  The end-to-end coordinator/worker behaviour lives in
``test_cluster.py``.
"""

import socket
import struct

import numpy as np
import pytest

from repro import wire
from repro.cluster.shipping import commit_sealed_blob, read_sealed_blob
from repro.orchestrator.store import (
    ArtifactStore,
    CorruptArtifact,
    seal_payload,
)


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_roundtrip_message_only(self, pair):
        left, right = pair
        wire.send_frame(left, {"op": "poll", "free": 2})
        message, blob = wire.recv_frame(right)
        assert message == {"op": "poll", "free": 2}
        assert blob == b""

    def test_roundtrip_with_blob(self, pair):
        left, right = pair
        payload = bytes(range(256)) * 100
        wire.send_frame(left, {"op": "put"}, payload)
        message, blob = wire.recv_frame(right)
        assert message == {"op": "put"}
        assert blob == payload

    def test_numpy_scalars_serialize(self, pair):
        # Task stats carry numpy scalars; they must cross as plain JSON.
        left, right = pair
        wire.send_frame(
            left, {"mpki": np.float64(6.95), "count": np.int64(25)}
        )
        message, _ = wire.recv_frame(right)
        assert message == {"mpki": 6.95, "count": 25}

    def test_clean_eof_raises_connection_closed(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(wire.ConnectionClosed):
            wire.recv_frame(right)

    def test_eof_mid_frame_is_a_protocol_error(self, pair):
        # A torn frame is different from a clean close: the peer died
        # mid-send, and the partial bytes must not be trusted.
        left, right = pair
        left.sendall(struct.pack("!II", 100, 0) + b'{"op": "tr')
        left.close()
        with pytest.raises(wire.ProtocolError) as excinfo:
            wire.recv_frame(right)
        assert not isinstance(excinfo.value, wire.ConnectionClosed)

    def test_oversize_header_rejected_without_alloc(self, pair):
        left, right = pair
        left.sendall(struct.pack("!II", wire.MAX_MESSAGE_BYTES + 1, 0))
        with pytest.raises(wire.ProtocolError, match="out of range"):
            wire.recv_frame(right)

    def test_non_object_json_rejected(self, pair):
        left, right = pair
        encoded = b"[1, 2, 3]"
        left.sendall(struct.pack("!II", len(encoded), 0) + encoded)
        with pytest.raises(wire.ProtocolError, match="not an object"):
            wire.recv_frame(right)

    def test_undecodable_json_rejected(self, pair):
        left, right = pair
        encoded = b"{not json"
        left.sendall(struct.pack("!II", len(encoded), 0) + encoded)
        with pytest.raises(wire.ProtocolError, match="undecodable"):
            wire.recv_frame(right)

    def test_request_is_one_round_trip(self, pair):
        left, right = pair
        wire.send_frame(right, {"ok": True}, b"reply-blob")
        reply, blob = wire.request(left, {"op": "get"})
        assert reply == {"ok": True}
        assert blob == b"reply-blob"
        message, _ = wire.recv_frame(right)
        assert message == {"op": "get"}


class TestParseAddress:
    def test_host_port(self):
        assert wire.parse_address("10.0.0.5:7781") == ("10.0.0.5", 7781)

    def test_whitespace_tolerated(self):
        assert wire.parse_address(" localhost:80 ") == ("localhost", 80)

    @pytest.mark.parametrize(
        "text", ["", "localhost", ":80", "host:", "host:abc", "host:70000"]
    )
    def test_junk_rejected(self, text):
        with pytest.raises(ValueError):
            wire.parse_address(text)


class TestSealedBlobShipping:
    """The receive-side verification that keeps corrupt transfers out
    of every committed store."""

    def _store(self, tmp_path):
        return ArtifactStore(tmp_path / "cache")

    def test_commit_then_read_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        blob = seal_payload(b"artifact-payload")
        commit_sealed_blob(store, "trace", "k1", blob)
        assert read_sealed_blob(store, "trace", "k1") == blob

    def test_read_absent_is_none(self, tmp_path):
        assert read_sealed_blob(self._store(tmp_path), "trace", "nope") is None

    def test_corrupt_blob_never_commits(self, tmp_path):
        store = self._store(tmp_path)
        blob = bytearray(seal_payload(b"artifact-payload"))
        blob[3] ^= 0xFF  # damaged in flight
        with pytest.raises(CorruptArtifact):
            commit_sealed_blob(store, "trace", "k1", bytes(blob))
        # Nothing landed in the committed namespace — not even a temp.
        assert read_sealed_blob(store, "trace", "k1") is None
        assert not list((tmp_path / "cache").rglob("*.tmp"))

    def test_unsealed_blob_never_commits(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(CorruptArtifact):
            commit_sealed_blob(store, "trace", "k1", b"no footer at all")
        assert read_sealed_blob(store, "trace", "k1") is None

    def test_locally_corrupt_file_served_as_absent(self, tmp_path):
        # A file rotted on *our* disk must not be shipped to a peer; it
        # is quarantined and reported as a miss.
        store = self._store(tmp_path)
        blob = seal_payload(b"artifact-payload")
        commit_sealed_blob(store, "trace", "k1", blob)
        path = store._path("trace", "k1")
        damaged = bytearray(path.read_bytes())
        damaged[0] ^= 0xFF
        path.write_bytes(bytes(damaged))
        assert read_sealed_blob(store, "trace", "k1") is None
        assert not path.exists()  # moved to quarantine
        assert list((tmp_path / "cache" / "quarantine").rglob("*"))


class TestSharedWire:
    """The framing is one shared module (`repro.wire`), not a copy.

    The cluster and `repro.serve` speak literally the same bytes; these
    tests pin the edge cases the serve layer leans on (zero-length
    blobs, blob-size limits, frames torn mid-blob).
    """

    def test_zero_length_blob_roundtrip(self, pair):
        # An explicit empty blob and no blob are the same frame.
        left, right = pair
        wire.send_frame(left, {"op": "shard", "seq": 0}, b"")
        message, blob = wire.recv_frame(right)
        assert message == {"op": "shard", "seq": 0}
        assert blob == b""

    def test_oversize_blob_header_rejected_without_alloc(self, pair):
        left, right = pair
        left.sendall(
            struct.pack("!II", 2, wire.MAX_BLOB_BYTES + 1) + b"{}"
        )
        with pytest.raises(wire.ProtocolError, match="out of range"):
            wire.recv_frame(right)

    def test_eof_mid_blob_is_a_protocol_error(self, pair):
        # The header promised 1000 blob bytes; the peer died after 10.
        # The partial shard must never surface as a short-but-valid blob.
        left, right = pair
        body = b'{"op": "shard"}'
        left.sendall(
            struct.pack("!II", len(body), 1000) + body + b"\x00" * 10
        )
        left.close()
        with pytest.raises(wire.ProtocolError) as excinfo:
            wire.recv_frame(right)
        assert not isinstance(excinfo.value, wire.ConnectionClosed)

    def test_partial_header_then_eof_is_a_protocol_error(self, pair):
        left, right = pair
        left.sendall(b"\x00\x00")  # 2 of the 8 header bytes
        left.close()
        with pytest.raises(wire.ProtocolError) as excinfo:
            wire.recv_frame(right)
        assert not isinstance(excinfo.value, wire.ConnectionClosed)
