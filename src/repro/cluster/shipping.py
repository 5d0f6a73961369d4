"""Content-addressed artifact transfer between worker and coordinator.

Artifacts move over the wire exactly as they sit on disk: the sealed
npz blob, checksum footer included.  Both directions re-verify the seal
before committing —

* a worker fetching a missing input (:meth:`ShippingStore.get`) unseals
  the received blob first; a corrupt transfer is retried once and then
  degrades to a plain cache miss (the task recomputes), never a
  committed artifact;
* the coordinator verifies uploaded blobs the same way before writing
  them into the hub store, so one worker's bad NIC cannot poison the
  inputs of every other worker.

The injected ``corrupt_transfer`` fault damages bytes on the *sending*
side (after the disk read, before the socket write), which is precisely
the failure the receipt-verification must catch.

A :class:`ShippingStore` is what cluster task processes use in place of
the plain :class:`~repro.orchestrator.store.ArtifactStore`: same codecs,
same local L2 directory, plus fetch-through and write-through to the
coordinator.  It is selected by environment (``REPRO_SHIP_VIA``) so the
task functions themselves stay byte-identical between local and cluster
runs.
"""

from __future__ import annotations

import os
import pathlib
import socket
import tempfile
from typing import Any, Optional, Tuple

from .. import obs, wire
from ..orchestrator import faults
from ..orchestrator.store import ArtifactStore, CorruptArtifact, unseal_payload

#: When set (``HOST:PORT``), task processes ship artifacts through the
#: coordinator at that address.
SHIP_VIA_ENV = "REPRO_SHIP_VIA"

#: The cluster worker id of this process tree ("" outside a worker).
WORKER_ID_ENV = "REPRO_WORKER_ID"

#: One retry per transfer: a deterministic re-send catches transient
#: damage; persistent damage degrades to a miss/recompute.
TRANSFER_ATTEMPTS = 2


def read_sealed_blob(store: ArtifactStore, kind: str, key: str) -> Optional[bytes]:
    """The committed artifact's raw bytes (seal intact), or None.

    The seal is verified before serving so a locally-corrupt file is
    reported as absent — the peer would only reject it anyway.
    """
    path = store._path(kind, key)
    try:
        blob = path.read_bytes()
    except (FileNotFoundError, OSError):
        return None
    try:
        unseal_payload(blob, path)
    except CorruptArtifact:
        store.quarantine(kind, key, reason="corrupt at ship time")
        return None
    return blob


def commit_sealed_blob(store: ArtifactStore, kind: str, key: str, blob: bytes) -> None:
    """Verify a received blob's seal and commit it atomically.

    Raises :class:`CorruptArtifact` on a failed seal — the caller turns
    that into a rejected/retried transfer.  Uses the same temp-file +
    fsync + rename protocol as :meth:`ArtifactStore.put`, so a crash
    mid-receive never leaves a partial committed file.
    """
    path = store._path(kind, key)
    unseal_payload(blob, path)  # CorruptArtifact propagates to the caller
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ShippingStore(ArtifactStore):
    """An :class:`ArtifactStore` that fetches misses from (and mirrors
    puts to) the coordinator's hub store.

    The local directory is the worker's L2: once fetched, an artifact
    is served locally forever.  All remote traffic is counted through
    obs (``ship.*``) and lands in the per-worker byte counters of the
    run manifest.
    """

    def __init__(
        self,
        root: os.PathLike,
        address: Tuple[str, int],
        worker_id: str = "",
    ) -> None:
        super().__init__(root)
        self.address = address
        self.worker_id = worker_id
        self._sock: Optional[socket.socket] = None

    @classmethod
    def from_env(cls, root: os.PathLike) -> Optional["ShippingStore"]:
        """The store mandated by ``REPRO_SHIP_VIA``, or None."""
        via = os.environ.get(SHIP_VIA_ENV, "").strip()
        if not via:
            return None
        return cls(
            root,
            wire.parse_address(via),
            worker_id=os.environ.get(WORKER_ID_ENV, ""),
        )

    # ------------------------------------------------------------------
    def _request(self, message: dict, blob: bytes = b"") -> Tuple[dict, bytes]:
        """Round trip to the coordinator, reconnecting once on error."""
        for attempt in (1, 2):
            if self._sock is None:
                self._sock = wire.connect(self.address, timeout=10.0)
            try:
                return wire.request(self._sock, message, blob)
            except (OSError, wire.ProtocolError):
                self.close_connection()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    def close_connection(self) -> None:
        """Drop the coordinator connection (reopened lazily on use)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # ------------------------------------------------------------------
    def get(self, kind: str, key: str, **decode_ctx: Any) -> Optional[Any]:
        """Local get, with a fetch from the coordinator on a local miss."""
        if not self.has(kind, key):
            self._fetch(kind, key)
        return super().get(kind, key, **decode_ctx)

    def put(self, kind: str, key: str, obj: Any) -> pathlib.Path:
        """Local put, mirrored to the coordinator's hub store."""
        path = super().put(kind, key, obj)
        self._upload(kind, key)
        return path

    # ------------------------------------------------------------------
    def _fetch(self, kind: str, key: str) -> bool:
        """Pull one artifact from the hub; False leaves a plain miss."""
        ref = f"{kind}/{key}"
        for attempt in range(1, TRANSFER_ATTEMPTS + 1):
            try:
                reply, blob = self._request(
                    {"op": "get", "worker": self.worker_id, "kind": kind, "key": key}
                )
            except (OSError, wire.ProtocolError):
                obs.add("ship.errors")
                return False
            if not reply.get("found"):
                return False
            try:
                commit_sealed_blob(self, kind, key, blob)
            except CorruptArtifact:
                # Damaged in flight: drop it and re-request; committed
                # state is untouched either way.
                obs.add("ship.rejected")
                obs.event("ship_rejected", ref=ref, direction="fetch", attempt=attempt)
                continue
            obs.add("ship.fetches")
            obs.add("ship.bytes_in", len(blob))
            obs.event("ship", ref=ref, direction="fetch", bytes=len(blob))
            return True
        return False

    def _upload(self, kind: str, key: str) -> bool:
        """Push one committed artifact to the hub; False on rejection.

        A failed upload leaves the artifact local-only: downstream tasks
        elsewhere see a miss and recompute — slower, never wrong.
        """
        ref = f"{kind}/{key}"
        for attempt in range(1, TRANSFER_ATTEMPTS + 1):
            blob = read_sealed_blob(self, kind, key)
            if blob is None:
                return False
            injector = faults.active()
            if injector is not None:
                blob = injector.corrupt_transfer(ref, blob)
            try:
                reply, _ = self._request(
                    {"op": "put", "worker": self.worker_id, "kind": kind, "key": key},
                    blob,
                )
            except (OSError, wire.ProtocolError):
                obs.add("ship.errors")
                return False
            if reply.get("ok"):
                obs.add("ship.uploads")
                obs.add("ship.bytes_out", len(blob))
                obs.event("ship", ref=ref, direction="upload", bytes=len(blob))
                return True
            obs.add("ship.rejected")
            obs.event("ship_rejected", ref=ref, direction="upload", attempt=attempt)
        return False
