"""The cluster coordinator: lease-based task service over TCP.

:class:`ClusterBackend` implements the scheduler's
:class:`~repro.orchestrator.scheduler.ExecutionBackend` seam, so
``repro run-all --backend cluster`` drives remote workers through the
*same* drain loop (deadlines, retries, fail-fast drain, journaling)
that supervises the local process pool.

Assignment is lease-based.  A launched task sits in a FIFO queue until
a worker polls it away; from that moment the worker holds a lease that
it renews implicitly with every message (poll, heartbeat, result,
artifact traffic).  A worker silent for ``lease_seconds`` is declared
dead: its leases complete as ``died`` — feeding the scheduler's
existing :class:`~repro.orchestrator.scheduler.WorkerDied` → retry path
— and any later result from the stale lease is rejected, so a paused
worker resurfacing cannot double-commit a task the retry already ran.
A *dropped connection* alone does not kill a lease (workers reconnect
and re-hello within the lease window); only silence does.

The coordinator is also the artifact hub: workers fetch missing inputs
from, and mirror their outputs to, the coordinator's store via the
shipping protocol (see :mod:`repro.cluster.shipping`).  Uploads are
checksum-verified before commit.

Threading model: one accept loop plus one thread per worker connection;
every touch of shared state takes ``_lock``.  The scheduler thread only
enters through the backend interface, consuming a completion queue.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs, wire
from ..orchestrator.scheduler import Completion, ExecutionBackend, TaskSpec
from ..orchestrator.store import ArtifactStore, CorruptArtifact
from . import PROTOCOL_VERSION, shipping

#: Default lease: a worker silent this long forfeits its tasks.
DEFAULT_LEASE_SECONDS = 15.0


@dataclass
class _WorkerState:
    """Everything the coordinator tracks about one worker."""

    worker_id: str
    slots: int = 1
    pid: int = 0
    host: str = ""
    last_seen: float = 0.0
    alive: bool = True
    departed: bool = False  # said goodbye (clean exit)
    tasks_done: int = 0
    bytes_in: int = 0  # artifact bytes uploaded by this worker
    bytes_out: int = 0  # artifact bytes fetched by this worker
    revoked: set = field(default_factory=set)  # task names to abandon

    def as_dict(self) -> dict:
        """Manifest roster entry."""
        return {
            "worker_id": self.worker_id,
            "slots": self.slots,
            "pid": self.pid,
            "host": self.host,
            "alive": self.alive and not self.departed,
            "tasks_done": self.tasks_done,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }


@dataclass
class _Handle:
    """One launched task attempt (queued, leased, or revoked)."""

    spec: TaskSpec
    attempt: int
    state: str = "queued"  # queued | leased | cancelled | done
    worker_id: str = ""


class ClusterBackend(ExecutionBackend):
    """Execution backend that serves the task graph to remote workers."""

    name = "cluster"

    def __init__(
        self,
        bind: str,
        cache_dir: str,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.lease_seconds = max(0.5, float(lease_seconds))
        self.store = ArtifactStore(cache_dir)
        self._log = log
        self._lock = threading.Lock()
        self._queue: List[_Handle] = []
        self._leases: Dict[str, _Handle] = {}
        self._workers: Dict[str, _WorkerState] = {}
        self._completions: "queue.Queue[Completion]" = queue.Queue()
        self._shutdown = False
        self._closed = False
        self._conns: List[socket.socket] = []

        host, port = wire.parse_address(bind)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        self._accept_thread.start()
        self._say(f"coordinator listening on {self.address[0]}:{self.address[1]}")

    def _say(self, message: str) -> None:
        if self._log is not None:
            self._log(message)

    # ------------------------------------------------------------------
    # ExecutionBackend interface (scheduler thread)
    # ------------------------------------------------------------------
    def has_capacity(self) -> bool:
        """Launch while outstanding work fits the roster's slots (with
        one queue's worth of headroom so pollers never find it empty)."""
        with self._lock:
            slots = sum(
                w.slots for w in self._workers.values()
                if w.alive and not w.departed
            )
            outstanding = len(self._queue) + len(self._leases)
            return outstanding < 2 * max(1, slots)

    def launch(self, spec: TaskSpec, attempt: int) -> _Handle:
        """Enqueue one attempt for the next free worker slot."""
        handle = _Handle(spec=spec, attempt=attempt)
        with self._lock:
            self._queue.append(handle)
        return handle

    def wait(self, timeout: float) -> List[Completion]:
        """Deliver arrived completions, sweeping expired leases."""
        completions = self._sweep_expired()
        end = time.monotonic() + max(0.0, timeout)
        while True:
            try:
                completions.append(self._completions.get_nowait())
                continue
            except queue.Empty:
                pass
            if completions:
                return completions
            remaining = end - time.monotonic()
            if remaining <= 0:
                return completions
            try:
                completions.append(
                    self._completions.get(timeout=min(0.05, remaining))
                )
            except queue.Empty:
                completions.extend(self._sweep_expired())

    def cancel(self, handle: _Handle) -> None:
        """Dequeue an unassigned attempt, or revoke a leased one (the
        worker is told to abandon it at its next poll/heartbeat)."""
        with self._lock:
            if handle.state == "queued":
                handle.state = "cancelled"
                if handle in self._queue:
                    self._queue.remove(handle)
                return
            if handle.state != "leased":
                return
            handle.state = "cancelled"
            self._leases.pop(handle.spec.name, None)
            worker = self._workers.get(handle.worker_id)
            if worker is not None:
                worker.revoked.add(handle.spec.name)

    def drain(self) -> List[_Handle]:
        """Reclaim every still-queued attempt (stop/fail-fast drain)."""
        with self._lock:
            drained = [h for h in self._queue]
            self._queue.clear()
            for handle in drained:
                handle.state = "cancelled"
            return drained

    def close(self, grace_seconds: float = 5.0) -> None:
        """Tell workers to shut down, then tear the server down.

        Waits up to ``grace_seconds`` for connected workers to say
        goodbye (they poll frequently, so this is normally quick); the
        sockets are closed regardless, and workers also exit cleanly on
        a post-run EOF.
        """
        if self._closed:
            return
        self._shutdown = True
        deadline = time.monotonic() + grace_seconds
        while time.monotonic() < deadline:
            with self._lock:
                waiting = [
                    w for w in self._workers.values()
                    if w.alive and not w.departed
                ]
            if not waiting:
                break
            time.sleep(0.05)
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    def roster(self) -> List[dict]:
        """Per-worker manifest entries (id, slots, task/byte counters)."""
        with self._lock:
            return [
                state.as_dict()
                for _, state in sorted(self._workers.items())
            ]

    def _sweep_expired(self) -> List[Completion]:
        """Declare silent workers dead; their leases complete as died."""
        now = time.monotonic()
        completions: List[Completion] = []
        with self._lock:
            for worker in self._workers.values():
                if not worker.alive or worker.departed:
                    continue
                if now - worker.last_seen <= self.lease_seconds:
                    continue
                worker.alive = False
                expired = [
                    h for h in self._leases.values()
                    if h.worker_id == worker.worker_id
                ]
                obs.event(
                    "lease_expired", worker=worker.worker_id,
                    tasks=[h.spec.name for h in expired],
                )
                self._say(
                    f"worker {worker.worker_id} missed heartbeats for "
                    f"{self.lease_seconds:.1f}s — reassigning "
                    f"{len(expired)} leased task(s)"
                )
                for handle in expired:
                    self._leases.pop(handle.spec.name, None)
                    handle.state = "done"
                    completions.append(Completion(
                        handle=handle,
                        outcome="died",
                        worker_id=worker.worker_id,
                        error=(
                            f"lease expired: worker {worker.worker_id} went "
                            f"silent holding task {handle.spec.name!r}"
                        ),
                    ))
        return completions

    # ------------------------------------------------------------------
    # Server side (connection threads)
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed
                return
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            with self._lock:
                self._conns.append(conn)
            threading.Thread(
                target=self._serve, args=(conn,),
                name="cluster-conn", daemon=True,
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        """Request/response loop for one worker connection.

        A dropped connection ends the thread but not the worker's
        leases — the worker may reconnect within its lease window; only
        the heartbeat timer kills leases.
        """
        try:
            while True:
                message, blob = wire.recv_frame(conn)
                reply, reply_blob = self._dispatch(message, blob)
                wire.send_frame(conn, reply, reply_blob)
        except (wire.ProtocolError, OSError):
            pass
        finally:
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _touch(self, worker_id: str) -> Optional[_WorkerState]:
        """Renew a worker's lease clock (any message counts)."""
        worker = self._workers.get(worker_id)
        if worker is not None:
            worker.last_seen = time.monotonic()
            worker.alive = True
        return worker

    def _dispatch(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        op = message.get("op")
        handler = {
            "hello": self._on_hello,
            "poll": self._on_poll,
            "heartbeat": self._on_heartbeat,
            "result": self._on_result,
            "get": self._on_get,
            "put": self._on_put,
            "goodbye": self._on_goodbye,
        }.get(op)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}, b""
        return handler(message, blob)

    def _on_hello(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        version = message.get("version")
        if version != PROTOCOL_VERSION:
            return {
                "ok": False,
                "error": f"protocol version mismatch "
                         f"(coordinator {PROTOCOL_VERSION}, worker {version})",
            }, b""
        worker_id = str(message.get("worker", ""))
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                worker = _WorkerState(worker_id=worker_id)
                self._workers[worker_id] = worker
                fresh = True
            else:
                fresh = False  # reconnect: keep counters and leases
            worker.slots = max(1, int(message.get("slots", 1)))
            worker.pid = int(message.get("pid", 0))
            worker.host = str(message.get("host", ""))
            worker.last_seen = time.monotonic()
            worker.alive = True
            worker.departed = False
        obs.event(
            "worker_hello", worker=worker_id,
            slots=worker.slots, reconnect=not fresh,
        )
        if fresh:
            # Elastic membership: count arrivals so a long-lived sweep's
            # trace shows how the fleet grew and shrank around it.
            obs.add("cluster.worker_joins")
        self._say(
            f"worker {worker_id} {'connected' if fresh else 'reconnected'} "
            f"({worker.slots} slot(s))"
        )
        return {
            "ok": True,
            "version": PROTOCOL_VERSION,
            "lease_seconds": self.lease_seconds,
        }, b""

    def _on_poll(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        worker_id = str(message.get("worker", ""))
        free = max(0, int(message.get("free", 0)))
        assigned: List[dict] = []
        with self._lock:
            worker = self._touch(worker_id)
            if worker is None:
                return {"ok": False, "error": "say hello first"}, b""
            revoked = sorted(worker.revoked)
            worker.revoked.clear()
            if not self._shutdown:
                while free > 0 and self._queue:
                    handle = self._queue.pop(0)
                    handle.state = "leased"
                    handle.worker_id = worker_id
                    self._leases[handle.spec.name] = handle
                    assigned.append({
                        "name": handle.spec.name,
                        "attempt": handle.attempt,
                        "payload": handle.spec.payload or {},
                    })
                    free -= 1
        return {
            "ok": True,
            "tasks": assigned,
            "revoked": revoked,
            "shutdown": self._shutdown,
        }, b""

    def _on_heartbeat(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        worker_id = str(message.get("worker", ""))
        with self._lock:
            worker = self._touch(worker_id)
            if worker is None:
                return {"ok": False, "error": "say hello first"}, b""
            revoked = sorted(worker.revoked)
            worker.revoked.clear()
        return {"ok": True, "revoked": revoked, "shutdown": self._shutdown}, b""

    def _on_result(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        worker_id = str(message.get("worker", ""))
        name = str(message.get("name", ""))
        attempt = int(message.get("attempt", 0))
        with self._lock:
            worker = self._touch(worker_id)
            handle = self._leases.get(name)
            stale = (
                handle is None
                or handle.worker_id != worker_id
                or handle.attempt != attempt
                or handle.state != "leased"
            )
            if stale:
                obs.add("cluster.stale_results")
                obs.event(
                    "stale_result", worker=worker_id, task=name, attempt=attempt,
                )
                return {"ok": False, "stale": True}, b""
            self._leases.pop(name, None)
            handle.state = "done"
            if worker is not None:
                worker.tasks_done += 1
        outcome = str(message.get("outcome", "error"))
        self._completions.put(Completion(
            handle=handle,
            outcome=outcome,
            result=message.get("result"),
            seconds=float(message.get("seconds", 0.0)),
            cpu_seconds=float(message.get("cpu", 0.0)),
            worker=int(message.get("pid", 0)),
            worker_id=worker_id,
            error=str(message.get("error", "")),
            exitcode=message.get("exitcode"),
        ))
        return {"ok": True}, b""

    def _on_get(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        worker_id = str(message.get("worker", ""))
        try:
            payload = shipping.read_sealed_blob(
                self.store, str(message.get("kind", "")), str(message.get("key", ""))
            )
        except KeyError as error:
            return {"found": False, "error": str(error)}, b""
        with self._lock:
            worker = self._touch(worker_id)
            if worker is not None and payload is not None:
                worker.bytes_out += len(payload)
        if payload is None:
            return {"found": False}, b""
        return {"found": True}, payload

    def _on_put(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        worker_id = str(message.get("worker", ""))
        kind = str(message.get("kind", ""))
        key = str(message.get("key", ""))
        with self._lock:
            self._touch(worker_id)
        try:
            if not self.store.has(kind, key):
                shipping.commit_sealed_blob(self.store, kind, key, blob)
        except CorruptArtifact as error:
            # Never commit unverified bytes; the worker re-sends or
            # gives up (the artifact stays local to it either way).
            obs.add("cluster.rejected_uploads")
            obs.event(
                "upload_rejected", worker=worker_id, kind=kind, key=key,
                reason=error.reason,
            )
            return {"ok": False, "error": f"checksum: {error.reason}"}, b""
        except KeyError as error:
            return {"ok": False, "error": str(error)}, b""
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.bytes_in += len(blob)
        return {"ok": True}, b""

    def _on_goodbye(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        worker_id = str(message.get("worker", ""))
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.departed = True
            # A clean departure forfeits leases immediately — no reason
            # to wait out the lease timer.
            expired = [
                h for h in self._leases.values() if h.worker_id == worker_id
            ]
            for handle in expired:
                self._leases.pop(handle.spec.name, None)
                handle.state = "done"
                self._completions.put(Completion(
                    handle=handle,
                    outcome="died",
                    worker_id=worker_id,
                    error=f"worker {worker_id} departed holding "
                          f"task {handle.spec.name!r}",
                ))
        obs.add("cluster.worker_departures")
        self._say(f"worker {worker_id} departed")
        return {"ok": True}, b""
