"""The cluster worker: N task slots against a local L2 store.

A worker is one process holding a single coordinator connection and
``slots`` supervised task subprocesses.  The control loop is strictly
single-threaded — poll for work when slots are free, heartbeat on a
``lease/3`` cadence, reap finished slots and ship their results back —
so every protocol exchange is a clean request/response.

Task subprocesses rebuild their work from the wire payload
(:func:`repro.orchestrator.runall.task_from_payload`) and run against a
:class:`~repro.cluster.shipping.ShippingStore` selected via environment
(``REPRO_SHIP_VIA``): missing inputs are fetched from the coordinator,
outputs are mirrored back, and every artifact is checksum-verified on
receipt.  The task functions themselves are the exact module-level
functions a local ``--jobs N`` run executes, which is what makes a
cluster run's figures byte-identical to a local one.

Failure behaviour:

* A slot that dies (crash, OOM, injected ``crash_task``) is reported as
  a ``died`` result; the coordinator routes it through the scheduler's
  ``WorkerDied`` → retry path.
* A dropped coordinator connection is survivable: the worker reconnects
  and re-hellos under the same worker id, and its leases hold as long
  as it returns within the lease window.  The injected
  ``drop_connection`` fault exercises exactly this.
* A stalled worker (injected ``delay_heartbeat``, a real GC/swap storm)
  goes silent past its lease: the coordinator reassigns its tasks and
  rejects the stale results the worker ships after waking up.
* When the coordinator disappears for good (run finished, or killed),
  the worker drains its slots and exits 0.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time
import traceback
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Tuple

from ..orchestrator import faults
from .. import wire
from . import PROTOCOL_VERSION, shipping

#: How long a starting worker keeps retrying its first connection —
#: generous, so workers may be launched before the coordinator binds.
CONNECT_WINDOW_SECONDS = 30.0

#: How long a running worker retries after losing the connection.
RECONNECT_WINDOW_SECONDS = 10.0

_RETRY_SLEEP = 0.5
_IDLE_SLEEP = 0.05


class _Disconnected(RuntimeError):
    """The coordinator is unreachable and reconnecting failed."""


def resolve_slots(slots: int) -> int:
    """``--slots 0`` (or negative) means one slot per CPU core."""
    if slots <= 0:
        return os.cpu_count() or 1
    return slots


def _slot_entry(conn, name: str, payload: dict, cache_dir: str, attempt: int) -> None:
    """Entry point of one slot subprocess.

    Rebuilds the task from its wire payload and runs it through the
    same fault-hooked wrapper the local pool uses; ships ``("ok",
    payload)`` / ``("error", traceback)`` up the pipe, with EOF meaning
    a dead slot — mirroring the local pool's worker contract exactly.
    """
    faults.enter_worker(attempt)
    try:
        from ..orchestrator import runall
        from ..orchestrator.scheduler import _run_task

        fn, args = runall.task_from_payload(payload, cache_dir)
        outcome = ("ok", _run_task(fn, args, name))
    except BaseException:
        outcome = ("error", traceback.format_exc())
    try:
        conn.send(outcome)
    except (BrokenPipeError, OSError):
        pass
    finally:
        conn.close()


class ClusterWorker:
    """One worker process: connect, lease tasks, run them, report back."""

    def __init__(
        self,
        coordinator: str,
        slots: int = 1,
        cache_dir: str = "",
        worker_id: Optional[str] = None,
        log: Optional[Callable[[str], None]] = None,
        connect_window: float = CONNECT_WINDOW_SECONDS,
    ) -> None:
        if not cache_dir:
            raise ValueError("a cluster worker needs --cache-dir (its L2 store)")
        self.address = wire.parse_address(coordinator)
        self.slots = resolve_slots(slots)
        self.cache_dir = cache_dir
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.connect_window = connect_window
        self._log = log
        self._mp = multiprocessing.get_context()
        self._sock: Optional[socket.socket] = None
        self._welcomed = False
        self._lease_seconds = 15.0
        self._running: Dict[object, dict] = {}  # pipe conn -> slot info
        self._shutting_down = False

    def _say(self, message: str) -> None:
        if self._log is not None:
            self._log(f"[{self.worker_id}] {message}")

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _hello(self, sock: socket.socket) -> dict:
        reply, _ = wire.request(sock, {
            "op": "hello",
            "worker": self.worker_id,
            "slots": self.slots,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "version": PROTOCOL_VERSION,
        })
        if not reply.get("ok"):
            raise wire.ProtocolError(
                f"coordinator rejected hello: {reply.get('error', '?')}"
            )
        return reply

    def _connect(self, window: float) -> None:
        """(Re)establish the coordinator connection within ``window``."""
        deadline = time.monotonic() + window
        error: Optional[BaseException] = None
        while time.monotonic() < deadline:
            try:
                sock = wire.connect(self.address, timeout=5.0)
                welcome = self._hello(sock)
            except (OSError, wire.ProtocolError) as exc:
                error = exc
                time.sleep(_RETRY_SLEEP)
                continue
            self._sock = sock
            self._welcomed = True
            self._lease_seconds = float(
                welcome.get("lease_seconds", self._lease_seconds)
            )
            return
        raise _Disconnected(
            f"cannot reach coordinator at {self.address[0]}:{self.address[1]}: "
            f"{error}"
        )

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _request(self, message: dict, blob: bytes = b"") -> dict:
        """Round trip with one transparent reconnect.

        Leases survive a reconnect (the coordinator keys them by worker
        id, not connection), so in-flight slots keep their work.
        """
        for attempt in (1, 2):
            if self._sock is None:
                self._connect(RECONNECT_WINDOW_SECONDS)
            try:
                reply, _ = wire.request(self._sock, message, blob)
                return reply
            except (OSError, wire.ProtocolError):
                self._drop_connection()
                if attempt == 2:
                    raise _Disconnected("coordinator connection lost")
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------
    def _launch(self, task: dict) -> None:
        name = str(task.get("name", ""))
        attempt = int(task.get("attempt", 1))
        payload = task.get("payload") or {}
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        proc = self._mp.Process(
            target=_slot_entry,
            args=(child_conn, name, payload, self.cache_dir, attempt),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._running[parent_conn] = {
            "name": name, "attempt": attempt, "proc": proc,
        }
        self._say(f"running {name} (attempt {attempt})")

    def _kill_slot(self, conn, info: dict) -> None:
        info["proc"].terminate()
        info["proc"].join(timeout=5.0)
        try:
            conn.close()
        except OSError:
            pass

    def _reap(self, conn) -> None:
        """Collect one finished slot and ship its result upstream."""
        info = self._running.pop(conn)
        proc = info["proc"]
        try:
            outcome, payload = conn.recv()
        except (EOFError, OSError):
            outcome, payload = "died", None
        finally:
            try:
                conn.close()
            except OSError:
                pass
        proc.join(timeout=5.0)
        message = {
            "op": "result",
            "worker": self.worker_id,
            "name": info["name"],
            "attempt": info["attempt"],
        }
        if outcome == "ok":
            result, seconds, cpu_seconds, pid = payload
            if isinstance(result, dict):
                # Stamp the worker id onto the shipped obs events so the
                # merged run trace can draw a per-worker timeline.
                for event_dict in result.get("obs", ()):
                    if isinstance(event_dict, dict):
                        event_dict.setdefault("worker_id", self.worker_id)
            message.update(
                outcome="ok", result=result, seconds=seconds,
                cpu=cpu_seconds, pid=pid,
            )
        elif outcome == "error":
            message.update(outcome="error", error=payload)
        else:
            message.update(outcome="died", exitcode=proc.exitcode)
        reply = self._request(message)
        if reply.get("stale"):
            self._say(f"result for {info['name']} rejected as stale (lease moved)")

    def _handle_control(self, reply: dict) -> None:
        """Apply a poll/heartbeat reply's revocations and shutdown flag."""
        revoked = set(reply.get("revoked", ()))
        if revoked:
            for conn, info in list(self._running.items()):
                if info["name"] in revoked:
                    self._say(f"abandoning revoked task {info['name']}")
                    del self._running[conn]
                    self._kill_slot(conn, info)
        if reply.get("shutdown"):
            self._shutting_down = True

    # ------------------------------------------------------------------
    def run(self) -> int:
        """The worker main loop; returns a process exit code.

        0 — clean shutdown (coordinator said so, or went away after we
        were welcomed); 1 — never managed to connect.
        """
        # Task subprocesses inherit these: their stores ship through the
        # coordinator and their obs events carry this worker's identity.
        os.environ[shipping.SHIP_VIA_ENV] = f"{self.address[0]}:{self.address[1]}"
        os.environ[shipping.WORKER_ID_ENV] = self.worker_id
        try:
            self._connect(self.connect_window)
        except _Disconnected as error:
            self._say(str(error))
            return 1
        self._say(
            f"connected to {self.address[0]}:{self.address[1]} "
            f"with {self.slots} slot(s)"
        )
        injector = faults.active()
        last_beat = time.monotonic()
        try:
            while True:
                if self._running:
                    for conn in _connection_wait(
                        list(self._running), timeout=_IDLE_SLEEP
                    ):
                        self._reap(conn)
                else:
                    time.sleep(_IDLE_SLEEP)
                beat_interval = max(0.2, self._lease_seconds / 3.0)
                now = time.monotonic()
                if now - last_beat >= beat_interval:
                    last_beat = now
                    if injector is not None:
                        delay = injector.heartbeat_delay(self.worker_id)
                        if delay > 0:
                            self._say(f"stalling {delay:.1f}s (injected)")
                            time.sleep(delay)
                    self._handle_control(self._request({
                        "op": "heartbeat", "worker": self.worker_id,
                    }))
                free = self.slots - len(self._running)
                if free > 0 and not self._shutting_down:
                    reply = self._request({
                        "op": "poll", "worker": self.worker_id, "free": free,
                    })
                    self._handle_control(reply)
                    for task in reply.get("tasks", ()):
                        name = str(task.get("name", ""))
                        if injector is not None:
                            faults.set_attempt(int(task.get("attempt", 1)))
                            dropped = injector.should_drop_connection(name)
                            faults.set_attempt(1)
                            if dropped:
                                self._say(
                                    f"dropping coordinator connection on "
                                    f"assignment of {name} (injected)"
                                )
                                self._drop_connection()
                        self._launch(task)
                if self._shutting_down and not self._running:
                    try:
                        self._request({"op": "goodbye", "worker": self.worker_id})
                    except _Disconnected:
                        pass
                    self._say("shut down")
                    return 0
        except _Disconnected:
            # The run is over (or the coordinator crashed); either way
            # there is nobody to report to.  Exit clean: the journal on
            # the coordinator side owns recovery.
            self._say("coordinator gone — exiting")
            return 0
        finally:
            for conn, info in list(self._running.items()):
                self._kill_slot(conn, info)
            self._running.clear()
            self._drop_connection()
