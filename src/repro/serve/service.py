"""The continuous hint service: TCP front end over the serve subsystem.

``repro serve start`` runs one :class:`HintService`.  Clients speak the
shared :mod:`repro.wire` framing (the same bytes as the cluster layer):
``hello`` opens a leased session, ``shard`` streams trace chunks,
``refresh`` runs the drift → incremental-search → publish cycle,
``get_hints`` fetches a published table, ``status`` reports the
service's counters.  The threading model is the coordinator's: one
accept loop, one thread per connection, one lock around all mutable
state — shard ingestion is array bookkeeping, so the lock is cheap.

The refresh cycle is synchronous within its request: by the time the
reply frame leaves, the new version (if any) is published and pinned as
the drift reference.  With a scripted single-driver schedule this makes
service state — and therefore every published version id — a pure
function of the schedule, which the determinism demo asserts.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..orchestrator.store import ArtifactStore
from ..workloads.generator import get_program
from ..workloads.program import Program
from ..workloads.registry import get_spec
from .contracts import (
    SERVE_PROTOCOL_VERSION,
    ServeError,
    UnknownApp,
)
from .ingest import ShardIngestor
from .profiles import (
    DEFAULT_BUFFER_EVENTS,
    DEFAULT_DRIFT_THRESHOLD,
    DEFAULT_MIN_EXECUTIONS,
    DEFAULT_WINDOW_EVENTS,
    RollingProfileStore,
)
from .publish import HintPublisher, staleness_mpki
from .refresh import RefreshEngine
from .session import DEFAULT_LEASE_SECONDS, SessionTable
from .. import wire

#: How often the connection-serving loop opportunistically sweeps leases.
SWEEP_INTERVAL_SECONDS = 5.0


def _default_resolve_program(app: str) -> Program:
    """Registry lookup: the synthetic program for a served app."""
    return get_program(get_spec(app))


class HintService:
    """A long-running profile-ingesting, hint-publishing service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store: Optional[ArtifactStore] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        buffer_events: int = DEFAULT_BUFFER_EVENTS,
        window_events: int = DEFAULT_WINDOW_EVENTS,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        min_executions: int = DEFAULT_MIN_EXECUTIONS,
        engine: Optional[RefreshEngine] = None,
        resolve_program: Callable[[str], Program] = _default_resolve_program,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.profiles = RollingProfileStore(
            buffer_events=buffer_events,
            window_events=window_events,
            drift_threshold=drift_threshold,
            min_executions=min_executions,
        )
        self.ingestor = ShardIngestor(self.profiles, resolve_program)
        self.publisher = HintPublisher(store=store)
        self.engine = engine or RefreshEngine()
        self.sessions = SessionTable(lease_seconds)
        self.log = log or (lambda message: None)

        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._threads: List[threading.Thread] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        self.log(f"hint service listening on {self.address[0]}:{self.address[1]}")

    # ------------------------------------------------------------------
    # Network plumbing (coordinator-style)
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        """Accept clients until closed; one serving thread per connection."""
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener closed
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn: socket.socket) -> None:
        """Strict request/response loop for one client connection."""
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        try:
            while not self._closing.is_set():
                try:
                    message, blob = wire.recv_frame(conn)
                except (wire.ProtocolError, OSError):
                    # Clean goodbye-less disconnects and torn frames end
                    # the connection the same way: the session lease
                    # keeps (or expires) the client's identity, and an
                    # interrupted shard was never applied.
                    break
                reply, reply_blob = self._dispatch(message, blob)
                try:
                    wire.send_frame(conn, reply, reply_blob)
                except OSError:
                    break
                if message.get("op") == "shutdown":
                    self._closing.set()
                    break
        finally:
            conn.close()

    def _dispatch(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        """Route one request frame; typed failures become error replies."""
        op = str(message.get("op", ""))
        handler = getattr(self, f"_on_{op}", None)
        if handler is None:
            return {"error": "bad-shard", "detail": f"unknown op {op!r}"}, b""
        with self._lock:
            self.sessions.sweep()
            try:
                return handler(message, blob)
            except ServeError as error:
                return {"error": error.code, "detail": str(error)}, b""
            except Exception as error:  # survive a failed cycle, stay up
                self.log(f"op {op} failed: {error}")
                return {"error": "error", "detail": str(error)}, b""

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _on_hello(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        """Open (or reopen) a leased client session."""
        protocol = int(message.get("protocol", -1))
        if protocol != SERVE_PROTOCOL_VERSION:
            return (
                {
                    "error": "bad-shard",
                    "detail": (
                        f"serve protocol mismatch: service speaks "
                        f"{SERVE_PROTOCOL_VERSION}, client sent {protocol}"
                    ),
                },
                b"",
            )
        client_id = str(message.get("client", ""))
        app = str(message.get("app", ""))
        if not client_id:
            return {"error": "bad-shard", "detail": "hello without client id"}, b""
        self.ingestor.program_for(app)  # raises UnknownApp before registering
        self.sessions.register(client_id, app)
        obs.add("serve.sessions.opened")
        return (
            {
                "ok": True,
                "protocol": SERVE_PROTOCOL_VERSION,
                "lease": self.sessions.lease_seconds,
            },
            b"",
        )

    def _on_shard(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        """Ingest one streamed trace shard from a leased session."""
        session = self.sessions.get(message.get("client"))
        seq = message.get("seq")
        events = self.ingestor.ingest(
            session, int(seq) if seq is not None else None, blob
        )
        return {"ok": True, "seq": session.next_seq, "events": events}, b""

    def _on_heartbeat(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        """Renew a session lease without sending data."""
        self.sessions.get(message.get("client"))
        return {"ok": True}, b""

    def _on_goodbye(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        """Clean session teardown."""
        self.sessions.depart(message.get("client"))
        return {"ok": True}, b""

    def _on_status(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        """The service's counters: per-app profiles, ingestion, versions."""
        apps = self.profiles.status()
        for app, report in apps.items():
            obs.gauge(f"serve.freshness_events.{app}", report["freshness_events"])
        versions = {
            app: [record.as_dict() for record in self.publisher.versions(app)]
            for app in self.profiles.apps()
            if self.publisher.versions(app)
        }
        return (
            {
                "ok": True,
                "apps": apps,
                "ingest": self.ingestor.status(),
                "sessions": len(self.sessions),
                "sessions_expired": self.sessions.expired_total,
                "versions": versions,
            },
            b"",
        )

    def _on_get_hints(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        """Serve one published hint table (current unless pinned)."""
        app = str(message.get("app", ""))
        version = message.get("version")
        record, entries = self.publisher.get_hints(
            app, str(version) if version else None
        )
        obs.add("serve.hints.served")
        return (
            {
                "ok": True,
                **record.as_dict(),
                "entries": [[pc, entries[pc]] for pc in sorted(entries)],
            },
            b"",
        )

    def _on_refresh(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        """Run the drift → incremental-search → publish cycle for one app."""
        app = str(message.get("app", ""))
        return self._refresh_app(app), b""

    def _on_shutdown(self, message: dict, blob: bytes) -> Tuple[dict, bytes]:
        """Acknowledge, then stop accepting (the serving loop closes)."""
        return {"ok": True, "closing": True}, b""

    # ------------------------------------------------------------------
    # The refresh cycle
    # ------------------------------------------------------------------
    def _refresh_app(self, app: str) -> dict:
        """Detect drift, re-search only what moved, publish if changed."""
        profile = self.profiles.get(app)
        if profile is None or profile.events_total == 0:
            raise UnknownApp(f"no profile data ingested for app {app!r}")
        current = self.publisher.current_version(app)

        if current is None:
            # Bootstrap trains on the whole rolling buffer; incremental
            # refreshes train on the drift window only — the point of a
            # refresh is the *new* behaviour, and mixing pre-drift events
            # into the training tables would blur exactly the branches
            # being re-searched.
            outcome = self.engine.bootstrap(app, profile.recent_trace())
            entries = {
                pc: t.to_brhint().encode() for pc, t in outcome.hints.items()
            }
            staleness = None
            changed = True
        else:
            drifted = self.profiles.drifted_branches(app)
            obs.add("serve.drift.flagged", len(drifted))
            outcome = self.engine.refresh(
                app,
                profile.recent_trace(self.profiles.window_events),
                drifted,
            )
            entries = self.publisher.merged_entries(
                app, outcome.trained, outcome.drifted_pcs
            )
            _, stale_entries = self.publisher.get_hints(app, current)
            changed = entries != stale_entries
            staleness = None
            if changed:
                staleness = staleness_mpki(
                    profile.recent_trace(self.profiles.window_events),
                    stale_entries,
                    entries,
                    self.engine.predictor_factory,
                    self.publisher.hash_op,
                )

        reply = {
            "ok": True,
            "app": app,
            "bootstrap": outcome.full_train,
            "drifted": outcome.drifted_pcs,
            "searched": outcome.searched_pcs,
            "published": changed,
            "staleness": staleness,
        }
        if changed:
            record = self.publisher.publish_entries(
                app,
                entries,
                at_events=profile.events_total,
                reason="bootstrap" if outcome.full_train else "drift-refresh",
            )
            profile.pin_reference(self.profiles.window_events)
            obs.gauge(f"serve.freshness_events.{app}", profile.freshness_events)
            reply.update(record.as_dict())
            self.log(
                f"published {app} hints {record.version} "
                f"({record.n_hints} hints, reason={record.reason})"
            )
        else:
            reply["version"] = current
            # No new hints, but the window we just examined becomes the
            # reference: the detector measures drift since last *look*.
            profile.pin_reference(self.profiles.window_events)
        return reply

    # ------------------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a client asks the service to shut down.

        ``repro serve start`` parks here; returns True once closing
        (False on timeout), after which :meth:`close` joins the threads.
        """
        return self._closing.wait(timeout)

    def close(self) -> None:
        """Stop accepting, unblock the accept loop, join serving threads."""
        self._closing.set()
        # On Linux, close() alone does not wake a thread blocked in
        # accept(); shutdown() does (ENOTCONN is harmless here).
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=1.0)

    def __enter__(self) -> "HintService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
