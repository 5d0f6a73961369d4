"""Tests for the continuous profiling hint service (``repro.serve``).

Layered like the package: shard contracts and sessions with no socket,
ingestion validation against the real registry programs, drift
detection on the phase-drifting workload, raw-socket edge cases against
a live service (protocol mismatch, abrupt disconnect mid-shard), fault
injection through the supervised search tasks, and the scripted
end-to-end demo — including the publish-determinism invariant: two runs
of the same schedule produce byte-identical summaries and version ids.
"""

import json
import socket
import struct
import time

import numpy as np
import pytest

from repro import obs, wire
from repro.orchestrator import faults
from repro.serve import (
    BadShard,
    HintService,
    RefreshEngine,
    RollingProfileStore,
    ServeClient,
    SessionExpired,
    SessionTable,
    ShardIngestor,
    UnknownApp,
    pack_shard_blob,
    run_demo,
    unpack_shard_blob,
)
from repro.serve.contracts import SERVE_PROTOCOL_VERSION
from repro.workloads.drifting import generate_drifting_trace
from repro.workloads.generator import get_program
from repro.workloads.registry import get_spec
from repro.core.whisper import WhisperConfig

APP = "clang"

#: One shared small-but-drift-detectable demo schedule (see
#: TestEndToEnd for why these numbers).
DEMO_KW = dict(
    app=APP,
    n_clients=2,
    events_per_phase=8000,
    shard_events=1000,
    max_candidates=16,
)


@pytest.fixture(autouse=True)
def _no_inherited_faults(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestShardContracts:
    def test_pack_unpack_roundtrip(self):
        ids = np.array([3, 1, 4, 1, 5, 9], dtype=np.int32)
        taken = np.array([True, False, True, True, False, True])
        out_ids, out_taken = unpack_shard_blob(pack_shard_blob(ids, taken))
        assert np.array_equal(out_ids, ids)
        assert np.array_equal(out_taken, taken)

    def test_empty_shard_roundtrip(self):
        ids = np.array([], dtype=np.int32)
        taken = np.array([], dtype=bool)
        out_ids, out_taken = unpack_shard_blob(pack_shard_blob(ids, taken))
        assert len(out_ids) == 0 and len(out_taken) == 0

    def test_truncated_blob_rejected(self):
        ids = np.arange(100, dtype=np.int32)
        taken = np.ones(100, dtype=bool)
        blob = pack_shard_blob(ids, taken)
        with pytest.raises(BadShard):
            unpack_shard_blob(blob[: len(blob) // 2])

    def test_trailing_garbage_rejected(self):
        blob = pack_shard_blob(
            np.arange(10, dtype=np.int32), np.zeros(10, dtype=bool)
        )
        with pytest.raises(BadShard):
            unpack_shard_blob(blob + b"xx")

    def test_oversize_event_count_rejected(self):
        # A forged header claiming 2^21 events must be rejected before
        # any array allocation is attempted from the (short) payload.
        blob = struct.pack("!I", 1 << 21)
        with pytest.raises(BadShard, match="too large"):
            unpack_shard_blob(blob)


class TestSessions:
    def test_lease_expiry(self):
        table = SessionTable(lease_seconds=0.05)
        table.register("c1", APP)
        time.sleep(0.1)
        table.sweep()
        with pytest.raises(SessionExpired):
            table.get("c1")
        assert table.expired_total == 1

    def test_activity_renews_lease(self):
        table = SessionTable(lease_seconds=0.2)
        table.register("c1", APP)
        for _ in range(3):
            time.sleep(0.08)
            table.get("c1")  # touches
        assert table.get("c1").client_id == "c1"

    def test_reconnect_replaces_session(self):
        table = SessionTable(lease_seconds=10.0)
        table.register("c1", APP)
        table.get("c1").next_seq = 7
        table.register("c1", APP)  # reconnect: fresh sequence space
        assert table.get("c1").next_seq == 0

    def test_unknown_client_is_expired(self):
        table = SessionTable(lease_seconds=10.0)
        with pytest.raises(SessionExpired):
            table.get("never-said-hello")


def _ingestor(**store_kwargs):
    profiles = RollingProfileStore(**store_kwargs)
    return profiles, ShardIngestor(
        profiles, lambda app: get_program(get_spec(app))
    )


class TestIngest:
    def _shard(self, n=50):
        program = get_program(get_spec(APP))
        rng = np.random.default_rng(7)
        ids = rng.integers(
            0, len(program.block_sizes), size=n
        ).astype(np.int32)
        return pack_shard_blob(ids, np.ones(n, dtype=bool))

    def test_in_order_shards_accumulate(self):
        profiles, ingestor = _ingestor()
        table = SessionTable(10.0)
        session = table.register("c1", APP)
        assert ingestor.ingest(session, 0, self._shard()) == 50
        assert ingestor.ingest(session, 1, self._shard()) == 50
        assert profiles.get(APP).events_total == 100
        assert session.next_seq == 2

    def test_out_of_order_shard_rejected_and_counted(self):
        profiles, ingestor = _ingestor()
        session = SessionTable(10.0).register("c1", APP)
        ingestor.ingest(session, 0, self._shard())
        with pytest.raises(BadShard, match="out-of-order"):
            ingestor.ingest(session, 5, self._shard())
        assert ingestor.shards_rejected == 1
        assert profiles.get(APP).events_total == 50  # nothing applied

    def test_block_out_of_range_rejected(self):
        profiles, ingestor = _ingestor()
        session = SessionTable(10.0).register("c1", APP)
        blob = pack_shard_blob(
            np.array([10 ** 6], dtype=np.int32), np.array([True])
        )
        with pytest.raises(BadShard, match="out of range"):
            ingestor.ingest(session, 0, blob)
        assert profiles.get(APP) is None  # rejected before ensure_app

    def test_unknown_app_is_typed(self):
        _, ingestor = _ingestor()
        with pytest.raises(UnknownApp):
            ingestor.program_for("no-such-app")


class TestDriftDetection:
    def test_rotated_branches_flagged_after_reference_pin(self):
        spec = get_spec(APP)
        program = get_program(spec)
        drifting = generate_drifting_trace(
            spec, input_id=0, n_events=16000, n_phases=2, drift_fraction=0.25
        )
        profiles = RollingProfileStore(
            buffer_events=16000, window_events=8000,
            drift_threshold=0.20, min_executions=32,
        )
        profile = profiles.ensure_app(APP, program)
        phase0 = drifting.phase_slice(0)
        profile.ingest(phase0.block_ids, phase0.taken)
        # No reference pinned yet: nothing can be called drifted.
        assert profiles.drifted_branches(APP) == []
        profile.pin_reference(8000)
        phase1 = drifting.phase_slice(1)
        profile.ingest(phase1.block_ids, phase1.taken)
        drifted = profiles.drifted_branches(APP)
        assert drifted, "rotating hot branches must be detectable"
        # Everything flagged really rotated: the phase streams replay
        # the same blocks, so undrifted rates are stable.
        assert set(drifted) <= set(drifting.rotated_pcs[1])

    def test_no_drift_without_rotation(self):
        spec = get_spec(APP)
        program = get_program(spec)
        drifting = generate_drifting_trace(
            spec, input_id=0, n_events=16000, n_phases=2, drift_fraction=0.0
        )
        profiles = RollingProfileStore(
            buffer_events=16000, window_events=8000,
            drift_threshold=0.20, min_executions=32,
        )
        profile = profiles.ensure_app(APP, program)
        phase0 = drifting.phase_slice(0)
        profile.ingest(phase0.block_ids, phase0.taken)
        profile.pin_reference(8000)
        phase1 = drifting.phase_slice(1)
        profile.ingest(phase1.block_ids, phase1.taken)
        assert profiles.drifted_branches(APP) == []


class TestServiceWire:
    """Raw-socket edge cases against a live service."""

    @pytest.fixture()
    def service(self):
        with HintService() as service:
            yield service

    def _hello(self, sock, client="raw", app=APP,
               protocol=SERVE_PROTOCOL_VERSION):
        reply, _ = wire.request(
            sock,
            {"op": "hello", "client": client, "app": app,
             "protocol": protocol},
        )
        return reply

    def test_protocol_mismatch_refused(self, service):
        sock = wire.connect(service.address)
        try:
            reply = self._hello(sock, protocol=99)
            assert reply["error"] == "bad-shard"
            assert "mismatch" in reply["detail"]
        finally:
            sock.close()

    def test_unknown_app_refused_at_hello(self, service):
        sock = wire.connect(service.address)
        try:
            reply = self._hello(sock, app="no-such-app")
            assert reply["error"] == "unknown-app"
        finally:
            sock.close()

    def test_shard_without_hello_is_session_expired(self, service):
        sock = wire.connect(service.address)
        try:
            reply, _ = wire.request(
                sock, {"op": "shard", "client": "ghost", "seq": 0}, b""
            )
            assert reply["error"] == "session-expired"
        finally:
            sock.close()

    def test_abrupt_disconnect_mid_shard_is_harmless(self, service):
        # A client dies after sending only part of a shard frame: the
        # torn frame must never be applied, and the service must keep
        # answering other clients.
        sock = wire.connect(service.address)
        self._hello(sock, client="dying")
        blob = pack_shard_blob(
            np.zeros(1000, dtype=np.int32), np.ones(1000, dtype=bool)
        )
        body = json.dumps(
            {"op": "shard", "client": "dying", "seq": 0}
        ).encode()
        frame = struct.pack("!II", len(body), len(blob)) + body + blob
        sock.sendall(frame[: len(frame) // 2])
        sock.close()
        time.sleep(0.2)  # let the serving thread observe the tear
        assert service.ingestor.shards_accepted == 0
        status = ServeClient(service.address, "probe").status()
        assert status["ok"]
        assert status["ingest"]["shards_accepted"] == 0

    def test_oversize_shard_rejected_not_fatal(self, service):
        sock = wire.connect(service.address)
        try:
            self._hello(sock, client="bulk")
            reply, _ = wire.request(
                sock,
                {"op": "shard", "client": "bulk", "seq": 0},
                struct.pack("!I", 1 << 21),
            )
            assert reply["error"] == "bad-shard"
            # Same connection still usable after the typed rejection.
            reply, _ = wire.request(sock, {"op": "status"})
            assert reply["ok"]
        finally:
            sock.close()

    def test_close_with_no_client_returns_promptly(self):
        # Closing must wake the thread blocked in accept() rather than
        # wait out its join timeout.
        service = HintService()
        start = time.monotonic()
        service.close()
        assert time.monotonic() - start < 1.0
        assert not service._accept_thread.is_alive()


class TestChaosSearch:
    def test_injected_search_crash_recovers_via_retries(self, monkeypatch):
        # A crashed per-branch search task must be retried by the
        # supervised scheduler, not take the refresh (or service) down.
        monkeypatch.setenv(
            faults.FAULTS_ENV, f"crash_task:match=search:{APP}:*"
        )
        faults.reset()
        spec = get_spec(APP)
        trace = generate_drifting_trace(
            spec, input_id=0, n_events=8000, n_phases=1, drift_fraction=0.0
        ).trace
        engine = RefreshEngine(config=WhisperConfig(max_candidates=4))
        outcome = engine.bootstrap(APP, trace)
        assert outcome.searched_pcs
        retried = [
            r for r in outcome.search_task_records if r.attempts > 1
        ]
        assert retried, "the injected crash must have forced a retry"
        assert all(
            r.status == "done" for r in outcome.search_task_records
        )


class TestEndToEnd:
    """The scripted demo: drift -> scoped re-search -> publish -> replay.

    The schedule is small (two clients, 8k events/phase) but chosen so
    the drift is *detectable*: the rotated hot branches execute well
    over the detector's min_executions within one phase-long window.
    """

    @pytest.fixture(scope="class")
    def demo(self):
        recorder = obs.configure(True)
        summary = run_demo(**DEMO_KW)
        counters = recorder.counters()
        obs.configure_from_env()
        return summary, counters

    def test_bootstrap_publishes(self, demo):
        summary, _ = demo
        assert summary["bootstrap_version"]
        assert summary["bootstrap_hints"] > 0

    def test_drift_detected_and_search_scoped(self, demo):
        summary, _ = demo
        assert summary["drifted"], "rotated branches must be flagged"
        assert set(summary["drifted"]) <= set(summary["rotated_branches"])
        # The tentpole invariant: re-search runs for drifted branches
        # only, never the whole candidate set.
        assert summary["searched"]
        assert set(summary["searched"]) <= set(summary["drifted"])

    def test_fresh_version_published_and_served(self, demo):
        summary, _ = demo
        assert summary["published_after_drift"]
        assert summary["refreshed_version"] != summary["bootstrap_version"]
        assert summary["served_version"] == summary["refreshed_version"]

    def test_fresh_hints_beat_stale_on_post_drift_traffic(self, demo):
        summary, _ = demo
        assert summary["stale_mpki"] > summary["fresh_mpki"]
        assert summary["staleness_mpki"] > 0

    def test_freshness_counter_tracks_ingest_since_publish(self, demo):
        summary, _ = demo
        assert summary["freshness_before_refresh"] == (
            DEMO_KW["events_per_phase"]
        )

    def test_obs_counters_surface_the_loop(self, demo):
        summary, counters = demo
        assert counters["serve.ingest.shards"] == 16  # 2 phases x 8 shards
        assert counters["serve.ingest.events"] == 16000
        assert counters["serve.drift.flagged"] == len(summary["drifted"])
        # Bootstrap searches every candidate (>= the hints it accepts);
        # the incremental pass adds exactly the drift-scoped searches.
        assert counters["serve.refresh.searched"] >= (
            summary["bootstrap_hints"] + len(summary["searched"])
        )
        assert counters["serve.publish.versions"] == 2
        assert counters["serve.sessions.opened"] >= 2 * DEMO_KW["n_clients"]

    def test_demo_is_deterministic(self, demo, tmp_path):
        summary, _ = demo
        rerun = run_demo(**DEMO_KW, out=tmp_path / "rerun.json")
        assert rerun == summary
        on_disk = json.loads((tmp_path / "rerun.json").read_text())
        assert on_disk == summary
