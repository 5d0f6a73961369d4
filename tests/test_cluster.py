"""End-to-end cluster runs: coordinator in-process, workers as real
subprocesses of ``repro cluster worker``.

The invariants mirror the local chaos suite, plus the cluster-specific
one: a distributed run's figure text is byte-identical to a local
``--jobs N`` run's, including after worker death, dropped connections,
heartbeat stalls, and corrupt transfers.  Workers connect to a
pre-chosen free port and retry until the coordinator (run_all in this
process) binds it, so startup order never races.
"""

import os
import signal
import socket
import subprocess
import sys
import threading

import pytest

from repro.orchestrator import faults
from repro.orchestrator.runall import run_all
from repro.orchestrator.scheduler import DONE, FAILED
from repro.orchestrator.store import ArtifactStore

EVENTS = 2_500
FIGURES = ["fig02"]
TOTAL_TASKS = 25  # 12 apps x 2 stages + the figure


@pytest.fixture(autouse=True)
def clean_fault_env(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    monkeypatch.delenv(faults.FAULTS_STATE_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def baseline_text(tmp_path_factory):
    """The local-run figure text every cluster run must reproduce."""
    cache = tmp_path_factory.mktemp("baseline-cache")
    os.environ.pop(faults.FAULTS_ENV, None)
    faults.reset()
    _, texts = run_all(
        figures=FIGURES, jobs=2, n_events=EVENTS,
        cache_dir=str(cache), results_dir=None,
    )
    return texts["fig02"]


def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _worker_env(extra=None):
    env = dict(os.environ)
    env.pop(faults.FAULTS_ENV, None)
    env.pop(faults.FAULTS_STATE_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.path.dirname(__file__), "..", "src"),
            env.get("PYTHONPATH", ""),
        ) if p
    )
    env.update(extra or {})
    return env


def _start_worker(port, cache_dir, worker_id, slots=2, env=None,
                  new_session=False):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "cluster", "worker",
         "--coordinator", f"127.0.0.1:{port}", "--slots", str(slots),
         "--cache-dir", str(cache_dir), "--worker-id", worker_id],
        env=env or _worker_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=new_session,
    )


def _finish(process, timeout=60):
    """A worker's (exit code, output); kills it if it outlives the run."""
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        output, _ = process.communicate()
        return -9, output
    return process.returncode, output


def _assert_store_clean(cache_dir):
    report = ArtifactStore(cache_dir).verify(quarantine_bad=False)
    assert report["corrupt"] == [], report
    assert report["scanned"] > 0


class TestClusterRun:
    def test_matches_local_run_byte_for_byte(self, tmp_path, baseline_text):
        port = _free_port()
        worker = _start_worker(port, tmp_path / "w1", "w1", slots=2)
        try:
            manifest, texts = run_all(
                figures=FIGURES, n_events=EVENTS,
                cache_dir=str(tmp_path / "hub"), results_dir=None,
                backend="cluster", coordinator=f"127.0.0.1:{port}",
            )
        finally:
            code, output = _finish(worker)
        assert code == 0, output
        assert texts["fig02"] == baseline_text
        assert manifest.backend == "cluster"
        assert manifest.counts()[DONE] == TOTAL_TASKS
        assert manifest.counts()[FAILED] == 0
        # Placement is recorded end to end: every task names its worker,
        # and the roster carries the per-worker counters.
        assert all(t["worker_id"] == "w1" for t in manifest.tasks)
        (roster_entry,) = manifest.workers
        assert roster_entry["worker_id"] == "w1"
        assert roster_entry["tasks_done"] == TOTAL_TASKS
        assert roster_entry["bytes_in"] > 0  # artifacts were mirrored up
        _assert_store_clean(tmp_path / "hub")
        _assert_store_clean(tmp_path / "w1")

    def test_missing_coordinator_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="--coordinator"):
            run_all(
                figures=FIGURES, n_events=EVENTS,
                cache_dir=str(tmp_path / "hub"), results_dir=None,
                backend="cluster",
            )


class TestWorkerDeath:
    def test_sigkilled_worker_is_reassigned(self, tmp_path, baseline_text):
        """SIGKILL one of two workers mid-run: its leases expire, the
        tasks rerun elsewhere, and the figure text does not change."""
        port = _free_port()
        # The victim's first task hangs, so it is certain to hold a lease
        # when it dies; it runs in its own session so the SIGKILL takes
        # its slot process down with it, as a machine death would.
        victim = _start_worker(
            port, tmp_path / "w1", "w1", slots=1, new_session=True,
            env=_worker_env({
                faults.FAULTS_ENV: "hang_task:delay=120",
                "PYTHONUNBUFFERED": "1",
            }),
        )
        survivor = _start_worker(port, tmp_path / "w2", "w2", slots=1)

        def _kill_once_leased():
            for line in victim.stdout:
                if "running " in line:
                    os.killpg(victim.pid, signal.SIGKILL)
                    return

        killer = threading.Thread(target=_kill_once_leased)
        killer.start()
        try:
            manifest, texts = run_all(
                figures=FIGURES, n_events=EVENTS,
                cache_dir=str(tmp_path / "hub"), results_dir=None,
                backend="cluster", coordinator=f"127.0.0.1:{port}",
                lease_seconds=2.0, retries=2,
            )
        finally:
            killer.join()
            _finish(victim)
            code, output = _finish(survivor)
        assert code == 0, output
        assert manifest.counts()[FAILED] == 0
        assert manifest.counts()[DONE] == TOTAL_TASKS
        assert manifest.faults["worker_deaths"] >= 1
        assert texts["fig02"] == baseline_text
        # The survivor finished the victim's share.
        by_id = {w["worker_id"]: w for w in manifest.workers}
        assert by_id["w2"]["tasks_done"] >= 1
        assert not by_id["w1"]["alive"]
        _assert_store_clean(tmp_path / "hub")


class TestDropConnection:
    def test_dropped_connection_survives_within_lease(
        self, tmp_path, baseline_text
    ):
        """The injected drop severs the socket on assignment; the worker
        reconnects under the same id and its leases hold."""
        port = _free_port()
        env = _worker_env({
            faults.FAULTS_ENV: "drop_connection:match=trace:clang,nth=1",
        })
        worker = _start_worker(port, tmp_path / "w1", "w1", slots=2, env=env)
        try:
            manifest, texts = run_all(
                figures=FIGURES, n_events=EVENTS,
                cache_dir=str(tmp_path / "hub"), results_dir=None,
                backend="cluster", coordinator=f"127.0.0.1:{port}",
            )
        finally:
            code, output = _finish(worker)
        assert code == 0, output
        assert "dropping coordinator connection" in output
        assert manifest.counts()[FAILED] == 0
        assert manifest.counts()[DONE] == TOTAL_TASKS
        # No lease expired: reconnection happened within the window, so
        # nothing was retried and determinism held the cheap way.
        assert manifest.faults.get("worker_deaths", 0) == 0
        assert texts["fig02"] == baseline_text
        _assert_store_clean(tmp_path / "hub")


class TestHeartbeatStall:
    def test_stalled_worker_loses_leases_and_results_go_stale(
        self, tmp_path, baseline_text
    ):
        """delay_heartbeat silences the whole worker loop past its
        lease.  The coordinator must reassign, and the stalled worker's
        late results must be rejected — never double-committed."""
        port = _free_port()
        env = _worker_env({
            # The first beat lands ~lease/3 in, while the first task's
            # lease is certainly still held (slot startup alone takes
            # longer), so the stall always expires a real lease.
            faults.FAULTS_ENV: "delay_heartbeat:match=w1,nth=1,delay=6",
        })
        staller = _start_worker(port, tmp_path / "w1", "w1", slots=1, env=env)
        helper = _start_worker(port, tmp_path / "w2", "w2", slots=1)
        try:
            manifest, texts = run_all(
                figures=FIGURES, n_events=EVENTS,
                cache_dir=str(tmp_path / "hub"), results_dir=None,
                backend="cluster", coordinator=f"127.0.0.1:{port}",
                lease_seconds=2.0, retries=2,
            )
        finally:
            _finish(staller)
            code, output = _finish(helper)
        assert code == 0, output
        assert manifest.counts()[FAILED] == 0
        assert manifest.counts()[DONE] == TOTAL_TASKS
        assert manifest.faults["worker_deaths"] >= 1  # the expired lease
        assert texts["fig02"] == baseline_text
        _assert_store_clean(tmp_path / "hub")


class TestCorruptTransfer:
    def test_corrupt_upload_rejected_and_resent(self, tmp_path, baseline_text):
        """corrupt_transfer damages one blob on the wire; the receiving
        checksum gate must reject it, the retry must succeed, and no
        store may ever hold the damaged bytes."""
        port = _free_port()
        env = _worker_env({
            faults.FAULTS_ENV: "corrupt_transfer:match=trace/*,once=1",
            faults.FAULTS_STATE_ENV: str(tmp_path / "state"),
        })
        worker = _start_worker(port, tmp_path / "w1", "w1", slots=2, env=env)
        try:
            manifest, texts = run_all(
                figures=FIGURES, n_events=EVENTS,
                cache_dir=str(tmp_path / "hub"), results_dir=None,
                backend="cluster", coordinator=f"127.0.0.1:{port}",
            )
        finally:
            code, output = _finish(worker)
        assert code == 0, output
        assert manifest.counts()[FAILED] == 0
        assert manifest.counts()[DONE] == TOTAL_TASKS
        assert texts["fig02"] == baseline_text
        # Both ends committed only verified bytes.
        _assert_store_clean(tmp_path / "hub")
        _assert_store_clean(tmp_path / "w1")
