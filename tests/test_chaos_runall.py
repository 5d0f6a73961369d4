"""Chaos harness: ``run-all`` must survive every injected fault class.

Each scenario drives a real (small-scale) ``run_all`` under a seeded
``REPRO_FAULTS`` plan and checks the orchestrator's three invariants:

1. the run recovers (retries / quarantine / resume) or fails loudly —
   it never hangs and never silently drops work;
2. the committed artifact store stays clean — a post-run checksum scan
   (:meth:`ArtifactStore.verify`) finds zero corrupt files;
3. recovered and resumed runs reproduce the fault-free figure text
   byte-for-byte.

The interrupt scenario goes through the CLI in a subprocess so a real
SIGINT exercises the drain + journal + ``--resume`` path end to end.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.orchestrator import faults
from repro.orchestrator.journal import load_journal
from repro.orchestrator.runall import run_all
from repro.orchestrator.scheduler import CANCELLED, DONE, FAILED
from repro.orchestrator.store import ArtifactStore

EVENTS = 2_500
FIGURES = ["fig02"]
JOBS = 2


@pytest.fixture(autouse=True)
def clean_fault_env(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    monkeypatch.delenv(faults.FAULTS_STATE_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def baseline_text(tmp_path_factory):
    """The fault-free figure text every recovered run must reproduce."""
    cache = tmp_path_factory.mktemp("baseline-cache")
    os.environ.pop(faults.FAULTS_ENV, None)
    faults.reset()
    _, texts = run_all(
        figures=FIGURES, jobs=JOBS, n_events=EVENTS,
        cache_dir=str(cache), results_dir=None,
    )
    return texts["fig02"]


def _assert_store_clean(cache_dir):
    """Invariant 2: no corrupt committed artifact survives a run."""
    report = ArtifactStore(cache_dir).verify(quarantine_bad=False)
    assert report["corrupt"] == [], report
    assert report["scanned"] > 0


class TestCrashRecovery:
    def test_worker_crash_is_retried_and_run_completes(
        self, tmp_path, monkeypatch, baseline_text
    ):
        monkeypatch.setenv(faults.FAULTS_ENV, "crash_task:match=baseline:mysql")
        manifest, texts = run_all(
            figures=FIGURES, jobs=JOBS, n_events=EVENTS,
            cache_dir=str(tmp_path / "cache"), results_dir=None, retries=1,
        )
        assert manifest.counts()[FAILED] == 0
        assert manifest.faults["worker_deaths"] >= 1
        assert manifest.faults["retries"] >= 1
        victim = next(t for t in manifest.tasks if t["name"] == "baseline:mysql")
        assert victim["status"] == DONE and victim["attempts"] == 2
        assert texts["fig02"] == baseline_text
        _assert_store_clean(tmp_path / "cache")


class TestHangRecovery:
    def test_hung_worker_is_terminated_and_retried(
        self, tmp_path, monkeypatch, baseline_text
    ):
        monkeypatch.setenv(
            faults.FAULTS_ENV, "hang_task:match=trace:clang,delay=30"
        )
        manifest, texts = run_all(
            figures=FIGURES, jobs=JOBS, n_events=EVENTS,
            cache_dir=str(tmp_path / "cache"), results_dir=None,
            retries=1, task_timeout=5.0,
        )
        assert manifest.counts()[FAILED] == 0
        assert manifest.faults["timeouts"] >= 1
        victim = next(t for t in manifest.tasks if t["name"] == "trace:clang")
        assert victim["status"] == DONE and victim["timeouts"] == 1
        assert texts["fig02"] == baseline_text
        _assert_store_clean(tmp_path / "cache")


class TestCorruptArtifact:
    def test_corrupt_commit_quarantined_and_rebuilt(
        self, tmp_path, monkeypatch, baseline_text
    ):
        # ``once`` + a state dir: exactly one committed trace file is
        # damaged, run-wide, and the rebuild's re-put is left alone.
        # Traces are read back by the downstream baseline task, so the
        # bad file is guaranteed to cross the read path mid-run.
        monkeypatch.setenv(
            faults.FAULTS_ENV, "corrupt_artifact:match=trace/*,once=1"
        )
        monkeypatch.setenv(faults.FAULTS_STATE_ENV, str(tmp_path / "state"))
        cache = tmp_path / "cache"
        manifest, texts = run_all(
            figures=FIGURES, jobs=JOBS, n_events=EVENTS,
            cache_dir=str(cache), results_dir=None, retries=1,
        )
        assert manifest.counts()[FAILED] == 0
        assert texts["fig02"] == baseline_text
        # The damaged file was caught by the read path and preserved as
        # evidence; the committed namespace holds only verified bytes.
        quarantined = list((cache / "quarantine").rglob("*.npz"))
        assert len(quarantined) == 1
        assert manifest.faults["quarantined"] >= 1
        _assert_store_clean(cache)


class TestFailedWrite:
    def test_aborted_write_leaves_no_partial_file_and_retries(
        self, tmp_path, monkeypatch, baseline_text
    ):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail_write:match=trace/*")
        cache = tmp_path / "cache"
        manifest, texts = run_all(
            figures=FIGURES, jobs=JOBS, n_events=EVENTS,
            cache_dir=str(cache), results_dir=None, retries=1,
        )
        # Every trace task's first attempt died on its first put; the
        # retry (attempt 2, past the rule's ``attempts=1`` gate) wrote
        # cleanly.
        assert manifest.counts()[FAILED] == 0
        assert manifest.faults["retries"] >= 1
        assert texts["fig02"] == baseline_text
        assert not list((cache / "trace").glob("*.tmp"))
        _assert_store_clean(cache)


class TestFailFastAndResume:
    def test_persistent_failure_drains_then_resume_completes(
        self, tmp_path, monkeypatch, baseline_text
    ):
        cache, results = str(tmp_path / "cache"), str(tmp_path / "results")
        # The first task launched fails for good, so the rest of the graph
        # is still queued when fail-fast halts, however fast tasks run.
        monkeypatch.setenv(
            faults.FAULTS_ENV, "crash_task:match=trace:cassandra,attempts=99"
        )
        manifest, _ = run_all(
            figures=FIGURES, jobs=JOBS, n_events=EVENTS,
            cache_dir=cache, results_dir=results,
            retries=1, keep_going=False, run_id="chaos-ff",
        )
        counts = manifest.counts()
        assert counts[FAILED] == 1
        assert counts[CANCELLED] >= 1  # fail-fast drained the rest
        state = load_journal(results, "chaos-ff")
        assert state is not None and state.ended  # end marker written
        assert "trace:cassandra" not in state.completed
        assert state.completed  # the done work is journaled...

        monkeypatch.setenv(faults.FAULTS_ENV, "")
        faults.reset()
        resumed, texts = run_all(
            figures=FIGURES, jobs=JOBS,
            cache_dir=cache, results_dir=results, resume="chaos-ff",
        )
        assert resumed.counts()[FAILED] == 0
        assert resumed.faults["resumed"] == len(state.completed)
        assert not resumed.interrupted
        assert texts["fig02"] == baseline_text  # byte-identical report
        assert load_journal(results, "chaos-ff").sessions == 2
        _assert_store_clean(cache)

    def test_resume_unknown_run_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="journal|resume"):
            run_all(
                figures=FIGURES, n_events=EVENTS,
                cache_dir=str(tmp_path / "c"), results_dir=str(tmp_path / "r"),
                resume="no-such-run",
            )


class TestInterrupt:
    def test_sigint_drains_and_resume_reproduces_report(
        self, tmp_path, baseline_text
    ):
        cache, results = str(tmp_path / "cache"), str(tmp_path / "results")
        env = dict(os.environ)
        env.pop(faults.FAULTS_ENV, None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        # Hold one stage open so the SIGINT lands mid-run regardless of
        # machine speed; the drain must let it finish, cancel the rest,
        # and leave a resumable journal.
        env[faults.FAULTS_ENV] = "hang_task:match=baseline:postgres,delay=6"
        command = [
            sys.executable, "-m", "repro.cli", "run-all",
            "--figures", "fig02", "--jobs", str(JOBS),
            "--events", str(EVENTS),
            "--cache-dir", cache, "--results", results,
            "--run-id", "chaos-int",
        ]
        process = subprocess.Popen(
            command, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        time.sleep(3.0)
        process.send_signal(signal.SIGINT)
        output, _ = process.communicate(timeout=120)
        assert process.returncode == 130, output
        assert "resume" in output

        state = load_journal(results, "chaos-int")
        assert state is not None and state.completed
        assert len(state.completed) < 25  # genuinely interrupted mid-run

        resume = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run-all",
             "--resume", "chaos-int", "--jobs", str(JOBS),
             "--cache-dir", cache, "--results", results],
            env={k: v for k, v in env.items() if k != faults.FAULTS_ENV},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=300,
        )
        assert resume.returncode == 0, resume.stdout
        figure_text = open(os.path.join(results, "fig02_mpki.txt")).read()
        assert figure_text == baseline_text
        _assert_store_clean(cache)
