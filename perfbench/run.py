"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload headline-cold --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --all --seconds 5

Run from the repository root.  Set-up is repeated in fresh processes
(see ``SETUP_ROUNDS``) and its median reported as ``setup_s``; then
fresh-process iterations of the workload run until ``--seconds`` have
passed.  Every iteration's outputs are checked.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics; both lists
are read from ``BENCHMARK.json``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program runs at its defaults: ``REPRO_*`` variables are removed
from the environment, and every file it writes (artifact stores, the
native kernel cache, temporary files) lives in a fresh directory under
``.perfbench-work/`` in the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
import results
from iteration import SERVE, SERVE_PHASE_EVENTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: Set-up repeats at least ``SETUP_ROUNDS`` times and until its rounds
#: add up to ``SETUP_SECONDS``, so a cheap set-up is sampled more often.
SETUP_ROUNDS = 3
SETUP_SECONDS = 3.0
SETUP_MAX_ROUNDS = 9

#: Every run ends well within the 180 s a run may take.
RUN_DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def tree_rss_kb(root_pid: int) -> int:
    """Resident set size of ``root_pid`` and all its descendants."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
                parents[int(entry)] = int(fields[1])
            except (OSError, IndexError, ValueError):
                pass
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        pid = frontier.pop()
        for child, parent in parents.items():
            if parent == pid and child not in tree:
                tree.add(child)
                frontier.append(child)
    page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
    total = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/statm") as handle:
                total += int(handle.read().split()[1]) * page_kb
        except (OSError, IndexError, ValueError):
            pass
    return total


def child_env(native_dir: Path, tmp_dir: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_NATIVE_CACHE"] = str(native_dir)
    env["TMPDIR"] = str(tmp_dir)
    return env


def run_child(request: dict, env: Dict[str, str], deadline: float) -> Tuple[dict, float, float]:
    """Run ``iteration.py`` once; returns (its JSON, wall seconds, peak tree RSS in MB).

    The main thread blocks in ``wait()`` so the wall time is exact; a
    sampler thread records the process tree's RSS and kills the tree if
    the run deadline passes.
    """
    directory = Path(request["dir"])
    out_path = directory / f"child-{time.monotonic_ns()}.out"
    err_path = out_path.with_suffix(".err")
    peak_kb = [0]
    stop = threading.Event()
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "iteration.py"), json.dumps(request)],
            stdout=out, stderr=err, env=env, cwd=str(ROOT), start_new_session=True,
        )

        def sample() -> None:
            while not stop.wait(0.1):
                peak_kb[0] = max(peak_kb[0], tree_rss_kb(proc.pid))
                if time.monotonic() > deadline:
                    os.killpg(proc.pid, signal.SIGKILL)
                    return

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            proc.wait()
            wall = time.perf_counter() - start
        finally:
            stop.set()
            sampler.join()
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0:
        tail = err_path.read_text()[-2000:]
        raise ChildFailed(f"{request['mode']} exited {proc.returncode}:\n{tail}")
    result = json.loads(out_path.read_text().strip().splitlines()[-1])
    return result, wall, max(peak_kb[0], int(result.get("ru_maxrss_kb", 0))) / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    if not (ROOT / "src" / "repro").is_dir():
        raise ChildFailed(f"no program sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(workload, seed, seconds, trace, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _measure(workload: str, seed: int, seconds: float, trace: bool, work: Path, deadline: float) -> dict:
    setups: List[Tuple[dict, float]] = []
    while len(setups) < SETUP_ROUNDS or (
        sum(wall for _, wall in setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_ROUNDS
    ):
        if setups:
            shutil.rmtree(directory)
        directory = work / f"setup-{len(setups)}"
        (directory / "tmp").mkdir(parents=True)
        env = child_env(directory / "native", directory / "tmp")
        request = {"mode": "setup", "workload": workload, "dir": str(directory), "seed": seed}
        result, wall, _ = run_child(request, env, deadline)
        setups.append((result, wall))
    # Iterations use the last round's store, traces and kernel cache.
    setup_result = setups[-1][0]
    jobs = _jobs(workload)
    # A traced pass also needs untraced runs: at the workload's --jobs for
    # the scheduler figures, and at --jobs 1 (where tracing runs) for the
    # tracing overhead.
    plan = [(jobs, False)]
    if trace:
        plan += [(1, False)] if jobs != 1 else []
        plan += [(1, True)]

    reference = results.load_reference()
    iterations: List[dict] = []
    began = time.monotonic()
    while not iterations or (
        time.monotonic() - began < seconds and time.monotonic() < deadline
    ):
        for run_jobs, traced in plan:
            request = {
                "mode": "iterate", "workload": workload, "dir": str(directory),
                "seed": seed, "jobs": run_jobs, "traced": traced,
            }
            try:
                result, _, peak_mb = run_child(request, env, deadline)
            except ChildFailed as error:
                result, peak_mb = crashed(setup_result, error), 0.0
            result.update(jobs=run_jobs, traced=traced, peak_rss_mb=peak_mb)
            result["problems"] = _check(workload, result, setup_result, reference)
            iterations.append(result)
    return _report(workload, seed, setups, iterations, trace)


def crashed(setup_result: dict, error: Exception) -> dict:
    """A crashed or killed iteration: every operation it planned failed."""
    planned = int(setup_result["operations"])
    return {"attempted": planned, "failed": planned, "crash": str(error)}


def _check(workload, result, setup_result, reference) -> List[str]:
    if "crash" in result:
        return [result["crash"]]
    if workload == SERVE:
        want = reference.get(f"{SERVE}@{SERVE_PHASE_EVENTS}")
        return results.check_serve(result["fields"], want, result["errors"])
    spec = WORKLOADS[workload]
    return results.check_run_all(
        result["digests"], spec.n_events, spec.figures, reference,
        cold_digests=setup_result.get("digests") if spec.warm else None,
    )


def _report(workload: str, seed: int, setups, iterations: List[dict], trace: bool) -> dict:
    counts = results.tally(iterations)
    correct = not any(it["problems"] for it in iterations)
    for it in iterations:
        for problem in it["problems"]:
            print(f"CHECK FAILED: {problem}")
    provenance = dict(setups[-1][0]["provenance"], seed=seed, workload=workload)
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    main = _untraced(iterations, _jobs(workload))
    op_ms = [ms for it in main for ms in it.get("op_ms", ())]
    if not op_ms:
        raise ChildFailed("no iteration completed an operation")
    setup_s = [wall for _, wall in setups]
    bench = results.load_benchmark()
    if not trace:
        declared = bench["end_to_end"]
        metrics = {
            "wall_s": np.median([it["wall_s"] for it in main]),
            "setup_s": np.median(setup_s),
            "peak_rss_mb": np.median([it["peak_rss_mb"] for it in main]),
            "ok_ratio": 1.0 - counts["failed"] / counts["attempted"],
        }
        samples = {"wall_s": len(main), "setup_s": len(setup_s), "peak_rss_mb": len(main),
                   "ok_ratio": counts["attempted"]}
        for metric in declared:
            name = metric["name"]
            print(f"{name:<12} {metrics[name]:>14.6g} {metric['unit']:<6} (n={samples[name]})")
        _print_extras(main, op_ms)
    else:
        declared = bench["per_layer"]
        metrics = _layer_metrics(workload, setups, iterations, [m["name"] for m in declared])
        for metric in declared:
            name = metric["name"]
            moves, on = layers.MOVES[name]
            print(f"{name:<38} {metrics[name]:>14.6g} {metric['unit']:<6} "
                  f"should move {moves} on {', '.join(on)}")
    return {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def _print_extras(main: List[dict], op_ms: List[float]) -> None:
    """Figures printed beside the end-to-end metrics but not gated: they
    are either specific to one workload or too noisy on a shared host."""
    tail = results.tail_percentile(len(op_ms)) or 50.0
    for q in sorted({50.0, 90.0, tail}):
        beyond = "" if q != tail else f"; p{tail:g} is the highest with >= {results.MIN_BEYOND} beyond it"
        print(f"op_p{q:g}_ms  {np.percentile(op_ms, q):>14.6g} ms     (n={len(op_ms)}{beyond})")
    for name, value in sorted(main[0].get("modelled", {}).items()):
        print(f"modelled     {name} = {value:g} (unvalidated against hardware)")
    if "refresh_s" in main[0]:
        refresh = [s for it in main for s in it["refresh_s"]]
        print(f"refresh_s    {np.median(refresh):>14.6g} s      (n={len(refresh)})")
        ingest = [it["ingest_events_per_s"] for it in main]
        print(f"ingest_events_per_s {np.median(ingest):>14.6g} 1/s (n={len(ingest)})")


def _layer_metrics(workload: str, setups, iterations: List[dict], names: List[str]) -> Dict[str, float]:
    traced = [it for it in iterations if it["traced"] and "layers" in it]
    untraced_1 = _untraced(iterations, 1)
    if not traced or not untraced_1:
        raise ChildFailed("no traced or untraced iteration completed")
    merged = {key: np.median([it["layers"][key] for it in traced]) for key in traced[0]["layers"]}
    # Scheduler figures come from the manifests of untraced runs at the
    # workload's own --jobs; the serve workload runs no run-all graph.
    main = _untraced(iterations, _jobs(workload))
    for key in ("tasks", "attempts", "utilisation", "queue_wait_s", "coverage"):
        values = [it["scheduler"][key] for it in main if "scheduler" in it]
        merged[f"orchestrator.scheduler.{key}"] = np.median(values) if values else 0.0
    merged["bpu.native.compile_s"] = np.median([r["compile_s"] for r, _ in setups])
    merged["trace.overhead_s"] = merged["trace.wall_s"] - np.median(
        [it["wall_s"] for it in untraced_1]
    )
    return {name: merged[name] for name in names}


def _jobs(workload: str) -> int:
    return WORKLOADS[workload].jobs if workload in WORKLOADS else 1


def _untraced(iterations: List[dict], jobs: int) -> List[dict]:
    return [
        it for it in iterations
        if not it["traced"] and it["jobs"] == jobs and "crash" not in it
    ]


def main(argv: Optional[List[str]] = None) -> int:
    names = sorted(WORKLOADS) + [SERVE]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    # A terminated run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        if args.all:
            summary = {}
            for name in names:
                print(f"== {name} ==")
                summary[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(summary))
        else:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    except ChildFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
