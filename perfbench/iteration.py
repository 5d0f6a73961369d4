"""One set-up round or one measured iteration, in a fresh process.

``run.py`` starts this file once per set-up round and once per
iteration, so every iteration pays the same cold-process costs a user's
``repro run-all`` pays.  The last line of standard output is one JSON
object with the round's or iteration's results.

    python3 perfbench/iteration.py '{"mode": "setup", "workload": ..., "dir": ..., "seed": ...}'
    python3 perfbench/iteration.py '{"mode": "iterate", ..., "jobs": 2, "traced": false}'
"""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import shutil
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from results import digest, load_benchmark


class RunAllWorkload(NamedTuple):
    figures: Tuple[str, ...]
    n_events: int
    jobs: int
    warm: bool


#: Inputs of the run-all workloads are fixed by the figure modules.  The
#: program's default is 40,000 events per app; every size here is below
#: it because all the benchmark's runs must fit one time budget, about
#: 120 s per round of the four workloads on a 2-core host.  At 40,000
#: events a cold fig12+fig13 run takes ~50 s, fig18 ~85 s, and the warm
#: store pre-fill ~47 s in each of three set-up rounds.  headline-cold
#: keeps half the default, where replay and BranchNet training lead its
#: self time as they do at 40,000; warm self time is build_program and
#: store decode at any size, so its pre-fill stays small; fig18 is the
#: most expensive per event and is cut furthest.  README.md has the
#: layer shares at these sizes and at the default.
WORKLOADS: Dict[str, RunAllWorkload] = {
    "headline-cold": RunAllWorkload(("fig12", "fig13"), 20_000, jobs=1, warm=False),
    "headline-warm": RunAllWorkload(("fig12", "fig13"), 5_000, jobs=2, warm=True),
    "sweep-cold": RunAllWorkload(("fig18",), 2_500, jobs=2, warm=False),
}

SERVE = "serve-drift"
SERVE_APPS = ("clang", "mysql")
#: Phase length, drift window and candidate budget are ``repro serve
#: demo``'s defaults; shard lengths are drawn around its 4000 events.
SERVE_PHASE_EVENTS = 60_000
SERVE_SHARD_EVENTS = (2000, 6000)
SERVE_INPUT = 0  # the drifting-trace input, as in ``repro serve demo``
SERVE_MAX_CANDIDATES = 32


def table_cell(text: str, row: str, column: str) -> float:
    """One numeric cell of a figure's text table.

    Columns are separated by at least two spaces; the header is the line
    above the dashed rule.
    """
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    headers = re.split(r"\s{2,}", lines[rule - 1].strip())
    for line in lines[rule + 1:]:
        cells = re.split(r"\s{2,}", line.strip())
        if cells[0] == row:
            return float(cells[headers.index(column)])
    raise KeyError(f"no row {row!r} in table")


def provenance() -> dict:
    """Host and program settings in effect for this process."""
    from repro.bpu import native, runner

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": runner.default_kernel(),
        "native_backend": native.backend_name() or "none",
    }


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def serve_plan(seed: int) -> Dict[str, dict]:
    """Per served app: the shard cut points of each phase, drawn from the
    workload seed.

    The drifting trace itself is fixed: a different input changes how
    many branches drift and so the refresh work, by about a third.
    """
    rng = np.random.default_rng(seed)
    plan = {}
    for app in SERVE_APPS:
        phases = []
        for _ in range(2):
            cuts, position = [], 0
            while position < SERVE_PHASE_EVENTS:
                position = min(SERVE_PHASE_EVENTS, position + int(rng.integers(*SERVE_SHARD_EVENTS)))
                cuts.append(position)
            phases.append(cuts)
        plan[app] = {"cuts": phases}
    return plan


def serve_operations(plan: Dict[str, dict]) -> int:
    """Requests a serve iteration makes: per app and phase, its shards,
    one refresh and one ``get_hints``."""
    return sum(len(cuts) + 2 for app_plan in plan.values() for cuts in app_plan["cuts"])


def setup(workload: str, directory: Path, seed: int) -> dict:
    """Compile the native kernels; pre-fill the store or build the
    drifting traces the workload consumes."""
    from repro.bpu import native

    start = time.perf_counter()
    native.load()
    out = {"compile_s": time.perf_counter() - start, "provenance": provenance()}
    if workload in WORKLOADS:
        from repro.orchestrator.runall import build_graph, run_all

        spec = WORKLOADS[workload]
        out["provenance"]["n_events"] = spec.n_events
        out["operations"] = len(build_graph(spec.figures, spec.n_events, str(directory), None))
        if spec.warm:
            _, texts = run_all(
                list(spec.figures), jobs=1, n_events=spec.n_events,
                cache_dir=str(directory / "store"), results_dir=str(directory / "prefill"),
            )
            out["digests"] = {name: digest(text) for name, text in sorted(texts.items())}
    else:
        from repro.workloads.drifting import generate_drifting_trace
        from repro.workloads.registry import get_spec

        out["provenance"]["n_events"] = 2 * SERVE_PHASE_EVENTS * len(SERVE_APPS)
        out["operations"] = serve_operations(serve_plan(seed))
        for app in SERVE_APPS:
            drifting = generate_drifting_trace(
                get_spec(app), input_id=SERVE_INPUT,
                n_events=2 * SERVE_PHASE_EVENTS, n_phases=2,
            )
            np.savez(
                directory / f"drift-{app}.npz",
                block_ids=drifting.trace.block_ids, taken=drifting.trace.taken,
            )
    return out


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------
def iterate_run_all(workload: str, directory: Path, jobs: int) -> dict:
    """One ``run_all`` call: cold on a fresh store, warm on the pre-filled one."""
    from repro.orchestrator.runall import run_all

    spec = WORKLOADS[workload]
    scratch = Path(tempfile.mkdtemp(dir=directory))
    store = directory / "store" if spec.warm else scratch / "store"
    start = time.perf_counter()
    manifest, texts = run_all(
        list(spec.figures), jobs=jobs, n_events=spec.n_events,
        cache_dir=str(store), results_dir=str(scratch / "results"),
    )
    end = time.perf_counter()
    shutil.rmtree(scratch)
    tasks = manifest.tasks
    out = {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "op_ms": [1000.0 * (t["finished"] - t["started"]) for t in tasks if t["status"] == "done"],
        "attempted": len(tasks),
        "failed": sum(t["status"] != "done" for t in tasks),
        "digests": {name: digest(text) for name, text in sorted(texts.items())},
        "scheduler": {
            "tasks": len(tasks),
            "attempts": sum(t.get("attempts", 0) for t in tasks),
            "utilisation": manifest.utilisation,
            "queue_wait_s": sum(max(0.0, t["started"] - t["ready"]) for t in tasks),
            "coverage": manifest.trace_summary.get("coverage", 0.0),
        },
    }
    modelled = {}
    if "fig13" in texts:
        modelled["whisper_mpki_reduction_pct"] = table_cell(texts["fig13"], "Avg", "Whisper")
    if "fig12" in texts:
        modelled["whisper_speedup_pct"] = table_cell(texts["fig12"], "Avg", "Whisper")
    if "fig18" in texts:
        modelled["fig18_whisper_5_inputs_pct"] = table_cell(texts["fig18"], "5-inputs", "Whisper")
    out["modelled"] = modelled
    return out


def _close(service) -> None:
    """Stop a ``HintService`` without waiting out its accept timeout.

    ``close()`` joins the accept thread, which stays blocked in
    ``accept()`` until a connection arrives; dialling the listener while
    ``close()`` runs lets that thread see the closing flag and return.
    """
    closer = threading.Thread(target=service.close)
    closer.start()
    while closer.is_alive():
        try:
            socket.create_connection(service.address, timeout=0.2).close()
        except OSError:
            pass
        closer.join(0.05)


def iterate_serve(directory: Path, seed: int) -> dict:
    """Two closed-loop clients, one per app, stream two drifting phases.

    After each phase the first client refreshes every app, then both
    clients poll ``get_hints``; two connections in all.
    """
    from repro.core.whisper import WhisperConfig
    from repro.serve.client import ServeClient
    from repro.serve.refresh import RefreshEngine
    from repro.serve.service import HintService

    plan = serve_plan(seed)
    arrays = {app: np.load(directory / f"drift-{app}.npz") for app in SERVE_APPS}
    service = HintService(
        window_events=SERVE_PHASE_EVENTS,
        buffer_events=2 * SERVE_PHASE_EVENTS,
        engine=RefreshEngine(config=WhisperConfig(max_candidates=SERVE_MAX_CANDIDATES)),
    )
    barrier = threading.Barrier(len(SERVE_APPS), timeout=120.0)
    shard_ms: List[float] = []
    marks: List[float] = []  # first client: start, streamed-0, polled-0, streamed-1, polled-1
    refreshes: Dict[str, List[dict]] = {app: [] for app in SERVE_APPS}
    refresh_s: List[float] = []
    served: Dict[str, List[str]] = {app: [] for app in SERVE_APPS}
    polled: List[float] = []  # when each get_hints reply arrived
    errors: List[str] = []
    lock = threading.Lock()

    def client_loop(index: int, app: str) -> None:
        client = ServeClient(service.address, f"bench-{index}", app)
        try:
            client.connect()
            block_ids, taken = arrays[app]["block_ids"], arrays[app]["taken"]
            barrier.wait()  # every client has its session
            if index == 0:
                marks.append(time.perf_counter())
            for phase, cuts in enumerate(plan[app]["cuts"]):
                offset, begin = phase * SERVE_PHASE_EVENTS, 0
                for cut in cuts:
                    t0 = time.perf_counter()
                    client.send_shard(block_ids[offset + begin: offset + cut],
                                      taken[offset + begin: offset + cut])
                    elapsed = time.perf_counter() - t0
                    with lock:
                        shard_ms.append(1000.0 * elapsed)
                    begin = cut
                barrier.wait()  # the phase is streamed
                if index == 0:
                    marks.append(time.perf_counter())
                    for target in SERVE_APPS:
                        t0 = time.perf_counter()
                        refreshes[target].append(client.refresh(target))
                        refresh_s.append(time.perf_counter() - t0)
                barrier.wait()  # refreshed
                hints = client.get_hints()
                with lock:
                    served[app].append(hints["version"])
                    polled.append(time.perf_counter())
                if index == 0:
                    marks.append(time.perf_counter())
        except Exception as error:  # any failed request fails the iteration
            with lock:
                errors.append(f"{app}: {type(error).__name__}: {error}")
            barrier.abort()
        finally:
            client.goodbye()

    threads = [
        threading.Thread(target=client_loop, args=(i, app)) for i, app in enumerate(SERVE_APPS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    _close(service)
    end = max(polled) if polled else time.perf_counter()
    start = marks[0] if marks else end
    stream_s = sum(marks[i + 1] - marks[i] for i in range(0, len(marks) - 1, 2))

    fields = {}
    for app in SERVE_APPS:
        replies = refreshes[app]
        fields[app] = {
            "versions": [r.get("version", "") for r in replies],
            "hints": [r.get("n_hints", 0) for r in replies],
            "drifted": [r.get("drifted", []) for r in replies],
            "searched": [r.get("searched", []) for r in replies],
            "served": served[app],
        }
    planned = serve_operations(plan)
    done = len(shard_ms) + sum(len(v) for v in refreshes.values()) + sum(len(v) for v in served.values())
    staleness = [r.get("staleness") or {} for app in SERVE_APPS for r in refreshes[app][1:]]
    return {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "op_ms": shard_ms,
        "attempted": planned,
        "failed": planned - done if errors else 0,
        "errors": errors,
        "fields": fields,
        "refresh_s": refresh_s[len(SERVE_APPS):],  # the drift-triggered refreshes
        "ingest_events_per_s": 2 * SERVE_PHASE_EVENTS * len(SERVE_APPS) / max(stream_s, 1e-9),
        "modelled": {
            "stale_mpki": sum(s.get("stale_mpki", 0.0) for s in staleness),
            "fresh_mpki": sum(s.get("fresh_mpki", 0.0) for s in staleness),
        },
    }


def iterate(workload: str, directory: Path, seed: int, jobs: int, traced: bool) -> dict:
    recorder = None
    if traced:
        import layers
        from spans import Recorder

        recorder = Recorder()
        figures = WORKLOADS[workload].figures if workload in WORKLOADS else ()
        layers.install(recorder, figures)
    if workload in WORKLOADS:
        out = iterate_run_all(workload, directory, jobs)
    else:
        out = iterate_serve(directory, seed)
    if recorder is not None:
        names = [m["name"] for m in load_benchmark()["per_layer"]]
        out["layers"] = layers.traced_metrics(recorder, out["start"], out["end"], names)
        recorder.restore()
    out["ru_maxrss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return out


def main(argv: List[str]) -> int:
    request = json.loads(argv[1])
    directory = Path(request["dir"])
    if request["mode"] == "setup":
        result = setup(request["workload"], directory, int(request["seed"]))
    else:
        result = iterate(
            request["workload"], directory, int(request["seed"]),
            int(request["jobs"]), bool(request["traced"]),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
