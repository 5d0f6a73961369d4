"""The patches that measure each layer, and what each layer should move.

Each layer is named after the program module it times.  The per-layer
metrics, their units and directions are listed once, in
``BENCHMARK.json``; ``MOVES`` adds, for each of them, the end-to-end
metric and the workloads it should move.  Every traced run reports each
of them (0 where a workload never enters the layer).
"""

from __future__ import annotations

import importlib
from typing import Dict, Sequence, Tuple

from spans import Recorder, layer_totals, unattributed_seconds

RUN_ALL = ("headline-cold", "headline-warm", "sweep-cold")
COLD = ("headline-cold", "sweep-cold")
SEARCH = COLD + ("serve-drift",)
EVERY = RUN_ALL + ("serve-drift",)

#: Per-layer metric -> (end-to-end metric it should move, on which workloads).
MOVES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "workloads.build_program.calls": ("wall_s", ("headline-warm",)),
    "workloads.build_program.s": ("wall_s", ("headline-warm",)),
    "workloads.generate_trace.events": ("wall_s", ("headline-cold",)),
    "workloads.generate_trace.s": ("wall_s", ("headline-cold",)),
    "bpu.simulate.calls": ("wall_s", SEARCH),
    "bpu.simulate.events": ("wall_s", SEARCH),
    "bpu.simulate.s": ("wall_s", SEARCH),
    "bpu.simulate.ns_per_event": ("wall_s", SEARCH),
    "profiling.collect.s": ("wall_s", COLD),
    "core.whisper_train.s": ("wall_s", COLD),
    "core.whisper_inject.s": ("wall_s", COLD),
    "core.rombf_train.s": ("wall_s", COLD),
    "core.training_data.s": ("wall_s", SEARCH),
    "core.formula_search.s": ("wall_s", SEARCH),
    "core.fisher_yates.calls": ("wall_s", SEARCH),
    "core.fisher_yates.s": ("wall_s", SEARCH),
    "branchnet.train.s": ("wall_s", COLD),
    "branchnet.models": ("wall_s", COLD),
    "sim.timing.s": ("wall_s", ("headline-cold",)),
    "sim.timing.events": ("wall_s", ("headline-cold",)),
    "orchestrator.store.get.s": ("wall_s", ("headline-warm",)),
    "orchestrator.store.put.s": ("wall_s", ("headline-cold",)),
    "orchestrator.store.hit_ratio": ("wall_s", ("headline-warm",)),
    "orchestrator.store.bytes_written": ("wall_s", ("headline-cold",)),
    "orchestrator.scheduler.tasks": ("wall_s", ("headline-warm", "sweep-cold")),
    "orchestrator.scheduler.attempts": ("wall_s", ("headline-warm", "sweep-cold")),
    "orchestrator.scheduler.utilisation": ("wall_s", ("headline-warm", "sweep-cold")),
    "orchestrator.scheduler.queue_wait_s": ("wall_s", ("headline-warm", "sweep-cold")),
    "orchestrator.scheduler.coverage": ("wall_s", ("headline-warm", "sweep-cold")),
    "experiments.figure.s": ("wall_s", ("sweep-cold",)),
    "serve.shard.s": ("wall_s", ("serve-drift",)),
    "serve.get_hints.s": ("wall_s", ("serve-drift",)),
    "serve.refresh.s": ("wall_s", ("serve-drift",)),
    "serve.refresh.drifted": ("wall_s", ("serve-drift",)),
    "serve.refresh.searched": ("wall_s", ("serve-drift",)),
    "bpu.native.compile_s": ("setup_s", EVERY),
    "trace.wall_s": ("wall_s", EVERY),
    "trace.unattributed_s": ("wall_s", EVERY),
    "trace.overhead_s": ("wall_s", EVERY),
}


def _events(args, kwargs, result) -> Dict[str, float]:
    return {"events": int(args[0].n_events)}


def _trace_events(args, kwargs, result) -> Dict[str, float]:
    return {"events": int(result.n_events)}


def _models(args, kwargs, result) -> Dict[str, float]:
    return {"models": len(result.models)}


def _hit(args, kwargs, result) -> Dict[str, float]:
    return {"hits": 0 if result is None else 1}


def _bytes(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": result.stat().st_size}


def _refresh(args, kwargs, result) -> Dict[str, float]:
    return {"drifted": len(result.drifted_pcs), "searched": len(result.searched_pcs)}


#: Every patched public function: (module, function or ``Class.method``,
#: layer, measure).
PATCHES = [
    ("repro.workloads.program", "build_program", "workloads.build_program", None),
    ("repro.workloads.generator", "generate_trace", "workloads.generate_trace", _trace_events),
    ("repro.bpu.runner", "simulate", "bpu.simulate", _events),
    ("repro.sim.simulator", "simulate_timing", "sim.timing", _events),
    ("repro.profiling.profile", "BranchProfile.collect", "profiling.collect", None),
    ("repro.core.whisper", "WhisperOptimizer.train", "core.whisper_train", None),
    ("repro.core.whisper", "WhisperOptimizer.inject", "core.whisper_inject", None),
    ("repro.core.rombf", "RombfOptimizer.train", "core.rombf_train", None),
    ("repro.core.training", "collect_training_data", "core.training_data", None),
    ("repro.core.search", "FormulaSearch.find_best_formula", "core.formula_search", None),
    ("repro.core.search", "fisher_yates_permutation", "core.fisher_yates", None),
    ("repro.branchnet.trainer", "BranchNetOptimizer.train", "branchnet.train", _models),
    ("repro.orchestrator.store", "ArtifactStore.get", "orchestrator.store.get", _hit),
    ("repro.orchestrator.store", "ArtifactStore.put", "orchestrator.store.put", _bytes),
    ("repro.serve.ingest", "ShardIngestor.ingest", "serve.shard", None),
    ("repro.serve.publish", "HintPublisher.get_hints", "serve.get_hints", None),
    ("repro.serve.refresh", "RefreshEngine.bootstrap", "serve.refresh", _refresh),
    ("repro.serve.refresh", "RefreshEngine.refresh", "serve.refresh", _refresh),
]

#: The figure functions a run-all workload renders are one more layer.
FIGURE_LAYER = "experiments.figure"

LAYERS = {layer for _, _, layer, _ in PATCHES} | {FIGURE_LAYER}


def install(recorder: Recorder, figures: Sequence[str] = ()) -> None:
    """Patch every measured public function of the program."""
    from repro.experiments import FIGURES

    for module_name, attr, layer, measure in PATCHES:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            recorder.patch_method(getattr(module, cls_name), method, layer, measure)
        else:
            recorder.patch_function(module, attr, layer, measure)
    for figure in figures:
        module_name, fn_name = FIGURES[figure]
        module = importlib.import_module(f"repro.experiments.{module_name}")
        recorder.patch_function(module, fn_name, FIGURE_LAYER)


def traced_metrics(
    recorder: Recorder, start: float, end: float, names: Sequence[str]
) -> Dict[str, float]:
    """The span-derived metrics among ``names`` for one traced iteration
    spanning ``[start, end]``.

    A plain ``<layer>.<count>`` name reads the layer's span totals
    (``calls``, self seconds ``s``, or a count its patch measures); the
    ratios and ``trace.*`` are derived here.  Names of layers that were
    not patched (scheduler, native compile, tracing overhead) are left
    to the caller.  Spans outside the window (a serve client's session
    set-up) are left out.
    """
    spans = [s for s in recorder.spans if s.end > start and s.start < end]
    totals = layer_totals(spans)

    def get(layer: str, key: str) -> float:
        return float(totals.get(layer, {}).get(key, 0))

    sim_events = get("bpu.simulate", "events")
    store_gets = get("orchestrator.store.get", "calls")
    derived = {
        "bpu.simulate.ns_per_event": (
            1e9 * get("bpu.simulate", "s") / sim_events if sim_events else 0.0
        ),
        "branchnet.models": get("branchnet.train", "models"),
        "orchestrator.store.hit_ratio": (
            get("orchestrator.store.get", "hits") / store_gets if store_gets else 0.0
        ),
        "orchestrator.store.bytes_written": get("orchestrator.store.put", "bytes"),
        "trace.wall_s": end - start,
        "trace.unattributed_s": unattributed_seconds(spans, start, end),
    }
    out = {}
    for name in names:
        layer, key = name.rsplit(".", 1)
        if name in derived:
            out[name] = derived[name]
        elif layer in LAYERS:
            out[name] = get(layer, key)
    return out
