"""Shared experiment infrastructure.

Every figure/table module exposes ``run(ctx) -> FigureResult``.  The
:class:`ExperimentContext` memoises the expensive intermediates — traces,
baseline predictor runs, profiles, trained optimizers — so the full
benchmark suite shares work instead of re-simulating per figure.

Caching is two-level behind one memo path.  The L1 is one in-process
dict keyed by the store key: the content-addressed
:func:`~repro.orchestrator.keys.artifact_key` over the app spec and
every request parameter, so a key is complete by construction.  The
optional :class:`~repro.orchestrator.store.ArtifactStore` (the L2)
persists the same artifacts on disk under the same keys, so separate
processes — repeated CLI invocations, parallel ``run-all`` workers —
reuse each other's work.  Set ``REPRO_CACHE_DIR`` (or pass ``store=``)
to enable the L2; without it the context is purely in-process.

Scale control: the ``REPRO_SCALE`` environment variable selects the
trace length per application (``small`` / ``medium`` / ``full``).  The
paper simulates 100 M instructions per app; even ``full`` here is a few
million block-level events, so `EXPERIMENTS.md` records which scale each
recorded number came from.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..branchnet import BranchNetOptimizer, BranchNetResult, BranchNetRuntime
from ..bpu import MTageScPredictor, PredictionResult, simulate
from ..bpu.scaling import scaled_tage_sc_l
from ..core.rombf import RombfOptimizer, RombfResult
from ..core.whisper import WhisperConfig, WhisperOptimizer, WhisperResult
from ..core.injection import HintPlacement
from ..orchestrator.keys import artifact_key
from ..orchestrator.store import ArtifactStore
from ..profiling.profile import BranchProfile
from ..profiling.trace import Trace
from ..sim import SimResult, simulate_timing
from ..workloads.generator import generate_trace, get_program
from ..workloads.registry import DATACENTER_APPS, SPEC_APPS, get_spec

SCALE_EVENTS = {"small": 40_000, "medium": 120_000, "full": 250_000}


def current_scale() -> str:
    """The REPRO_SCALE name in effect (small / medium / full)."""
    scale = os.environ.get("REPRO_SCALE", "small").lower()
    if scale not in SCALE_EVENTS:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(SCALE_EVENTS)}")
    return scale


def events_per_app() -> int:
    return SCALE_EVENTS[current_scale()]


@dataclass
class FigureResult:
    """A regenerated table/figure, ready to print next to the paper's."""

    figure: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    paper_note: str = ""
    summary: str = ""

    def to_text(self) -> str:
        """Aligned plain-text table, as written to benchmarks/results."""
        widths = [len(str(h)) for h in self.headers]
        str_rows = [[_fmt(cell) for cell in row] for row in self.rows]
        for row in str_rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.figure}: {self.title} =="]
        if self.paper_note:
            lines.append(f"paper: {self.paper_note}")
        header = "  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in str_rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if self.summary:
            lines.append(f"measured: {self.summary}")
        return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


class ExperimentContext:
    """Memoised providers for everything the figure modules need."""

    #: Fraction of each run treated as predictor warm-up, following the
    #: paper's methodology of measuring steady-state behaviour.  Fig 22
    #: sweeps this explicitly via ``PredictionResult.with_warmup``.
    warmup = 0.3

    def __init__(
        self,
        n_events: Optional[int] = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        self.n_events = n_events if n_events is not None else events_per_app()
        #: L2 artifact store; None keeps the context purely in-process.
        self.store = store if store is not None else ArtifactStore.from_env()
        #: L1: every artifact this context has built or loaded, by store key.
        self._memo: Dict[str, Any] = {}

    def _artifact(self, kind: str, app: str, compute: Callable[[], Any], **fields) -> Any:
        """The one memo path: L1, then the L2 store, then ``compute()``.

        The key is the content-addressed store key over the full app
        spec plus ``fields``, so whatever determines an artifact's
        content also tells it apart in process.
        """
        key = artifact_key(kind, spec=get_spec(app), **fields)
        if key in self._memo:
            return self._memo[key]
        found = None
        if self.store is not None:
            found = self.store.get(kind, key, trace_provider=self.trace)
        if found is None:
            found = compute()
            if self.store is not None:
                self.store.put(kind, key, found)
        self._memo[key] = found
        return found

    # ------------------------------------------------------------------
    # Workload side
    # ------------------------------------------------------------------
    def trace(self, app: str, input_id: int = 0, n_events: Optional[int] = None) -> Trace:
        """The (cached) synthetic trace for one (app, input) pair."""
        n = n_events or self.n_events
        return self._artifact(
            "trace", app, lambda: generate_trace(get_spec(app), input_id, n),
            input_id=input_id, n_events=n,
        )

    def program(self, app: str):
        return get_program(get_spec(app))

    @staticmethod
    def datacenter_apps() -> Sequence[str]:
        return DATACENTER_APPS

    @staticmethod
    def spec_apps() -> Sequence[str]:
        return SPEC_APPS

    # ------------------------------------------------------------------
    # Baseline predictors
    # ------------------------------------------------------------------
    def baseline(
        self,
        app: str,
        label_kb: float = 64,
        input_id: int = 0,
        n_events: Optional[int] = None,
    ) -> PredictionResult:
        """Cached TAGE-SC-L replay of one (app, input) trace."""
        n = n_events or self.n_events
        result = self._artifact(
            "prediction", app,
            lambda: simulate(self.trace(app, input_id, n), scaled_tage_sc_l(label_kb)),
            variant="baseline", predictor="tage-sc-l",
            label_kb=label_kb, input_id=input_id, n_events=n,
        )
        return result.with_warmup(self.warmup)

    def mtage(self, app: str, input_id: int = 0) -> PredictionResult:
        """Unconstrained MTAGE-SC replay (the paper's limit baseline)."""
        result = self._artifact(
            "prediction", app,
            lambda: simulate(self.trace(app, input_id), MTageScPredictor()),
            variant="baseline", predictor="mtage-sc",
            input_id=input_id, n_events=self.n_events,
        )
        return result.with_warmup(self.warmup)

    # ------------------------------------------------------------------
    # Profiles and optimizers
    # ------------------------------------------------------------------
    def profile(
        self, app: str, input_ids: Tuple[int, ...] = (0,), label_kb: float = 64
    ) -> BranchProfile:
        """Cached branch profile collected from the app's train traces."""
        return self._artifact(
            "profile", app,
            lambda: BranchProfile.collect(
                [self.trace(app, i) for i in input_ids],
                lambda: scaled_tage_sc_l(label_kb),
            ),
            input_ids=input_ids, label_kb=label_kb, n_events=self.n_events,
        )

    def whisper(
        self,
        app: str,
        input_ids: Tuple[int, ...] = (0,),
        label_kb: float = 64,
        config: Optional[WhisperConfig] = None,
    ) -> Tuple[WhisperResult, HintPlacement]:
        """Cached Whisper optimization (hints + placement + runtime)."""
        effective = config or WhisperConfig()

        def compute() -> Tuple[WhisperResult, HintPlacement]:
            profile = self.profile(app, input_ids, label_kb)
            optimizer = WhisperOptimizer(effective)
            trained = optimizer.train(profile)
            placement = optimizer.inject(
                self.program(app), trained, trace=profile.traces[0]
            )
            return trained, placement

        return self._artifact(
            "whisper", app, compute, input_ids=input_ids, label_kb=label_kb,
            config=effective, n_events=self.n_events,
        )

    def whisper_run(
        self,
        app: str,
        test_input: int = 1,
        train_inputs: Tuple[int, ...] = (0,),
        label_kb: float = 64,
        config: Optional[WhisperConfig] = None,
    ) -> PredictionResult:
        """Whisper-optimized run: train on ``train_inputs``, test on
        ``test_input`` (cross-input by default, as in the paper)."""
        effective = config or WhisperConfig()

        def compute() -> PredictionResult:
            _, placement = self.whisper(app, train_inputs, label_kb, effective)
            runtime = WhisperOptimizer(effective).build_runtime(placement)
            trace = self.trace(app, test_input)
            return simulate(trace, scaled_tage_sc_l(label_kb), runtime=runtime)

        result = self._artifact(
            "prediction", app, compute, variant="whisper", test_input=test_input,
            train_inputs=train_inputs, label_kb=label_kb, config=effective,
            n_events=self.n_events,
        )
        return result.with_warmup(self.warmup)

    def rombf(
        self, app: str, n_bits: int, input_ids: Tuple[int, ...] = (0,)
    ) -> RombfResult:
        """Trained n-bit ROMBF tables for one app's profile."""
        return self._artifact(
            "rombf", app,
            lambda: RombfOptimizer(n_bits=n_bits).train(self.profile(app, input_ids)),
            n_bits=n_bits, input_ids=input_ids, n_events=self.n_events,
        )

    def rombf_run(
        self, app: str, n_bits: int, test_input: int = 1,
        train_inputs: Tuple[int, ...] = (0,),
    ) -> PredictionResult:
        """Cross-input replay with the trained ROMBF runtime attached."""

        def compute() -> PredictionResult:
            trained = self.rombf(app, n_bits, train_inputs)
            runtime = RombfOptimizer(n_bits=n_bits).build_runtime(trained)
            trace = self.trace(app, test_input)
            return simulate(trace, scaled_tage_sc_l(64), runtime=runtime)

        result = self._artifact(
            "prediction", app, compute, variant="rombf", n_bits=n_bits,
            test_input=test_input, train_inputs=train_inputs, n_events=self.n_events,
        )
        return result.with_warmup(self.warmup)

    def branchnet(self, app: str, input_ids: Tuple[int, ...] = (0,)) -> BranchNetResult:
        """Unlimited-variant training; budget variants deploy subsets."""
        return self._artifact(
            "branchnet", app,
            lambda: BranchNetOptimizer(budget_bytes=None).train(self.profile(app, input_ids)),
            input_ids=input_ids, n_events=self.n_events,
        )

    def branchnet_run(
        self, app: str, budget_bytes: Optional[int], test_input: int = 1,
        train_inputs: Tuple[int, ...] = (0,),
    ) -> PredictionResult:
        """Cross-input replay with budget-limited BranchNet CNNs deployed."""

        def compute() -> PredictionResult:
            trained = self.branchnet(app, train_inputs)
            runtime = BranchNetRuntime(deploy_budget(trained, budget_bytes))
            trace = self.trace(app, test_input)
            return simulate(trace, scaled_tage_sc_l(64), runtime=runtime)

        result = self._artifact(
            "prediction", app, compute, variant="branchnet", budget_bytes=budget_bytes,
            test_input=test_input, train_inputs=train_inputs, n_events=self.n_events,
        )
        return result.with_warmup(self.warmup)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    @staticmethod
    def _prediction_discriminator(prediction: Optional[PredictionResult]) -> Tuple:
        """A stable identity for the prediction feeding a timing run.

        The ``name`` label alone is not enough: two configurations can
        share a label, and a ``name``-keyed cache would silently return
        the wrong timing result.  Misprediction/hint counts pin
        the actual prediction content.
        """
        if prediction is None:
            return ("ideal",)
        return (
            prediction.predictor_name,
            round(prediction.warmup_fraction, 6),
            int(prediction.mispredictions),
            int(prediction.n_conditional),
            int(prediction.hinted.sum()),
        )

    @staticmethod
    def _placement_discriminator(placement: Optional[HintPlacement]) -> Tuple:
        if placement is None:
            return ("none",)
        return (placement.n_hints, placement.static_instructions_added())

    def timing(
        self,
        app: str,
        prediction: Optional[PredictionResult],
        placement: Optional[HintPlacement] = None,
        input_id: int = 1,
        name: str = "",
    ) -> SimResult:
        """Cached timing simulation for one predictor configuration."""
        return self._artifact(
            "timing", app,
            lambda: simulate_timing(
                self.trace(app, input_id), prediction, placement=placement, name=name
            ),
            name=name, prediction=self._prediction_discriminator(prediction),
            placement=self._placement_discriminator(placement),
            input_id=input_id, n_events=self.n_events,
        )


def deploy_budget(result: BranchNetResult, budget_bytes: Optional[int]) -> Dict:
    """Deploy the highest-value models that fit a storage budget."""
    if budget_bytes is None:
        return dict(result.models)
    deployed = {}
    used = 0
    for pc, model in result.models.items():  # insertion order = value order
        if used + model.storage_bytes > budget_bytes:
            break
        deployed[pc] = model
        used += model.storage_bytes
    return deployed


_GLOBAL_CONTEXT: Optional[ExperimentContext] = None


def global_context() -> ExperimentContext:
    """The context shared by the benchmark suite in one process."""
    global _GLOBAL_CONTEXT
    if _GLOBAL_CONTEXT is None or _GLOBAL_CONTEXT.n_events != events_per_app():
        _GLOBAL_CONTEXT = ExperimentContext()
    return _GLOBAL_CONTEXT
