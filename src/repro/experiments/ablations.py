"""Ablations of Whisper design choices called out in DESIGN.md.

* allocation suppression for hinted branches (paper §IV claims freeing
  predictor capacity helps the remaining branches);
* hint-buffer size (Table III picks 32 entries);
* hash fold operation (paper §III-A picks XOR empirically).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..analysis.metrics import mean
from ..bpu import simulate
from ..bpu.scaling import scaled_tage_sc_l
from ..core.whisper import WhisperConfig, WhisperOptimizer
from .runner import ExperimentContext, FigureResult, global_context

APPS: Sequence[str] = ("mysql", "cassandra", "kafka")


def run_allocation(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Allocation suppression on/off for hinted branches."""
    ctx = ctx or global_context()
    rows = []
    deltas = []
    for app in ctx.datacenter_apps():
        base = ctx.baseline(app, 64, input_id=1)
        _, placement = ctx.whisper(app)
        runtime_builder = WhisperOptimizer()
        on = ctx.whisper_run(app).misprediction_reduction(base)
        off_run = simulate(
            ctx.trace(app, 1),
            scaled_tage_sc_l(64),
            runtime=runtime_builder.build_runtime(placement),
            suppress_hint_allocation=False,
        ).with_warmup(ctx.warmup)
        off = off_run.misprediction_reduction(base)
        rows.append([app, round(on, 1), round(off, 1), round(on - off, 1)])
        deltas.append(on - off)
    rows.append(["Avg", "", "", round(mean(deltas), 1)])
    return FigureResult(
        figure="Ablation A",
        title="Allocation suppression for hinted branches (reduction %)",
        headers=["app", "suppressed (paper)", "not suppressed", "delta"],
        rows=rows,
        paper_note="suppression frees predictor capacity for unhinted branches (§IV)",
        summary=f"suppression worth {mean(deltas):+.1f} points on average",
    )


def run_hint_buffer(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Hint-buffer capacity sweep (paper: 32 entries suffice)."""
    ctx = ctx or global_context()
    sizes = (4, 8, 16, 32, 64, None)
    rows = []
    at_32 = at_unl = 0.0
    for size in sizes:
        reductions = []
        for app in APPS:
            base = ctx.baseline(app, 64, input_id=1)
            _, placement = ctx.whisper(app)
            config = replace(WhisperConfig(), hint_buffer_entries=size)
            runtime = WhisperOptimizer(config).build_runtime(placement)
            run = simulate(
                ctx.trace(app, 1), scaled_tage_sc_l(64), runtime=runtime
            ).with_warmup(ctx.warmup)
            reductions.append(run.misprediction_reduction(base))
        value = mean(reductions)
        rows.append(["unlimited" if size is None else size, round(value, 1)])
        if size == 32:
            at_32 = value
        if size is None:
            at_unl = value
    return FigureResult(
        figure="Ablation B",
        title="Hint-buffer size sweep (reduction %)",
        headers=["buffer entries", "reduction %"],
        rows=rows,
        paper_note="32 entries perform close to unlimited (Table III)",
        summary=f"32 entries: {at_32:.1f}% vs unlimited {at_unl:.1f}%",
    )


def run_hash_op(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Fold-operation ablation: XOR vs AND vs OR (paper §III-A)."""
    ctx = ctx or global_context()
    rows = []
    best = ("", -1.0)
    for op in ("xor", "and", "or"):
        config = replace(WhisperConfig(), hash_op=op)
        reductions = []
        for app in APPS:
            base = ctx.baseline(app, 64, input_id=1)
            run = ctx.whisper_run(app, config=config)
            reductions.append(run.misprediction_reduction(base))
        value = mean(reductions)
        if value > best[1]:
            best = (op, value)
        rows.append([op, round(value, 1)])
    return FigureResult(
        figure="Ablation C",
        title="History-hash fold operation (reduction %)",
        headers=["fold op", "reduction %"],
        rows=rows,
        paper_note="XOR chosen empirically in the paper",
        summary=f"best fold op: {best[0]} at {best[1]:.1f}%",
    )
