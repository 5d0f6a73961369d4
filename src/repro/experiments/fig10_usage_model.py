"""Fig 10 — Whisper's usage model, stage by stage.

The paper's Fig 10 is the pipeline diagram: run-time profiling →
offline branch analysis → hint injection → run-time hint usage.  This
experiment walks one application through all four stages and reports
each stage's key statistics, including the hint buffer's run-time
behaviour (loads, hits, evictions) that no other figure surfaces.
"""

from __future__ import annotations

from typing import Optional

from ..bpu import simulate
from ..bpu.scaling import scaled_tage_sc_l
from ..core.whisper import WhisperOptimizer
from .runner import ExperimentContext, FigureResult, global_context

APP = "mysql"


def run(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Reproduce Fig 10: Whisper's usage model, stage by stage."""
    ctx = ctx or global_context()
    program = ctx.program(APP)
    train_trace = ctx.trace(APP, 0)
    profile = ctx.profile(APP)

    trained, placement = ctx.whisper(APP)
    runtime = WhisperOptimizer().build_runtime(placement)

    test_trace = ctx.trace(APP, 1)
    baseline = ctx.baseline(APP, 64, input_id=1)
    optimized = simulate(test_trace, scaled_tage_sc_l(64), runtime=runtime)
    optimized_w = optimized.with_warmup(ctx.warmup)
    buffer = runtime.buffer

    rows = [
        ["1. profiling", "conditional branches traced", train_trace.n_conditional],
        ["1. profiling", "baseline mispredictions", profile.total_mispredictions],
        ["2. analysis", "candidate branches", trained.candidates_considered],
        ["2. analysis", "hints accepted", trained.n_hints],
        ["2. analysis", "training work units", trained.work_units],
        ["3. injection", "brhints placed", placement.n_hints],
        ["3. injection", "dropped (coverage)", len(placement.dropped)],
        ["3. injection", "static instructions +%",
         round(100 * placement.static_overhead(program), 2)],
        ["4. run time", "hint-buffer loads", buffer.loads],
        ["4. run time", "hint-buffer hits", buffer.hits],
        ["4. run time", "hint-buffer evictions", buffer.evictions],
        ["4. run time", "branches predicted by hints %",
         round(100 * float(optimized.hinted.mean()), 2)],
        ["4. run time", "misprediction reduction %",
         round(optimized_w.misprediction_reduction(baseline), 1)],
    ]
    return FigureResult(
        figure="Fig 10",
        title=f"Usage model walkthrough ({APP})",
        headers=["stage", "quantity", "value"],
        rows=rows,
        paper_note="profile in production -> offline analysis -> inject -> hint buffer",
        summary=(
            f"{trained.n_hints} hints -> "
            f"{optimized_w.misprediction_reduction(baseline):.1f}% reduction"
        ),
    )
