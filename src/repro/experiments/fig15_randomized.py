"""Fig 15 — randomized formula testing: quality and training cost vs. the
fraction of formulas explored.

Paper: exploring 0.1 % of all formulas yields 88.3 % of the exhaustive
search's misprediction reduction while cutting training time by an order
of magnitude.  Training cost is reported as Whisper's modelled work
units (formula evaluations), which unlike wall-clock seconds are the
same on every run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..analysis.metrics import mean
from ..core.whisper import WhisperConfig
from .runner import ExperimentContext, FigureResult, global_context

FRACTIONS = (0.001, 0.01, 0.1, 1.0)
#: Representative subset: the exhaustive point costs ~1000x the default.
APPS: Sequence[str] = ("mysql", "clang", "cassandra", "finagle-http")
#: Cap candidate branches so the 100 %-exploration point stays tractable.
MAX_CANDIDATES = 250


def run(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Reproduce Fig 15: Randomized formula testing: reduction and training time vs. % explored."""
    ctx = ctx or global_context()
    rows = []
    full_reduction = None
    for fraction in FRACTIONS:
        config = replace(
            WhisperConfig(), explore_fraction=fraction, max_candidates=MAX_CANDIDATES
        )
        reductions, work = [], []
        for app in APPS:
            base = ctx.baseline(app, 64, input_id=1)
            run_result = ctx.whisper_run(app, config=config)
            trained, _ = ctx.whisper(app, config=config)
            reductions.append(run_result.misprediction_reduction(base))
            work.append(trained.work_units)
        row_red = mean(reductions)
        rows.append([f"{100*fraction:g}%", round(row_red, 1), f"{mean(work):.2e}"])
        if fraction == 1.0:
            full_reduction = row_red
    quality = (
        100.0 * float(rows[0][1]) / full_reduction if full_reduction else 0.0
    )
    return FigureResult(
        figure="Fig 15",
        title="Randomized formula testing: reduction and training time vs. % explored",
        headers=["formulas explored", "misprediction reduction %", "work units/app"],
        rows=rows,
        paper_note="0.1% exploration = 88.3% of exhaustive quality, ~10x faster",
        summary=f"0.1% exploration reaches {quality:.1f}% of exhaustive reduction",
    )
