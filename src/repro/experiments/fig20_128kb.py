"""Fig 20 — Whisper over a 128 KB TAGE-SC-L baseline.

Paper: the 128 KB baseline's MPKI is 2.4 (0.4-5.4) and Whisper still
removes 13.4 % of its mispredictions.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.metrics import mean, value_range
from .runner import ExperimentContext, FigureResult, global_context


def run(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Reproduce Fig 20: Whisper misprediction reduction over 128KB TAGE-SC-L."""
    ctx = ctx or global_context()
    rows = []
    reductions, mpkis = [], []
    for app in ctx.datacenter_apps():
        base = ctx.baseline(app, 128, input_id=1)
        whisper = ctx.whisper_run(app, label_kb=128)
        reduction = whisper.misprediction_reduction(base)
        rows.append([app, round(base.mpki, 2), round(reduction, 1)])
        reductions.append(reduction)
        mpkis.append(base.mpki)
    rows.append(["Avg", round(mean(mpkis), 2), round(mean(reductions), 1)])
    return FigureResult(
        figure="Fig 20",
        title="Whisper misprediction reduction over 128KB TAGE-SC-L",
        headers=["app", "128KB baseline MPKI", "reduction %"],
        rows=rows,
        paper_note="128KB MPKI 2.4 (0.4-5.4); Whisper reduces 13.4%",
        summary=f"MPKI {value_range(mpkis)}; reduction avg {mean(reductions):.1f}%",
    )
