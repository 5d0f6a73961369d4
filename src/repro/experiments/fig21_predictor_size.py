"""Fig 21 — Whisper vs. baseline predictor capacity (8 KB - 1 MB).

Paper: Whisper removes more than 10 % of mispredictions at every size,
including 11.2 % against a 1 MB TAGE-SC-L.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.metrics import mean
from .runner import ExperimentContext, FigureResult, global_context

SIZES_KB = (8, 16, 32, 64, 128, 256, 512, 1024)
APPS: Sequence[str] = ("mysql", "cassandra", "wordpress", "finagle-http")


def run(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Reproduce Fig 21: Whisper reduction (%) vs baseline TAGE-SC-L size."""
    ctx = ctx or global_context()
    rows = []
    last_reduction = 0.0
    for size in SIZES_KB:
        reductions, mpkis = [], []
        for app in APPS:
            base = ctx.baseline(app, size, input_id=1)
            whisper = ctx.whisper_run(app, label_kb=size)
            reductions.append(whisper.misprediction_reduction(base))
            mpkis.append(base.mpki)
        last_reduction = mean(reductions)
        rows.append([f"{size}KB", round(mean(mpkis), 2), round(last_reduction, 1)])
    return FigureResult(
        figure="Fig 21",
        title="Whisper reduction (%) vs baseline TAGE-SC-L size",
        headers=["predictor size", "baseline MPKI (avg)", "reduction %"],
        rows=rows,
        paper_note=">10% at every size; 11.2% at 1MB",
        summary=f"reduction at 1MB: {last_reduction:.1f}%",
    )
