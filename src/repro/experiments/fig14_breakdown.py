"""Fig 14 — where Whisper's gains over 8b-ROMBF come from.

Paper: hashed history correlation contributes 6.4 points of additional
misprediction reduction over 8-bit ROMBF; adding Implication and
Converse Non-Implication contributes another 1.5 points.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.metrics import mean
from ..core.formulas import ROMBF_OPS
from ..core.whisper import WhisperConfig
from .runner import ExperimentContext, FigureResult, global_context

#: Hashed variable-length histories, original AND/OR op set.
HASHED_ONLY = WhisperConfig(ops=ROMBF_OPS, with_invert=False, explore_fraction=1.0)


def run(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Reproduce Fig 14: Improvement over 8b-ROMBF (misprediction-reduction points)."""
    ctx = ctx or global_context()
    rows = []
    hashed_gains, op_gains = [], []
    for app in ctx.datacenter_apps():
        base = ctx.baseline(app, 64, input_id=1)
        rombf8 = ctx.rombf_run(app, 8).misprediction_reduction(base)
        hashed = ctx.whisper_run(app, config=HASHED_ONLY).misprediction_reduction(base)
        full = ctx.whisper_run(app).misprediction_reduction(base)

        hashed_gain = hashed - rombf8
        op_gain = full - hashed
        rows.append([app, round(rombf8, 1), round(hashed_gain, 1), round(op_gain, 1)])
        hashed_gains.append(hashed_gain)
        op_gains.append(op_gain)
    rows.append(["Avg", "", round(mean(hashed_gains), 1), round(mean(op_gains), 1)])
    return FigureResult(
        figure="Fig 14",
        title="Improvement over 8b-ROMBF (misprediction-reduction points)",
        headers=["app", "8b-ROMBF base", "+hashed-history", "+impl/cnimpl"],
        rows=rows,
        paper_note="hashed history +6.4 points, implication/converse-non-implication +1.5",
        summary=(
            f"hashed-history +{mean(hashed_gains):.1f}, impl/cnimpl +{mean(op_gains):.1f}"
        ),
    )
