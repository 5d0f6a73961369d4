"""Fig 16 — offline training cost per technique.

Paper (log scale): 4b-ROMBF trains fastest, Whisper is significantly
cheaper than 8b-ROMBF, and BranchNet needs thousands of seconds even on
a V100 GPU.  We report a modelled work counter (formula-evaluations /
SGD MACs) that is implementation-independent and, unlike wall-clock
seconds, the same on every run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.metrics import mean
from .runner import ExperimentContext, FigureResult, global_context

APPS: Sequence[str] = ("mysql", "cassandra", "kafka")


def run(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Reproduce Fig 16: Average offline training cost per application."""
    ctx = ctx or global_context()
    work = {"4b-ROMBF": [], "8b-ROMBF": [], "Whisper": [], "BranchNet": []}
    for app in APPS:
        r4 = ctx.rombf(app, 4)
        r8 = ctx.rombf(app, 8)
        w, _ = ctx.whisper(app)
        bn = ctx.branchnet(app)
        for name, result in (
            ("4b-ROMBF", r4), ("8b-ROMBF", r8), ("Whisper", w), ("BranchNet", bn),
        ):
            work[name].append(result.work_units)

    rows = [
        [name, f"{mean(work[name]):.2e}"]
        for name in ("4b-ROMBF", "8b-ROMBF", "Whisper", "BranchNet")
    ]
    return FigureResult(
        figure="Fig 16",
        title="Average offline training cost per application",
        headers=["technique", "modelled work units"],
        rows=rows,
        paper_note="BranchNet >> 8b-ROMBF > Whisper > 4b-ROMBF (log scale)",
        summary=(
            f"work units: BranchNet {mean(work['BranchNet']):.1e} vs "
            f"8b-ROMBF {mean(work['8b-ROMBF']):.1e} vs Whisper {mean(work['Whisper']):.1e}"
        ),
    )
