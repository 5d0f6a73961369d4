"""Fig 18 — merging profiles from multiple inputs.

Paper: Whisper's misprediction reduction grows as profiles from more
inputs are merged, and it beats 8b-ROMBF and unlimited-BranchNet at
every merge count.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.metrics import mean
from .runner import ExperimentContext, FigureResult, global_context

APPS: Sequence[str] = ("mysql", "wordpress", "kafka")
TEST_INPUT = 5
MERGE_LEVELS = (1, 2, 3, 4, 5)


def run(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Reproduce Fig 18: Misprediction reduction (%) vs merged profile inputs."""
    ctx = ctx or global_context()
    rows = []
    for level in MERGE_LEVELS:
        train_inputs = tuple(range(level))
        whisper_red, rombf_red, bn_red = [], [], []
        for app in APPS:
            base = ctx.baseline(app, 64, input_id=TEST_INPUT)
            whisper_red.append(
                ctx.whisper_run(
                    app, test_input=TEST_INPUT, train_inputs=train_inputs
                ).misprediction_reduction(base)
            )
            rombf_red.append(
                ctx.rombf_run(
                    app, 8, test_input=TEST_INPUT, train_inputs=train_inputs
                ).misprediction_reduction(base)
            )
            bn_red.append(
                ctx.branchnet_run(
                    app, None, test_input=TEST_INPUT, train_inputs=train_inputs
                ).misprediction_reduction(base)
            )
        rows.append(
            [
                f"{level}-input" + ("s" if level > 1 else ""),
                round(mean(rombf_red), 1),
                round(mean(bn_red), 1),
                round(mean(whisper_red), 1),
            ]
        )
    return FigureResult(
        figure="Fig 18",
        title="Misprediction reduction (%) vs merged profile inputs",
        headers=["profiles merged", "8b-ROMBF", "Unl-BranchNet", "Whisper"],
        rows=rows,
        paper_note="Whisper improves with merging and leads at every count",
        summary=(
            f"Whisper {rows[0][3]}% (1 input) -> {rows[-1][3]}% ({MERGE_LEVELS[-1]} inputs)"
        ),
    )
