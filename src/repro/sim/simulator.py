"""Trace-driven, block-granularity timing simulation.

The model captures the two first-order terms the paper's evaluation
rests on:

* **Misprediction squashes** — each conditional-branch misprediction
  costs ``mispredict_penalty`` cycles and resets the decoupled
  frontend's run-ahead.
* **Frontend (I-cache) stalls under FDIP** — the fetch-directed
  prefetcher covers an I-cache miss if the FTQ's run-ahead (cycles of
  fetch queued since the last squash, capped by FTQ capacity) exceeds
  the miss latency.  Better branch prediction ⇒ longer run-ahead ⇒ more
  misses hidden, which is why the paper's ideal predictor gains an extra
  4.5 % beyond squash elimination (Fig 1).

Cycle accounting per block: width-limited issue (+ any injected hint
instructions), plus uncovered I-cache stall, plus BTB bubble on taken
branches, plus squash penalty on mispredictions.  IPC is reported over
*useful* (pre-injection) instructions so hint overhead shows up as a
speedup loss, exactly as in the paper's accounting.

Kernels
-------
Two interchangeable kernels produce bit-identical results:

* ``scalar`` walks every event through live cache/BTB objects — the
  reference implementation.
* ``vector`` exploits that cache and BTB behaviour is independent of the
  prediction stream: the I-cache miss schedule ``[(event, latency)]``
  and the BTB miss count are computed once per (trace, placement,
  config) — over a consecutive-duplicate-compressed access stream, since
  re-touching the MRU line cannot change LRU state — then each
  prediction config only walks the sparse merge of misses and
  mispredictions.  Run-ahead between those points follows the anchored
  form ``min(cap, r_anchor + (C[e] - C_anchor))`` over the exclusive
  cycle prefix sum ``C``; both kernels evaluate run-ahead with exactly
  this expression at the same anchor points, so their floating-point
  results match bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..bpu.runner import PredictionResult, resolve_kernel
from ..core.injection import HintPlacement
from ..profiling.trace import Trace
from .caches import BranchTargetBuffer, SetAssociativeCache
from .config import SimConfig


@dataclass
class SimResult:
    """Cycle and stall accounting for one timing run."""

    app: str
    config_name: str
    instructions: int  # useful instructions (excludes injected hints)
    hint_instructions: int
    cycles: float
    base_cycles: float
    squash_cycles: float
    icache_stall_cycles: float
    btb_stall_cycles: float
    icache_misses: int
    icache_misses_covered: int
    mispredictions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline: "SimResult") -> float:
        """Percent IPC improvement over a baseline run of the same trace."""
        if baseline.ipc == 0:
            return 0.0
        return 100.0 * (self.ipc / baseline.ipc - 1.0)

    def stall_breakdown(self) -> Dict[str, float]:
        return {
            "base": self.base_cycles,
            "squash": self.squash_cycles,
            "icache": self.icache_stall_cycles,
            "btb": self.btb_stall_cycles,
        }


def _placement_signature(placement: Optional[HintPlacement]):
    if placement is None:
        return None
    return tuple(sorted((b, len(h)) for b, h in placement.placements.items()))


class _TimingInputs:
    """Prediction-independent inputs for one (trace, placement, config).

    Everything here is a pure function of the trace, the hint placement
    (block sizes grow by the injected hints) and the machine config —
    never of the prediction stream — so one instance is shared by every
    prediction configuration replayed against the same trace.
    """

    __slots__ = (
        "trace",
        "config",
        "hint_instr",
        "cycle_prefix",
        "_cycle_prefix_list",
        "max_runahead",
        "start_line",
        "n_lines",
        "_icache_schedule",
        "_btb_misses",
    )

    def __init__(
        self, trace: Trace, placement: Optional[HintPlacement], config: SimConfig
    ) -> None:
        self.trace = trace
        self.config = config
        program = trace.program
        block_ids = trace.block_ids
        sizes = np.asarray(program.block_sizes, dtype=np.int64)
        addrs = np.asarray(program.block_addrs, dtype=np.int64)
        line_shift = config.line_bytes.bit_length() - 1

        hints_in_block = np.zeros(program.n_blocks, dtype=np.int64)
        if placement is not None:
            for block, hints in placement.placements.items():
                hints_in_block[block] = len(hints)
        self.hint_instr = int(hints_in_block[block_ids].sum())

        width = float(config.fetch_width)
        issued = sizes + hints_in_block
        block_cycles = issued / width
        n = trace.n_events
        prefix = np.empty(n + 1, dtype=np.float64)
        prefix[0] = 0.0
        np.cumsum(block_cycles[block_ids], out=prefix[1:])
        self.cycle_prefix = prefix
        self._cycle_prefix_list: Optional[list] = None
        self.max_runahead = config.ftq_entries * (float(np.mean(sizes)) / width)

        self.start_line = addrs >> line_shift
        end_line = (addrs + issued * 4 - 1) >> line_shift
        self.n_lines = end_line - self.start_line + 1

        self._icache_schedule: Optional[List[Tuple[int, int]]] = None
        self._btb_misses: Optional[int] = None

    def cycle_prefix_list(self) -> list:
        if self._cycle_prefix_list is None:
            self._cycle_prefix_list = self.cycle_prefix.tolist()
        return self._cycle_prefix_list

    def icache_schedule(self) -> List[Tuple[int, int]]:
        """``(event, latency)`` per L1i miss, in access order.

        The access stream is compressed by dropping consecutive repeats
        of the same line: a re-touch of the MRU line is a guaranteed hit
        that leaves LRU state (at every level) unchanged, so skipping it
        cannot alter any later hit/miss outcome.
        """
        if self._icache_schedule is None:
            config = self.config
            block_ids = self.trace.block_ids
            ev_lines = self.n_lines[block_ids]
            total = int(ev_lines.sum())
            stream = np.repeat(self.start_line[block_ids], ev_lines)
            offsets = np.repeat(np.cumsum(ev_lines) - ev_lines, ev_lines)
            stream += np.arange(total, dtype=np.int64) - offsets
            ev_of = np.repeat(np.arange(self.trace.n_events), ev_lines)
            if total > 1:
                keep = np.empty(total, dtype=bool)
                keep[0] = True
                np.not_equal(stream[1:], stream[:-1], out=keep[1:])
                stream = stream[keep]
                ev_of = ev_of[keep]

            l1i = SetAssociativeCache(
                config.l1i_kb, config.l1i_assoc, config.line_bytes
            )
            l2 = SetAssociativeCache(config.l2_kb, config.l2_assoc, config.line_bytes)
            l3 = SetAssociativeCache(config.l3_kb, config.l3_assoc, config.line_bytes)
            access1, access2, access3 = l1i.access, l2.access, l3.access
            l2_lat, l3_lat = config.l2_latency, config.l3_latency
            mem_lat = config.memory_latency
            schedule: List[Tuple[int, int]] = []
            append = schedule.append
            for line, event in zip(stream.tolist(), ev_of.tolist()):
                if not access1(line):
                    append(
                        (
                            event,
                            l2_lat
                            if access2(line)
                            else (l3_lat if access3(line) else mem_lat),
                        )
                    )
            self._icache_schedule = schedule
        return self._icache_schedule

    def btb_miss_count(self) -> int:
        """BTB misses over the trace's taken-branch stream (the stall
        total is just ``misses * penalty`` — run-ahead never reads it)."""
        if self._btb_misses is None:
            config = self.config
            trace = self.trace
            pcs = np.asarray(trace.program.branch_pcs, dtype=np.int64)
            taken_blocks = trace.block_ids[np.flatnonzero(trace.taken)]
            stream = pcs[taken_blocks]
            total = stream.shape[0]
            if total > 1:
                keep = np.empty(total, dtype=bool)
                keep[0] = True
                # Compress on the BTB key, not the raw PC.
                keys = stream >> 2
                np.not_equal(keys[1:], keys[:-1], out=keep[1:])
                stream = stream[keep]
            btb = BranchTargetBuffer(config.btb_entries, config.btb_assoc)
            access = btb.access
            for pc in stream.tolist():
                access(pc)
            self._btb_misses = btb.misses
        return self._btb_misses


#: Timing runs sweep many prediction configs over the same trace; the
#: prediction-independent inputs (cycle prefix, I-cache miss schedule,
#: BTB misses) are cached across calls.  The trace object is held in the
#: entry so its id cannot be recycled while the entry lives.
_INPUT_CACHE: "OrderedDict[tuple, Tuple[Trace, _TimingInputs]]" = OrderedDict()
_INPUT_CACHE_SIZE = 6


def _get_inputs(
    trace: Trace, placement: Optional[HintPlacement], config: SimConfig
) -> _TimingInputs:
    key = (id(trace), _placement_signature(placement), config)
    entry = _INPUT_CACHE.get(key)
    if entry is not None and entry[0] is trace:
        _INPUT_CACHE.move_to_end(key)
        return entry[1]
    inputs = _TimingInputs(trace, placement, config)
    _INPUT_CACHE[key] = (trace, inputs)
    while len(_INPUT_CACHE) > _INPUT_CACHE_SIZE:
        _INPUT_CACHE.popitem(last=False)
    return inputs


def _timing_scalar(
    trace: Trace,
    mispredicted: np.ndarray,
    inputs: _TimingInputs,
    config: SimConfig,
    fdip: bool,
    perfect_icache: bool,
):
    """Reference kernel: every event through live cache/BTB objects."""
    program = trace.program
    l1i = SetAssociativeCache(config.l1i_kb, config.l1i_assoc, config.line_bytes)
    l2 = SetAssociativeCache(config.l2_kb, config.l2_assoc, config.line_bytes)
    l3 = SetAssociativeCache(config.l3_kb, config.l3_assoc, config.line_bytes)
    btb = BranchTargetBuffer(config.btb_entries, config.btb_assoc)

    prefix = inputs.cycle_prefix_list()
    cap = inputs.max_runahead
    block_ids = trace.block_ids.tolist()
    taken_l = trace.taken.tolist()
    misp_l = mispredicted.tolist()
    start_line = inputs.start_line.tolist()
    n_lines = inputs.n_lines.tolist()
    pcs = np.asarray(program.branch_pcs, dtype=np.int64).tolist()
    l2_lat, l3_lat = config.l2_latency, config.l3_latency
    mem_lat = config.memory_latency

    icache_stalls = 0.0
    icache_misses = 0
    covered = 0
    mispredict_count = 0
    r_anchor = 0.0
    c_anchor = 0.0

    for i in range(trace.n_events):
        block = block_ids[i]
        if not perfect_icache:
            first = start_line[block]
            for line in range(first, first + n_lines[block]):
                if not l1i.access(line):
                    icache_misses += 1
                    if l2.access(line):
                        latency = l2_lat
                    elif l3.access(line):
                        latency = l3_lat
                    else:
                        latency = mem_lat
                    if fdip:
                        runahead = r_anchor + (prefix[i] - c_anchor)
                        if runahead > cap:
                            runahead = cap
                        hidden = runahead if runahead < latency else latency
                        stall = latency - hidden
                        if stall <= 0.0:
                            covered += 1
                        else:
                            # The prefetcher keeps running ahead while
                            # the frontend is stalled, refilling the FTQ.
                            runahead = runahead + stall
                            if runahead > cap:
                                runahead = cap
                            r_anchor = runahead
                            c_anchor = prefix[i]
                    else:
                        stall = latency
                    icache_stalls += stall

        if taken_l[i]:
            btb.access(pcs[block])

        if misp_l[i]:
            mispredict_count += 1
            r_anchor = 0.0
            c_anchor = prefix[i + 1]

    return icache_stalls, icache_misses, covered, btb.misses, mispredict_count


def _timing_vector(
    trace: Trace,
    mispredicted: np.ndarray,
    inputs: _TimingInputs,
    config: SimConfig,
    fdip: bool,
    perfect_icache: bool,
):
    """Sparse kernel: walk only the merge of misses and mispredictions."""
    btb_misses = inputs.btb_miss_count()
    misp_events = np.flatnonzero(mispredicted)
    mispredict_count = int(misp_events.shape[0])

    icache_stalls = 0.0
    icache_misses = 0
    covered = 0
    if not perfect_icache:
        schedule = inputs.icache_schedule()
        icache_misses = len(schedule)
        prefix = inputs.cycle_prefix
        cap = inputs.max_runahead
        misp_l = misp_events.tolist()
        n_misp = mispredict_count
        pi = 0
        r_anchor = 0.0
        c_anchor = 0.0
        for event, latency in schedule:
            if fdip:
                # Apply the squash resets that precede this miss.
                while pi < n_misp and misp_l[pi] < event:
                    r_anchor = 0.0
                    c_anchor = float(prefix[misp_l[pi] + 1])
                    pi += 1
                runahead = r_anchor + (float(prefix[event]) - c_anchor)
                if runahead > cap:
                    runahead = cap
                hidden = runahead if runahead < latency else latency
                stall = latency - hidden
                if stall <= 0.0:
                    covered += 1
                else:
                    # The prefetcher keeps running ahead while the
                    # frontend is stalled, refilling the FTQ.
                    runahead = runahead + stall
                    if runahead > cap:
                        runahead = cap
                    r_anchor = runahead
                    c_anchor = float(prefix[event])
            else:
                stall = latency
            icache_stalls += stall

    return icache_stalls, icache_misses, covered, btb_misses, mispredict_count


def simulate_timing(
    trace: Trace,
    prediction: Optional[PredictionResult] = None,
    placement: Optional[HintPlacement] = None,
    config: SimConfig = SimConfig(),
    fdip: bool = True,
    perfect_icache: bool = False,
    name: str = "",
    kernel: Optional[str] = None,
) -> SimResult:
    """Replay a trace through the timing model.

    ``prediction`` supplies per-conditional-branch correctness (from
    :func:`repro.bpu.runner.simulate`); None means an ideal direction
    predictor.  ``placement`` charges the injected brhint instructions
    in their host blocks.  ``fdip`` disables run-ahead prefetching when
    False; ``perfect_icache`` removes instruction-cache misses entirely
    (used by the limit-study decomposition).  ``kernel`` picks the
    implementation (default: the runner's resolution order — explicit
    argument, then ``REPRO_KERNEL``, then native, which falls back to
    vector without a C toolchain); ``native`` shares the vector path
    here, and all tiers are bit-identical.
    """
    mode = resolve_kernel(kernel)

    with obs.span(
        "timing",
        app=trace.app,
        label=name or (prediction.predictor_name if prediction else "ideal"),
        kernel=mode,
        n_events=trace.n_events,
    ):
        mispredicted = np.zeros(trace.n_events, dtype=bool)
        if prediction is not None:
            wrong = prediction.cond_event_indices[~prediction.correct]
            mispredicted[wrong] = True
        # Squashes only happen at conditional branches.
        mispredicted &= trace.is_conditional

        inputs = _get_inputs(trace, placement, config)
        # Timing has no sequential predictor state, so the native tier
        # shares the vector implementation (already memory-bound).
        run = _timing_vector if mode != "scalar" else _timing_scalar
        icache_stalls, icache_misses, covered, btb_misses, mispredict_count = run(
            trace, mispredicted, inputs, config, fdip, perfect_icache
        )
    obs.add("timing.runs")
    obs.add("timing.events", int(trace.n_events))

    base_cycles = float(inputs.cycle_prefix[trace.n_events])
    squash_cycles = float(mispredict_count * config.mispredict_penalty)
    btb_stalls = float(btb_misses * config.btb_miss_penalty)
    cycles = base_cycles + squash_cycles + icache_stalls + btb_stalls

    return SimResult(
        app=trace.app,
        config_name=name or (prediction.predictor_name if prediction else "ideal"),
        instructions=trace.n_instructions,
        hint_instructions=inputs.hint_instr,
        cycles=cycles,
        base_cycles=base_cycles,
        squash_cycles=squash_cycles,
        icache_stall_cycles=float(icache_stalls),
        btb_stall_cycles=btb_stalls,
        icache_misses=icache_misses,
        icache_misses_covered=covered,
        mispredictions=mispredict_count,
    )
