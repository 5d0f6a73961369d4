"""Vectorised replay kernels: SoA trace columns + fused predictor loops.

The scalar runner (:func:`repro.bpu.runner.simulate`) replays one branch
at a time through Python objects.  Almost everything it computes per
branch is a pure function of the *trace*, not of predictor state:

* TAGE's folded-history registers are linear over GF(2), so the register
  value before every branch is an XOR of per-age impulse masks over the
  outcome bits — one NumPy convolution per history length yields the
  whole index/tag column for the run (:meth:`ReplayBatch.folded_columns`).
* Raw global-history windows (gshare, the statistical corrector, ROMBF)
  are shifted views of the outcome column (:meth:`ReplayBatch.raw_history_column`).
* Whisper's chunk-folded hashed histories come from a packed byte matrix
  of the outcome stream (:meth:`ReplayBatch.hashed_column`).

What remains truly sequential is the table state itself (counters, tags,
usefulness, LRU structures), which each kernel walks in one lean Python
loop over *conditional branches only*, with every index/tag/history
input pre-resolved to flat lists.  Kernels mutate the predictor's own
tables in place and write back the derived history state at the end, so
a predictor that went through a vector kernel is indistinguishable from
one that replayed the scalar path — bit-identical predictions are
enforced by ``tests/test_vector_equivalence.py``.

Adding a vectorised predictor: implement a function with the kernel
signature and register it for the predictor class with
:func:`register_kernel`; unregistered predictors transparently fall back
to the scalar per-branch replay inside the vector pipeline.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..profiling.trace import Trace
from .base import BranchPredictor, FoldedHistory
from .loop import _CONF_MAX as _LOOP_CONF_MAX
from .loop import _CONF_USE as _LOOP_CONF_USE
from .loop import _TRIP_LIMIT as _LOOP_TRIP_LIMIT
from .loop import _LoopEntry
from .perceptron import PerceptronPredictor, _clip
from .simple import (
    BimodalPredictor,
    GSharePredictor,
    IdealPredictor,
    StaticTakenPredictor,
)
from .tage import _CTR_MAX, _CTR_MIN, _U_MAX, TagePredictor
from .tage_sc_l import TageScLPredictor

#: Maximum history the replay context tracks (matches the runner's GHR).
_MAX_HISTORY_BITS = 1024

#: Bit offset separating registers packed into one convolution stream.
_PACK_SHIFT = 16


@lru_cache(maxsize=None)
def _impulse_masks(length: int, width: int) -> Tuple[int, ...]:
    """Per-age contribution of one history bit to a folded register.

    ``FoldedHistory.update`` is linear over GF(2) (shift, XOR, fold), so
    the register value equals the XOR over window ages ``a`` of
    ``bit(age=a) * masks[a]`` where ``masks[a]`` is the state of an
    isolated register ``a + 1`` updates after an impulse entered it.
    """
    fh = FoldedHistory(length, width)
    masks = []
    fh.update(1, 0)
    masks.append(fh.comp)
    for _ in range(length - 1):
        fh.update(0, 0)
        masks.append(fh.comp)
    return tuple(masks)


class ReplayBatch:
    """Structure-of-arrays view of one trace's conditional branches.

    Columns are lazily computed and cached per (parameter) request, so a
    batch can be shared by the hint pre-pass and the predictor kernel.
    All history columns give the state *before* each branch executes
    (element ``n`` of the internal accumulators is the post-run state,
    returned to kernels for predictor write-back).
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        cond = trace.is_conditional
        self.cond_event_indices = np.flatnonzero(cond).astype(np.int64)
        self.pcs = trace.pcs[self.cond_event_indices].astype(np.int64)
        self.taken = np.ascontiguousarray(trace.taken[self.cond_event_indices])
        self.n = int(self.pcs.shape[0])
        self._bits64 = self.taken.astype(np.int64)
        self._scratch = np.empty(max(self.n, 1), dtype=np.int64)
        self._word_cache: Dict[int, np.ndarray] = {}
        self._fold_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._raw_cache: Dict[int, Tuple[np.ndarray, int]] = {}
        self._hash_cache: Dict[Tuple[int, str], np.ndarray] = {}
        self._bytes: Optional[np.ndarray] = None
        self._bipolar_cache: Dict[int, np.ndarray] = {}
        #: Kernel-owned cache of trace-pure derived columns (e.g. TAGE
        #: index/tag lists per table geometry).  Batches are reused
        #: across simulate calls on the same trace, so anything that
        #: depends only on the trace and predictor *parameters* — never
        #: on predictor or runtime state — may be parked here.
        self.derived: Dict = {}

    def cached(self, key, build):
        """Memoise ``build()`` under ``key`` in :attr:`derived`.

        Column builds are the trace-pure setup chunks of a vector
        replay, so each first build records an observability span;
        cache hits stay span-free (they cost a dict lookup).
        """
        val = self.derived.get(key)
        if val is None:
            with obs.span("replay.columns", key=str(key), n=self.n):
                val = self.derived[key] = build()
        return val

    def taken_list(self) -> list:
        return self.cached("taken-list", self.taken.tolist)

    def pcs_list(self) -> list:
        return self.cached("pcs-list", self.pcs.tolist)

    # ------------------------------------------------------------------
    def _fold_words(self, width: int, pad: int = _MAX_HISTORY_BITS) -> np.ndarray:
        """``words[pad + u]`` packs outcomes ``u .. u+width-1`` with the
        oldest at the top bit (positions left of the trace are zero)."""
        key = (width, pad)
        words = self._word_cache.get(key)
        if words is None:
            total = self.n + pad + 1
            bits = np.zeros(total + width, dtype=np.int64)
            bits[pad : pad + self.n] = self._bits64
            words = np.zeros(total, dtype=np.int64)
            for i in range(width):
                words ^= bits[i : total + i] << (width - 1 - i)
            self._word_cache[key] = words
        return words

    def _folded_column(self, length: int, width: int) -> np.ndarray:
        """Exact :class:`FoldedHistory`` column, computed in O(n).

        A folded register with no inputs is a pure ``width``-bit rotation,
        so advancing one full rotation period satisfies
        ``F(t + width) = F(t) ^ W(t) ^ rotl(W(t - length), length % width)``
        where ``W(u)`` packs the ``width`` outcomes entering the window
        (and the rotated term removes the ones leaving it).  Each of the
        ``width`` stride classes is then a prefix-XOR over that delta.
        Element ``n`` of the result is the post-run register value.
        """
        key = (length, width)
        col = self._fold_cache.get(key)
        if col is None:
            n = self.n
            # Bucketed padding keeps one shared word column per width for
            # common lengths while still covering histories longer than
            # the base window (large scaled TAGE configurations).
            pad = -(-max(length, _MAX_HISTORY_BITS) // _MAX_HISTORY_BITS) * _MAX_HISTORY_BITS
            mask = (1 << width) - 1
            words = self._fold_words(width, pad)
            entering = words[pad : pad + n]
            leaving = words[pad - length : pad - length + n]
            rot = length % width
            if rot:
                leaving = ((leaving << rot) | (leaving >> (width - rot))) & mask
            delta = entering ^ leaving

            col = np.empty(n + 1, dtype=np.int64)
            # Seed the first `width` positions directly: their windows
            # hold fewer than `width` outcomes, so the fold is identity.
            value = 0
            keep = (1 << length) - 1
            bits = self._bits64
            for t in range(min(width, n + 1)):
                col[t] = value
                if t < n:
                    value = ((value << 1) | int(bits[t])) & keep
            # All stride classes at once: lay positions out row-major in
            # rows of `width`, so class `s` is column `s`, and prefix-XOR
            # the deltas down the columns (transposed, so each class is
            # one contiguous accumulate).
            rows = -(-(n + 1) // width)
            if rows > 1:
                steps = delta[: (rows - 1) * width].reshape(rows - 1, width)
                prefix = np.bitwise_xor.accumulate(steps.T, axis=1).T
                tail = (prefix ^ col[:width]).ravel()
                col[width:] = tail[: n + 1 - width]
            self._fold_cache[key] = col
        return col

    def folded_columns(self, length: int, widths: Tuple[int, ...]):
        """Exact :class:`FoldedHistory` columns for one history length.

        Returns ``(cols, finals)``: per requested width, the register
        value before each conditional branch and its post-run value.
        """
        cols, finals = [], []
        for width in widths:
            col = self._folded_column(length, width)
            cols.append(col[: self.n])
            finals.append(int(col[self.n]))
        return cols, finals

    def raw_history_column(self, length: int) -> Tuple[np.ndarray, int]:
        """Masked raw history (``length`` <= 63 bits, bit 0 = most recent)
        before each conditional branch, plus the post-run value."""
        if length > 63:
            raise ValueError("raw history columns support at most 63 bits")
        cached = self._raw_cache.get(length)
        if cached is None:
            acc = np.zeros(self.n + 1, dtype=np.int64)
            bits = self._bits64
            tmp = self._scratch
            for age in range(length):
                span = self.n - age
                if span <= 0:
                    break
                np.left_shift(bits[:span], age, out=tmp[:span])
                acc[age + 1 :] |= tmp[:span]
            cached = (acc[: self.n], int(acc[self.n]))
            self._raw_cache[length] = cached
        return cached

    def history_bytes(self) -> np.ndarray:
        """(n, 128) uint8 matrix: byte ``k`` of row ``t`` holds history
        bits ``8k..8k+7`` (LSB-first) before conditional branch ``t``."""
        if self._bytes is None:
            n = self.n
            pad = np.zeros(n + _MAX_HISTORY_BITS, dtype=np.uint8)
            if n:
                pad[_MAX_HISTORY_BITS : _MAX_HISTORY_BITS + n] = self.taken
            # packed[p] holds outcomes pad[p], pad[p-1], ..., pad[p-7] at
            # bits 0..7, so byte k before branch t is packed[1023 + t - 8k]:
            # a stride -8 window over one byte column, no per-bit work.
            packed = pad.copy()
            for bit in range(1, 8):
                packed[bit:] |= pad[:-bit] << bit
            windows = np.lib.stride_tricks.sliding_window_view(
                packed, _MAX_HISTORY_BITS - 7
            )
            self._bytes = np.ascontiguousarray(windows[7 : 7 + n, ::-8])
        return self._bytes

    def hashed_column(self, length: int, op: str = "xor") -> np.ndarray:
        """:func:`repro.core.hashing.fold_history` of the pre-branch
        history at ``length``, for the default 8-bit hash width."""
        key = (length, op)
        cached = self._hash_cache.get(key)
        if cached is None:
            from ..core.hashing import fold_bytes_matrix

            cached = fold_bytes_matrix(self.history_bytes(), length, op=op)
            self._hash_cache[key] = cached
        return cached

    def bipolar_history(self, depth: int) -> np.ndarray:
        """(n, depth) matrix of +/-1 outcomes (0 = before trace start):
        column ``i`` is the (i+1)-th most recent outcome per branch."""
        cached = self._bipolar_cache.get(depth)
        if cached is None:
            mat = np.zeros((self.n, depth), dtype=np.int64)
            bip = self.taken.astype(np.int64) * 2 - 1
            for i in range(depth):
                span = self.n - 1 - i
                if span <= 0:
                    break
                mat[i + 1 :, i] = bip[:span]
            cached = mat
            self._bipolar_cache[depth] = cached
        return cached


# ----------------------------------------------------------------------
# Kernel registry
# ----------------------------------------------------------------------
#: kernel(predictor, batch, hinted, hint_preds, suppress) -> correct[bool]
ReplayKernel = Callable[
    [BranchPredictor, ReplayBatch, np.ndarray, np.ndarray, bool], np.ndarray
]

_KERNELS: Dict[type, ReplayKernel] = {}


def register_kernel(*classes: type):
    """Class decorator registering a vector kernel for predictor types."""

    def decorate(fn: ReplayKernel) -> ReplayKernel:
        for cls in classes:
            _KERNELS[cls] = fn
        return fn

    return decorate


def kernel_for(predictor: BranchPredictor) -> Optional[ReplayKernel]:
    """The registered kernel for a predictor (walks the MRO so subclasses
    such as MTAGE-SC inherit their base predictor's kernel)."""
    for cls in type(predictor).__mro__:
        fn = _KERNELS.get(cls)
        if fn is not None:
            return fn
    return None


def _hint_ok(batch: ReplayBatch, hinted: np.ndarray, hint_preds: np.ndarray):
    """Correctness of the hint predictions (garbage where not hinted)."""
    return hint_preds == batch.taken


# ----------------------------------------------------------------------
# Simple predictors
# ----------------------------------------------------------------------
@register_kernel(IdealPredictor)
def _replay_ideal(predictor, batch, hinted, hint_preds, suppress):
    correct = np.ones(batch.n, dtype=bool)
    if hinted.any():
        correct[hinted] = (hint_preds == batch.taken)[hinted]
    return correct


@register_kernel(StaticTakenPredictor)
def _replay_static(predictor, batch, hinted, hint_preds, suppress):
    own = batch.taken == predictor.direction
    return np.where(hinted, _hint_ok(batch, hinted, hint_preds), own)


def _counter_loop(table: List[int], idx_list, taken_list, hinted_list, hint_ok_list):
    """Shared 2-bit saturating-counter walk (bimodal / gshare bodies)."""
    n = len(idx_list)
    correct = [False] * n
    for j in range(n):
        i = idx_list[j]
        ctr = table[i]
        taken = taken_list[j]
        if hinted_list[j]:
            correct[j] = hint_ok_list[j]
        else:
            correct[j] = (ctr >= 0) == taken
        if taken:
            if ctr < 1:
                table[i] = ctr + 1
        elif ctr > -2:
            table[i] = ctr - 1
    return correct


@register_kernel(BimodalPredictor)
def _replay_bimodal(predictor, batch, hinted, hint_preds, suppress):
    mask = predictor._mask
    idx_list = batch.cached(
        ("bimodal-idx", mask), lambda: ((batch.pcs >> 2) & mask).tolist()
    )
    correct = _counter_loop(
        predictor._table,
        idx_list,
        batch.taken_list(),
        hinted.tolist(),
        _hint_ok(batch, hinted, hint_preds).tolist(),
    )
    return np.asarray(correct, dtype=bool)


@register_kernel(GSharePredictor)
def _replay_gshare(predictor, batch, hinted, hint_preds, suppress):
    length = predictor.history_length
    mask = predictor._mask
    ghr_col, ghr_final = batch.raw_history_column(length)
    idx_list = batch.cached(
        ("gshare-idx", length, mask),
        lambda: (((batch.pcs >> 2) ^ ghr_col) & mask).tolist(),
    )
    correct = _counter_loop(
        predictor._table,
        idx_list,
        batch.taken_list(),
        hinted.tolist(),
        _hint_ok(batch, hinted, hint_preds).tolist(),
    )
    predictor._ghr = ghr_final
    return np.asarray(correct, dtype=bool)


@register_kernel(PerceptronPredictor)
def _replay_perceptron(predictor, batch, hinted, hint_preds, suppress):
    hl = predictor.history_length
    theta = predictor.theta
    weights = predictor._weights
    idx = batch.cached(
        ("perceptron-idx", predictor.n_perceptrons),
        lambda: ((batch.pcs >> 2) % predictor.n_perceptrons).tolist(),
    )
    taken_l = batch.taken_list()
    hinted_l = hinted.tolist()
    hint_ok = _hint_ok(batch, hinted, hint_preds).tolist()
    n = batch.n
    correct = [False] * n
    # Rolling +/-1 history window, most recent outcome first (0 = unset);
    # maintained in place instead of materialising an (n, hl) matrix.
    recent = list(predictor._history)
    for j in range(n):
        w = weights[idx[j]]
        total = w[0]
        for i, bit in enumerate(recent, 1):
            if bit > 0:
                total += w[i]
            elif bit < 0:
                total -= w[i]
        taken = taken_l[j]
        pred = total >= 0
        correct[j] = hint_ok[j] if hinted_l[j] else pred == taken
        target = 1 if taken else -1
        if pred != taken or abs(total) <= theta:
            w[0] = _clip(w[0] + target)
            for i, bit in enumerate(recent, 1):
                if bit != 0:
                    w[i] = _clip(w[i] + (1 if bit == target else -1))
        recent.insert(0, target)
        recent.pop()
    predictor._history = recent
    predictor._last = None
    return np.asarray(correct, dtype=bool)


# ----------------------------------------------------------------------
# TAGE family
# ----------------------------------------------------------------------
def _tage_geometry_key(tage) -> tuple:
    """Cache-key fields of everything the TAGE columns depend on."""
    return (
        tage.log_entries,
        tage.tag_bits,
        tage._bimodal_mask,
        tuple(tage.histories),
    )


def tage_column_arrays(tage, batch: ReplayBatch):
    """Trace-pure TAGE index/tag columns for one table geometry.

    Returns ``(idx_cols, tag_cols, bim_col, fold_finals)``: per tagged
    table, the entry index and computed tag before every conditional
    branch (int64 arrays), the bimodal index column, and the post-run
    folded-register values for predictor write-back (cached per batch).
    The native tier builds the same columns in one compiled pass
    (:func:`repro.bpu.native.native_tage_columns`).
    """

    def build():
        entry_mask = tage._entry_mask
        tag_mask = tage._tag_mask
        log_entries = tage.log_entries
        pc2 = batch.pcs >> 2
        idx_cols, tag_cols, fold_finals = [], [], []
        widths = (log_entries, tage.tag_bits, max(1, tage.tag_bits - 1))
        for i, h in enumerate(tage.histories):
            (f_idx, f_tag0, f_tag1), finals = batch.folded_columns(h, widths)
            idx_cols.append(
                (pc2 ^ (pc2 >> (log_entries - i % 4)) ^ f_idx) & entry_mask
            )
            tag_cols.append((pc2 ^ f_tag0 ^ (f_tag1 << 1)) & tag_mask)
            fold_finals.append(finals)
        bim_col = pc2 & tage._bimodal_mask
        return idx_cols, tag_cols, bim_col, fold_finals

    return batch.cached(("tage-cols-arrays",) + _tage_geometry_key(tage), build)


def _tage_column_lists(tage, batch: ReplayBatch):
    """Flat-list view of the TAGE columns plus next-occurrence chains.

    The per-branch Python loop of the vector kernel indexes flat lists
    (scalar indexing beats ndarray here) and walks lazy tag-write
    recheck markers through a next-same-index chain; both layers are
    derived from :func:`tage_column_arrays` and cached separately so the
    native tier never pays for them.
    """

    def build():
        idx_cols, tag_cols, bim_col, _ = tage_column_arrays(tage, batch)
        n = batch.n
        # Flat per-table columns: most branches only touch the provider's
        # entry (if any), so per-branch row lists would mostly go unread.
        idx_lists = [col.tolist() for col in idx_cols]
        tag_lists = [col.tolist() for col in tag_cols]
        bim_idx = bim_col.tolist()
        # Next occurrence of the same (table, index) pair, for the lazy
        # tag-write recheck chains walked by the replay loop.
        nxt_arrs = []
        for col in idx_cols:
            order = np.argsort(col, kind="stable")
            nxt = np.full(n, n, dtype=np.int64)
            if n > 1:
                same = col[order[1:]] == col[order[:-1]]
                nxt[order[:-1][same]] = order[1:][same]
            nxt_arrs.append(nxt)
        return idx_lists, tag_lists, bim_idx, nxt_arrs

    return batch.cached(("tage-cols-lists",) + _tage_geometry_key(tage), build)


def sc_column_arrays(sc, batch: ReplayBatch):
    """Statistical-corrector index columns (int64 arrays), cached.

    One column per corrector history length, derived from the 32-bit raw
    history column (the corrector's GHR width).  Shared by the vector
    and native kernel tiers.
    """

    def build():
        ghr_col, _ = batch.raw_history_column(32)
        pc2 = batch.pcs >> 2
        cols = []
        for length in sc.history_lengths:
            if length == 0:
                cols.append(pc2 & sc._mask)
            else:
                hist = ghr_col & ((1 << length) - 1)
                folded = hist ^ (hist >> sc.log_entries)
                cols.append((pc2 ^ folded ^ (folded << 3)) & sc._mask)
        return cols

    return batch.cached(
        ("sc-cols-arrays", sc.log_entries, sc._mask, tuple(sc.history_lengths)),
        build,
    )


def writeback_tage_state(
    tage, batch: ReplayBatch, fold_finals, use_alt_ctr: int, tick: int, rand: int
) -> None:
    """Restore derived TAGE history/scalar state after a batched replay.

    Kernels mutate the table contents in place; everything else — the
    USE_ALT_ON_NA / tick / LCG scalars, the folded-history registers and
    the global-history ring — is recomposed here from the batch so a
    predictor that went through a batched kernel is indistinguishable
    from one that replayed the scalar path.
    """
    tage._use_alt_on_na = use_alt_ctr
    tage._tick = tick
    tage._rand = rand
    tage._last_pc = None
    tage._last_state = None
    for i in range(tage.n_tables):
        f_idx, f_tag0, f_tag1 = fold_finals[i]
        tage._fold_idx[i].comp = f_idx
        tage._fold_tag0[i].comp = f_tag0
        tage._fold_tag1[i].comp = f_tag1
    # Rebuild the global-history ring from the trace tail.
    n = batch.n
    size = tage._hist_size
    mask = size - 1
    taken_arr = batch.taken
    tage._hist_ptr = 0
    hist = tage._hist
    for d in range(1, size + 1):
        hist[(1 - d) & mask] = int(taken_arr[n - d]) if n - d >= 0 else 0


@register_kernel(TagePredictor, TageScLPredictor)
def _replay_tage_family(predictor, batch, hinted, hint_preds, suppress):
    """Fused TAGE / TAGE-SC-L replay loop.

    One branch-level Python loop carries the TAGE core plus — when the
    predictor has them — the loop predictor and statistical corrector,
    with every index/tag/history input pre-resolved to flat lists.  The
    body mirrors ``TagePredictor.predict_full``/``update`` (and the
    TAGE-SC-L composition) statement for statement; the derived history
    state is written back onto the predictor objects at the end.
    """
    if isinstance(predictor, TageScLPredictor):
        tage = predictor.tage
        sc = predictor.sc
        loop = predictor.loop
    else:
        tage = predictor
        sc = None
        loop = None

    n = batch.n
    n_tables = tage.n_tables

    idx_cols, tag_cols, _bim_col, fold_finals = tage_column_arrays(tage, batch)
    idx_lists, tag_lists, bim_idx, nxt_arrs = _tage_column_lists(tage, batch)

    ctrs = tage._ctrs
    tags = tage._tags
    useful = tage._us
    bimodal = tage._bimodal
    use_alt_ctr = tage._use_alt_on_na
    tick = tage._tick
    rand = tage._rand

    # Tagged-table hits are rare events: tags start unallocated (-1,
    # matching nothing) and change only when a misprediction allocates.
    # ``cand`` maps branch position -> list of tables whose *initial*
    # stored tag matches that branch's computed tag (built vectorised
    # below).  Tag writes during the replay invalidate it only at future
    # occurrences of the written table entry, so each allocation plants a
    # lazy recheck marker at the entry's next occurrence; the marker
    # corrects ``cand`` from the live table and hops to the following
    # occurrence via a precomputed next-same-index chain (O(1) per hop).
    cand: Dict[int, list] = {}
    for i in range(n_tables):
        stored = np.asarray(tags[i], dtype=np.int64)
        if int(stored.max(initial=-1)) < 0:
            continue  # fresh table: -1 never equals a computed tag
        for p in np.flatnonzero(stored[idx_cols[i]] == tag_cols[i]).tolist():
            lst = cand.get(p)
            if lst is None:
                cand[p] = [i]
            else:
                lst.append(i)
    recheck: Dict[int, list] = {}
    cand_pop = cand.pop
    recheck_pop = recheck.pop
    recheck_get = recheck.get

    has_sc = sc is not None
    if has_sc:
        sc_tables = sc._tables
        sc_weight = sc.tage_weight
        sc_threshold = sc.threshold
        sc_ctr_max, sc_ctr_min = 31, -32  # 6-bit SC counters (corrector.py)
        n_sc = len(sc.history_lengths)

        ghr_col, ghr_final = batch.raw_history_column(32)

        sc_idx_lists = batch.cached(
            ("sc-cols-lists", sc.log_entries, sc._mask, tuple(sc.history_lengths)),
            lambda: [col.tolist() for col in sc_column_arrays(sc, batch)],
        )

        # Loop predictor inlined (see bpu/loop.py for the reference model).
        loop_table = loop._table
        loop_capacity = loop.n_entries
        loop_get = loop_table.get
        loop_move = loop_table.move_to_end
        pcs_l = batch.pcs_list()

    taken_l = batch.taken_list()
    hinted_l = hinted.tolist()
    hint_ok = _hint_ok(batch, hinted, hint_preds).tolist()
    allocate_hinted = not suppress
    correct = [False] * n

    for j in range(n):
        taken = taken_l[j]
        hinted_j = hinted_l[j]
        allocate = allocate_hinted if hinted_j else True

        # ---- TAGE predict --------------------------------------------
        marks = recheck_pop(j, None)
        if marks is None:
            lst = cand_pop(j, None)
        else:
            lst = cand_pop(j, None) or []
            for i in marks:
                m_idx = idx_lists[i][j]
                if tags[i][m_idx] == tag_lists[i][j]:
                    if i not in lst:
                        lst.append(i)
                elif i in lst:
                    lst.remove(i)
                p = int(nxt_arrs[i][j])
                if p < n:
                    nlst = recheck_get(p)
                    if nlst is None:
                        recheck[p] = [i]
                    elif i not in nlst:
                        nlst.append(i)
        if not lst:  # no entry, or emptied by tag overwrites
            provider = -1
            alt = -1
        else:
            provider = lst[0]
            alt = -1
            for i in lst:
                if i > provider:
                    alt = provider
                    provider = i
                elif alt < i < provider:
                    alt = i

        b_idx = bim_idx[j]
        b_ctr = bimodal[b_idx]
        bim_pred = b_ctr >= 0
        if provider < 0:
            pred = bim_pred
            conf = 2 * b_ctr + 1
            provider_pred = alt_pred = bim_pred
            used_alt = False
        else:
            p_idx = idx_lists[provider][j]
            p_ctr = ctrs[provider][p_idx]
            provider_pred = p_ctr >= 0
            if alt >= 0:
                alt_pred = ctrs[alt][idx_lists[alt][j]] >= 0
            else:
                alt_pred = bim_pred
            used_alt = (
                (p_ctr == -1 or p_ctr == 0)
                and useful[provider][p_idx] == 0
                and use_alt_ctr >= 8
            )
            pred = alt_pred if used_alt else provider_pred
            conf = 2 * p_ctr + 1

        mispredicted = pred != taken

        # ---- TAGE update ---------------------------------------------
        if provider >= 0:
            table = ctrs[provider]
            ctr = table[p_idx]
            if taken:
                if ctr < _CTR_MAX:
                    table[p_idx] = ctr + 1
            elif ctr > _CTR_MIN:
                table[p_idx] = ctr - 1

            if provider_pred != alt_pred:
                us = useful[provider]
                if provider_pred == taken:
                    if us[p_idx] < _U_MAX:
                        us[p_idx] += 1
                elif us[p_idx] > 0:
                    us[p_idx] -= 1

            if (
                (ctr == -1 or ctr == 0)
                and useful[provider][p_idx] == 0
                and provider_pred != alt_pred
            ):
                if provider_pred == taken:
                    if use_alt_ctr > 0:
                        use_alt_ctr -= 1
                elif use_alt_ctr < 15:
                    use_alt_ctr += 1

            if alt < 0 and used_alt:
                if taken:
                    if b_ctr < 1:
                        bimodal[b_idx] = b_ctr + 1
                elif b_ctr > -2:
                    bimodal[b_idx] = b_ctr - 1
        else:
            if taken:
                if b_ctr < 1:
                    bimodal[b_idx] = b_ctr + 1
            elif b_ctr > -2:
                bimodal[b_idx] = b_ctr - 1

        if mispredicted and allocate and provider < n_tables - 1:
            start = provider + 1
            free = [
                i for i in range(start, n_tables)
                if useful[i][idx_lists[i][j]] == 0
            ]
            if not free:
                for i in range(start, n_tables):
                    us = useful[i]
                    u_idx = idx_lists[i][j]
                    if us[u_idx] > 0:
                        us[u_idx] -= 1
            else:
                choice = free[0]
                if len(free) > 1:
                    rand = (rand * 1103515245 + 12345) & 0x7FFFFFFF
                    if ((rand >> 16) & 3) == 0:
                        choice = free[1]
                c_idx = idx_lists[choice][j]
                tags[choice][c_idx] = tag_lists[choice][j]
                ctrs[choice][c_idx] = 0 if taken else -1
                useful[choice][c_idx] = 0
                # The write only matters at future occurrences of this
                # table entry: plant a recheck marker at the next one.
                p = int(nxt_arrs[choice][j])
                if p < n:
                    nlst = recheck_get(p)
                    if nlst is None:
                        recheck[p] = [choice]
                    elif choice not in nlst:
                        nlst.append(choice)

        tick += 1
        if tick >= (1 << 18):
            tick = 0
            for us in useful:
                for k, u in enumerate(us):
                    if u:
                        us[k] = u >> 1

        # ---- SC-L composition ----------------------------------------
        if has_sc:
            pc = pcs_l[j]
            loop_entry = loop_get(pc)
            if (
                loop_entry is None
                or loop_entry.conf < _LOOP_CONF_USE
                or loop_entry.trip < 1
            ):
                loop_pred = None
            else:
                loop_pred = loop_entry.count + 1 <= loop_entry.trip

            abs_conf = conf if conf >= 0 else -conf
            total = sc_weight * (abs_conf if pred else -abs_conf)
            for k in range(n_sc):
                total += 2 * sc_tables[k][sc_idx_lists[k][j]] + 1
            sc_pred = total >= 0

            if loop_pred is not None:
                final = loop_pred
            elif abs_conf >= 5:
                final = pred
            else:
                final = sc_pred
            correct[j] = hint_ok[j] if hinted_j else final == taken

            # Loop update.
            if loop_entry is None:
                if mispredicted and allocate:
                    if len(loop_table) >= loop_capacity:
                        loop_table.popitem(last=False)
                    loop_table[pc] = _LoopEntry()
            else:
                loop_move(pc)
                if taken:
                    loop_entry.count += 1
                    if loop_entry.count > _LOOP_TRIP_LIMIT:
                        del loop_table[pc]
                else:
                    if loop_entry.trip == loop_entry.count and loop_entry.trip > 0:
                        if loop_entry.conf < _LOOP_CONF_MAX:
                            loop_entry.conf += 1
                    else:
                        loop_entry.trip = loop_entry.count
                        loop_entry.conf = 0
                    loop_entry.count = 0

            if sc_pred != taken or (total if total >= 0 else -total) <= sc_threshold:
                for k in range(n_sc):
                    sc_table = sc_tables[k]
                    s_idx = sc_idx_lists[k][j]
                    ctr = sc_table[s_idx]
                    if taken:
                        if ctr < sc_ctr_max:
                            sc_table[s_idx] = ctr + 1
                    elif ctr > sc_ctr_min:
                        sc_table[s_idx] = ctr - 1
        else:
            correct[j] = hint_ok[j] if hinted_j else pred == taken

    # ---- write-back ---------------------------------------------------
    writeback_tage_state(tage, batch, fold_finals, use_alt_ctr, tick, rand)

    if has_sc:
        sc._ghr = ghr_final
        sc._last = None
        predictor._last = None
    return np.asarray(correct, dtype=bool)
