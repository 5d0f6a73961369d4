"""Native replay kernel tier: JIT-compiled state-update loops.

The third entry in :data:`repro.bpu.runner.VALID_KERNELS`.  The vector
tier already hoists everything trace-pure out of the replay loop (folded
histories, index/tag columns, hint pre-passes), but the truly sequential
table-state walk of TAGE, TAGE-SC-L and the perceptron remains a Python
loop and caps replay at well under a million events per second.  This
module compiles that walk to machine code and drives it over the same
SoA :class:`~repro.bpu.vector.ReplayBatch` columns, which multiplies
replay throughput by an order of magnitude while staying bit-identical
to the scalar oracle (the three-way equivalence suite is the contract).

Backend
-------
``src/repro/bpu/_replay.c`` is compiled on first use with the system C
toolchain (``cc``/``gcc``/``clang``) into a shared library cached per
user and per source digest, then loaded through :mod:`ctypes` — a
just-in-time build with a one-off cost of roughly a second per machine.
A Numba backend would slot into the same seam (:func:`load` is the
single choke point), but a second copy of the state-update algorithm is
a bigger correctness liability than the C toolchain dependency; Numba's
presence is still recorded in benchmark provenance
(:func:`numba_version`) so cross-machine rows stay interpretable.

When no backend is available the tier degrades gracefully: kernels for
this tier resolve to ``None``, the caller falls back to the vector
kernels, and a single :class:`RuntimeWarning` per process records the
reason.  Predictors without a native kernel fall back silently — the
vector tier *is* their native behaviour.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from .base import BranchPredictor
from .loop import _LoopEntry
from .perceptron import PerceptronPredictor
from .tage import TagePredictor
from .tage_sc_l import TageScLPredictor
from .vector import (
    ReplayBatch,
    _tage_geometry_key,
    sc_column_arrays,
    writeback_tage_state,
)

#: Environment override for the compiled-library cache directory.
CACHE_ENV_VAR = "REPRO_NATIVE_CACHE"

#: C compilers probed, in order.
_COMPILERS = ("cc", "gcc", "clang")

_SOURCE = Path(__file__).with_name("_replay.c")

_lib: Optional[ctypes.CDLL] = None
_load_failed = False
_warned_fallback = False


def _cache_dir() -> Path:
    """Directory holding compiled kernel libraries (per user by default)."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    uid = os.getuid() if hasattr(os, "getuid") else "any"
    return Path(tempfile.gettempdir()) / f"repro-native-{uid}"


def find_compiler() -> Optional[str]:
    """Path of the first available C compiler, or None."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def numba_version() -> str:
    """Installed Numba version, or ``"absent"`` (benchmark provenance)."""
    try:
        import numba

        return str(numba.__version__)
    except Exception:
        return "absent"


def native_available() -> bool:
    """Cheap probe: can the native tier run in this environment?

    True when the kernel library is already loaded/cached on disk or a C
    compiler is on PATH; does not trigger a compile.
    """
    if _lib is not None:
        return True
    if _load_failed:
        return False
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    if (_cache_dir() / f"replay-{digest}.so").exists():
        return True
    return find_compiler() is not None


def backend_name() -> Optional[str]:
    """Identifier of the active/available backend (``"cc"``), or None."""
    return "cc" if native_available() else None


def _warn_fallback(reason: str) -> None:
    """One RuntimeWarning per process when the tier degrades to vector."""
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    warnings.warn(
        f"native replay kernels unavailable ({reason}); "
        "falling back to the vector tier (results are identical)",
        RuntimeWarning,
        stacklevel=3,
    )


def _compile(compiler: str, so_path: Path) -> None:
    """Compile the kernel source to ``so_path`` (atomic via rename)."""
    so_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix="replay-build-", dir=str(so_path.parent)
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", "-o", tmp_name, str(_SOURCE)],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp_name, so_path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _declare(lib: ctypes.CDLL) -> None:
    """Attach argtypes/restype to the kernel entry points."""
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    lib.replay_perceptron.restype = None
    lib.replay_perceptron.argtypes = [
        i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
    ]
    lib.tage_columns.restype = None
    lib.tage_columns.argtypes = [
        i64, i64,                    # n, n_tables
        ptr, ptr, ptr,               # pcs, taken, lengths
        i64, i64,                    # log_entries, tag_bits
        ptr, ptr, ptr,               # idx_mat, tag_mat, finals
    ]
    lib.replay_tage.restype = ctypes.c_int
    lib.replay_tage.argtypes = [
        i64, i64, i64, i64,          # n, n_tables, n_entries, n_bimodal
        ptr, ptr, ptr,               # idx_mat, tag_mat, bim_idx
        ptr, ptr, ptr,               # taken, hinted, hint_ok
        i64,                         # allocate_hinted
        ptr, ptr, ptr, ptr,          # ctrs, tags, us, bimodal
        ptr,                         # scalars
        i64, i64, i64,               # has_sc, n_sc, sc_entries
        ptr, ptr, i64, i64,          # sc_idx_mat, sc_tables, weight, threshold
        ptr,                         # pcs
        i64, i64,                    # loop_cap, loop_m
        ptr, ptr, ptr, ptr, ptr,     # loop pc/trip/count/conf, m_out
        ptr,                         # correct
    ]


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, building it on first use.

    Returns None — after a single per-process warning — when no C
    compiler is available or the build/load fails; callers then fall
    back to the vector kernels.
    """
    global _lib, _load_failed
    if _lib is not None:
        return _lib
    if _load_failed:
        return None
    try:
        source = _SOURCE.read_bytes()
        digest = hashlib.sha256(source).hexdigest()[:16]
        so_path = _cache_dir() / f"replay-{digest}.so"
        if not so_path.exists():
            compiler = find_compiler()
            if compiler is None:
                raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
            _compile(compiler, so_path)
        lib = ctypes.CDLL(str(so_path))
        _declare(lib)
        _lib = lib
        return lib
    except Exception as error:
        _load_failed = True
        _warn_fallback(str(error))
        return None


# ----------------------------------------------------------------------
# Kernel registry (mirrors repro.bpu.vector's, for the native tier)
# ----------------------------------------------------------------------
_NATIVE_KERNELS: Dict[type, Callable] = {}


def register_native_kernel(*classes: type):
    """Class decorator registering a native kernel for predictor types."""

    def decorate(fn: Callable) -> Callable:
        for cls in classes:
            _NATIVE_KERNELS[cls] = fn
        return fn

    return decorate


def native_kernel_for(predictor: BranchPredictor) -> Optional[Callable]:
    """The native kernel for ``predictor``, or None (vector fallback).

    Walks the MRO like :func:`repro.bpu.vector.kernel_for`.  Returns
    None when the predictor has no native kernel (silent — the vector
    tier is its native behaviour) or when the backend cannot be loaded
    (one warning per process via :func:`load`).
    """
    fn = None
    for cls in type(predictor).__mro__:
        fn = _NATIVE_KERNELS.get(cls)
        if fn is not None:
            break
    if fn is None:
        return None
    if load() is None:
        return None
    return fn


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    """Raw data pointer of a (contiguous) numpy array for ctypes."""
    return ctypes.c_void_p(array.ctypes.data)


def _u8(array: np.ndarray) -> np.ndarray:
    """Contiguous uint8 copy/view of a boolean column."""
    return np.ascontiguousarray(array, dtype=np.uint8)


# ----------------------------------------------------------------------
# Perceptron
# ----------------------------------------------------------------------
@register_native_kernel(PerceptronPredictor)
def _native_perceptron(predictor, batch: ReplayBatch, hinted, hint_preds, suppress):
    """Native perceptron replay: compiled dot-product/train loop."""
    lib = load()
    n = batch.n
    idx = batch.cached(
        ("perceptron-idx-arr", predictor.n_perceptrons),
        lambda: np.ascontiguousarray(
            (batch.pcs >> 2) % predictor.n_perceptrons, dtype=np.int64
        ),
    )
    weights = np.array(predictor._weights, dtype=np.int64)
    recent = np.array(predictor._history, dtype=np.int64)
    taken = _u8(batch.taken)
    hinted_u8 = _u8(hinted)
    hint_ok = _u8(hint_preds == batch.taken)
    correct = np.empty(max(n, 1), dtype=np.uint8)

    lib.replay_perceptron(
        n,
        predictor.history_length,
        predictor.theta,
        _ptr(idx),
        _ptr(taken),
        _ptr(hinted_u8),
        _ptr(hint_ok),
        _ptr(weights),
        _ptr(recent),
        _ptr(correct),
    )

    for row, new in zip(predictor._weights, weights.tolist()):
        row[:] = new
    predictor._history = recent.tolist()
    predictor._last = None
    return correct[:n].astype(bool)


# ----------------------------------------------------------------------
# TAGE / TAGE-SC-L
# ----------------------------------------------------------------------
def _stacked(cols) -> np.ndarray:
    """One contiguous (k, n) int64 matrix from a list of columns."""
    return np.ascontiguousarray(np.stack(cols).astype(np.int64, copy=False))


def native_tage_columns(tage, batch: ReplayBatch):
    """:func:`~repro.bpu.vector.tage_column_arrays` computed by the
    compiled ``tage_columns`` pass, as native-ready matrices.

    Returns ``(idx_mat, tag_mat, bim_arr, fold_finals)``: contiguous
    ``(n_tables, n)`` int64 index and tag matrices, the bimodal index
    column, and per table the post-run ``[idx, tag0, tag1]`` folded
    registers.  Cached per batch and geometry.
    """

    def build():
        n = batch.n
        n_tables = tage.n_tables
        idx_mat = np.empty((n_tables, n), dtype=np.int64)
        tag_mat = np.empty((n_tables, n), dtype=np.int64)
        finals = np.zeros((n_tables, 3), dtype=np.int64)
        pcs = np.ascontiguousarray(batch.pcs, dtype=np.int64)
        taken = _u8(batch.taken)
        lengths = np.array(tage.histories, dtype=np.int64)
        load().tage_columns(
            n,
            n_tables,
            _ptr(pcs),
            _ptr(taken),
            _ptr(lengths),
            tage.log_entries,
            tage.tag_bits,
            _ptr(idx_mat),
            _ptr(tag_mat),
            _ptr(finals),
        )
        bim_arr = np.ascontiguousarray(
            (batch.pcs >> 2) & tage._bimodal_mask, dtype=np.int64
        )
        return idx_mat, tag_mat, bim_arr, finals.tolist()

    return batch.cached(("tage-cols-native",) + _tage_geometry_key(tage), build)


@register_native_kernel(TagePredictor, TageScLPredictor)
def _native_tage_family(predictor, batch: ReplayBatch, hinted, hint_preds, suppress):
    """Native TAGE / TAGE-SC-L replay.

    Marshals the predictor's table state into flat int64 matrices, runs
    the compiled state-update loop over the trace-pure columns
    (:func:`native_tage_columns` /
    :func:`~repro.bpu.vector.sc_column_arrays`), and writes the mutated
    state back onto the predictor objects — including the loop
    predictor's LRU table, round-tripped in recency order.
    """
    lib = load()
    if isinstance(predictor, TageScLPredictor):
        tage, sc, loop = predictor.tage, predictor.sc, predictor.loop
    else:
        tage, sc, loop = predictor, None, None

    n = batch.n
    n_tables = tage.n_tables
    n_entries = 1 << tage.log_entries

    idx_mat, tag_mat, bim_arr, fold_finals = native_tage_columns(tage, batch)

    ctrs = np.array(tage._ctrs, dtype=np.int64)
    tags = np.array(tage._tags, dtype=np.int64)
    us = np.array(tage._us, dtype=np.int64)
    bimodal = np.array(tage._bimodal, dtype=np.int64)
    scalars = np.array(
        [tage._use_alt_on_na, tage._tick, tage._rand], dtype=np.int64
    )
    taken = _u8(batch.taken)
    hinted_u8 = _u8(hinted)
    hint_ok = _u8(hint_preds == batch.taken)
    correct = np.empty(max(n, 1), dtype=np.uint8)

    has_sc = sc is not None
    if has_sc:
        if loop.n_entries < 1:
            raise ValueError("native kernel requires a loop table capacity >= 1")
        sc_idx_mat = batch.cached(
            ("sc-cols-native", sc.log_entries, sc._mask, tuple(sc.history_lengths)),
            lambda: _stacked(sc_column_arrays(sc, batch)),
        )
        sc_tables = np.array(sc._tables, dtype=np.int64)
        n_sc = len(sc.history_lengths)
        sc_entries = 1 << sc.log_entries
        pcs = batch.pcs
        cap = loop.n_entries
        lp_pc = np.zeros(cap, dtype=np.int64)
        lp_trip = np.zeros(cap, dtype=np.int64)
        lp_count = np.zeros(cap, dtype=np.int64)
        lp_conf = np.zeros(cap, dtype=np.int64)
        for s, (pc, entry) in enumerate(loop._table.items()):
            lp_pc[s] = pc
            lp_trip[s] = entry.trip
            lp_count[s] = entry.count
            lp_conf[s] = entry.conf
        loop_m = len(loop._table)
        lp_m_out = np.zeros(1, dtype=np.int64)
    else:
        sc_idx_mat = sc_tables = pcs = np.zeros(1, dtype=np.int64)
        n_sc = sc_entries = 0
        cap = loop_m = 0
        lp_pc = lp_trip = lp_count = lp_conf = lp_m_out = np.zeros(
            1, dtype=np.int64
        )

    rc = lib.replay_tage(
        n,
        n_tables,
        n_entries,
        len(tage._bimodal),
        _ptr(idx_mat),
        _ptr(tag_mat),
        _ptr(bim_arr),
        _ptr(taken),
        _ptr(hinted_u8),
        _ptr(hint_ok),
        int(not suppress),
        _ptr(ctrs),
        _ptr(tags),
        _ptr(us),
        _ptr(bimodal),
        _ptr(scalars),
        int(has_sc),
        n_sc,
        sc_entries,
        _ptr(sc_idx_mat),
        _ptr(sc_tables),
        sc.tage_weight if has_sc else 0,
        sc.threshold if has_sc else 0,
        _ptr(pcs),
        cap,
        loop_m,
        _ptr(lp_pc),
        _ptr(lp_trip),
        _ptr(lp_count),
        _ptr(lp_conf),
        _ptr(lp_m_out),
        _ptr(correct),
    )
    if rc != 0:
        raise MemoryError("native replay_tage failed to allocate scratch state")

    for i in range(n_tables):
        tage._ctrs[i][:] = ctrs[i].tolist()
        tage._tags[i][:] = tags[i].tolist()
        tage._us[i][:] = us[i].tolist()
    tage._bimodal[:] = bimodal.tolist()
    writeback_tage_state(
        tage, batch, fold_finals, int(scalars[0]), int(scalars[1]), int(scalars[2])
    )

    if has_sc:
        for k in range(n_sc):
            sc._tables[k][:] = sc_tables[k].tolist()
        sc._ghr = batch.raw_history_column(32)[1]
        sc._last = None
        predictor._last = None
        table: "OrderedDict[int, _LoopEntry]" = OrderedDict()
        for s in range(int(lp_m_out[0])):
            entry = _LoopEntry()
            entry.trip = int(lp_trip[s])
            entry.count = int(lp_count[s])
            entry.conf = int(lp_conf[s])
            table[int(lp_pc[s])] = entry
        loop._table = table

    return correct[:n].astype(bool)
