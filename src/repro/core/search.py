"""Boolean formula search (paper Algorithm 1 + §III-B randomized testing).

Given the taken/not-taken hashed-history sample tables ``T`` and ``NT`` of a
branch, Algorithm 1 scans a candidate formula list and returns the formula
with the fewest mispredictions over the profile.  Whisper shrinks the
candidate list with *randomized formula testing*: a single Fisher-Yates
permutation of the whole encoding space is drawn once and shared by every
branch, and each branch only tests the first ``fraction`` of it.

Two implementations are provided:

* :func:`find_best_formula_scalar` — a direct transliteration of the
  paper's Algorithm 1 pseudocode (hash-table loops, ``satisfy`` checks).
  Used by tests as the reference semantics.
* :meth:`FormulaSearch.find_best_formula` — a vectorised equivalent.  With
  the cached all-formula truth table ``M`` (rows = op-index, columns =
  hashed history), the misprediction count of every candidate reduces to a
  matrix-vector product::

      errors(f, invert=0) = sum(T) + M[f] . (nt - t)
      errors(f, invert=1) = sum(NT) - M[f] . (nt - t)

  because a taken sample mispredicts when the formula says 0 and a
  not-taken sample mispredicts when it says 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .formulas import (
    WHISPER_OPS,
    FormulaTree,
    all_formula_table,
    formula_from_index,
    formula_space_size,
)

#: Paper default: 0.1 % of all formulas reaches 88.3 % of exhaustive quality.
DEFAULT_EXPLORE_FRACTION = 0.001


@lru_cache(maxsize=16)
def fisher_yates_permutation(n: int, seed: int = 0x5A17) -> np.ndarray:
    """A Fisher-Yates (Durstenfeld) shuffle of ``range(n)``.

    The paper generates the random order *once* and reuses it for every
    branch, so the permutation is a pure function of the seed: it is
    memoized per ``(n, seed)`` and returned read-only.  Implemented
    explicitly (rather than ``rng.permutation``) to match the cited
    algorithm: walk from the end, swapping each slot with a uniformly
    random earlier slot.  All swap indices come from one vectorised draw
    (slot ``i`` takes a bound of ``i + 1``), which consumes the generator
    exactly as one ``rng.integers(0, i + 1)`` call per slot would.
    """
    rng = np.random.default_rng(seed)
    perm = list(range(n))
    if n > 1:
        swaps = rng.integers(0, np.arange(n, 1, -1)).tolist()
        for i, j in zip(range(n - 1, 0, -1), swaps):
            perm[i], perm[j] = perm[j], perm[i]
    out = np.array(perm, dtype=np.int64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=8)
def _float_formula_table(n_inputs: int, ops_allowed: Tuple[int, ...]) -> np.ndarray:
    """Read-only float64 copy of :func:`all_formula_table`, shared by
    every :class:`FormulaSearch` of the same formula space.

    float64 keeps the error counts exact (counts are integers well below
    2**53), so argmin ties resolve identically to Algorithm 1.
    """
    table = all_formula_table(n_inputs, ops_allowed).astype(np.float64)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a formula search for one branch."""

    formula: Optional[FormulaTree]
    mispredictions: int
    bias: Optional[str] = None  # "taken" / "not-taken" when a constant wins
    explored: int = 0
    search_seconds: float = 0.0

    @property
    def is_bias(self) -> bool:
        return self.bias is not None

    def predict(self, hashed_history: int) -> bool:
        """Predict a direction from an 8-bit hashed history."""
        if self.bias is not None:
            return self.bias == "taken"
        if self.formula is None:
            raise ValueError("empty search result cannot predict")
        return bool(self.formula.evaluate(hashed_history))


def counts_to_arrays(
    taken: Dict[int, int], nottaken: Dict[int, int], n_inputs: int = 8
) -> Tuple[np.ndarray, np.ndarray]:
    """Convert T/NT hash tables into dense per-hashed-history count vectors."""
    size = 1 << n_inputs
    t = np.zeros(size, dtype=np.int64)
    nt = np.zeros(size, dtype=np.int64)
    for key, count in taken.items():
        t[key] += count
    for key, count in nottaken.items():
        nt[key] += count
    return t, nt


class FormulaSearch:
    """Randomized formula search shared across all branches of a binary.

    Parameters
    ----------
    n_inputs:
        Width of the hashed history the formulas consume (paper: 8).
    ops_allowed:
        Single-unit op set; Whisper uses all four, the ROMBF baseline two.
    with_invert:
        Whether the encoding carries the final inversion mux.
    fraction:
        Share of the full encoding space each branch tests (paper: 0.001).
    include_bias:
        Also consider the constant always/never-taken predictions, which
        the brhint carries in its dedicated Bias field.
    seed:
        Seed of the one-time Fisher-Yates permutation.
    """

    def __init__(
        self,
        n_inputs: int = 8,
        ops_allowed: Tuple[int, ...] = WHISPER_OPS,
        with_invert: bool = True,
        fraction: float = DEFAULT_EXPLORE_FRACTION,
        include_bias: bool = True,
        seed: int = 0x5A17,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.n_inputs = n_inputs
        self.ops_allowed = ops_allowed
        self.with_invert = with_invert
        self.fraction = fraction
        self.include_bias = include_bias
        self.space_size = formula_space_size(n_inputs, len(ops_allowed), with_invert)
        # Both are per-process constants: the candidates are a prefix view
        # of the memoized permutation, the table a shared read-only array.
        n_candidates = max(1, int(round(fraction * self.space_size)))
        self._candidates = fisher_yates_permutation(self.space_size, seed)[:n_candidates]
        self._table_f = _float_formula_table(n_inputs, ops_allowed)

    @property
    def candidates(self) -> np.ndarray:
        """Encoded candidate formulas, in permutation order."""
        return self._candidates

    def find_best_formula(
        self,
        taken: Dict[int, int] | np.ndarray,
        nottaken: Dict[int, int] | np.ndarray,
    ) -> SearchResult:
        """Vectorised Algorithm 1 over the randomized candidate subset."""
        start = time.perf_counter()
        if isinstance(taken, dict) or isinstance(nottaken, dict):
            t, nt = counts_to_arrays(dict(taken), dict(nottaken), self.n_inputs)
        else:
            t = np.asarray(taken, dtype=np.int64)
            nt = np.asarray(nottaken, dtype=np.int64)

        total_taken = int(t.sum())
        total_nottaken = int(nt.sum())
        diff = (nt - t).astype(np.float64)

        encodings = self._candidates
        if self.with_invert:
            op_indices = encodings >> 1
            inverts = (encodings & 1).astype(bool)
        else:
            op_indices = encodings
            inverts = np.zeros(len(encodings), dtype=bool)

        if len(op_indices) * 4 >= self._table_f.shape[0]:
            # Large subsets: one BLAS matmul over the whole table beats
            # materialising a fancy-indexed copy of (most of) it.
            dots = (self._table_f @ diff)[op_indices]
        else:
            dots = self._table_f[op_indices] @ diff
        errors = np.where(inverts, total_nottaken - dots, total_taken + dots)

        best_pos = int(np.argmin(errors))
        best_errors = int(round(errors[best_pos]))
        best_formula = formula_from_index(
            int(op_indices[best_pos]), bool(inverts[best_pos]), self.n_inputs, self.ops_allowed
        )
        bias: Optional[str] = None
        if self.include_bias:
            # A constant prediction mispredicts every sample of the other
            # direction; it wins only on a strict improvement, matching
            # Algorithm 1's strict "<" update rule applied after the scan.
            if total_nottaken < best_errors:
                bias, best_errors, best_formula = "taken", total_nottaken, None
            if total_taken < best_errors:
                bias, best_errors, best_formula = "not-taken", total_taken, None
        elapsed = time.perf_counter() - start
        obs.add("search.branches")
        obs.add("search.formulas_tested", len(encodings))
        if bias is not None:
            obs.add("search.bias_wins")
        return SearchResult(
            formula=best_formula,
            mispredictions=best_errors,
            bias=bias,
            explored=len(encodings),
            search_seconds=elapsed,
        )


def satisfy(hashed_history: int, formula: FormulaTree) -> int:
    """Paper's ``satisfy(k, f)``: 1 if the formula predicts taken for ``k``."""
    return formula.evaluate(hashed_history)


def find_best_formula_scalar(
    taken: Dict[int, int],
    nottaken: Dict[int, int],
    formulas: Iterable[FormulaTree],
) -> Tuple[Optional[FormulaTree], int]:
    """Direct transliteration of Algorithm 1 (reference implementation).

    Returns ``(f, m')``: the candidate with the minimum misprediction count
    over the profile samples, keeping the earliest candidate on ties.
    """
    best_mispredictions = float("inf")
    best_formula: Optional[FormulaTree] = None
    for candidate in formulas:
        total = 0
        for key, count in taken.items():
            if satisfy(key, candidate) != 1:
                total += count
        for key, count in nottaken.items():
            if satisfy(key, candidate) == 1:
                total += count
        if total < best_mispredictions:
            best_formula = candidate
            best_mispredictions = total
    if best_formula is None:
        return None, 0
    return best_formula, int(best_mispredictions)


def decode_candidates(
    encodings: Sequence[int],
    n_inputs: int = 8,
    ops_allowed: Tuple[int, ...] = WHISPER_OPS,
    with_invert: bool = True,
) -> List[FormulaTree]:
    """Materialise :class:`FormulaTree` objects for encoded candidates."""
    return [
        FormulaTree.decode(int(e), n_inputs, ops_allowed, with_invert) for e in encodings
    ]
