"""Formula search: Algorithm 1, randomized testing, Fisher-Yates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.formulas import ROMBF_OPS, WHISPER_OPS, FormulaTree
from repro.core.search import (
    FormulaSearch,
    SearchResult,
    counts_to_arrays,
    decode_candidates,
    find_best_formula_scalar,
    fisher_yates_permutation,
    satisfy,
)


def fisher_yates_loop(n, seed):
    """Test-only oracle: one generator draw per swap, slot by slot."""
    rng = np.random.default_rng(seed)
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


class TestFisherYates:
    # 128, 256, 16384 and 32768 are the four formula-space sizes
    # (ROMBF/Whisper ops, with/without the inversion mux).
    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, 7, 128, 256, 1000, 16384, 32768, 100000]
    )
    @pytest.mark.parametrize("seed", [0x5A17, 0, 1, 12345])
    def test_matches_per_step_loop(self, n, seed):
        perm = fisher_yates_permutation(n, seed)
        want = fisher_yates_loop(n, seed)
        assert perm.dtype == want.dtype
        assert np.array_equal(perm, want)

    def test_result_is_read_only(self):
        perm = fisher_yates_permutation(256, seed=3)
        assert not perm.flags.writeable
        with pytest.raises(ValueError):
            perm[0] = perm[1]

    def test_is_permutation(self):
        perm = fisher_yates_permutation(1000, seed=1)
        assert sorted(perm.tolist()) == list(range(1000))

    def test_deterministic_in_seed(self):
        assert np.array_equal(
            fisher_yates_permutation(512, seed=7), fisher_yates_permutation(512, seed=7)
        )

    def test_seed_changes_order(self):
        assert not np.array_equal(
            fisher_yates_permutation(512, seed=7), fisher_yates_permutation(512, seed=8)
        )

    def test_actually_shuffles(self):
        perm = fisher_yates_permutation(1 << 12, seed=3)
        assert not np.array_equal(perm, np.arange(1 << 12))


class TestCountsToArrays:
    def test_dense_conversion(self):
        t, nt = counts_to_arrays({3: 5, 250: 1}, {0: 2}, n_inputs=8)
        assert t[3] == 5 and t[250] == 1 and t.sum() == 6
        assert nt[0] == 2 and nt.sum() == 2

    def test_small_space(self):
        t, nt = counts_to_arrays({1: 1}, {}, n_inputs=4)
        assert len(t) == 16 and len(nt) == 16


class TestAlgorithmOne:
    """The scalar reference implements the paper's pseudocode exactly."""

    def test_satisfy_is_formula_evaluation(self):
        from repro.core.formulas import AND

        tree = FormulaTree(ops=(AND,) * 7, n_inputs=8)
        assert satisfy(0xFF, tree) == 1
        assert satisfy(0xFE, tree) == 0

    def test_picks_zero_error_formula_when_one_exists(self):
        # Outcomes follow an expressible formula's own truth table, so the
        # exhaustive search must find a zero-error candidate.
        rng = np.random.default_rng(2)
        from repro.core.formulas import random_formula

        target = random_formula(rng)
        table = target.truth_table()
        taken = {h: 1 for h in range(256) if table[h]}
        nottaken = {h: 1 for h in range(256) if not table[h]}
        search = FormulaSearch(fraction=1.0)
        result = search.find_best_formula(taken, nottaken)
        assert result.mispredictions == 0

    def test_counts_weighted_errors(self):
        # One heavy not-taken key must outweigh many light taken keys.
        taken = {0xFF: 1}
        nottaken = {0xFF: 100}
        search = FormulaSearch(fraction=1.0)
        result = search.find_best_formula(taken, nottaken)
        # The best anything can do on a contradictory key is the minority.
        assert result.mispredictions == 1

    def test_bias_wins_for_constant_branch(self):
        taken = {h: 3 for h in range(0, 256, 7)}
        nottaken = {}
        result = FormulaSearch(fraction=0.01).find_best_formula(taken, nottaken)
        # Either a tautology-equivalent formula or the bias; both perfect.
        assert result.mispredictions == 0
        if result.bias is not None:
            assert result.bias == "taken"

    def test_bias_not_taken(self):
        nottaken = {h: 3 for h in range(0, 256, 7)}
        result = FormulaSearch(fraction=0.01, seed=99).find_best_formula({}, nottaken)
        assert result.mispredictions == 0

    def test_result_predict_uses_formula(self):
        from repro.core.formulas import random_formula

        target = random_formula(np.random.default_rng(4))
        table = target.truth_table()
        taken = {h: 1 for h in range(256) if table[h]}
        nottaken = {h: 1 for h in range(256) if not table[h]}
        result = FormulaSearch(fraction=1.0).find_best_formula(taken, nottaken)
        for h in range(0, 256, 17):
            assert result.predict(h) == bool(table[h])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_vectorised_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        taken = {int(k): int(v) for k, v in zip(rng.integers(0, 256, 20), rng.integers(1, 30, 20))}
        nottaken = {int(k): int(v) for k, v in zip(rng.integers(0, 256, 20), rng.integers(1, 30, 20))}
        search = FormulaSearch(fraction=0.002, include_bias=False, seed=11)
        vec = search.find_best_formula(taken, nottaken)
        candidates = decode_candidates(search.candidates)
        ref_formula, ref_errors = find_best_formula_scalar(taken, nottaken, candidates)
        assert vec.mispredictions == ref_errors
        # Same candidate order => identical tie-breaking.
        assert vec.formula == ref_formula

    def test_scalar_reference_empty_candidates(self):
        formula, errors = find_best_formula_scalar({1: 1}, {}, [])
        assert formula is None and errors == 0


class TestRandomizedTesting:
    def test_fraction_bounds_candidates(self):
        search = FormulaSearch(fraction=0.001)
        assert len(search.candidates) == round(0.001 * (1 << 15))

    def test_full_fraction_covers_space(self):
        search = FormulaSearch(fraction=1.0)
        assert len(search.candidates) == 1 << 15

    def test_candidates_shared_prefix(self):
        # The same permutation is reused for every branch: a smaller
        # fraction is a prefix of a larger one (paper §III-B).
        small = FormulaSearch(fraction=0.001, seed=5)
        large = FormulaSearch(fraction=0.01, seed=5)
        assert np.array_equal(large.candidates[: len(small.candidates)], small.candidates)

    def test_more_exploration_never_hurts(self):
        rng = np.random.default_rng(0)
        taken = {int(k): 2 for k in rng.integers(0, 256, 25)}
        nottaken = {int(k): 2 for k in rng.integers(0, 256, 25)}
        errors = []
        for fraction in (0.001, 0.01, 0.1, 1.0):
            result = FormulaSearch(fraction=fraction, seed=5).find_best_formula(
                taken, nottaken
            )
            errors.append(result.mispredictions)
        assert errors == sorted(errors, reverse=True) or all(
            a >= b for a, b in zip(errors, errors[1:])
        )

    def test_instances_share_candidates_and_table(self):
        rng = np.random.default_rng(9)
        taken = {int(k): 3 for k in rng.integers(0, 256, 30)}
        nottaken = {int(k): 2 for k in rng.integers(0, 256, 30)}
        first = FormulaSearch(fraction=0.01, include_bias=False, seed=5)
        second = FormulaSearch(fraction=0.01, include_bias=False, seed=5)
        assert np.shares_memory(first.candidates, second.candidates)
        assert first._table_f is second._table_f
        assert not first.candidates.flags.writeable
        assert not first._table_f.flags.writeable
        a = first.find_best_formula(taken, nottaken)
        b = second.find_best_formula(taken, nottaken)
        assert (a.formula, a.mispredictions) == (b.formula, b.mispredictions)
        # The shared candidates are the per-step loop's prefix, and the
        # result is Algorithm 1's over them.
        fresh = fisher_yates_loop(1 << 15, 5)[: len(first.candidates)]
        assert np.array_equal(first.candidates, fresh)
        candidates = decode_candidates(fresh)
        assert find_best_formula_scalar(taken, nottaken, candidates) == (
            a.formula,
            a.mispredictions,
        )

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            FormulaSearch(fraction=0.0)
        with pytest.raises(ValueError):
            FormulaSearch(fraction=1.5)


class TestRombfSearchSpace:
    def test_rombf_search(self):
        # AND/OR-only, no invert: space is 2**(n-1).
        search = FormulaSearch(
            n_inputs=4, ops_allowed=ROMBF_OPS, with_invert=False, fraction=1.0
        )
        assert search.space_size == 8
        taken = {0b1111: 10}
        nottaken = {0b0000: 10, 0b0101: 3}
        result = search.find_best_formula(taken, nottaken)
        assert result.mispredictions == 0


class TestSearchResult:
    def test_bias_predict(self):
        result = SearchResult(formula=None, mispredictions=0, bias="taken")
        assert result.predict(0) is True
        result = SearchResult(formula=None, mispredictions=0, bias="not-taken")
        assert result.predict(255) is False

    def test_empty_result_cannot_predict(self):
        with pytest.raises(ValueError):
            SearchResult(formula=None, mispredictions=0).predict(0)
