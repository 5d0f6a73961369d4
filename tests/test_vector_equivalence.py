"""Scalar <-> vector <-> native kernel equivalence.

The vectorised replay kernels (:mod:`repro.bpu.vector`), the
JIT-compiled native kernels (:mod:`repro.bpu.native`), the batched hint
pre-passes, the timing simulator and the trace generator all claim
*bit-identical* results against their scalar reference paths.  This
suite enforces that claim three ways across every registered predictor,
all three hint-runtime families (Whisper, ROMBF, BranchNet) and several
app profiles, plus unit-level checks of the folded-history columns.
When no native backend is available the native runs fall back to the
vector kernels (with a warning), so the assertions still hold.
"""

import warnings

import numpy as np
import pytest

from repro.bpu.base import FoldedHistory
from repro.bpu.perceptron import PerceptronPredictor
from repro.bpu.runner import (
    DEFAULT_KERNEL,
    VALID_KERNELS,
    resolve_kernel,
    simulate,
)
from repro.bpu.scaling import scaled_tage_sc_l
from repro.bpu.simple import (
    BimodalPredictor,
    GSharePredictor,
    IdealPredictor,
    StaticTakenPredictor,
)
from repro.bpu.tage import TagePredictor
from repro.bpu.tage_sc_l import TageScLPredictor
from repro.bpu.vector import ReplayBatch
from repro.branchnet.runtime import BranchNetRuntime
from repro.branchnet.trainer import BranchNetOptimizer
from repro.core.hashing import fold_bytes_matrix, fold_history
from repro.core.rombf import RombfOptimizer
from repro.core.whisper import WhisperOptimizer
from repro.profiling.profile import BranchProfile
from repro.sim import simulate_timing
from repro.sim.config import SimConfig
from repro.workloads.generator import generate_trace, get_program
from repro.workloads.registry import get_spec

N_EVENTS = 30_000
APPS = ("cassandra", "mysql", "drupal")

PREDICTORS = {
    "ideal": IdealPredictor,
    "static": StaticTakenPredictor,
    "bimodal": BimodalPredictor,
    "gshare": GSharePredictor,
    "perceptron": PerceptronPredictor,
    "tage": lambda: TagePredictor(16),
    "tage_sc_l": lambda: TageScLPredictor(16),
}


@pytest.fixture(scope="module", params=APPS)
def app_setup(request):
    app = request.param
    spec = get_spec(app)
    program = get_program(spec)
    trace = generate_trace(spec, 1, N_EVENTS)
    train = generate_trace(spec, 0, N_EVENTS)
    profile = BranchProfile.collect([train], lambda: scaled_tage_sc_l(64))
    return dict(app=app, spec=spec, program=program, trace=trace, profile=profile)


def _runtime_factories(setup):
    """One fresh runtime per family (hint state is mutable)."""

    def whisper():
        _, _, runtime = WhisperOptimizer().optimize(setup["profile"], setup["program"])
        return runtime

    def rombf():
        optimizer = RombfOptimizer(n_bits=8)
        return optimizer.build_runtime(optimizer.train(setup["profile"]))

    def branchnet():
        optimizer = BranchNetOptimizer(max_models=4)
        return BranchNetRuntime(optimizer.train(setup["profile"]).models)

    return {"whisper": whisper, "rombf": rombf, "branchnet": branchnet}


def _assert_identical(scalar, *others):
    for other in others:
        assert np.array_equal(scalar.correct, other.correct)
        assert np.array_equal(scalar.hinted, other.hinted)
        assert scalar.mpki == other.mpki


class TestPredictorEquivalence:
    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    def test_bit_identical_predictions(self, app_setup, name):
        factory = PREDICTORS[name]
        runs = [
            simulate(app_setup["trace"], factory(), kernel=kernel)
            for kernel in VALID_KERNELS
        ]
        _assert_identical(*runs)

    def test_predictor_state_converges(self, app_setup):
        """Post-replay predictor state must match, so a *second* replay
        (e.g. warmup continuation) also agrees."""
        trace = app_setup["trace"]
        results = {}
        for kernel in VALID_KERNELS:
            predictor = TagePredictor(16)
            simulate(trace, predictor, kernel=kernel)
            # Re-simulating resets the predictor; instead probe live state.
            results[kernel] = (
                predictor._use_alt_on_na,
                predictor._tick,
                predictor._rand,
                [fold.comp for fold in predictor._fold_idx],
                predictor._bimodal,
                predictor._ctrs,
                predictor._tags,
                predictor._us,
            )
        assert results["scalar"] == results["vector"]
        assert results["scalar"] == results["native"]


class TestHintRuntimeEquivalence:
    @pytest.mark.parametrize("family", ("whisper", "rombf", "branchnet"))
    def test_bit_identical_hinted_replay(self, app_setup, family):
        factory = _runtime_factories(app_setup)[family]
        trace = app_setup["trace"]
        scalar, *others = [
            simulate(trace, TageScLPredictor(16), runtime=factory(), kernel=kernel)
            for kernel in VALID_KERNELS
        ]
        _assert_identical(scalar, *others)
        # Hint coverage must be real on at least one family for the
        # equivalence to mean anything; whisper always places hints.
        if family == "whisper":
            assert scalar.hinted.any()

    def test_suppression_ablation_identical(self, app_setup):
        factory = _runtime_factories(app_setup)["whisper"]
        trace = app_setup["trace"]
        runs = [
            simulate(
                trace,
                TageScLPredictor(16),
                runtime=factory(),
                suppress_hint_allocation=False,
                kernel=kernel,
            )
            for kernel in VALID_KERNELS
        ]
        _assert_identical(*runs)


class TestTimingEquivalence:
    @pytest.mark.parametrize("fdip", (True, False))
    @pytest.mark.parametrize("perfect_icache", (True, False))
    def test_bit_identical_cycles(self, app_setup, fdip, perfect_icache):
        trace = app_setup["trace"]
        prediction = simulate(trace, TageScLPredictor(16))
        results = [
            simulate_timing(
                trace,
                prediction,
                config=SimConfig(),
                fdip=fdip,
                perfect_icache=perfect_icache,
                kernel=kernel,
            )
            for kernel in VALID_KERNELS
        ]
        scalar, *others = results
        for other in others:
            for field in (
                "cycles",
                "base_cycles",
                "squash_cycles",
                "icache_stall_cycles",
                "btb_stall_cycles",
                "icache_misses",
                "icache_misses_covered",
                "mispredictions",
                "instructions",
                "hint_instructions",
            ):
                assert getattr(scalar, field) == getattr(other, field), field


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("input_id", (0, 2))
    def test_bit_identical_traces(self, app_setup, input_id):
        spec = app_setup["spec"]
        scalar = generate_trace(spec, input_id, N_EVENTS, use_cache=False, kernel="scalar")
        for kernel in ("vector", "native"):
            other = generate_trace(spec, input_id, N_EVENTS, use_cache=False, kernel=kernel)
            assert np.array_equal(scalar.block_ids, other.block_ids)
            assert np.array_equal(scalar.taken, other.taken)


class TestFoldedColumns:
    @pytest.mark.parametrize("length,width", [(6, 10), (17, 9), (130, 11), (1351, 15)])
    def test_folded_column_matches_folded_history(self, length, width):
        rng = np.random.default_rng(7)
        trace = generate_trace(get_spec("cassandra"), 0, 4_000)
        batch = ReplayBatch(trace)
        col = batch._folded_column(length, width)

        fold = FoldedHistory(length, width)
        bits = []
        taken = batch.taken.tolist()
        for t in range(batch.n):
            assert col[t] == fold.comp, f"position {t}"
            old_bit = bits[-length] if len(bits) >= length else 0
            fold.update(int(taken[t]), old_bit)
            bits.append(int(taken[t]))
        assert col[batch.n] == fold.comp  # post-run register value

    @pytest.mark.parametrize("n_events", (1, 9, 4_000))
    def test_folded_column_short_traces(self, n_events):
        # Traces shorter than a fold width leave some stride classes
        # empty or one position long.
        batch = ReplayBatch(generate_trace(get_spec("mysql"), 0, n_events))
        for length, width in ((3, 2), (6, 10), (17, 9), (64, 13)):
            col = batch._folded_column(length, width)
            fold = FoldedHistory(length, width)
            bits = []
            for t, bit in enumerate(batch.taken.tolist()):
                assert col[t] == fold.comp, (length, width, t)
                fold.update(int(bit), bits[-length] if len(bits) >= length else 0)
                bits.append(int(bit))
            assert col[batch.n] == fold.comp

    def test_history_bytes_match_history_register(self):
        # Row t is the 1024-bit global history before branch t, bit 0 =
        # most recent outcome, little-endian bytes.
        batch = ReplayBatch(generate_trace(get_spec("cassandra"), 0, 3_000))
        rows = batch.history_bytes()
        assert rows.shape == (batch.n, 128) and rows.dtype == np.uint8
        history = 0
        for t, bit in enumerate(batch.taken.tolist()):
            assert int.from_bytes(rows[t].tobytes(), "little") == history, t
            history = ((history << 1) | int(bit)) & ((1 << 1024) - 1)

    @pytest.mark.parametrize("op", ("xor", "or", "and"))
    @pytest.mark.parametrize("length", (1, 7, 8, 9, 61, 200, 1024))
    def test_fold_bytes_matrix_matches_fold_history(self, op, length):
        rng = np.random.default_rng(13)
        histories = [
            int.from_bytes(rng.bytes(128), "little") for _ in range(64)
        ] + [0, 1, (1 << length) - 1]
        n_bytes = 128
        matrix = np.zeros((len(histories), n_bytes), dtype=np.uint8)
        for row, history in enumerate(histories):
            matrix[row] = np.frombuffer(
                (history & ((1 << 1024) - 1)).to_bytes(n_bytes, "little"), dtype=np.uint8
            )
        got = fold_bytes_matrix(matrix, length, op)
        want = [fold_history(history, length, op=op) for history in histories]
        assert got.tolist() == want


class TestKernelResolution:
    def test_default_is_native(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert DEFAULT_KERNEL == "native"
        assert resolve_kernel(None) == "native"

    def test_default_without_native_backend_runs_vector(self, monkeypatch, tmp_path):
        # A host with no C toolchain: the default still resolves and
        # runs, warns once, and predicts exactly as the vector tier.
        from repro.bpu import native

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        trace = generate_trace(get_spec("cassandra"), 1, 8_000)
        vector = simulate(trace, TagePredictor(16), kernel="vector")
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_load_failed", False)
        monkeypatch.setattr(native, "_warned_fallback", False)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        monkeypatch.setenv(native.CACHE_ENV_VAR, str(tmp_path / "empty-cache"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = simulate(trace, TagePredictor(16))
            second = simulate(trace, PerceptronPredictor())
        fallback_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallback_warnings) == 1
        assert "falling back to the vector tier" in str(fallback_warnings[0].message)
        assert first.correct.tobytes() == vector.correct.tobytes()
        assert second.correct.tobytes() == simulate(
            trace, PerceptronPredictor(), kernel="vector"
        ).correct.tobytes()

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert resolve_kernel(None) == "scalar"
        # An explicit argument still wins over the environment.
        assert resolve_kernel("vector") == "vector"

    def test_invalid_kernel_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_kernel("simd")
        monkeypatch.setenv("REPRO_KERNEL", "avx512")
        with pytest.raises(ValueError):
            resolve_kernel(None)


class TestTrainingCollection:
    """Batched Whisper substream extraction vs the per-event walk."""

    @pytest.mark.parametrize("hash_op", ["xor", "or", "and"])
    def test_collect_matches_scalar(self, app_setup, hash_op, monkeypatch):
        from repro.core.training import collect_training_data

        train = app_setup["profile"].traces[0]
        candidates = np.unique(train.pcs[train.is_conditional])[:32]
        monkeypatch.setenv("REPRO_KERNEL", "vector")
        vec = collect_training_data([train], candidates, hash_op=hash_op)
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        ref = collect_training_data([train], candidates, hash_op=hash_op)
        assert set(vec) == set(ref)
        for pc in vec:
            assert vec[pc].executions == ref[pc].executions
            assert vec[pc].taken_total == ref[pc].taken_total
            for length in vec[pc].lengths:
                assert vec[pc].taken[length] == ref[pc].taken[length]
                assert vec[pc].nottaken[length] == ref[pc].nottaken[length]

    def test_multi_trace_merge_matches_scalar(self, app_setup, monkeypatch):
        from repro.core.training import collect_training_data

        spec = app_setup["spec"]
        traces = [generate_trace(spec, 0, N_EVENTS), generate_trace(spec, 2, N_EVENTS)]
        candidates = np.unique(traces[0].pcs[traces[0].is_conditional])[:16]
        monkeypatch.setenv("REPRO_KERNEL", "vector")
        vec = collect_training_data(traces, candidates)
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        ref = collect_training_data(traces, candidates)
        for pc in ref:
            assert vec[pc].executions == ref[pc].executions
            for length in ref[pc].lengths:
                assert vec[pc].taken[length] == ref[pc].taken[length]
                assert vec[pc].nottaken[length] == ref[pc].nottaken[length]
