"""Native kernel tier: JIT backend, graceful fallback, provenance.

The three-way bit-identity of the native kernels is enforced by
tests/test_vector_equivalence.py; this suite covers the machinery
around them — compile/cache/load, the degrade-to-vector path when no C
toolchain exists (single warning, byte-identical output), kernel-name
single-sourcing in the CLI and ``REPRO_KERNEL`` error, the benchmark
row's environment provenance, and the absolute events/s ratchets.
"""

import warnings

import numpy as np
import pytest

from repro.analysis import kernel_bench
from repro.bpu import native
from repro.bpu.mtage import MTageScPredictor
from repro.bpu.perceptron import PerceptronPredictor
from repro.bpu.runner import VALID_KERNELS, resolve_kernel, simulate
from repro.bpu.scaling import scaled_tage_sc_l
from repro.bpu.simple import GSharePredictor
from repro.bpu.tage import TagePredictor
from repro.bpu.tage_sc_l import TageScLPredictor
from repro.bpu.vector import ReplayBatch, tage_column_arrays
from repro.workloads.generator import generate_trace
from repro.workloads.registry import get_spec

N_EVENTS = 8_000


@pytest.fixture(scope="module")
def trace():
    return generate_trace(get_spec("cassandra"), 1, N_EVENTS)


def _simulate_absence(monkeypatch, tmp_path):
    """Make the native backend unavailable, as on a host with no cc."""
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_load_failed", False)
    monkeypatch.setattr(native, "_warned_fallback", False)
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    # An already-compiled library in the shared cache would still load,
    # so the probe must also look at an empty cache directory.
    monkeypatch.setenv(native.CACHE_ENV_VAR, str(tmp_path / "empty-cache"))


class TestBackend:
    def test_backend_compiles_and_loads(self):
        assert native.native_available()
        assert native.load() is not None
        assert native.backend_name() == "cc"

    def test_numba_version_is_absent_string_or_version(self):
        version = native.numba_version()
        assert isinstance(version, str) and version

    def test_kernel_registry_walks_mro(self):
        # MTageScPredictor subclasses TageScLPredictor: same kernel.
        assert native.native_kernel_for(MTageScPredictor()) is native.native_kernel_for(
            TageScLPredictor(10)
        )
        assert native.native_kernel_for(TagePredictor(10)) is not None
        assert native.native_kernel_for(PerceptronPredictor()) is not None

    def test_unregistered_predictor_has_no_native_kernel(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.native_kernel_for(GSharePredictor()) is None


class TestFallback:
    def test_absent_backend_falls_back_to_vector_byte_identical(
        self, trace, monkeypatch, tmp_path
    ):
        vector = simulate(trace, TageScLPredictor(16), kernel="vector")
        _simulate_absence(monkeypatch, tmp_path)
        assert not native.native_available()
        assert native.backend_name() is None
        with pytest.warns(RuntimeWarning, match="falling back to the vector tier"):
            fallback = simulate(trace, TageScLPredictor(16), kernel="native")
        assert np.array_equal(vector.correct, fallback.correct)
        assert vector.correct.tobytes() == fallback.correct.tobytes()
        assert vector.mpki == fallback.mpki

    def test_fallback_warns_exactly_once_per_process(
        self, trace, monkeypatch, tmp_path
    ):
        _simulate_absence(monkeypatch, tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            simulate(trace, TagePredictor(16), kernel="native")
            simulate(trace, TagePredictor(16), kernel="native")
            simulate(trace, PerceptronPredictor(), kernel="native")
        ours = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(ours) == 1

    def test_env_var_selects_native_with_fallback(
        self, trace, monkeypatch, tmp_path
    ):
        _simulate_absence(monkeypatch, tmp_path)
        monkeypatch.setenv("REPRO_KERNEL", "native")
        assert resolve_kernel(None) == "native"
        vector = simulate(trace, TagePredictor(16), kernel="vector")
        with pytest.warns(RuntimeWarning):
            run = simulate(trace, TagePredictor(16))
        assert np.array_equal(vector.correct, run.correct)


class TestKernelNameSingleSource:
    def test_cli_kernel_choices_match_valid_kernels(self):
        from repro.cli import build_parser

        parser = build_parser()
        action = next(a for a in parser._actions if a.dest == "kernel")
        assert tuple(action.choices) == VALID_KERNELS

    def test_env_error_names_all_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ValueError) as err:
            resolve_kernel(None)
        for name in VALID_KERNELS:
            assert name in str(err.value)

    def test_native_is_a_valid_kernel(self):
        assert "native" in VALID_KERNELS
        assert resolve_kernel("native") == "native"


class TestTageColumns:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: TagePredictor(10),
            lambda: TageScLPredictor(16),
            lambda: scaled_tage_sc_l(64),
        ],
        ids=["tage10", "tage_sc_l16", "scaled64"],
    )
    def test_compiled_columns_match_vector_columns(self, trace, factory):
        predictor = factory()
        tage = getattr(predictor, "tage", predictor)
        idx_cols, tag_cols, bim_col, finals = tage_column_arrays(tage, ReplayBatch(trace))
        idx_mat, tag_mat, bim_arr, native_finals = native.native_tage_columns(
            tage, ReplayBatch(trace)
        )
        assert np.array_equal(idx_mat, np.stack(idx_cols))
        assert np.array_equal(tag_mat, np.stack(tag_cols))
        assert np.array_equal(bim_arr, bim_col)
        assert native_finals == [list(f) for f in finals]


class TestBenchProvenance:
    def test_row_records_environment(self):
        row = kernel_bench.run_bench(
            app="cassandra",
            n_events=2_000,
            predictors=["tage"],
            log=lambda line: None,
        )
        assert row["numba"]  # version string or "absent"
        assert row["cpu_count"] >= 1
        assert row["native_backend"] in ("cc", "absent")
        entry = row["results"]["replay_tage"]
        if row["native_backend"] == "cc":
            assert entry["native_s"] > 0
            assert entry["events_per_s_native"] > 0
            assert entry["speedup_native_vs_vector"] > 0


class TestRatchets:
    def _row(self, **overrides):
        entry = {
            "speedup": 10.0,
            "events_per_s_vector": 1_000_000,
            "speedup_native_vs_vector": 20.0,
            "events_per_s_native": 20_000_000,
        }
        entry.update(overrides)
        return {"results": {name: dict(entry) for name in ("replay_tage",)}}

    def test_healthy_when_equal(self):
        row = self._row()
        assert kernel_bench.check_regression(row, row, log=lambda line: None)

    def test_absolute_events_per_s_regression_fails(self):
        base = self._row()
        row = self._row(events_per_s_native=1_000_000)  # 20x collapse
        assert not kernel_bench.check_regression(row, base, log=lambda line: None)

    def test_vector_absolute_regression_fails(self):
        base = self._row()
        row = self._row(events_per_s_vector=100_000)
        assert not kernel_bench.check_regression(row, base, log=lambda line: None)

    def test_native_ratio_regression_fails(self):
        base = self._row()
        row = self._row(speedup_native_vs_vector=5.0)
        assert not kernel_bench.check_regression(row, base, log=lambda line: None)

    def test_missing_native_numbers_skip_not_fail(self):
        base = self._row()
        row = self._row()
        for name in ("speedup_native_vs_vector", "events_per_s_native"):
            del row["results"]["replay_tage"][name]
        lines = []
        assert kernel_bench.check_regression(row, base, log=lines.append)
        assert any("skipped" in line for line in lines)
