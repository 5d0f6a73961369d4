"""Content-addressed cache keys: stability and invalidation."""

import subprocess
import sys

import numpy as np
import pytest

from repro.bpu.runner import VALID_KERNELS
from repro.orchestrator import keys
from repro.orchestrator.keys import (
    artifact_key,
    canonical,
    canonical_json,
    config_fingerprint,
    fingerprint,
    spec_fingerprint,
)
from repro.workloads.registry import get_spec


class TestCanonical:
    def test_mapping_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_tuple_and_list_agree(self):
        assert canonical_json((1, 2, 3)) == canonical_json([1, 2, 3])

    def test_sets_are_sorted(self):
        assert canonical({3, 1, 2}) == [1, 2, 3]

    def test_numpy_scalars_match_python(self):
        assert canonical_json(np.int64(7)) == canonical_json(7)
        assert canonical_json({"x": np.float64(0.5)}) == canonical_json({"x": 0.5})

    def test_dataclass_uses_full_field_dump(self):
        spec = get_spec("mysql")
        rendered = canonical(spec)
        assert rendered["__dataclass__"] == type(spec).__name__
        assert rendered["name"] == "mysql"
        assert rendered["seed"] == spec.seed

    def test_unrenderable_type_is_rejected(self):
        with pytest.raises(TypeError):
            canonical(object())


class TestArtifactKey:
    def test_same_request_same_key(self):
        spec = get_spec("mysql")
        a = artifact_key("trace", spec=spec, input_id=0, n_events=1000)
        b = artifact_key("trace", spec=spec, input_id=0, n_events=1000)
        assert a == b

    def test_any_field_change_changes_key(self):
        spec = get_spec("mysql")
        base = artifact_key("trace", spec=spec, input_id=0, n_events=1000)
        assert artifact_key("trace", spec=spec, input_id=1, n_events=1000) != base
        assert artifact_key("trace", spec=spec, input_id=0, n_events=2000) != base
        assert artifact_key("prediction", spec=spec, input_id=0, n_events=1000) != base

    def test_spec_change_invalidates(self):
        assert spec_fingerprint(get_spec("mysql")) != spec_fingerprint(get_spec("kafka"))

    def test_schema_version_bump_invalidates_everything(self, monkeypatch):
        spec = get_spec("mysql")
        before = artifact_key("trace", spec=spec, input_id=0, n_events=1000)
        monkeypatch.setattr(keys, "CODE_SCHEMA_VERSION", keys.CODE_SCHEMA_VERSION + 1)
        after = artifact_key("trace", spec=spec, input_id=0, n_events=1000)
        assert before != after

    def test_config_fingerprint_distinguishes_configs(self):
        from repro.core.whisper import WhisperConfig

        assert config_fingerprint(None) == "default"
        default = config_fingerprint(WhisperConfig())
        changed = config_fingerprint(WhisperConfig(hash_bits=12))
        assert default != changed

    def test_key_is_stable_across_processes(self):
        """No dependence on Python's salted hash(): a fresh interpreter
        (different PYTHONHASHSEED) must derive the identical key."""
        program = (
            "from repro.orchestrator.keys import artifact_key\n"
            "from repro.workloads.registry import get_spec\n"
            "print(artifact_key('trace', spec=get_spec('mysql'),"
            " input_id=0, n_events=1000))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
        )
        local = artifact_key(
            "trace", spec=get_spec("mysql"), input_id=0, n_events=1000
        )
        assert out.stdout.strip() == local

    def test_fingerprint_length(self):
        assert len(fingerprint({"a": 1})) == keys.DIGEST_CHARS


class TestKernelFields:
    """The replay-kernel choice stays out of store keys."""

    def test_kernels_share_the_cache_by_default(self, monkeypatch, lookup_key):
        """Bit-identical kernels must map to the same artifact keys, so
        a cache warmed under one REPRO_KERNEL serves the others."""
        per_kernel = {}
        for kernel in VALID_KERNELS:
            monkeypatch.setenv("REPRO_KERNEL", kernel)
            per_kernel[kernel] = (
                lookup_key("trace", "mysql"),
                lookup_key("baseline", "mysql", 64, input_id=1),
                lookup_key("whisper_run", "mysql"),
            )
        assert len(set(per_kernel.values())) == 1

    def test_schema_is_v2_for_vector_kernel_timing(self):
        """The timing recomposition changed cycle float association; v1
        timing artifacts must be unreachable."""
        assert keys.CODE_SCHEMA_VERSION >= 2
