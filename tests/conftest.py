"""Shared fixtures: a tiny but fully-featured synthetic application.

Session-scoped so the expensive artifacts (program, traces, baseline
profile, trained Whisper) are built once for the whole suite.
"""

from __future__ import annotations

import pytest

from repro.bpu.scaling import scaled_tage_sc_l
from repro.core.whisper import WhisperOptimizer
from repro.profiling.profile import BranchProfile
from repro.workloads.generator import generate_trace, get_program
from repro.workloads.spec import AppSpec

TINY_EVENTS = 14_000


@pytest.fixture(scope="session")
def tiny_spec() -> AppSpec:
    return AppSpec(
        name="tinyapp",
        category="datacenter",
        seed=4242,
        n_functions=140,
        n_requests=20,
        footprint_kb=256,
        zipf_exponent=1.1,
        phase_events=5000,
    )


@pytest.fixture(scope="session")
def tiny_program(tiny_spec):
    return get_program(tiny_spec)


@pytest.fixture(scope="session")
def tiny_trace(tiny_spec):
    return generate_trace(tiny_spec, input_id=0, n_events=TINY_EVENTS)


@pytest.fixture(scope="session")
def tiny_trace_alt(tiny_spec):
    return generate_trace(tiny_spec, input_id=1, n_events=TINY_EVENTS)


@pytest.fixture(scope="session")
def tiny_baseline(tiny_trace):
    from repro.bpu.runner import simulate

    return simulate(tiny_trace, scaled_tage_sc_l(64))


@pytest.fixture(scope="session")
def tiny_profile(tiny_trace) -> BranchProfile:
    return BranchProfile.collect([tiny_trace], lambda: scaled_tage_sc_l(64))


@pytest.fixture(scope="session")
def tiny_whisper(tiny_profile, tiny_program):
    optimizer = WhisperOptimizer()
    trained = optimizer.train(tiny_profile)
    placement = optimizer.inject(
        tiny_program, trained, trace=tiny_profile.traces[0]
    )
    runtime = optimizer.build_runtime(placement)
    return optimizer, trained, placement, runtime


class _KeyRecorder:
    """Stand-in artifact store: records every lookup and answers it with
    a hit, so a provider call derives its key but never computes."""

    def __init__(self) -> None:
        self.keys = []

    def get(self, kind, key, **_decode_ctx):
        self.keys.append((kind, key))
        return self

    def put(self, kind, key, obj):
        raise AssertionError("a recorded lookup never computes")

    def with_warmup(self, fraction):
        return self


@pytest.fixture(scope="session")
def lookup_key():
    """``lookup_key(provider, *args, ctx_events=N, **kwargs)`` returns the
    ``(kind, key)`` one :class:`ExperimentContext` provider call looks up
    on a fresh ``N``-event context."""
    from repro.experiments.runner import ExperimentContext

    def lookup(provider, *args, ctx_events=3_000, **kwargs):
        recorder = _KeyRecorder()
        ctx = ExperimentContext(n_events=ctx_events, store=recorder)
        getattr(ctx, provider)(*args, **kwargs)
        assert len(recorder.keys) == 1
        return recorder.keys[0]

    return lookup
