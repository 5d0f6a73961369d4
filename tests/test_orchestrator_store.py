"""On-disk artifact store: round-trip persistence of every artifact kind.

A first ("producer") context builds each artifact against a temporary
store; a second context with a fresh store instance on the same
directory must reconstruct every artifact purely from disk, with results
indistinguishable from the originals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bpu import PredictionResult
from repro.branchnet import BUDGET_8KB
from repro.core.injection import HintPlacement
from repro.core.whisper import WhisperConfig
from repro.experiments.runner import ExperimentContext
from repro.orchestrator.store import ArtifactStore
from repro.workloads.registry import DATACENTER_APPS

EVENTS = 3_000
APP = "mysql"


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact-store")


@pytest.fixture(scope="module")
def producer(store_root):
    """Context that computes everything once and fills the store."""
    ctx = ExperimentContext(n_events=EVENTS, store=ArtifactStore(store_root))
    artifacts = {
        "trace": ctx.trace(APP, 0),
        "baseline": ctx.baseline(APP, 64, input_id=1),
        "profile": ctx.profile(APP),
        "whisper": ctx.whisper(APP),
        "whisper_run": ctx.whisper_run(APP),
        "rombf": ctx.rombf(APP, 4),
        "rombf_run": ctx.rombf_run(APP, 4),
        "branchnet_run": ctx.branchnet_run(APP, BUDGET_8KB),
        "mtage": ctx.mtage(APP, input_id=1),
    }
    artifacts["timing"] = ctx.timing(
        APP, artifacts["baseline"], input_id=1, name="tage64"
    )
    return ctx, artifacts


@pytest.fixture()
def consumer(store_root):
    """Fresh context + store instance: everything must come from disk."""
    return ExperimentContext(n_events=EVENTS, store=ArtifactStore(store_root))


class TestRoundtrip:
    def test_trace(self, producer, consumer):
        _, art = producer
        loaded = consumer.trace(APP, 0)
        assert np.array_equal(loaded.block_ids, art["trace"].block_ids)
        assert np.array_equal(loaded.taken, art["trace"].taken)
        assert loaded.app == APP and loaded.input_id == 0
        assert consumer.store.stats.kinds["trace"].hits == 1

    def test_prediction_relinks_trace(self, producer, consumer):
        _, art = producer
        loaded = consumer.baseline(APP, 64, input_id=1)
        original = art["baseline"]
        assert loaded.mispredictions == original.mispredictions
        assert loaded.predictor_name == original.predictor_name
        # Trace linkage survives: warm-up re-slicing still works.
        resliced = loaded.with_warmup(0.5)
        assert resliced.n_conditional < loaded.n_conditional

    def test_profile_needs_and_uses_trace_provider(self, producer, consumer):
        _, art = producer
        loaded = consumer.profile(APP)
        assert loaded.per_pc == art["profile"].per_pc
        assert loaded.predictor_name == art["profile"].predictor_name
        assert [t.input_id for t in loaded.traces] == [
            t.input_id for t in art["profile"].traces
        ]

    def test_whisper_trained_and_placement(self, producer, consumer):
        _, art = producer
        trained, placement = consumer.whisper(APP)
        orig_trained, orig_placement = art["whisper"]
        assert trained.n_hints == orig_trained.n_hints
        assert trained.work_units == orig_trained.work_units
        assert placement.placements == orig_placement.placements
        assert placement.host_of_branch == orig_placement.host_of_branch

    def test_optimized_runs(self, producer, consumer):
        _, art = producer
        for name, fetch in (
            ("whisper_run", lambda c: c.whisper_run(APP)),
            ("rombf_run", lambda c: c.rombf_run(APP, 4)),
            ("branchnet_run", lambda c: c.branchnet_run(APP, BUDGET_8KB)),
            ("mtage", lambda c: c.mtage(APP, input_id=1)),
        ):
            loaded = fetch(consumer)
            assert loaded.mispredictions == art[name].mispredictions, name
            assert loaded.n_conditional == art[name].n_conditional, name

    def test_rombf_annotations(self, producer, consumer):
        _, art = producer
        loaded = consumer.rombf(APP, 4)
        original = art["rombf"]
        assert loaded.n_bits == original.n_bits
        assert set(loaded.annotations) == set(original.annotations)
        for pc, annotation in original.annotations.items():
            assert loaded.annotations[pc].mispredictions == annotation.mispredictions
            assert loaded.annotations[pc].bias == annotation.bias

    def test_timing(self, producer, consumer):
        _, art = producer
        prediction = consumer.baseline(APP, 64, input_id=1)
        loaded = consumer.timing(APP, prediction, input_id=1, name="tage64")
        assert loaded == art["timing"]

    def test_consumer_never_recomputes(self, producer, consumer):
        consumer.trace(APP, 0)
        consumer.baseline(APP, 64, input_id=1)
        consumer.profile(APP)
        stats = consumer.store.stats
        assert stats.hits > 0
        assert stats.misses == 0
        assert stats.puts == 0


class TestStoreMechanics:
    def test_unknown_kind_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(KeyError):
            store.get("nonsense", "abc")
        with pytest.raises(KeyError):
            store.clear(kind="nonsense")

    def test_missing_key_is_recorded_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("timing", "0" * 32) is None
        assert store.stats.misses == 1

    def test_corrupt_file_treated_as_miss_and_removed(self, producer, store_root):
        store = ArtifactStore(store_root)
        victim = next((store_root / "timing").glob("*.npz"))
        victim.write_bytes(b"not an npz archive")
        key = victim.stem
        assert store.get("timing", key) is None
        assert not victim.exists()
        # Producer context can rebuild it transparently.
        ctx, art = producer
        rebuilt = ExperimentContext(
            n_events=EVENTS, store=ArtifactStore(store_root)
        )
        prediction = rebuilt.baseline(APP, 64, input_id=1)
        assert rebuilt.timing(APP, prediction, input_id=1, name="tage64") == art["timing"]

    def test_disk_usage_clear_and_stats(self, tmp_path, producer):
        src_ctx, art = producer
        store = ArtifactStore(tmp_path)
        key = "f" * 32
        store.put("timing", key, art["timing"])
        assert store.has("timing", key)
        usage = store.disk_usage()
        assert usage["timing"][0] == 1 and usage["timing"][1] > 0
        assert store.clear(kind="timing") == 1
        assert not store.has("timing", key)

    def test_persist_stats_accumulates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.get("timing", "0" * 32)  # one miss
        first = store.persist_stats()
        assert first["misses"] == 1
        second = ArtifactStore(tmp_path)
        second.get("timing", "0" * 32)
        merged = second.persist_stats(
            extra={"kinds": {"trace": {"hits": 5, "misses": 0, "puts": 0}}}
        )
        assert merged["misses"] == 2
        assert merged["kinds"]["trace"]["hits"] == 5
        assert ArtifactStore(tmp_path).read_persistent_stats()["misses"] == 2


class TestContextCacheKeys:
    """Satellite regressions: the in-process (L1) key schemes."""

    def test_timing_distinguishes_predictions_under_same_name(self, producer):
        """Two timing runs sharing a ``name`` but fed different
        predictions must not collide in the cache."""
        ctx, art = producer
        with_pred = ctx.timing(APP, art["baseline"], input_id=1, name="shared")
        ideal = ctx.timing(APP, None, input_id=1, name="shared")
        assert with_pred.mispredictions > 0
        assert ideal.mispredictions == 0
        assert with_pred.cycles != ideal.cycles

    def test_timing_distinguishes_placements(self, producer):
        ctx, art = producer
        _, placement = art["whisper"]
        bare = ctx.timing(APP, art["whisper_run"], input_id=1, name="w")
        hinted = ctx.timing(
            APP, art["whisper_run"], placement=placement, input_id=1, name="w"
        )
        assert hinted.hint_instructions > 0
        assert bare.hint_instructions == 0

    def test_run_families_get_distinct_keys(self, lookup_key):
        """Whisper, ROMBF and BranchNet runs share the ``prediction``
        kind and their other arguments, so only the key's ``variant``
        keeps them apart."""
        keys = {
            lookup_key("whisper_run", APP),
            lookup_key("rombf_run", APP, 8),
            lookup_key("branchnet_run", APP, None),
        }
        assert len(keys) == 3

    def test_whisper_run_config_change_on_one_context(self):
        """Asking one context for two configs must not return the first
        config's run for the second (the key holds the config)."""
        config_a = WhisperConfig()
        config_b = WhisperConfig(max_candidates=1)
        fresh_a = ExperimentContext(n_events=EVENTS, store=None).whisper_run(
            APP, config=config_a
        )
        fresh_b = ExperimentContext(n_events=EVENTS, store=None).whisper_run(
            APP, config=config_b
        )
        assert int(fresh_a.hinted.sum()) != int(fresh_b.hinted.sum())

        ctx = ExperimentContext(n_events=EVENTS, store=None)
        for config, fresh in ((config_a, fresh_a), (config_b, fresh_b)):
            run = ctx.whisper_run(APP, config=config)
            assert np.array_equal(run.correct, fresh.correct)
            assert np.array_equal(run.hinted, fresh.hinted)


def _other(strategy, base):
    return strategy.filter(lambda value: value != base)


_INPUTS = st.lists(st.integers(0, 9), min_size=1, max_size=4).map(tuple)
_CONFIGS = st.one_of(
    st.builds(WhisperConfig, explore_fraction=st.floats(0.001, 1.0)),
    st.builds(WhisperConfig, max_candidates=st.integers(1, 500)),
    st.builds(WhisperConfig, hash_op=st.sampled_from(["and", "or"])),
    st.builds(WhisperConfig, hint_buffer_entries=st.none() | st.integers(1, 64)),
).filter(lambda config: config != WhisperConfig())


def _prediction(**changes) -> PredictionResult:
    fields = dict(
        app=APP,
        predictor_name="tage-sc-l-64KB",
        correct=np.array([True, False, True, True, False, True]),
        cond_event_indices=np.arange(6),
        hinted=np.array([False, True, False, False, False, True]),
    )
    fields.update(changes)
    return PredictionResult(**fields)


def _flip(name):
    def flip(index):
        array = getattr(_prediction(), name).copy()
        array[index] = not array[index]
        return _prediction(**{name: array})
    return st.integers(0, 5).map(flip)


#: A prediction differing from ``_prediction()`` in one thing the timing
#: key claims to pin: identity, warm-up, mispredictions, hint count.
_PREDICTIONS = st.one_of(
    st.none(),
    st.just(_prediction(predictor_name="mtage-sc")),
    st.floats(0.2, 0.9).map(lambda f: _prediction(warmup_fraction=f)),
    _flip("correct"),
    _flip("hinted"),
)
_PLACEMENTS = st.integers(1, 20).map(
    lambda n: HintPlacement(host_of_branch={pc: 0 for pc in range(n)})
)

#: provider -> {argument: (base value, strategy for a different value)}.
#: An ``n_events`` of None means the context's own event count.
_PROVIDER_ARGS = {
    "trace": {
        "input_id": (0, _other(st.integers(0, 9), 0)),
        "n_events": (None, _other(st.integers(1, 10**6), EVENTS)),
    },
    "baseline": {
        "label_kb": (64, _other(st.integers(8, 1024), 64)),
        "input_id": (0, _other(st.integers(0, 9), 0)),
        "n_events": (None, _other(st.integers(1, 10**6), EVENTS)),
    },
    "mtage": {"input_id": (0, _other(st.integers(0, 9), 0))},
    "profile": {
        "input_ids": ((0,), _other(_INPUTS, (0,))),
        "label_kb": (64, _other(st.integers(8, 1024), 64)),
    },
    "whisper": {
        "input_ids": ((0,), _other(_INPUTS, (0,))),
        "label_kb": (64, _other(st.integers(8, 1024), 64)),
        "config": (None, _CONFIGS),
    },
    "whisper_run": {
        "test_input": (1, _other(st.integers(0, 9), 1)),
        "train_inputs": ((0,), _other(_INPUTS, (0,))),
        "label_kb": (64, _other(st.integers(8, 1024), 64)),
        "config": (None, _CONFIGS),
    },
    "rombf": {
        "n_bits": (8, st.just(4)),
        "input_ids": ((0,), _other(_INPUTS, (0,))),
    },
    "rombf_run": {
        "n_bits": (8, st.just(4)),
        "test_input": (1, _other(st.integers(0, 9), 1)),
        "train_inputs": ((0,), _other(_INPUTS, (0,))),
    },
    "branchnet": {"input_ids": ((0,), _other(_INPUTS, (0,)))},
    "branchnet_run": {
        "budget_bytes": (8192, _other(st.none() | st.integers(1, 10**6), 8192)),
        "test_input": (1, _other(st.integers(0, 9), 1)),
        "train_inputs": ((0,), _other(_INPUTS, (0,))),
    },
    "timing": {
        "prediction": (_prediction(), _PREDICTIONS),
        "placement": (None, _PLACEMENTS),
        "input_id": (1, _other(st.integers(0, 9), 1)),
        "name": ("tage64", _other(st.text(max_size=8), "tage64")),
    },
}


#: Pseudo-argument: the event count of the context a provider runs on.
CONTEXT_EVENTS = "context n_events"


class TestProviderKeysComplete:
    """Every provider argument is part of the key it looks up, so no
    two distinct requests can share an in-process or stored artifact."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_changing_any_argument_changes_the_key(self, lookup_key, data):
        provider = data.draw(st.sampled_from(sorted(_PROVIDER_ARGS)), label="provider")
        args = _PROVIDER_ARGS[provider]
        base = {name: value for name, (value, _) in args.items()}
        changed = data.draw(
            st.sampled_from(sorted(args) + ["app", CONTEXT_EVENTS]), label="argument"
        )
        base_key = lookup_key(provider, APP, ctx_events=EVENTS, **base)
        if changed == "app":
            app = data.draw(_other(st.sampled_from(DATACENTER_APPS), APP))
            other_key = lookup_key(provider, app, ctx_events=EVENTS, **base)
        elif changed == CONTEXT_EVENTS:
            events = data.draw(_other(st.integers(1, 10**6), EVENTS))
            other_key = lookup_key(provider, APP, ctx_events=events, **base)
        else:
            value = data.draw(args[changed][1], label=changed)
            other = dict(base, **{changed: value})
            other_key = lookup_key(provider, APP, ctx_events=EVENTS, **other)
        assert other_key != base_key
