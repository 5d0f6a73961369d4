"""Tests for the benchmark's own logic (no program run needed).

    python3 -m pytest perfbench/tests -q
"""

import json
import time

import pytest

import layers
import results
import run
from iteration import SERVE, SERVE_PHASE_EVENTS, WORKLOADS, serve_operations, serve_plan, table_cell
from spans import Recorder, Span, layer_totals, self_times, unattributed_seconds


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert results.tail_percentile(n) == expected


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, None, "outer", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),  # overlaps a: children cover [1, 6]
        Span(3, 1, "c", 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(5.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    totals = layer_totals(spans)
    assert totals["a"] == {"calls": 1, "s": pytest.approx(2.0)}
    assert unattributed_seconds(spans, -1.0, 12.0) == pytest.approx(3.0)


def test_recorder_nests_wrapped_calls():
    recorder = Recorder()

    def inner():
        time.sleep(0.02)

    wrapped_inner = recorder.wrap("inner", inner)

    def outer():
        wrapped_inner()
        wrapped_inner()
        time.sleep(0.02)

    recorder.wrap("outer", outer, lambda args, kwargs, result: {"n": 1})()
    totals = layer_totals(recorder.spans)
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["n"] == 1
    assert [s.parent for s in recorder.spans] == [None, 0, 0]
    outer_span = recorder.spans[0]
    assert totals["outer"]["s"] + totals["inner"]["s"] == pytest.approx(
        outer_span.end - outer_span.start
    )
    assert 0.015 < totals["outer"]["s"] < totals["inner"]["s"]


def test_patch_function_replaces_imported_names_and_restores():
    import results as module

    original = module.tail_percentile
    recorder = Recorder()
    recorder.patch_function(module, "tail_percentile", "tail")
    assert module.tail_percentile(100) == 90.0
    assert [s.name for s in recorder.spans] == ["tail"]
    recorder.restore()
    assert module.tail_percentile is original


# ----------------------------------------------------------------------
# Output checks and failure accounting
# ----------------------------------------------------------------------
def _fake_iteration(problems):
    return {
        "attempted": 110, "failed": 0, "problems": problems, "traced": False,
        "jobs": 1, "wall_s": 1.0, "op_ms": [1.0] * 20, "peak_rss_mb": 100.0, "modelled": {},
    }


def test_reference_digest_match_and_tamper():
    reference = results.load_reference()
    spec = WORKLOADS["headline-cold"]
    digests = {name: reference[f"{name}@{spec.n_events}"] for name in spec.figures}
    setup = {"provenance": {}}
    good = run._check("headline-cold", {"digests": digests}, setup, reference)
    assert good == []

    tampered = dict(reference)
    key = f"fig12@{spec.n_events}"
    tampered[key] = "0" * 64
    bad = run._check("headline-cold", {"digests": digests}, setup, tampered)
    assert len(bad) == 1 and "fig12" in bad[0]

    report = run._report("headline-cold", 1, [(dict(setup, compile_s=0.1), 0.5)],
                         [_fake_iteration(bad)], trace=False)
    assert report["correct"] is False
    assert report["failed"] == report["attempted"] == 110
    assert report["metrics"]["ok_ratio"]["value"] == 0.0


def test_warm_texts_must_equal_cold_texts():
    reference = results.load_reference()
    spec = WORKLOADS["headline-warm"]
    digests = {name: reference[f"{name}@{spec.n_events}"] for name in spec.figures}
    cold = dict(digests, fig13="f" * 64)
    problems = results.check_run_all(digests, spec.n_events, spec.figures, reference, cold)
    assert problems == ["fig13: warm text differs from the cold text"]


def test_failed_run_counts_every_operation_failed():
    iterations = [
        {"attempted": 10, "failed": 1, "problems": []},
        {"attempted": 10, "failed": 0, "problems": ["digest mismatch"]},
    ]
    assert results.tally(iterations) == {"attempted": 20, "failed": 11}


def test_a_crashed_iteration_fails_every_planned_operation():
    planned = serve_operations(serve_plan(1))
    good = [dict(_fake_iteration([]), attempted=planned) for _ in range(3)]
    crash = run.crashed({"operations": planned}, RuntimeError("killed at the deadline"))
    crash.update(traced=False, jobs=1, peak_rss_mb=0.0)
    crash["problems"] = run._check(SERVE, crash, {}, {})
    report = run._report(SERVE, 1, [({"provenance": {}}, 0.5)], good + [crash], trace=False)
    assert report["correct"] is False
    assert report["failed"] == planned
    ok_ratio = report["metrics"]["ok_ratio"]["value"]
    bound = next(m["bound"] for m in results.load_benchmark()["end_to_end"] if m["name"] == "ok_ratio")
    assert ok_ratio == pytest.approx(0.75)
    assert ok_ratio < 1.0 - bound


def _serve_fields():
    return {"clang": {"versions": ["a", "b"], "served": ["a", "b"], "hints": [3, 2],
                      "drifted": [[], [1]], "searched": [[1, 2], [1]]}}


def test_serve_digest_match_and_tamper():
    fields = _serve_fields()
    want = results.serve_digest(fields)
    assert results.check_serve(fields, want, []) == []
    tampered = json.loads(json.dumps(fields))
    tampered["clang"]["hints"] = [3, 3]
    assert any("digest" in p for p in results.check_serve(tampered, want, []))
    # The committed digest is what a timed run compares against.
    reference = results.load_reference()
    problems = run._check(SERVE, {"fields": fields, "errors": []}, {}, reference)
    assert problems and "reference" in problems[-1]
    assert f"{SERVE}@{SERVE_PHASE_EVENTS}" in reference


def test_serve_drift_refresh_must_drift_and_served_must_be_published():
    undrifted = _serve_fields()
    undrifted["clang"]["drifted"] = [[], []]
    undrifted["clang"]["searched"] = [[1], []]
    problems = results.check_serve(undrifted, results.serve_digest(undrifted), [])
    assert problems == ["clang: the drift refresh drifted or re-searched no branch"]
    stale = _serve_fields()
    stale["clang"]["served"] = ["a", "a"]
    assert any("served" in p for p in results.check_serve(stale, results.serve_digest(stale), []))


def test_serve_plan_is_a_function_of_the_seed():
    assert serve_plan(3) == serve_plan(3)
    assert serve_plan(3) != serve_plan(4)
    for app_plan in serve_plan(3).values():
        for cuts in app_plan["cuts"]:
            assert cuts == sorted(cuts)
            assert cuts[-1] == SERVE_PHASE_EVENTS


def test_table_cell_reads_multi_word_headers():
    text = "\n".join([
        "== Fig 18: x ==",
        "profiles merged  8b-ROMBF  Whisper",
        "---------------------------------",
        "1-input          1.5       -0.2   ",
        "5-inputs         2         10.4   ",
    ])
    assert table_cell(text, "5-inputs", "Whisper") == 10.4
    assert table_cell(text, "1-input", "8b-ROMBF") == 1.5


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_every_per_layer_metric_says_what_it_should_move():
    bench = results.load_benchmark()
    assert set(layers.MOVES) == {m["name"] for m in bench["per_layer"]}
    workloads = {w["name"] for w in bench["workloads"]}
    assert workloads == set(WORKLOADS) | {SERVE}
    for moves, on in layers.MOVES.values():
        assert moves in {m["name"] for m in bench["end_to_end"]}
        assert set(on) <= workloads


def test_setup_s_has_the_largest_bound():
    bench = results.load_benchmark()
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
