"""Pure result logic: the tail-percentile rule, output checks and failure tallies."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Committed sha256 digests of the figure texts (``figure@events``) and
#: of the serve workload's published fields (``serve-drift@events``).
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: The benchmark's contract: workloads and metric names, units, bounds.
BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Percentiles a tail is reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def load_reference() -> Dict[str, str]:
    return json.loads(REFERENCE_PATH.read_text())


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def serve_digest(fields: dict) -> str:
    """Digest of the serve fields that are a function of the drifting
    trace alone: published versions, hint counts, drifted and searched
    sets."""
    pinned = {
        app: {key: app_fields[key] for key in ("versions", "hints", "drifted", "searched")}
        for app, app_fields in fields.items()
    }
    return digest(json.dumps(pinned, sort_keys=True))


def tail_percentile(n_samples: int) -> Optional[float]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it."""
    supported = [
        q for q in PERCENTILE_LADDER if n_samples * (100.0 - q) >= 100.0 * MIN_BEYOND - 1e-6
    ]
    return supported[-1] if supported else None


def check_run_all(
    digests: Dict[str, str],
    n_events: int,
    figures: Sequence[str],
    reference: Dict[str, str],
    cold_digests: Optional[Dict[str, str]] = None,
) -> List[str]:
    """Problems with one run-all iteration's figure texts (empty = correct).

    Every figure must match its committed reference digest; a warm run's
    texts must also equal the cold run that filled its store.
    """
    problems = []
    for figure in figures:
        got = digests.get(figure)
        if got is None:
            problems.append(f"{figure}: no text produced")
            continue
        want = reference.get(f"{figure}@{n_events}")
        if got != want:
            problems.append(f"{figure}: text digest {got[:12]} != reference {str(want)[:12]}")
        if cold_digests is not None and cold_digests.get(figure) != got:
            problems.append(f"{figure}: warm text differs from the cold text")
    return problems


def check_serve(fields: dict, want_digest: Optional[str], errors: Sequence[str]) -> List[str]:
    """Problems with one serve iteration (empty = correct).

    The window a refresh trains on holds whole phases, whatever the
    shard cuts, so version ids, hint counts and drifted and searched
    sets must match the committed digest for every seed.  The
    drift-triggered refresh must find drifted branches and re-search
    some, and each client must be served the version its phase's
    refresh published.
    """
    problems = list(errors)
    for app, app_fields in fields.items():
        if not all(app_fields["versions"]):
            problems.append(f"{app}: a refresh published no version")
        if app_fields["served"] != app_fields["versions"]:
            problems.append(f"{app}: served {app_fields['served']} != published {app_fields['versions']}")
        if not (app_fields["drifted"][-1] and app_fields["searched"][-1]):
            problems.append(f"{app}: the drift refresh drifted or re-searched no branch")
    got = serve_digest(fields)
    if got != want_digest:
        problems.append(f"serve fields digest {got[:12]} != reference {str(want_digest)[:12]}")
    return problems


def tally(iterations: Sequence[dict]) -> Dict[str, int]:
    """Attempted and failed operations over a run's iterations.

    An iteration whose output check failed counts every one of its
    operations as failed.
    """
    attempted = sum(int(it["attempted"]) for it in iterations)
    failed = sum(
        int(it["attempted"]) if it["problems"] else int(it["failed"]) for it in iterations
    )
    return {"attempted": attempted, "failed": failed}
