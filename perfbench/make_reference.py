"""Regenerate ``reference.json``, the committed output digests.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a change is meant to alter the program's output; the
digests are what every timed run's output check compares against.  The
serve digest is taken on two seeds, which must agree: the check holds
every seed to it.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from iteration import SERVE, SERVE_PHASE_EVENTS, WORKLOADS, iterate_serve, setup
from results import REFERENCE_PATH, digest, serve_digest

SERVE_SEEDS = (1, 2)


def main() -> None:
    from repro.orchestrator.runall import run_all

    work = Path(__file__).resolve().parent.parent / ".perfbench-work" / "make-reference"
    work.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for figures, n_events in {(w.figures, w.n_events) for w in WORKLOADS.values()}:
            scratch = tempfile.mkdtemp(dir=work)
            _, texts = run_all(list(figures), jobs=1, n_events=n_events,
                               cache_dir=scratch, results_dir=None)
            for name in figures:
                reference[f"{name}@{n_events}"] = digest(texts[name])
        serve = set()
        for seed in SERVE_SEEDS:
            scratch = Path(tempfile.mkdtemp(dir=work))
            setup(SERVE, scratch, seed)
            serve.add(serve_digest(iterate_serve(scratch, seed)["fields"]))
        if len(serve) != 1:
            raise SystemExit(f"serve fields differ between seeds {SERVE_SEEDS}")
        reference[f"{SERVE}@{SERVE_PHASE_EVENTS}"] = serve.pop()
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()  # only when no benchmark run is using it
        except OSError:
            pass
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
