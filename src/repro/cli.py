"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``apps``
    List the registered application profiles and their structure.
``figure NAME``
    Regenerate one paper table/figure (e.g. ``fig13`` or ``table1``)
    and print it; ``--events`` overrides the trace length.
``optimize APP``
    Run the full Whisper pipeline on one application and report the
    cross-input misprediction reduction.
``validate APP``
    Print the workload's structural health metrics (entropy, context
    recurrence, misprediction flatness).
``report``
    Assemble EXPERIMENTS.md from saved benchmark results.
``run-all [--jobs N] [--figures a,b,...]``
    Regenerate the whole suite (or a subset) through the orchestrator:
    per-app pipelines run in parallel across ``--jobs`` processes
    (``--jobs 0`` = one per CPU core), and every intermediate persists
    in the artifact cache, so repeat runs are cache-hit dominated.
    Writes a run manifest next to the figure outputs.  Robustness:
    failed/crashed/hung tasks are retried (``--retries``,
    ``--task-timeout``); ``--fail-fast`` aborts on the first failure
    instead of completing independent figures; every run is journaled
    under ``<results>/runs`` so ``--resume RUN_ID`` finishes an
    interrupted run (SIGINT/SIGTERM drain cleanly, exit 130).
    ``REPRO_FAULTS`` injects deterministic faults for testing (see
    ``repro.orchestrator.faults``).  ``--backend cluster
    --coordinator HOST:PORT`` serves the same task graph to remote
    ``repro cluster worker`` processes instead of a local pool.
``cluster {serve,worker}``
    The distributed backend (``repro.cluster``): ``serve`` binds the
    coordinator and runs the suite across whatever workers connect;
    ``worker`` connects to a coordinator and runs leased tasks in
    ``--slots`` local subprocesses (``--slots 0`` = one per core)
    against its own ``--cache-dir``, shipping artifacts back
    checksum-verified.
``serve {start,status,drive,demo}``
    The continuous profiling hint service (``repro.serve``): ``start``
    binds the shard-ingestion protocol and publishes versioned hint
    tables as client traffic drifts; ``status`` prints a running
    service's counters (ingest totals, drifted branches, hint
    versions, freshness); ``drive`` streams one phase of simulated
    drifting client traffic at a service (``--refresh`` then runs the
    drift -> incremental re-search -> publish cycle); ``demo`` runs
    the whole scripted scenario in-process and exits non-zero unless a
    fresh version is published that beats the stale hints on
    post-drift traffic.  Connection failures exit 1 with a one-line
    typed error; bad addresses exit 2 — the same contract as
    ``repro cluster worker`` (whose first-connection patience is now
    ``--connect-window``).
``sweep {run,status}``
    Fleet-scale parameter sweeps (``repro.sweep``): ``run`` expands a
    declarative TOML/JSON spec — axes over predictor size, hint
    budget, explore fraction, warmup, workload, kernel tier — into the
    orchestrator task graph and executes every configuration through
    the chosen ``--backend`` (local pool or the TCP cluster, whose
    workers may join and leave mid-sweep); finished configs land in
    the experiment registry (``repro.registry``) under
    ``<results>/registry/``, deduplicated by deterministic config id
    so re-runs are cache hits and the index stays byte-identical
    across backends.  Sweeps journal and resume exactly like
    ``run-all`` (``--resume`` refuses an edited spec).  ``status``
    lists sweep journals and registry totals.  Invalid specs exit 2.
``runs {list,query}``
    ``list`` enumerates the run journals under ``<results>/runs`` —
    run id, status, resumability (finished/partial), task counts,
    sessions — and prints the exact resume invocation for any partial
    run.  ``query`` filters the experiment registry (``--sweep``,
    repeatable ``--where KEY=VALUE`` / ``KEY>=VALUE`` predicates over
    axes and metrics) and prints matching rows in stable config-id
    order as a table or, with ``--json``, as JSON.
``cache {stats,clear,verify}``
    Inspect or empty the on-disk artifact cache, or integrity-scan it:
    ``verify`` checks every artifact's checksum footer and quarantines
    (or with ``--no-quarantine`` just reports) corrupt files.
``bench``
    Time the scalar, vector, and native replay kernels and append a row
    to the tracked benchmark history
    (``benchmarks/perf/BENCH_kernels.json``); ``--check`` compares
    speedups and absolute events/s against a baseline row for CI.
``trace {summarize,timeline,critical-path,tree}``
    Render the observability trace (``benchmarks/results/trace.jsonl``)
    a ``run-all`` leaves behind: per-stage wall/CPU tables
    (``--markdown`` emits the EXPERIMENTS.md form), an ASCII Gantt
    timeline, the critical path through the task graph, or the raw
    span tree.  ``REPRO_OBS=off`` disables recording entirely.

The global ``--kernel {scalar,vector,native}`` flag (before the
subcommand) forces one replay-kernel implementation for the whole
invocation — the escape hatch if a vectorised kernel ever misbehaves,
or the opt-in for the JIT-compiled native tier.  The choices derive
from :data:`repro.bpu.runner.VALID_KERNELS`.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import Optional, Sequence


def _cmd_apps(args: argparse.Namespace) -> int:
    from .workloads.generator import get_program
    from .workloads.registry import datacenter_specs, spec_benchmark_specs

    print(f"{'app':16s} {'category':10s} {'functions':>9s} {'cond-branches':>13s} {'footprint':>9s}")
    for spec in datacenter_specs() + spec_benchmark_specs():
        program = get_program(spec)
        print(
            f"{spec.name:16s} {spec.category:10s} {program.n_functions:9d} "
            f"{program.n_conditional_branches:13d} {spec.footprint_kb:7d}KB"
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import FIGURES

    if args.name not in FIGURES:
        print(f"unknown figure {args.name!r}; choose from {', '.join(sorted(FIGURES))}")
        return 2
    module_name, fn_name = FIGURES[args.name]
    import importlib

    from .experiments.runner import ExperimentContext
    from .orchestrator.store import ArtifactStore

    module = importlib.import_module(f".experiments.{module_name}", package="repro")
    store = ArtifactStore(args.cache_dir) if args.cache_dir else None
    ctx = ExperimentContext(n_events=args.events, store=store)
    result = getattr(module, fn_name)(ctx)
    print(result.to_text())
    if store is not None:
        store.persist_stats()
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .bpu.runner import simulate
    from .bpu.scaling import scaled_tage_sc_l
    from .core.whisper import WhisperOptimizer
    from .profiling.profile import BranchProfile
    from .workloads.generator import generate_trace, get_program
    from .workloads.registry import get_spec

    spec = get_spec(args.app)
    program = get_program(spec)
    train = generate_trace(spec, 0, args.events)
    test = generate_trace(spec, 1, args.events)
    profile = BranchProfile.collect([train], lambda: scaled_tage_sc_l(64))
    trained, placement, runtime = WhisperOptimizer().optimize(profile, program)
    baseline = simulate(test, scaled_tage_sc_l(64)).with_warmup(0.3)
    optimized = simulate(test, scaled_tage_sc_l(64), runtime=runtime).with_warmup(0.3)
    print(f"{args.app}: {trained.n_hints} hints "
          f"(+{100 * placement.static_overhead(program):.2f}% static), "
          f"MPKI {baseline.mpki:.2f} -> {optimized.mpki:.2f}, "
          f"reduction {optimized.misprediction_reduction(baseline):.1f}%")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .bpu.runner import simulate
    from .bpu.scaling import scaled_tage_sc_l
    from .workloads.generator import generate_trace
    from .workloads.registry import get_spec
    from .workloads.validation import check_workload

    spec = get_spec(args.app)
    trace = generate_trace(spec, 0, args.events)
    result = simulate(trace, scaled_tage_sc_l(64))
    health = check_workload(trace, result)
    print(f"{args.app}: history entropy {health.entropy_bits:.2f}/"
          f"{health.entropy_bound} bits "
          f"({100 * health.entropy_utilisation:.0f}% of uniform)")
    rec = health.recurrence
    print(f"  follower recurrence (depth 33-128): {rec.n_branches} branches, "
          f"median {rec.median_executions:.0f} execs over "
          f"{rec.median_distinct_contexts:.0f} contexts, "
          f"{100 * rec.median_recurring_fraction:.0f}% recurring")
    print(f"  top-50 misprediction share: {health.top50_share:.1f}%")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import build_experiments_md

    results = pathlib.Path(args.results)
    output = pathlib.Path(args.output)
    build_experiments_md(results, output)
    print(f"wrote {output}")
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from .orchestrator import runall

    figures = None
    if args.figures:
        figures = [name.strip() for name in args.figures.split(",") if name.strip()]
    cache_dir = None if args.no_cache else args.cache_dir
    try:
        manifest, texts = runall.run_all(
            figures=figures,
            jobs=args.jobs,
            n_events=args.events,
            cache_dir=cache_dir,
            results_dir=args.results,
            log=print,
            retries=args.retries if args.retries is not None else runall.DEFAULT_RETRIES,
            task_timeout=args.task_timeout,
            keep_going=not args.fail_fast,
            run_id=args.run_id,
            resume=args.resume,
            backend=args.backend,
            coordinator=args.coordinator,
            lease_seconds=args.lease_seconds,
        )
    except ValueError as error:
        print(error)
        return 2
    for name in manifest.figures:
        if name in texts:
            print()
            print(texts[name])
    print()
    for line in manifest.summary_lines():
        print(line)
    if args.results:
        print(f"manifest: {pathlib.Path(args.results) / 'manifest.json'}")
    if manifest.interrupted:
        print(f"interrupted — resume with: repro run-all --resume {manifest.run_id}")
        return 130
    counts = manifest.counts()
    if counts.get("failed", 0) or counts.get("cancelled", 0):
        if manifest.run_id:
            print(f"incomplete — resume with: repro run-all --resume {manifest.run_id}")
        return 1
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.mode == "worker":
        from .cluster import worker as worker_mod
        from .cluster.worker import ClusterWorker

        try:
            worker = ClusterWorker(
                coordinator=args.coordinator,
                slots=args.slots,
                cache_dir=args.cache_dir,
                worker_id=args.worker_id,
                log=print,
                connect_window=(
                    args.connect_window
                    if args.connect_window is not None
                    else worker_mod.CONNECT_WINDOW_SECONDS
                ),
            )
        except ValueError as error:
            print(error)
            return 2
        return worker.run()

    # serve: bind the coordinator and drive the suite through it.  This
    # is `run-all --backend cluster` with the bind address spelled
    # --bind, so the two entry points share one code path and one
    # output shape.
    args.jobs = 1
    args.no_cache = False
    args.backend = "cluster"
    args.coordinator = args.bind
    return _cmd_run_all(args)


def _serve_engine(max_candidates: Optional[int]):
    """A refresh engine honouring the CLI's candidate cap (None = default)."""
    from .core.whisper import WhisperConfig
    from .serve.refresh import RefreshEngine

    if max_candidates is None:
        return RefreshEngine()
    return RefreshEngine(config=WhisperConfig(max_candidates=max_candidates))


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve {start,status,drive,demo}`` — the hint service."""
    from . import wire
    from .serve.contracts import ServeError, ServiceUnavailable

    if args.mode == "demo":
        from .serve.client import run_demo

        summary = run_demo(
            app=args.app,
            n_clients=args.clients,
            events_per_phase=args.events,
            drift_fraction=args.drift_fraction,
            shard_events=args.shard_events,
            max_candidates=args.max_candidates,
            out=args.out,
        )
        print(f"app {summary['app']}: {args.clients} clients, "
              f"{summary['events_per_phase']} events/phase")
        print(f"bootstrap version {summary['bootstrap_version']} "
              f"({summary['bootstrap_hints']} hints)")
        print(f"drift: {len(summary['rotated_branches'])} rotated, "
              f"{len(summary['drifted'])} detected, "
              f"{len(summary['searched'])} re-searched")
        print(f"refreshed version {summary['refreshed_version']} "
              f"({summary['refreshed_hints']} hints, "
              f"published={summary['published_after_drift']})")
        print(f"staleness-MPKI {summary['staleness_mpki']:+.4f} "
              f"(stale {summary['stale_mpki']:.4f} -> "
              f"fresh {summary['fresh_mpki']:.4f})")
        if args.out:
            print(f"summary: {args.out}")
        ok = summary["published_after_drift"] and summary["staleness_mpki"] > 0
        if not ok:
            print("demo FAILED: no fresh version published or stale hints "
                  "were not beaten on post-drift traffic")
        return 0 if ok else 1

    try:
        address = wire.parse_address(
            args.bind if args.mode == "start" else args.connect
        )
    except ValueError as error:
        print(error)
        return 2

    if args.mode == "start":
        from .orchestrator.store import ArtifactStore
        from .serve.service import HintService

        store = ArtifactStore(args.cache_dir) if args.cache_dir else None
        service = HintService(
            host=address[0],
            port=address[1],
            store=store,
            lease_seconds=args.lease_seconds,
            buffer_events=args.buffer_events,
            window_events=args.window_events,
            drift_threshold=args.drift_threshold,
            min_executions=args.min_executions,
            engine=_serve_engine(args.max_candidates),
            log=print,
        )
        try:
            service.wait()
        except KeyboardInterrupt:
            print("interrupted — closing")
            service.close()
            return 130
        service.close()
        return 0

    from .serve.client import ServeClient, drive_phase

    try:
        if args.mode == "status":
            client = ServeClient(address, "cli-status")
            status = client.status()
            print(f"sessions: {status['sessions']} live, "
                  f"{status['sessions_expired']} expired")
            ingest = status["ingest"]
            print(f"ingest: {ingest['shards_accepted']} shards "
                  f"({ingest['events_accepted']} events) accepted, "
                  f"{ingest['shards_rejected']} rejected")
            for app, report in sorted(status["apps"].items()):
                print(f"app {app}: {report['events_total']} events, "
                      f"{report['drifted_branches']} drifted branches, "
                      f"freshness {report['freshness_events']} events")
            for app, versions in sorted(status["versions"].items()):
                latest = versions[-1]
                print(f"app {app}: {len(versions)} version(s), current "
                      f"{latest['version']} ({latest['n_hints']} hints, "
                      f"reason={latest['reason']})")
            client.goodbye()
            return 0

        # drive: stream one phase of drifting traffic, then refresh.
        from .workloads.drifting import generate_drifting_trace
        from .workloads.registry import get_spec

        drifting = generate_drifting_trace(
            get_spec(args.app),
            input_id=0,
            n_events=args.phases * args.events,
            n_phases=args.phases,
            drift_fraction=args.drift_fraction,
        )
        segment = drifting.phase_slice(args.phase)
        sent = drive_phase(
            address, args.app, segment.block_ids, segment.taken,
            n_clients=args.clients, shard_events=args.shard_events,
            client_prefix=f"drive-p{args.phase}",
        )
        print(f"streamed {sent} events of phase {args.phase} "
              f"({len(drifting.rotated_pcs[args.phase])} rotated branches) "
              f"across {args.clients} clients")
        if args.refresh:
            control = ServeClient(address, "drive-control", args.app)
            reply = control.refresh()
            print(f"refresh: drifted={len(reply['drifted'])} "
                  f"searched={len(reply['searched'])} "
                  f"published={reply['published']} "
                  f"version={reply.get('version', '')}")
            staleness = reply.get("staleness") or {}
            if staleness:
                print(f"staleness-MPKI "
                      f"{staleness['staleness_mpki']:+.4f}")
            control.goodbye()
        return 0
    except (ServeError, ServiceUnavailable) as error:
        print(error)
        return 1
    except (KeyError, ValueError) as error:
        print(error)
        return 2


def _cmd_runs_query(args: argparse.Namespace) -> int:
    """``repro runs query`` — filter and print the experiment registry."""
    import json

    from . import registry

    try:
        where = [registry.parse_filter(expr) for expr in (args.where or [])]
    except ValueError as error:
        print(error)
        return 2
    rows = registry.query(args.results, sweep=args.sweep, where=where)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for line in registry.table_lines(rows):
            print(line)
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    if args.mode == "query":
        return _cmd_runs_query(args)

    from .orchestrator.journal import list_runs, load_journal
    from .orchestrator.scheduler import DONE, FAILED

    results = args.results
    run_ids = list_runs(results)
    if not run_ids:
        print(f"no run journals under {pathlib.Path(results) / 'runs'}")
        return 0
    print(f"{len(run_ids)} run(s) under {pathlib.Path(results) / 'runs'}:")
    for run_id in run_ids:
        state = load_journal(results, run_id)
        if state is None:
            print(f"  {run_id}: unreadable journal")
            continue
        done = sum(1 for s in state.task_status.values() if s == DONE)
        failed = sum(1 for s in state.task_status.values() if s == FAILED)
        status = state.describe_status()
        resumable = state.resumability()
        sessions = (
            f", {state.sessions} sessions" if state.sessions > 1 else ""
        )
        line = (
            f"  {run_id}: {status} [{resumable}] — "
            f"{done} done, {failed} failed{sessions}"
        )
        print(line)
        if resumable == "partial":
            command = (
                "sweep run" if state.params.get("type") == "sweep" else "run-all"
            )
            print(
                f"    resume with: repro {command} --resume {run_id} "
                f"--results {results}"
            )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep {run,status}`` — declarative parameter sweeps."""
    if args.mode == "status":
        from . import registry
        from .orchestrator.journal import list_runs, load_journal
        from .orchestrator.scheduler import DONE

        results = args.results
        index = registry.load_index(results)
        per_sweep: dict = {}
        for row in index.rows:
            name = str(row.get("sweep", ""))
            per_sweep[name] = per_sweep.get(name, 0) + 1
        print(f"registry: {len(index.rows)} row(s) under "
              f"{registry.registry_dir(results)}")
        for name in sorted(per_sweep):
            print(f"  {name or '(unnamed)'}: {per_sweep[name]} row(s)")
        journals = [
            (run_id, state)
            for run_id in list_runs(results)
            for state in [load_journal(results, run_id)]
            if state is not None and state.params.get("type") == "sweep"
        ]
        if not journals:
            print(f"no sweep journals under {pathlib.Path(results) / 'runs'}")
            return 0
        print(f"{len(journals)} sweep run(s):")
        for run_id, state in journals:
            done = sum(1 for s in state.task_status.values() if s == DONE)
            total = state.params.get("n_configs", "?")
            print(f"  {run_id}: sweep {state.params.get('sweep', '?')} — "
                  f"{done}/{total} configs, {state.resumability()}")
            if state.resumability() == "partial":
                print(f"    resume with: repro sweep run --resume {run_id} "
                      f"--results {results}")
        return 0

    from .sweep import runner as sweep_runner

    cache_dir = None if args.no_cache else args.cache_dir
    try:
        report = sweep_runner.run_sweep(
            spec_path=args.spec,
            jobs=args.jobs,
            cache_dir=cache_dir,
            results_dir=args.results,
            log=print,
            retries=(
                args.retries if args.retries is not None
                else sweep_runner.DEFAULT_RETRIES
            ),
            task_timeout=args.task_timeout,
            keep_going=not args.fail_fast,
            run_id=args.run_id,
            resume=args.resume,
            backend=args.backend,
            coordinator=args.coordinator,
            lease_seconds=args.lease_seconds,
        )
    except ValueError as error:  # includes every SweepSpecError
        print(error)
        return 2
    for line in report.summary_lines():
        print(line)
    if report.interrupted:
        print(f"interrupted — resume with: repro sweep run "
              f"--resume {report.run_id}")
        return 130
    if report.counts.get("failed", 0) or report.counts.get("cancelled", 0):
        print(f"incomplete — resume with: repro sweep run "
              f"--resume {report.run_id}")
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .orchestrator.metrics import format_bytes, hit_rate
    from .orchestrator.store import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    if args.action == "clear":
        try:
            removed = store.clear(kind=args.kind)
        except KeyError as error:
            print(error.args[0])
            return 2
        print(f"removed {removed} cached artifacts from {store.root}")
        return 0

    if args.action == "verify":
        report = store.verify(quarantine_bad=not args.no_quarantine)
        print(f"scanned {report['scanned']} artifacts: {report['ok']} ok, "
              f"{len(report['corrupt'])} corrupt")
        for relative in report["corrupt"]:
            action = "quarantined" if relative in report["quarantined"] else "left in place"
            print(f"  CORRUPT {relative} ({action})")
        return 1 if report["corrupt"] and args.no_quarantine else 0

    usage = store.disk_usage()
    total_entries = sum(count for count, _ in usage.values())
    total_bytes = sum(size for _, size in usage.values())
    print(f"cache directory: {store.root}")
    print(f"{total_entries} artifacts, {format_bytes(total_bytes)}")
    for kind, (count, size) in sorted(usage.items()):
        print(f"  {kind:10s} {count:5d} entries  {format_bytes(size):>10s}")
    stats = store.read_persistent_stats()
    if stats:
        print(
            f"lifetime counters: {stats.get('hits', 0)} hits / "
            f"{stats.get('misses', 0)} misses "
            f"({100 * hit_rate(stats):.0f}% hit rate), "
            f"{stats.get('puts', 0)} writes"
        )
        for kind, counts in stats.get("kinds", {}).items():
            print(
                f"  {kind:10s} {counts.get('hits', 0):6d} hits  "
                f"{counts.get('misses', 0):6d} misses  "
                f"{counts.get('puts', 0):6d} puts"
            )
    else:
        print("lifetime counters: none recorded yet")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .analysis import kernel_bench

    predictors = None
    if args.predictors:
        predictors = [name.strip() for name in args.predictors.split(",") if name.strip()]
    row = kernel_bench.run_bench(
        app=args.app, n_events=args.events, predictors=predictors
    )

    # Check against the baseline as it stood *before* this run, so a
    # write+check invocation never compares the new row against itself.
    failed = False
    if args.check:
        baseline_path = pathlib.Path(args.check)
        baseline_rows = json.loads(baseline_path.read_text())
        baseline = baseline_rows[-1] if isinstance(baseline_rows, list) else baseline_rows
        print(f"regression check vs {baseline_path} "
              f"(row dated {baseline.get('timestamp', '?')}):")
        if kernel_bench.check_regression(row, baseline):
            print("speedups within tolerance")
        else:
            print("FAIL: kernel throughput below baseline tolerance")
            failed = True

    output = pathlib.Path(args.output)
    if args.no_write:
        print("(history not written: --no-write)")
    else:
        history = kernel_bench.append_row(output, row)
        print(f"appended row {len(history)} to {output}")
    return 1 if failed else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.report import critical_path_lines, summarize, summary_lines, timeline_lines
    from .obs.trace import format_tree, read_events

    path = pathlib.Path(args.trace)
    if not path.exists():
        print(f"no trace at {path} — run `repro run-all` first "
              f"(or pass --trace)")
        return 2
    try:
        events = read_events(path)
    except ValueError as error:
        print(error)
        return 2
    if not events:
        print(f"{path} is empty")
        return 2

    if args.view == "summarize":
        lines = summary_lines(summarize(events), markdown=args.markdown)
    elif args.view == "timeline":
        lines = timeline_lines(events, width=args.width)
    elif args.view == "critical-path":
        lines = critical_path_lines(events)
    else:  # tree
        lines = format_tree(
            events, max_depth=args.depth, min_wall=args.min_ms / 1000.0
        ).splitlines()
    for line in lines:
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree for the `repro` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Whisper (MICRO 2022) reproduction toolkit"
    )
    from .bpu.runner import VALID_KERNELS

    parser.add_argument(
        "--kernel", choices=VALID_KERNELS, default=None,
        help="force one replay-kernel implementation for this invocation "
        "(default: the REPRO_KERNEL environment variable, else native, "
        "which falls back to vector without a C toolchain)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list registered applications").set_defaults(
        func=_cmd_apps
    )

    figure = sub.add_parser("figure", help="regenerate one paper table/figure")
    figure.add_argument("name", help="e.g. fig13, table1")
    figure.add_argument("--events", type=int, default=None, help="trace length per app")
    figure.add_argument(
        "--cache-dir", default=None,
        help="persist/reuse intermediates in this artifact cache",
    )
    figure.set_defaults(func=_cmd_figure)

    optimize = sub.add_parser("optimize", help="run Whisper on one application")
    optimize.add_argument("app")
    optimize.add_argument("--events", type=int, default=80_000)
    optimize.set_defaults(func=_cmd_optimize)

    validate = sub.add_parser("validate", help="workload structural health check")
    validate.add_argument("app")
    validate.add_argument("--events", type=int, default=80_000)
    validate.set_defaults(func=_cmd_validate)

    report = sub.add_parser("report", help="assemble EXPERIMENTS.md from results")
    report.add_argument("--results", default="benchmarks/results")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.set_defaults(func=_cmd_report)

    from .orchestrator.store import DEFAULT_CACHE_DIR

    run_all = sub.add_parser(
        "run-all", help="regenerate the experiment suite via the orchestrator"
    )
    run_all.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = inline, 0 = one per CPU core)",
    )
    run_all.add_argument(
        "--figures", default=None,
        help="comma-separated subset, e.g. fig02,fig13 (default: everything)",
    )
    run_all.add_argument("--events", type=int, default=None, help="trace length per app")
    run_all.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, help="artifact cache directory"
    )
    run_all.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache (figures recompute everything)",
    )
    run_all.add_argument(
        "--results", default="benchmarks/results",
        help="directory for figure texts, the run manifest, and run journals",
    )
    run_all.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts per task after a failure/crash/timeout "
        "(default: 1, exponential backoff with deterministic jitter)",
    )
    run_all.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt deadline; hung workers are terminated and the "
        "task retried (jobs>1 only)",
    )
    run_all.add_argument(
        "--keep-going", dest="fail_fast", action="store_false", default=False,
        help="on a task failure, still complete every independent figure "
        "(the default); only the failed task's dependents are skipped",
    )
    run_all.add_argument(
        "--fail-fast", dest="fail_fast", action="store_true",
        help="abort on the first task failure: drain in-flight work, "
        "cancel the rest, leave a resumable journal",
    )
    run_all.add_argument(
        "--run-id", default=None,
        help="journal id for this run (default: derived from time + pid)",
    )
    run_all.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="complete a previous run from its journal under "
        "<results>/runs/: finished tasks are skipped, the rest execute",
    )
    run_all.add_argument(
        "--backend", choices=("local", "cluster"), default="local",
        help="where tasks execute: a local process pool, or remote "
        "`repro cluster worker` processes leasing tasks over TCP",
    )
    run_all.add_argument(
        "--coordinator", default=None, metavar="HOST:PORT",
        help="cluster backend: the address this run binds its "
        "coordinator on (workers connect here)",
    )
    run_all.add_argument(
        "--lease-seconds", type=float, default=None, metavar="SECONDS",
        help="cluster backend: reassign a worker's tasks after this "
        "much heartbeat silence (default: 15)",
    )
    run_all.set_defaults(func=_cmd_run_all)

    cluster = sub.add_parser(
        "cluster", help="distributed run-all: coordinator and workers"
    )
    cluster_sub = cluster.add_subparsers(dest="mode", required=True)
    serve = cluster_sub.add_parser(
        "serve",
        help="bind the coordinator and run the suite across connected "
        "workers (shorthand for run-all --backend cluster)",
    )
    serve.add_argument(
        "--bind", default="127.0.0.1:7781", metavar="HOST:PORT",
        help="address to serve the task-lease protocol on",
    )
    serve.add_argument(
        "--figures", default=None,
        help="comma-separated subset, e.g. fig02,fig13 (default: everything)",
    )
    serve.add_argument("--events", type=int, default=None, help="trace length per app")
    serve.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="the coordinator's artifact cache (the cluster's L1)",
    )
    serve.add_argument(
        "--results", default="benchmarks/results",
        help="directory for figure texts, the run manifest, and run journals",
    )
    serve.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts per task after a failure/crash/timeout",
    )
    serve.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt deadline before a leased task is revoked and retried",
    )
    serve.add_argument(
        "--lease-seconds", type=float, default=None, metavar="SECONDS",
        help="reassign a worker's tasks after this much heartbeat "
        "silence (default: 15)",
    )
    serve.add_argument(
        "--keep-going", dest="fail_fast", action="store_false", default=False,
        help="on a task failure, still complete every independent "
        "figure (the default)",
    )
    serve.add_argument(
        "--fail-fast", dest="fail_fast", action="store_true",
        help="abort on the first task failure",
    )
    serve.add_argument(
        "--run-id", default=None,
        help="journal id for this run (default: derived from time + pid)",
    )
    serve.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="complete a previous run from its journal",
    )
    serve.set_defaults(func=_cmd_cluster)
    worker = cluster_sub.add_parser(
        "worker", help="connect to a coordinator and run leased tasks"
    )
    worker.add_argument(
        "--coordinator", required=True, metavar="HOST:PORT",
        help="the address `repro cluster serve` (or run-all "
        "--backend cluster) is listening on",
    )
    worker.add_argument(
        "--slots", type=int, default=1,
        help="concurrent task subprocesses (0 = one per CPU core)",
    )
    worker.add_argument(
        "--cache-dir", required=True,
        help="this worker's local artifact cache (its L2; misses are "
        "fetched from the coordinator, outputs mirrored back)",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="stable identity for leases and the manifest roster "
        "(default: hostname-pid)",
    )
    worker.add_argument(
        "--connect-window", type=float, default=None, metavar="SECONDS",
        help="keep retrying the first coordinator connection this long "
        "before giving up with exit 1 (default: 30)",
    )
    worker.set_defaults(func=_cmd_cluster)

    hint_serve = sub.add_parser(
        "serve", help="continuous profiling hint service (repro.serve)"
    )
    hint_sub = hint_serve.add_subparsers(dest="mode", required=True)
    hint_start = hint_sub.add_parser(
        "start",
        help="run the hint service: ingest trace shards, detect drift, "
        "re-search and publish hint-table versions",
    )
    hint_start.add_argument(
        "--bind", default="127.0.0.1:7791", metavar="HOST:PORT",
        help="address to serve the shard/hints protocol on",
    )
    hint_start.add_argument(
        "--cache-dir", default=None,
        help="seal published hint tables into this artifact cache "
        "(default: in-memory registry only)",
    )
    hint_start.add_argument(
        "--window-events", type=int, default=50_000, metavar="N",
        help="drift-detection window: newest ingested events compared "
        "against the pinned reference window",
    )
    hint_start.add_argument(
        "--buffer-events", type=int, default=400_000, metavar="N",
        help="rolling per-app profile buffer (bootstrap training set)",
    )
    hint_start.add_argument(
        "--drift-threshold", type=float, default=0.20, metavar="DELTA",
        help="flag a branch when its windowed taken-rate moves more "
        "than this",
    )
    hint_start.add_argument(
        "--min-executions", type=int, default=32, metavar="N",
        help="ignore branches executing fewer times than this per window",
    )
    hint_start.add_argument(
        "--lease-seconds", type=float, default=15.0, metavar="SECONDS",
        help="expire a client session after this much silence",
    )
    hint_start.add_argument(
        "--max-candidates", type=int, default=None, metavar="N",
        help="cap the branches considered per search pass",
    )
    hint_start.set_defaults(func=_cmd_serve)
    hint_status = hint_sub.add_parser(
        "status", help="print a running service's counters and versions"
    )
    hint_status.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the address `repro serve start` is listening on",
    )
    hint_status.set_defaults(func=_cmd_serve)
    hint_drive = hint_sub.add_parser(
        "drive",
        help="stream one phase of drifting client traffic at a service",
    )
    hint_drive.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the address `repro serve start` is listening on",
    )
    hint_drive.add_argument("--app", default="clang", help="application to profile")
    hint_drive.add_argument(
        "--phase", type=int, default=0,
        help="which drift phase to stream (0 = canonical behaviour)",
    )
    hint_drive.add_argument(
        "--phases", type=int, default=2, help="total phases in the schedule"
    )
    hint_drive.add_argument(
        "--events", type=int, default=60_000, help="events per phase"
    )
    hint_drive.add_argument(
        "--clients", type=int, default=8, help="simulated client count"
    )
    hint_drive.add_argument(
        "--shard-events", type=int, default=4000, help="events per shard"
    )
    hint_drive.add_argument(
        "--drift-fraction", type=float, default=0.25,
        help="fraction of hot branches rotated at each phase boundary",
    )
    hint_drive.add_argument(
        "--refresh", action="store_true",
        help="after streaming, run the drift -> re-search -> publish cycle",
    )
    hint_drive.set_defaults(func=_cmd_serve)
    hint_demo = hint_sub.add_parser(
        "demo",
        help="scripted end-to-end scenario: bootstrap, drift, "
        "incremental refresh, staleness replay (exit 1 if stale wins)",
    )
    hint_demo.add_argument("--app", default="clang", help="application to profile")
    hint_demo.add_argument(
        "--clients", type=int, default=8, help="simulated client count"
    )
    hint_demo.add_argument(
        "--events", type=int, default=60_000, help="events per phase"
    )
    hint_demo.add_argument(
        "--shard-events", type=int, default=4000, help="events per shard"
    )
    hint_demo.add_argument(
        "--drift-fraction", type=float, default=0.25,
        help="fraction of hot branches rotated at the phase boundary",
    )
    hint_demo.add_argument(
        "--max-candidates", type=int, default=32, metavar="N",
        help="cap the branches considered per search pass",
    )
    hint_demo.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the canonical JSON summary here (the "
        "determinism artifact CI compares across runs)",
    )
    hint_demo.set_defaults(func=_cmd_serve)

    sweep = sub.add_parser(
        "sweep", help="declarative parameter sweeps over the orchestrator"
    )
    sweep_sub = sweep.add_subparsers(dest="mode", required=True)
    sweep_run = sweep_sub.add_parser(
        "run",
        help="expand a TOML/JSON sweep spec and run every configuration "
        "into the experiment registry",
    )
    sweep_run.add_argument(
        "spec", nargs="?", default=None,
        help="sweep spec file (TOML or JSON; omit when resuming — the "
        "journal pins it)",
    )
    sweep_run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = inline, 0 = one per CPU core)",
    )
    sweep_run.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, help="artifact cache directory"
    )
    sweep_run.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache (every config recomputes "
        "its intermediates)",
    )
    sweep_run.add_argument(
        "--results", default="benchmarks/results",
        help="results directory: the registry and run journals live here",
    )
    sweep_run.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts per config after a failure/crash/timeout "
        "(default: 1)",
    )
    sweep_run.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt deadline; hung configs are terminated and retried",
    )
    sweep_run.add_argument(
        "--keep-going", dest="fail_fast", action="store_false", default=False,
        help="on a config failure, still run every other configuration "
        "(the default)",
    )
    sweep_run.add_argument(
        "--fail-fast", dest="fail_fast", action="store_true",
        help="abort on the first config failure, leaving a resumable journal",
    )
    sweep_run.add_argument(
        "--run-id", default=None,
        help="journal id for this sweep run (default: derived from time + pid)",
    )
    sweep_run.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="complete a previous sweep run from its journal; refused "
        "if the spec changed since",
    )
    sweep_run.add_argument(
        "--backend", choices=("local", "cluster"), default="local",
        help="where configs execute: a local process pool, or remote "
        "`repro cluster worker` processes leasing tasks over TCP",
    )
    sweep_run.add_argument(
        "--coordinator", default=None, metavar="HOST:PORT",
        help="cluster backend: the address this sweep binds its "
        "coordinator on (workers connect here, and may join/leave "
        "mid-sweep)",
    )
    sweep_run.add_argument(
        "--lease-seconds", type=float, default=None, metavar="SECONDS",
        help="cluster backend: reassign a worker's configs after this "
        "much heartbeat silence (default: 15)",
    )
    sweep_run.set_defaults(func=_cmd_sweep)
    sweep_status = sweep_sub.add_parser(
        "status", help="sweep journals and experiment-registry totals"
    )
    sweep_status.add_argument(
        "--results", default="benchmarks/results",
        help="results directory holding the registry and runs/ journals",
    )
    sweep_status.set_defaults(func=_cmd_sweep)

    runs = sub.add_parser(
        "runs", help="list run journals or query the experiment registry"
    )
    runs_sub = runs.add_subparsers(dest="mode", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="enumerate journals under <results>/runs"
    )
    runs_list.add_argument(
        "--results", default="benchmarks/results",
        help="results directory holding the runs/ journals",
    )
    runs_list.set_defaults(func=_cmd_runs)
    runs_query = runs_sub.add_parser(
        "query", help="filter and print experiment-registry rows"
    )
    runs_query.add_argument(
        "--results", default="benchmarks/results",
        help="results directory holding the registry",
    )
    runs_query.add_argument(
        "--sweep", default=None, help="restrict to one sweep by name"
    )
    runs_query.add_argument(
        "--where", action="append", default=[], metavar="KEY[OP]VALUE",
        help="predicate over config axes and metrics, e.g. app=mysql or "
        "reduction_pct>=40 (repeatable; all must match)",
    )
    runs_query.add_argument(
        "--json", action="store_true",
        help="emit matching rows as JSON instead of a table",
    )
    runs_query.set_defaults(func=_cmd_runs)

    cache = sub.add_parser(
        "cache", help="inspect, verify, or clear the artifact cache"
    )
    cache.add_argument("action", choices=("stats", "clear", "verify"))
    cache.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, help="artifact cache directory"
    )
    cache.add_argument(
        "--kind", default=None,
        help="restrict `clear` to one artifact kind (trace, prediction, ...)",
    )
    cache.add_argument(
        "--no-quarantine", action="store_true",
        help="verify only reports corrupt artifacts instead of moving "
        "them to quarantine/ (exit 1 when any are found)",
    )
    cache.set_defaults(func=_cmd_cache)

    bench = sub.add_parser(
        "bench", help="benchmark the scalar/vector/native replay kernels"
    )
    bench.add_argument("--app", default="cassandra")
    bench.add_argument("--events", type=int, default=200_000)
    bench.add_argument(
        "--predictors", default=None,
        help="comma-separated subset, e.g. tage,tage_sc_l (default: all)",
    )
    bench.add_argument(
        "--output", default="benchmarks/perf/BENCH_kernels.json",
        help="benchmark history file to append to",
    )
    bench.add_argument(
        "--no-write", action="store_true", help="measure only; do not append"
    )
    bench.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare speedups against this baseline JSON; non-zero exit "
        "on a >30%% regression (CI perf smoke)",
    )
    bench.set_defaults(func=_cmd_bench)

    trace = sub.add_parser(
        "trace", help="render the observability trace of the last run-all"
    )
    trace.add_argument(
        "view",
        choices=("summarize", "timeline", "critical-path", "tree"),
        help="summarize: per-stage tables; timeline: ASCII Gantt; "
        "critical-path: the task chain bounding the wall clock; "
        "tree: the raw span forest",
    )
    trace.add_argument(
        "--trace", default="benchmarks/results/trace.jsonl",
        help="trace file written by run-all",
    )
    trace.add_argument(
        "--markdown", action="store_true",
        help="summarize as Markdown tables (EXPERIMENTS.md form)",
    )
    trace.add_argument(
        "--width", type=int, default=64, help="timeline bar width in columns"
    )
    trace.add_argument(
        "--depth", type=int, default=None, help="tree: maximum nesting depth"
    )
    trace.add_argument(
        "--min-ms", type=float, default=0.0,
        help="tree: hide spans shorter than this many milliseconds",
    )
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.kernel:
        os.environ["REPRO_KERNEL"] = args.kernel
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
