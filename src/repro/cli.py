"""Command-line interface: ``python -m repro <command>``.

The main entry points:

* ``simulate``  — build a synthetic Internet and print its vitals.
* ``estimate``  — run the full pipeline on one observation window.
* ``windows``   — sweep all 11 standard windows through the engine
  (``--workers`` fans them across processes) and print the growth
  series plus per-stage instrumentation.
* ``crossval``  — leave-one-source-out validation for a window.
* ``supply``    — the Table 6 runout forecast.
* ``campaign``  — estimation-as-a-service: ``submit`` a campaign
  (windows x sensitivity grid) into a service directory, poll
  ``status``, fetch ``results``.
* ``query``     — answer totals/growth/window queries from a completed
  campaign's query ledger at interactive latency, without any refits.
* ``stream``    — incremental estimation over an observation-delta
  journal: ``ingest`` the tail (or ``--simulate`` a journal from the
  standard sources), ``advance`` to close every coverable window
  through warm-started refits, ``snapshot`` the stream state into the
  artifact store so a restart resumes from the tail.

The pipeline knobs — ``--inject-faults``, ``--quarantine-policy``,
``--store``, ``--trace``/``--metrics-out`` — are accepted both before
the subcommand and after it (every estimating subcommand carries the
identical set via one shared parent parser).

All commands share ``--scale-log2`` (size of the simulated Internet as
a power of two; -12 is 1/4096 of the real one) and ``--seed``.
``windows`` and ``campaign submit`` accept ``--workers``; results are
bit-identical whatever the worker count.

Fault tolerance is configured globally: ``--retries`` bounds the extra
attempts per stage or task (window or campaign task),
``--task-timeout`` puts a wall-clock limit on pool tasks (hung workers
are terminated and the task retried), and ``--inject-faults SPEC`` arms the deterministic fault
injector (``stage:kind[:index[:count[:seconds]]]``) to rehearse those
paths.  Tasks that exhaust their retries are reported as degraded and
dropped; surviving windows still produce their estimates.

Source integrity: ``--inject-faults`` also accepts *data* faults of
the form ``source:NAME:kind[:amount[:start]]`` (kind one of
drop/truncate/duplicate/skew/spoof) that poison a measurement source
instead of a stage.  ``--quarantine-policy`` selects the preset the
integrity layer judges sources under (``off``, ``lenient``,
``default``, ``strict``), and ``repro health`` prints one window's
per-source verdicts and the pairwise agreement matrix.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.crossval import cross_validate_window
from repro.analysis.report import format_table, to_real
from repro.analysis.supply import supply_by_rir, world_supply
from repro.analysis.windows import TimeWindow
from repro.engine.executor import ExecutionPolicy, Executor, exhausted_stage
from repro.engine.faults import (
    FaultInjector,
    SourceFaultSpec,
    apply_source_faults,
    parse_fault,
)
from repro.engine.stages import PipelineOptions
from repro.engine.store import LocalStore, open_store
from repro.integrity import POLICY_PRESETS, QuarantinePolicy
from repro.obs.ledger import RunLedger, absorb_engine_accounting
from repro.obs.observer import Observer
from repro.obs.reporting import render_run_diff, render_run_report
from repro.service import LedgerSchemaError
from repro.simnet.internet import SimulationConfig, SyntheticInternet
from repro.sources.base import TIME_HORIZON
from repro.stream import (
    DeltaJournal,
    JournalCorruptionError,
    StreamEstimator,
    journal_from_sources,
)


#: Size-suffix multipliers for ``--max-bytes`` (binary, case-insensitive).
_SIZE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}

#: Age-suffix multipliers for ``--max-age`` (seconds).
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def _parse_size(text: str) -> int:
    """``500M``/``2G``/plain bytes -> byte count."""
    raw = text.strip().lower()
    try:
        if raw and raw[-1] in _SIZE_SUFFIXES:
            return int(float(raw[:-1]) * _SIZE_SUFFIXES[raw[-1]])
        return int(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"size must look like 1048576, 500M or 2G, got {text!r}"
        ) from exc


def _parse_age(text: str) -> float:
    """``7d``/``12h``/``30m``/plain seconds -> seconds."""
    raw = text.strip().lower()
    try:
        if raw and raw[-1] in _AGE_SUFFIXES:
            return float(raw[:-1]) * _AGE_SUFFIXES[raw[-1]]
        return float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"age must look like 3600, 12h or 7d, got {text!r}"
        ) from exc


def _parse_window(text: str) -> TimeWindow:
    try:
        start_text, _, end_text = text.partition(":")
        return TimeWindow(float(start_text), float(end_text))
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"window must look like 2013.5:2014.5, got {text!r}"
        ) from exc


def _bounded(flag: str, convert: type, bound: str, consequence: str = ""):
    """An argparse type for ``flag``: an ``int`` (or a ``float`` of
    seconds) within ``bound`` (``">= N"`` or ``"> N"``), rejected at
    parse time otherwise; ``consequence`` says what an out-of-bound
    value would have done."""
    kind = "an integer" if convert is int else "a number of seconds"
    op, limit = bound.split()
    within = operator.ge if op == ">=" else operator.gt

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"{flag} must be {kind} {bound}, got {text!r}"
            ) from exc
        if not within(value, convert(limit)):
            raise argparse.ArgumentTypeError(
                f"{flag} must be {bound}, got {text}{consequence}"
            )
        return value

    return parse


_parse_workers = _bounded(
    "--workers", int, ">= 1",
    " (0 workers would mean an empty pool and no progress)",
)
_parse_retries = _bounded("--retries", int, ">= 0")
_parse_task_timeout = _bounded(
    "--task-timeout", float, "> 0", " (every task would exceed it and degrade)"
)


def _add_pipeline_flags(
    parser: argparse.ArgumentParser, *, defaults: bool = True
) -> None:
    """Declare the pipeline knobs on ``parser``.

    The main parser carries them with their real defaults.  The shared
    parent of the estimating subcommands carries them with
    ``defaults=False``: ``SUPPRESS`` then, so a flag given *before* the
    subcommand is not clobbered by the subparser's parse.
    """

    def add(flag: str, default, **kwargs) -> None:
        parser.add_argument(
            flag, default=default if defaults else argparse.SUPPRESS, **kwargs
        )

    add("--inject-faults", [], action="append", metavar="SPEC", type=parse_fault,
        help="deterministic fault injection, repeatable; SPEC is "
        "stage:kind[:index[:count[:seconds]]] with kind one of "
        "error/delay/kill/corrupt, e.g. window_result:kill:1 or "
        "crossval:delay:0:1:5 — or a source data fault "
        "source:NAME:kind[:amount[:start]] with kind one of "
        "drop/truncate/duplicate/skew/spoof, e.g. "
        "source:SWIN:spoof:200000:2013.5")
    add("--quarantine-policy", "default", choices=POLICY_PRESETS, metavar="PRESET",
        help="source-integrity preset judging each source per window "
        f"({', '.join(POLICY_PRESETS)}); quarantined sources are excluded "
        "and the window refit on the rest (default: default)")
    add("--trace", None, metavar="DIR",
        help="enable tracing and persist the run ledger (spans, metrics, "
        "events, provenance) to DIR; render it later with "
        "'repro report DIR'")
    add("--metrics-out", None, metavar="PATH",
        help="enable metrics and write the JSON metrics export to PATH "
        "after the run")
    add("--store", None, metavar="DIR",
        help="persistent artifact store directory: stage outputs "
        "(tabulations, fits, window results) are content-addressed and "
        "reused across runs and worker processes; a repeat run against "
        "a warm store skips recomputation wholesale")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Capture-recapture estimation of the used IPv4 space "
        "(IMC 2014 'Capturing Ghosts' reproduction)",
    )
    parser.add_argument("--scale-log2", type=int, default=-12,
                        help="log2 of the simulation scale (default -12)")
    parser.add_argument("--seed", type=int, default=20140630)
    parser.add_argument("--retries", type=_parse_retries, default=1,
                        help="extra attempts per stage/task before it is "
                        "degraded (default 1)")
    parser.add_argument("--task-timeout", type=_parse_task_timeout,
                        default=None,
                        metavar="SECONDS",
                        help="wall-clock timeout per pool task; a hung "
                        "task's pool is respawned and the task retried")
    _add_pipeline_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared parent for every command that fans work out: one canonical
    # ``--workers`` definition (help text included) instead of a copy
    # per subcommand, and widths below 1 are rejected at parse time.
    workers_parent = argparse.ArgumentParser(add_help=False)
    workers_parent.add_argument(
        "--workers", type=_parse_workers, default=1,
        help="worker-pool width for the parallel fan-out (>= 1; "
        "results are bit-identical whatever the width)")

    # The pipeline knobs, shared by every estimating subcommand so the
    # flags parse identically before or after the subcommand name.
    pipeline = argparse.ArgumentParser(add_help=False)
    _add_pipeline_flags(pipeline, defaults=False)

    sub.add_parser("simulate", help="build the synthetic Internet and "
                   "print its vitals")

    estimate = sub.add_parser("estimate", parents=[pipeline],
                              help="run the estimation "
                              "pipeline on one window")
    estimate.add_argument("--window", type=_parse_window,
                          default=TimeWindow(2013.5, 2014.5))

    windows = sub.add_parser(
        "windows",
        parents=[workers_parent, pipeline],
        help="sweep the 11 standard windows through the staged engine",
    )
    windows.add_argument("--report", action="store_true",
                         help="print the per-stage instrumentation table, "
                         "including fit-kernel counters (fits, warm-start "
                         "hits, IRLS iterations saved, Cholesky fallbacks)")

    health = sub.add_parser(
        "health",
        parents=[pipeline],
        help="per-source integrity verdicts and the pairwise "
        "agreement matrix for one window",
    )
    health.add_argument("--window", type=_parse_window,
                        default=TimeWindow(2013.5, 2014.5))

    crossval = sub.add_parser("crossval", parents=[pipeline],
                              help="leave-one-source-out cross-validation")
    crossval.add_argument("--window", type=_parse_window,
                          default=TimeWindow(2013.5, 2014.5))

    sub.add_parser("supply", parents=[pipeline],
                   help="Table 6 supply runout forecast")

    sensitivity = sub.add_parser(
        "sensitivity", parents=[pipeline],
        help="leave-one-source-out estimate leverage",
    )
    sensitivity.add_argument("--window", type=_parse_window,
                             default=TimeWindow(2013.5, 2014.5))

    churn = sub.add_parser(
        "churn", help="the Section 4.6 dynamic-address session experiment"
    )
    churn.add_argument("--clients", type=int, default=100_000)
    churn.add_argument("--days", type=int, default=16)

    files = sub.add_parser(
        "estimate-files",
        help="capture-recapture over YOUR datasets (one file per source)",
    )
    files.add_argument("paths", nargs="+",
                       help="dataset files (>= 2), one source each")
    files.add_argument("--fmt", choices=["list", "clf", "flow"],
                       default="list",
                       help="file format: address list, Apache CLF, "
                       "or flow CSV")
    files.add_argument("--limit", type=float, default=None,
                       help="optional population bound (routed size) for "
                       "truncated estimation")

    report = sub.add_parser(
        "report",
        help="render a persisted run ledger (written by --trace)",
    )
    report.add_argument("run_dir", help="run directory written by --trace")
    report.add_argument("--top", type=int, default=10,
                        help="how many slowest spans to show (default 10)")
    report.add_argument("--diff", metavar="OTHER_RUN_DIR", default=None,
                        help="diff this run against a baseline run ledger: "
                        "provenance drift, per-stage timing deltas, "
                        "cache/store efficiency and fit-kernel totals")

    store = sub.add_parser(
        "store",
        help="inspect and maintain a persistent artifact store directory",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_stats = store_sub.add_parser(
        "stats", help="entry counts, bytes and per-stage breakdown"
    )
    store_stats.add_argument("path", help="store directory (as in --store)")

    store_gc = store_sub.add_parser(
        "gc", help="reclaim space by age and/or total size (oldest first)"
    )
    store_gc.add_argument("path", help="store directory (as in --store)")
    store_gc.add_argument("--max-bytes", type=_parse_size, default=None,
                          metavar="SIZE",
                          help="keep the store under SIZE (e.g. 500M, 2G)")
    store_gc.add_argument("--max-age", type=_parse_age, default=None,
                          metavar="AGE",
                          help="drop entries unused for AGE (e.g. 7d, 12h)")

    store_verify = store_sub.add_parser(
        "verify", help="checksum-verify every current-schema entry"
    )
    store_verify.add_argument("path", help="store directory (as in --store)")
    store_verify.add_argument("--delete", action="store_true",
                              help="unlink entries that fail verification")

    # Shared parent for the campaign-service commands: every verb needs
    # the service directory holding per-campaign state + query ledgers.
    service_parent = argparse.ArgumentParser(add_help=False)
    service_parent.add_argument(
        "--service", metavar="DIR", default="campaigns",
        help="service directory holding campaign state and query "
        "ledgers (default: campaigns)")

    campaign = sub.add_parser(
        "campaign",
        help="estimation campaigns: submit once, poll status, fetch "
        "results (see also 'repro query')",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    submit = campaign_sub.add_parser(
        "submit", parents=[workers_parent, service_parent,
                           pipeline],
        help="submit a campaign (windows x sensitivity grid) and run "
        "it to completion through the task runner",
    )
    submit.add_argument("--window", action="append", type=_parse_window,
                        default=None, metavar="START:END",
                        help="campaign window, repeatable (default: the "
                        "11 standard windows)")
    submit.add_argument("--drop", action="append", default=[],
                        metavar="SOURCE",
                        help="sensitivity axis: also re-estimate every "
                        "window with SOURCE removed (repeatable)")

    campaign_status = campaign_sub.add_parser(
        "status", parents=[service_parent],
        help="per-task pending/running/done/degraded accounting",
    )
    campaign_status.add_argument("campaign_id")

    campaign_results = campaign_sub.add_parser(
        "results", parents=[service_parent],
        help="the completed campaign's window sweep and sensitivity grid",
    )
    campaign_results.add_argument("campaign_id")

    query = sub.add_parser(
        "query", parents=[service_parent],
        help="answer repeated queries (totals, growth, windows, "
        "sensitivity) from a campaign's query ledger — no refits",
    )
    query.add_argument("campaign_id", nargs="?", default=None,
                       help="campaign to query (default: the most "
                       "recently touched campaign in the service dir)")
    query.add_argument("--what", default="totals",
                       choices=("totals", "growth", "windows",
                                "sensitivity"),
                       help="which precomputed answer to serve "
                       "(default: totals)")

    # Shared parent for the stream verbs: every one tails a journal.
    journal_parent = argparse.ArgumentParser(add_help=False)
    journal_parent.add_argument(
        "--journal", metavar="DIR", required=True,
        help="observation-delta journal directory (append-only, "
        "checksummed JSONL segments)")

    stream = sub.add_parser(
        "stream",
        help="incremental estimation over an observation-delta journal "
        "(ingest the tail, close windows with warm refits, snapshot "
        "state for restart)",
    )
    stream_sub = stream.add_subparsers(dest="stream_command", required=True)

    stream_ingest = stream_sub.add_parser(
        "ingest", parents=[journal_parent, pipeline],
        help="apply the journal tail to the stream state (optionally "
        "writing the journal first from the simulated sources)",
    )
    stream_ingest.add_argument(
        "--simulate", action="store_true",
        help="first write the standard simulated sources into the "
        "journal, quarter by quarter (the journal must be empty)")
    stream_ingest.add_argument(
        "--through", type=float, default=TIME_HORIZON, metavar="YEAR",
        help="with --simulate, journal observations up to YEAR "
        f"(default {TIME_HORIZON})")
    stream_ingest.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="apply at most N journal records (the rest stay in the "
        "tail for the next ingest/advance)")

    stream_advance = stream_sub.add_parser(
        "advance", parents=[journal_parent, pipeline],
        help="ingest the tail, close every coverable standard window "
        "(re-closing ones invalidated by late events) and print the "
        "growth series",
    )
    stream_advance.add_argument(
        "--window", action="append", type=_parse_window, default=None,
        metavar="START:END",
        help="close this window instead of every coverable one "
        "(repeatable)")

    stream_sub.add_parser(
        "snapshot", parents=[journal_parent, pipeline],
        help="ingest the tail and persist the stream state into the "
        "artifact store (requires --store); a later command resumes "
        "from the snapshot plus the journal tail",
    )
    return parser


def _internet(args: argparse.Namespace) -> SyntheticInternet:
    return SyntheticInternet(
        SimulationConfig(scale=2.0**args.scale_log2, seed=args.seed)
    )


def _run_knobs(args: argparse.Namespace):
    """The knobs every estimating command runs under.

    Returns ``(options, policy, faults, observer, store)``; the
    stage-fault injector, observer and store are ``None`` where their
    flags are absent.  Opens the run ledger here, before the run is
    built, so it clocks the whole run.
    """
    policy = ExecutionPolicy(
        retries=args.retries, task_timeout=args.task_timeout
    )
    stage_specs = [
        s for s in args.inject_faults if not isinstance(s, SourceFaultSpec)
    ]
    faults = (
        FaultInjector(stage_specs, seed=args.seed) if stage_specs else None
    )
    options = PipelineOptions(
        quarantine=QuarantinePolicy.named(args.quarantine_policy),
    )
    observer = Observer() if (args.trace or args.metrics_out) else None
    store = (
        open_store(args.store, observer=observer, faults=faults)
        if args.store
        else None
    )
    if observer is not None and args.trace:
        args._obs_ledger = RunLedger(
            args.trace, seed=args.seed, options=options, policy=policy
        )
    return options, policy, faults, observer, store


def _sources(args: argparse.Namespace, internet: SyntheticInternet):
    """The standard source catalog, carrying any ``source:`` data faults."""
    from repro.sources.catalog import build_standard_sources

    sources = build_standard_sources(internet)
    source_specs = [
        s for s in args.inject_faults if isinstance(s, SourceFaultSpec)
    ]
    if not source_specs:
        return sources
    # Spoof injections draw from allocated space so they survive
    # routed-space preprocessing and actually stress the filter.
    return apply_source_faults(
        sources,
        source_specs,
        seed=args.seed,
        spoof_support=internet.registry.allocated_space(),
    )


def _executor(args: argparse.Namespace) -> Executor:
    """An executor under the CLI's knobs, over sources that carry any
    ``source:`` data faults."""
    options, policy, faults, observer, store = _run_knobs(args)
    internet = _internet(args)
    executor = Executor(
        internet, _sources(args, internet), options, policy=policy,
        faults=faults, observer=observer, cache=store,
    )
    args._obs_run = (executor.observer, executor.report, executor.cache)
    return executor


def _finalize_observability(args: argparse.Namespace) -> None:
    """Persist the run ledger and/or metrics export, if requested."""
    run = getattr(args, "_obs_run", None)
    if run is None or not (args.trace or args.metrics_out):
        return
    observer, report, cache = run
    ledger = getattr(args, "_obs_ledger", None)
    if ledger is not None:
        run_dir = ledger.finalize(observer, report=report, cache=cache)
        print(f"\nrun ledger written to {run_dir} "
              f"(render with: python -m repro report {run_dir})")
    else:
        absorb_engine_accounting(observer, report=report, cache=cache)
    if args.metrics_out:
        path = Path(args.metrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(observer.metrics.to_json_text() + "\n")
        print(f"metrics written to {path}")


def _print_fault_summary(report) -> None:
    """One line per degraded task, if the run was not clean."""
    degraded = report.degraded_records()
    if not degraded and not report.retry_count:
        return
    print(f"\nfault tolerance: {report.retry_count} retried attempt(s), "
          f"{len(degraded)} degraded task(s)")
    for rec in degraded:
        print(f"  degraded {rec.stage} {rec.key}: {rec.error}")


def cmd_simulate(args: argparse.Namespace) -> int:
    """Build the synthetic Internet and print its vitals."""
    internet = _internet(args)
    scale = internet.config.scale
    print(internet.describe())
    rows = []
    for start, end in [(2011.0, 2012.0), (2013.5, 2014.5)]:
        rows.append([
            f"{start:.2f}-{end:.2f}",
            internet.routed_size(start, end),
            internet.truth_used_addresses(start, end),
            internet.truth_used_subnets(start, end),
            f"{to_real(internet.truth_used_addresses(start, end), scale) / 1e6:.0f}",
        ])
    print(format_table(
        ["window", "routed", "used addrs", "used /24s", "real-equiv used[M]"],
        rows,
    ))
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    """Run the estimation pipeline on one window and print it."""
    executor = _executor(args)
    result = executor.window_result(args.window)
    scale = executor.internet.config.scale
    rows = [
        ["routed", result.routed_addresses, result.routed_subnets],
        ["pingable", result.ping_addresses, result.ping_subnets],
        ["observed", result.observed_addresses, result.observed_subnets],
        ["estimated", f"{result.estimated_addresses:.0f}",
         f"{result.estimated_subnets:.0f}"],
        ["truth", result.truth_addresses, result.truth_subnets],
    ]
    print(format_table(
        ["quantity", "addresses", "/24 subnets"],
        rows,
        title=f"window {args.window.label()} "
        f"(x{1 / scale:.0f} for real-equivalent)",
    ))
    print(f"\nest/ping {result.estimated_addresses / result.ping_addresses:.2f}"
          f"  est/obs {result.estimated_addresses / result.observed_addresses:.2f}")
    _print_integrity_summary(result)
    return 0


def _print_integrity_summary(result) -> None:
    """One line per integrity action taken on a window result."""
    health = result.health
    if health is None:
        return
    for name in result.excluded_sources:
        record = next(h for h in health.sources if h.source == name)
        print(f"quarantined {name}: {'; '.join(record.reasons)} "
              f"(estimate refit without it)")
    for name in health.suspect:
        record = next(h for h in health.sources if h.source == name)
        print(f"suspect {name}: {'; '.join(record.reasons)}")
    if result.suspect_bracket is not None:
        low, high = result.suspect_bracket
        print(f"suspect sensitivity bracket: [{low:.0f}, {high:.0f}]")
    for name, reason in health.dropped:
        print(f"dropped {name} for this window: {reason}")


def cmd_health(args: argparse.Namespace) -> int:
    """Print one window's per-source verdicts and agreement matrix."""
    report = _executor(args).window_health(args.window)

    def score(value: float) -> str:
        return "-" if math.isnan(value) else f"{value:.3f}"

    rows = [
        [
            h.source,
            f"{h.addresses}",
            score(h.bogon_fraction),
            score(h.capture_zscore),
            score(h.agreement_score),
            h.verdict,
            "; ".join(h.reasons),
        ]
        for h in report.sources
    ]
    print(format_table(
        ["source", "addresses", "bogon", "zscore", "agreement",
         "verdict", "reasons"],
        rows,
        title=f"source health, window {args.window.label()} "
        f"(policy: {args.quarantine_policy})",
    ))
    names = report.agreement_names
    if len(names):
        print("\npairwise Chapman agreement matrix (population estimates)")
        matrix_rows = [
            [a] + [
                "-" if math.isnan(report.agreement_matrix[i, j])
                else f"{report.agreement_matrix[i, j]:.3g}"
                for j in range(len(names))
            ]
            for i, a in enumerate(names)
        ]
        print(format_table([""] + list(names), matrix_rows))
    for name, reason in report.dropped:
        print(f"dropped {name} for this window: {reason}")
    return 0


def _print_sweep_table(series, scale: float, title: str) -> None:
    """The windows growth table — shared by ``windows`` and campaign
    ``results`` so a campaign renders byte-identically to the direct
    sweep it equals."""
    rows = [
        [label, f"{r:.0f}", f"{o:.0f}", f"{e:.0f}", f"{t:.0f}",
         f"{to_real(e, scale) / 1e6:.0f}"]
        for label, r, o, e, t in zip(
            series.labels, series.routed, series.observed,
            series.estimated, series.truth,
        )
    ]
    print(format_table(
        ["window", "routed", "observed", "estimated", "truth",
         "real-equiv est[M]"],
        rows,
        title=title,
    ))


def _print_growth_rate(series) -> None:
    if len(series.labels) >= 2:
        print(f"\nestimated growth/yr: "
              f"{series.growth_per_year('estimated'):.0f} addresses "
              f"(observed {series.growth_per_year('observed'):.0f})")


def _degraded_refit_line(label: str, quarantined, dropped) -> str:
    parts = []
    if quarantined:
        parts.append("quarantined " + ",".join(quarantined))
    if dropped:
        parts.append("dropped " + ",".join(dropped))
    return f"window {label}: refit degraded ({'; '.join(parts)})"


def _print_degraded_refits(results) -> None:
    """One :func:`_degraded_refit_line` per degraded window result."""
    for result in results:
        if result.is_degraded:
            print(_degraded_refit_line(
                result.window.label(),
                result.excluded_sources,
                [n for n, _ in result.health.dropped]
                if result.health is not None else [],
            ))


def cmd_windows(args: argparse.Namespace) -> int:
    """Sweep all standard windows through the engine and print them."""
    from repro.analysis.growth import series_from_results
    from repro.analysis.windows import missing_windows, standard_windows

    executor = _executor(args)
    windows = standard_windows()
    results = executor.run_windows(windows, workers=args.workers)
    if not results:
        print("every window degraded; no estimates produced",
              file=sys.stderr)
        _print_fault_summary(executor.report)
        return 1
    series = series_from_results(results)
    scale = executor.internet.config.scale
    _print_sweep_table(
        series, scale,
        title=f"standard window sweep ({args.workers} worker(s))",
    )
    for window in missing_windows(windows, results):
        print(f"window {window.label()}: degraded, no estimate")
    _print_degraded_refits(results)
    _print_growth_rate(series)
    _print_fault_summary(executor.report)
    if args.report:
        print()
        print(executor.report.summary())
    return 0


def cmd_crossval(args: argparse.Namespace) -> int:
    """Leave-one-source-out cross-validation for one window."""
    executor = _executor(args)
    rows = []
    for r in cross_validate_window(executor, args.window):
        rows.append([
            r.source,
            r.universe_size,
            r.observed_by_others,
            r.true_unseen,
            f"{r.estimated_unseen:.0f}",
            f"{r.error / max(r.universe_size, 1) * 100:+.1f}%",
        ])
    print(format_table(
        ["held-out", "size", "seen by rest", "true unseen", "est unseen",
         "error/size"],
        rows,
        title=f"cross-validation, window {args.window.label()}",
    ))
    _print_fault_summary(executor.report)
    return 0


def cmd_supply(args: argparse.Namespace) -> int:
    """Print the Table 6 runout forecast."""
    executor = _executor(args)
    scale = executor.internet.config.scale
    first = TimeWindow(2011.0, 2012.0)
    last = TimeWindow(2013.5, 2014.5)
    rows = supply_by_rir(executor, first, last)
    world = world_supply(rows, now=last.end)
    printable = [
        [
            r.label,
            f"{to_real(r.available, scale) / 1e6:.0f}",
            f"{to_real(r.growth_per_year, scale) / 1e6:.0f}",
            "never" if math.isinf(r.runout_year) else f"{r.runout_year:.0f}",
        ]
        for r in rows + [world]
    ]
    print(format_table(
        ["RIR", "available[M]", "growth[M/yr]", "runout"],
        printable,
        title="supply forecast (real-equivalent millions)",
    ))
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    """Print each source's leave-one-out leverage."""
    from repro.analysis.sensitivity import source_leverage_window

    executor = _executor(args)
    report = source_leverage_window(executor, args.window)
    rows = [
        [row.source, f"{row.estimate_without:.0f}", f"{row.shift:+.1%}"]
        for row in report.rows
    ]
    print(format_table(
        ["dropped source", "estimate without", "shift"],
        rows,
        title=f"baseline estimate {report.baseline:.0f} "
        f"({args.window.label()}); "
        f"robust: {report.is_robust()}",
    ))
    _print_fault_summary(executor.report)
    return 0


def cmd_churn(args: argparse.Namespace) -> int:
    """Run the Section 4.6 session-churn experiment."""
    import numpy as np

    from repro.simnet.dynamics import simulate_session_churn

    rng = np.random.default_rng(args.seed)
    obs = simulate_session_churn(
        rng, num_clients=args.clients, num_days=args.days
    )
    addr_factor, subnet_factor = obs.growth_after_saturation()
    rows = [
        [int(d), int(a), int(s)]
        for d, a, s in zip(obs.days, obs.distinct_addresses,
                           obs.distinct_subnets)
    ]
    print(format_table(["day", "distinct IPs", "distinct /24s"], rows))
    print(f"\npost-saturation growth: IPs {addr_factor:.2f}x, "
          f"/24s {subnet_factor:.2f}x (paper: 2.7x / 1.2x)")
    return 0


def cmd_estimate_files(args: argparse.Namespace) -> int:
    """Run capture-recapture over user-supplied dataset files."""
    from repro.core.estimator import CaptureRecapture, EstimatorOptions
    from repro.sources.logparse import load_dataset

    if len(args.paths) < 2:
        print("need at least two dataset files", file=sys.stderr)
        return 2
    datasets = {}
    rows = []
    for path in args.paths:
        name = Path(path).stem
        result = load_dataset(path, fmt=args.fmt)
        datasets[name] = result.dataset
        rows.append([
            name, len(result.dataset), result.lines_read,
            result.lines_skipped,
        ])
    print(format_table(
        ["source", "addresses", "lines", "skipped"], rows,
        title="parsed datasets",
    ))
    cr = CaptureRecapture(datasets, EstimatorOptions(limit=args.limit))
    estimate = cr.estimate()
    interval = cr.profile_interval(alpha=0.001)
    print(f"\nestimate: {estimate.describe()}")
    print(f"range:    [{interval.population_low:.0f}, "
          f"{interval.population_high:.0f}]")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a run ledger written by ``--trace`` (or diff two)."""
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"no run directory at {run_dir}", file=sys.stderr)
        return 2
    if args.diff is not None:
        other = Path(args.diff)
        if not other.is_dir():
            print(f"no run directory at {other}", file=sys.stderr)
            return 2
        print(render_run_diff(run_dir, other))
        return 0
    print(render_run_report(run_dir, top=args.top))
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Inspect or maintain a persistent artifact store directory."""
    path = Path(args.path)
    if args.store_command != "stats" and not path.is_dir():
        print(f"no store directory at {path}", file=sys.stderr)
        return 2
    store = LocalStore(path)
    if args.store_command == "stats":
        usage = store.usage()
        print(f"store: {path}")
        print(f"  entries: {usage['entries']}")
        print(f"  bytes:   {usage['bytes']}")
        for stage, count in sorted(usage["stages"].items()):
            print(f"  {stage:<14} {count}")
        return 0
    if args.store_command == "gc":
        summary = store.gc(max_bytes=args.max_bytes, max_age=args.max_age)
        print(f"store gc: {path}")
        print(f"  removed: {summary['removed']} entries "
              f"({summary['removed_bytes']} bytes), "
              f"{summary['tmp_removed']} stale temp file(s)")
        print(f"  kept:    {summary['kept']} entries "
              f"({summary['kept_bytes']} bytes)")
        return 0
    summary = store.verify(delete=args.delete)
    print(f"store verify: {path}")
    print(f"  checked: {summary['checked']}")
    print(f"  stale:   {summary['stale']} (older key schema; gc reclaims)")
    print(f"  corrupt: {summary['corrupt']}"
          + (" (deleted)" if args.delete and summary["corrupt"] else ""))
    for corrupt_path in summary["corrupt_paths"]:
        print(f"  corrupt entry: {corrupt_path}")
    return 0 if summary["corrupt"] == 0 else 1


def _scheduler(args: argparse.Namespace):
    """A read-side scheduler over the service directory (no simulator)."""
    from repro.service.scheduler import CampaignScheduler

    return CampaignScheduler(args.service)


def _print_campaign_status(status) -> None:
    print(status.summary())
    for state in ("pending", "running", "done", "degraded"):
        print(f"  {state:<9} {status.counts.get(state, 0)}")


def cmd_campaign(args: argparse.Namespace) -> int:
    """Dispatch the campaign service verbs (submit/status/results)."""
    if args.campaign_command == "submit":
        return _cmd_campaign_submit(args)
    from repro.service.queryledger import LEDGER_FILENAME

    scheduler = _scheduler(args)
    try:
        status = scheduler.status(args.campaign_id)
    except FileNotFoundError:
        print(f"no campaign {args.campaign_id} under {args.service}",
              file=sys.stderr)
        return 2
    if args.campaign_command == "status":
        _print_campaign_status(status)
        return 0
    # results
    if not status.finished:
        print(f"campaign {args.campaign_id} is {status.state}; results "
              "are published at completion", file=sys.stderr)
        return 1
    try:
        ledger = scheduler.ledger(args.campaign_id)
    except LedgerSchemaError as exc:
        print(f"cannot read campaign {args.campaign_id} ledger: {exc}",
              file=sys.stderr)
        return 2
    spec = ledger.spec()
    scale = 2.0 ** spec.scale_log2
    series = ledger.growth_series()
    _print_sweep_table(
        series, scale, title=f"campaign {args.campaign_id} window sweep"
    )
    for row in ledger.missing():
        if row.get("kind", "window") == "window":
            print(f"window {row['label']}: degraded, no estimate")
    for row in ledger.windows():
        if row["degraded"]:
            print(_degraded_refit_line(
                row["label"], row["excluded_sources"], row["dropped_sources"]
            ))
    _print_growth_rate(series)
    sensitivity = ledger.sensitivity()
    if sensitivity:
        print()
        _print_sensitivity_grid(sensitivity, title="sensitivity grid")
    ledger_path = scheduler.campaign_dir(args.campaign_id) / LEDGER_FILENAME
    print(f"\nquery ledger: {ledger_path} "
          f"(serve with: python -m repro query {args.campaign_id} "
          f"--service {args.service})")
    return 0


def _print_sensitivity_grid(rows, title: str) -> None:
    """A campaign's sensitivity grid, one row per (window, dropped source)."""
    print(format_table(
        ["window", "dropped source", "estimate without"],
        [[r["label"], r["source"], f"{r['estimate_without']:.0f}"]
         for r in rows],
        title=title,
    ))


def _cmd_campaign_submit(args: argparse.Namespace) -> int:
    """Submit a campaign and drain it through the executor's runner."""
    from repro.analysis.windows import standard_windows
    from repro.service.campaign import CampaignSpec
    from repro.service.scheduler import CampaignScheduler

    executor = _executor(args)
    windows = args.window if args.window else standard_windows()
    spec = CampaignSpec(
        windows=tuple((w.start, w.end) for w in windows),
        scale_log2=args.scale_log2,
        seed=args.seed,
        options=executor.options,
        drop_sources=tuple(args.drop),
    )
    scheduler = CampaignScheduler(args.service)
    campaign_id = scheduler.submit(spec)
    status = scheduler.status(campaign_id)
    if status.finished:
        print(f"campaign {campaign_id} already complete; "
              "status and results served from the existing ledger")
    else:
        status = scheduler.run(
            campaign_id, workers=args.workers, executor=executor
        )
    _print_campaign_status(status)
    print(f"\nresults: python -m repro campaign results {campaign_id} "
          f"--service {args.service}")
    return 0 if status.finished else 1


def cmd_query(args: argparse.Namespace) -> int:
    """Serve a precomputed answer from a campaign's query ledger."""
    from repro.core import fitkernel

    scheduler = _scheduler(args)
    campaign_id = args.campaign_id
    if campaign_id is None:
        known = scheduler.campaigns()
        if not known:
            print(f"no campaigns under {args.service}", file=sys.stderr)
            return 2
        campaign_id = known[0]
    try:
        ledger = scheduler.ledger(campaign_id)
    except FileNotFoundError:
        print(f"campaign {campaign_id} has no query ledger yet "
              f"(still running, or unknown under {args.service})",
              file=sys.stderr)
        return 2
    except LedgerSchemaError as exc:
        print(f"cannot read campaign {campaign_id} ledger: {exc}",
              file=sys.stderr)
        return 2
    spec = ledger.spec()
    scale = 2.0 ** spec.scale_log2
    if args.what == "totals":
        totals = ledger.totals()
        rows = [
            ["routed", f"{totals['routed_addresses']:.0f}"],
            ["observed", f"{totals['observed_addresses']:.0f}"],
            ["estimated", f"{totals['estimated_addresses']:.0f}"],
            ["estimated /24s", f"{totals['estimated_subnets']:.0f}"],
            ["truth", f"{totals['truth_addresses']:.0f}"],
            ["real-equiv est[M]",
             f"{to_real(totals['estimated_addresses'], scale) / 1e6:.0f}"],
        ]
        print(format_table(
            ["quantity", "addresses"], rows,
            title=f"totals, window {totals['window']} "
            f"(campaign {campaign_id})",
        ))
    elif args.what == "growth":
        growth = ledger.growth()
        rows = [
            [name, f"{value:.0f}",
             f"{to_real(value, scale) / 1e6:.1f}"]
            for name, value in growth.items()
        ]
        print(format_table(
            ["series", "growth/yr", "real-equiv[M/yr]"], rows,
            title=f"growth rates (campaign {campaign_id})",
        ))
    elif args.what == "windows":
        series = ledger.growth_series()
        _print_sweep_table(
            series, scale, title=f"campaign {campaign_id} window sweep"
        )
    else:  # sensitivity
        rows = ledger.sensitivity()
        if not rows:
            print("campaign requested no sensitivity grid", file=sys.stderr)
            return 1
        _print_sensitivity_grid(
            rows, title=f"sensitivity grid (campaign {campaign_id})"
        )
    fits = fitkernel.snapshot().fits
    print(f"\nserved from query ledger {ledger.path} "
          f"({fits:.0f} GLM fits this process)")
    return 0


def _stream(
    args: argparse.Namespace, internet: SyntheticInternet | None = None
) -> StreamEstimator:
    """A stream estimator resumed under the CLI's knobs.

    Shares :func:`_run_knobs` with :func:`_executor`, so a stream close
    computes exactly what the batch subcommands would.  ``internet`` is
    the simulated world when the caller has built it already.
    """
    options, policy, faults, observer, store = _run_knobs(args)
    stream = StreamEstimator.resume(
        internet if internet is not None else _internet(args),
        DeltaJournal(args.journal),
        options=options,
        policy=policy,
        store=store,
        observer=observer,
        faults=faults,
    )
    # No cache to account: a stream rebuilds its stage cache per data
    # version, and its store holds snapshots.
    args._obs_run = (stream.observer, stream.report, None)
    return stream


def _print_snapshot_line(stream: StreamEstimator) -> None:
    stream.snapshot()
    print(f"snapshot written (journal {stream.journal.journal_id}, "
          f"seq {stream.next_seq})")


def _cmd_stream_ingest(args: argparse.Namespace) -> int:
    """Apply the journal tail (optionally simulating the journal first)."""
    internet = None
    if args.simulate:
        internet = _internet(args)
        sources = _sources(args, internet)
        try:
            journal = journal_from_sources(
                sources, args.journal, through=args.through
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"journal {args.journal}: wrote {len(journal)} record(s) "
              f"from {len(sources)} simulated source(s)")
    stream = _stream(args, internet)
    applied = stream.ingest(limit=args.limit)
    remaining = len(stream.journal) - stream.next_seq
    print(f"ingested {applied} record(s) "
          f"(next seq {stream.next_seq}, {remaining} in tail)")
    end = stream.coverage_end()
    coverage = f"{end:.2f}" if end is not None else "none"
    print(f"sources: {len(stream.sources())}  coverage: through {coverage}"
          f"  closeable windows: {len(stream.closeable_windows())}")
    if stream.store is not None:
        _print_snapshot_line(stream)
    return 0


def _cmd_stream_advance(args: argparse.Namespace) -> int:
    """Ingest the tail, close every coverable window, print the series."""
    from repro.analysis.growth import series_from_results

    stream = _stream(args)
    results = stream.advance(args.window)
    if not results:
        print("journal covers no standard window yet; nothing to close",
              file=sys.stderr)
        return 1
    series = series_from_results(results)
    scale = stream.internet.config.scale
    _print_sweep_table(
        series, scale,
        title=f"stream window sweep (journal {stream.journal.journal_id})",
    )
    _print_degraded_refits(results)
    _print_growth_rate(series)
    for result in results:
        revision = stream.revision_of(result.window)
        if revision:
            print(f"window {result.window.label()}: revision {revision} "
                  "(late events absorbed)")
    _print_fault_summary(stream.report)
    if stream.store is not None:
        _print_snapshot_line(stream)
    return 0


def _cmd_stream_snapshot(args: argparse.Namespace) -> int:
    """Ingest the tail and persist the stream state into the store."""
    stream = _stream(args)
    if stream.store is None:
        print("stream snapshot requires --store DIR", file=sys.stderr)
        return 2
    stream.ingest()
    status = stream.describe()
    rows = [
        [name, meta["quarters"], meta["addresses"]]
        for name, meta in status["sources"].items()
    ]
    if rows:
        print(format_table(["source", "quarters", "addresses"], rows))
    print(f"closed windows: {len(status['closed_windows'])}  "
          f"stale: {len(status['stale_windows'])}")
    _print_snapshot_line(stream)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Dispatch the streaming verbs (ingest/advance/snapshot).

    Only ``ingest`` creates a journal: the read-only verbs refuse a
    path that holds none.  A journal that fails its checksums is
    reported in one line naming the record, not as a traceback.
    """
    if args.stream_command != "ingest" and not Path(args.journal).is_dir():
        print(f"no journal at {args.journal}", file=sys.stderr)
        return 2
    try:
        if args.stream_command == "ingest":
            return _cmd_stream_ingest(args)
        if args.stream_command == "advance":
            return _cmd_stream_advance(args)
        return _cmd_stream_snapshot(args)
    except JournalCorruptionError as exc:
        print(f"journal {args.journal}: {exc}", file=sys.stderr)
        return 1


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "windows": cmd_windows,
    "health": cmd_health,
    "crossval": cmd_crossval,
    "supply": cmd_supply,
    "sensitivity": cmd_sensitivity,
    "churn": cmd_churn,
    "estimate-files": cmd_estimate_files,
    "report": cmd_report,
    "store": cmd_store,
    "campaign": cmd_campaign,
    "query": cmd_query,
    "stream": cmd_stream,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch to the chosen command."""
    args = build_parser().parse_args(argv)
    try:
        try:
            code = COMMANDS[args.command](args)
        except Exception as exc:
            # A stage that failed after its retries ends the run with
            # one line; any other error keeps its traceback.
            stage = exhausted_stage(exc)
            if stage is None:
                raise
            print(f"stage {stage} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            code = 1
        finally:
            # A failed run keeps its ledger: it is the one to explain.
            _finalize_observability(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``repro report RUN | head``).  Point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
