"""The named stages of the estimation dataflow.

Each stage is a pure function of the :class:`Executor` (its simulated
Internet, measurement sources and frozen :class:`PipelineOptions`)
plus its parameters — a window, and for the estimation stages a
granularity level.  Stages fetch their upstream dependencies through
``executor.run``, so every intermediate value flows through the
executor's artifact cache:

``collect → preprocess → spoof_filter → tabulate → fit → estimate``

with ``source_health`` branching off the filtered datasets (per-source
integrity verdicts under the options' quarantine policy),
``stratified`` fitting the Table 5 strata, ``sensitivity`` and
``crossval`` fitting the leave-one-source-out drops (Figure 2) and
folds (Table 3, Figure 3), and ``window_result`` as the composite that
assembles the paper's per-window report from the stage artifacts.
Every window estimate is fitted on
:meth:`~repro.engine.executor.Executor.analysis_datasets`: the window's
datasets without its quarantined sources.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Hashable, TYPE_CHECKING

from repro.core.estimator import leave_one_out_estimates
from repro.core.histories import ContingencyTable, tabulate_histories
from repro.core.loglinear import PopulationEstimate
from repro.core.selection import ModelSelection, select_models_batched
from repro.core.stratified import StratifiedEstimate, stratified_estimate
from repro.filtering.preprocess import preprocess_dataset
from repro.filtering.spoof_filter import SpoofFilter, detect_empty_blocks
from repro.integrity.health import (
    SourceHealthReport,
    evaluate_health,
    quarter_count_history,
)
from repro.integrity.policy import QuarantinePolicy
from repro.ipspace.ipset import IPSet

if TYPE_CHECKING:
    # Engine modules must not import the analysis package at runtime:
    # repro.analysis.__init__ imports modules that import the engine.
    from repro.analysis.crossval import CrossValidationResult
    from repro.analysis.windows import TimeWindow
    from repro.engine.executor import Executor

#: Sources the paper treats as spoof-free references for the filter.
SPOOF_FREE_REFERENCES = ("WIKI", "WEB", "MLAB", "GAME")
#: Sources that need spoof filtering.
NETFLOW_SOURCES = ("SWIN", "CALT")


@dataclass(frozen=True)
class PipelineOptions:
    """Pipeline-wide configuration (paper defaults).

    Frozen and hashable: the options participate in every artifact key,
    so two runs with different options can never share cache entries.
    """

    criterion: str = "bic"
    divisor: int | str = "adaptive1000"
    distribution: str = "truncated"
    max_order: int = 2
    spoof_filtering: bool = True
    exclude_sources: tuple[str, ...] = ()
    min_stratum_observed: int = 30
    seed: int = 77
    #: Source-integrity policy: health scoring plus quarantine/refit.
    #: Nested frozen dataclasses digest cleanly into artifact keys, so
    #: runs under different policies never share cache entries.
    quarantine: QuarantinePolicy = QuarantinePolicy()


@dataclass
class WindowResult:
    """Everything the paper reports about one observation window.

    The window's datasets are not part of it: they are the
    ``spoof_filter`` (or ``preprocess``) artifact, which
    :meth:`~repro.engine.executor.Executor.datasets` resolves.  A result
    pickles to a few kilobytes, so a cached window costs what it reports.
    """

    window: TimeWindow
    routed_addresses: int
    routed_subnets: int
    observed_addresses: int
    observed_subnets: int
    ping_addresses: int
    ping_subnets: int
    estimate_addresses: PopulationEstimate
    estimate_subnets: PopulationEstimate
    truth_addresses: int
    truth_subnets: int
    #: Integrity verdicts for the window (None when the policy is off).
    health: SourceHealthReport | None = None
    #: Sources the estimates were refit without (quarantined).
    excluded_sources: tuple[str, ...] = ()
    #: Address-estimate range with vs without the suspect sources
    #: (min, max); None when no source is suspect.
    suspect_bracket: tuple[float, float] | None = None

    @property
    def estimated_addresses(self) -> float:
        return self.estimate_addresses.population

    @property
    def estimated_subnets(self) -> float:
        return self.estimate_subnets.population

    @property
    def is_degraded(self) -> bool:
        """Whether the fit ran on fewer sources than were collected."""
        if self.excluded_sources:
            return True
        return self.health is not None and bool(self.health.dropped)


def spoof_filter_seed(base_seed: int, source_name: str) -> int:
    """Deterministic per-source filter seed.

    Derived via ``zlib.crc32`` rather than ``hash()`` so the seed does
    not depend on ``PYTHONHASHSEED`` — pool workers and fresh
    interpreters must draw identical filter randomness for parallel
    runs to be bit-identical to serial ones.
    """
    return base_seed + zlib.crc32(source_name.encode("utf-8")) % 1000


# -- stage functions --------------------------------------------------------


def _collect(ex: Executor, window: TimeWindow) -> dict[str, IPSet]:
    """Per-source raw collections for the window (available only)."""
    return {
        name: source.collect(window.start, window.end)
        for name, source in ex.sources.items()
        if source.available_in(window.start, window.end)
    }


def _preprocess(ex: Executor, window: TimeWindow) -> dict[str, IPSet]:
    """Restrict raw collections to routed space; drop emptied sources."""
    raw = ex.run("collect", window)
    routed = ex.internet.routing.window(window.start, window.end)
    processed = {
        name: preprocess_dataset(dataset, routed).dataset
        for name, dataset in raw.items()
    }
    # A source whose window data preprocesses to nothing carries no
    # capture information and only degrades the model (all-zero
    # margins); treat it as unavailable.
    return {name: d for name, d in processed.items() if len(d)}


def _spoof_filter(ex: Executor, window: TimeWindow) -> dict[str, IPSet]:
    """Spoof-filter the NetFlow datasets against the spoof-free union."""
    datasets = ex.run("preprocess", window)
    refs = [datasets[name] for name in SPOOF_FREE_REFERENCES if name in datasets]
    suspects = [name for name in NETFLOW_SOURCES if name in datasets]
    if not refs or not suspects:
        return datasets
    reference = refs[0].union(*refs[1:])
    routed = ex.internet.routing.window(window.start, window.end)
    candidates = [
        a.prefix for a in ex.internet.registry if a.routed_from < window.end
    ]
    # Detect the calibration blocks from the union of suspects:
    # spoofs from every NetFlow vantage light up the same dark
    # space, and pooling them makes detection robust at small scale.
    suspect_union = datasets[suspects[0]].union(
        *(datasets[name] for name in suspects[1:])
    )
    empty = detect_empty_blocks(suspect_union, reference, candidates)
    if not empty:
        return datasets
    result = dict(datasets)
    for name in suspects:
        spoof_filter = SpoofFilter(
            reference,
            routed,
            empty,
            seed=spoof_filter_seed(ex.options.seed, name),
        )
        result[name] = spoof_filter.apply(datasets[name]).filtered
    # A dataset the filter emptied carries no capture information for
    # this window; drop it here (per window) like _preprocess does, so
    # tabulate never sees a degenerate all-zero column.  The health
    # stage records the drop and its reason.
    return {name: d for name, d in result.items() if len(d)}


def _at_level(datasets: dict[str, IPSet], level: str) -> dict[str, IPSet]:
    """``datasets`` at a granularity level: as they are, or as /24s."""
    if level == "addresses":
        return datasets
    if level == "subnets":
        return {name: d.subnets24() for name, d in datasets.items()}
    raise ValueError(f"level must be 'addresses' or 'subnets', got {level!r}")


def _level_limit(ex: Executor, window: TimeWindow, level: str) -> float:
    routing = ex.internet.routing
    if level == "addresses":
        return float(routing.size(window.start, window.end))
    return float(routing.subnet24_count(window.start, window.end))


def _exclude_kw(exclude: tuple[str, ...]) -> dict[str, Any]:
    """Param dict threading an exclusion set through cache keys.

    Empty exclusions are omitted entirely so the keys of an
    integrity-clean run are byte-identical to a pre-integrity run —
    ``exclude=()`` and "no exclude param" must not cache separately.
    """
    return {"exclude": exclude} if exclude else {}


def _tabulate(
    ex: Executor,
    window: TimeWindow,
    level: str = "addresses",
    exclude: tuple[str, ...] = (),
) -> ContingencyTable:
    """Capture-history contingency table at the requested granularity."""
    datasets = _at_level(ex.datasets(window), level)
    if exclude:
        datasets = {n: d for n, d in datasets.items() if n not in exclude}
    if len(datasets) < 2:
        raise ValueError(
            f"cannot tabulate {len(datasets)} source(s) for window "
            f"{window.start:.2f}-{window.end:.2f} "
            f"(excluded: {sorted(exclude)})"
        )
    return tabulate_histories(datasets)


#: The granularity levels a window is fitted at, in batch-plan order.
FIT_LEVELS = ("addresses", "subnets")


def _fit_distribution(opts: PipelineOptions, limit: float | None) -> str:
    if opts.distribution == "auto":
        return "truncated" if limit is not None else "poisson"
    return opts.distribution


def _fit(
    ex: Executor,
    window: TimeWindow,
    level: str = "addresses",
    exclude: tuple[str, ...] = (),
) -> ModelSelection:
    """Model selection and fit on the window's table.

    Reads the window's ``fit_batch`` artifact: both levels' stepwise
    searches run as one batched plan, and the second level's fit is a
    cache hit on the same artifact.
    """
    batch = ex.run("fit_batch", window, **_exclude_kw(exclude))
    return batch[level]


def _fit_batch(
    ex: Executor,
    window: TimeWindow,
    exclude: tuple[str, ...] = (),
) -> dict[str, ModelSelection]:
    """Batched model selection across the window's granularity levels.

    Collects the window's contingency tables at every level (both levels
    share a window, so their candidate designs share shapes) and runs
    one round-synchronised batched stepwise search over all of them.
    The artifact is a ``level -> selection`` mapping, content-addressed
    like any other stage output.
    """
    opts = ex.options
    tables = []
    distributions = []
    limits: list[float | None] = []
    for level in FIT_LEVELS:
        table = ex.run("tabulate", window, level=level, **_exclude_kw(exclude))
        limit = _level_limit(ex, window, level)
        tables.append(table)
        distributions.append(_fit_distribution(opts, limit))
        limits.append(limit)
    selections = select_models_batched(
        tables,
        criterion=opts.criterion,
        divisor=opts.divisor,
        max_order=opts.max_order,
        distributions=distributions,
        limits=limits,
    )
    return dict(zip(FIT_LEVELS, selections))


def _estimate(
    ex: Executor,
    window: TimeWindow,
    level: str = "addresses",
    exclude: tuple[str, ...] = (),
) -> PopulationEstimate:
    """Point estimate of the population at the requested granularity."""
    selection = ex.run("fit", window, level=level, **_exclude_kw(exclude))
    return selection.fit.estimate()


def _stratified(
    ex: Executor, window: TimeWindow, kind: str, level: str
) -> StratifiedEstimate:
    """Per-stratum estimates of the window's analysis datasets, summed.

    Each stratum is truncated at its routed size at ``level``, a
    dynamic stratum at the whole window's; every stratum's stepwise
    search runs in one batched plan.
    """
    if kind == "dynamic":
        labeler = ex.internet.population.dynamic_labeler()
        # No per-stratum sizes: both strata take the whole total.
        sizes: dict[Hashable, float] = {}
        total = _level_limit(ex, window, level)
    else:
        labeler = ex.internet.registry.labeler(kind)
        sizes = ex.internet.routing.stratum_sizes(
            window.start, window.end, kind, level == "subnets"
        )
        total = sum(sizes.values())
    opts = ex.options
    return stratified_estimate(
        _at_level(ex.analysis_datasets(window), level),
        labeler,
        min_observed=opts.min_stratum_observed,
        criterion=opts.criterion,
        divisor=opts.divisor,
        distribution=_fit_distribution(opts, total),
        limit_per_stratum=lambda label: sizes.get(label, total),
        max_order=opts.max_order,
    )


def _sensitivity(ex: Executor, window: TimeWindow) -> dict[str, PopulationEstimate]:
    """The window's address estimate with each analysis source left out.

    Every drop is truncated at the window's routed size, and all their
    stepwise searches run in one batched plan.
    """
    opts = ex.options
    limit = _level_limit(ex, window, "addresses")
    return leave_one_out_estimates(
        ex.analysis_datasets(window),
        criterion=opts.criterion,
        divisor=opts.divisor,
        distribution=_fit_distribution(opts, limit),
        limit=limit,
        max_order=opts.max_order,
    )


def _crossval(ex: Executor, window: TimeWindow) -> list[CrossValidationResult]:
    """Every leave-one-source-out fold of the window's analysis datasets.

    All the folds' stepwise searches run in one batched plan.
    """
    from repro.analysis.crossval import cross_validate_all

    opts = ex.options
    return cross_validate_all(
        ex.analysis_datasets(window),
        criterion=opts.criterion,
        divisor=opts.divisor,
        max_order=opts.max_order,
    )


def _source_health(ex: Executor, window: TimeWindow) -> SourceHealthReport:
    """Score every source's health for the window and apply the policy.

    Pure observables only: the checks see the filtered datasets, the
    spoof-free references and raw capture counts — never simulation
    ground truth.  The verdicts are emitted as ``source_health``
    metrics and ``integrity.*`` events at compute time (cache hits do
    not re-emit, matching the fit-counter convention).
    """
    policy = ex.options.quarantine
    raw = ex.run("collect", window)
    pre = ex.run("preprocess", window)
    datasets = ex.datasets(window)
    dropped = tuple(
        (
            name,
            "empty_after_preprocess"
            if name not in pre
            else "empty_after_spoof_filter",
        )
        for name in raw
        if name not in datasets
    )
    # Empty calibration blocks for the bogon check, detected against
    # the *post-filter* datasets: residue the spoof filter missed (or
    # injected poison in an unfiltered source) lights these up, while
    # the NetFlow sources' by-design pre-filter spoofing does not.
    empty = []
    refs = [datasets[n] for n in SPOOF_FREE_REFERENCES if n in datasets]
    others = [
        d for n, d in datasets.items() if n not in SPOOF_FREE_REFERENCES
    ]
    if refs and others:
        reference = refs[0].union(*refs[1:])
        candidates = [
            a.prefix for a in ex.internet.registry
            if a.routed_from < window.end
        ]
        empty = detect_empty_blocks(
            others[0].union(*others[1:]), reference, candidates
        )
    quarter_counts = {
        name: quarter_count_history(
            ex.sources[name], window.start, window.end
        )
        for name in datasets
        if name in ex.sources
    }
    # Temporal-agreement baseline: the same filtered datasets one
    # window-length back.  Only sources whose availability covers the
    # whole previous window participate (a source still ramping in
    # would look like a fault); with fewer than four such sources the
    # check abstains, so early windows never run the prior-window
    # pipeline at all.
    duration = window.end - window.start
    prev_start, prev_end = window.start - duration, window.end - duration
    eligible = {
        name
        for name in datasets
        if name in ex.sources
        and ex.sources[name].available_from <= prev_start + 1e-9
        and ex.sources[name].available_to >= prev_end - 1e-9
    }
    previous = None
    if len(eligible) >= 4:
        prev_window = type(window)(prev_start, prev_end)
        previous = {
            name: data
            for name, data in ex.datasets(prev_window).items()
            if name in eligible
        }
    report = evaluate_health(
        datasets,
        policy=policy,
        bounds=(window.start, window.end),
        empty_blocks=empty,
        quarter_counts=quarter_counts,
        previous=previous,
        dropped=dropped,
    )
    _emit_health(ex, window, report)
    return report


def _emit_health(
    ex: Executor, window: TimeWindow, report: SourceHealthReport
) -> None:
    obs = ex.observer
    label = f"{window.start:.2f}-{window.end:.2f}"
    for health in report.sources:
        obs.inc(
            "source_health_verdicts_total",
            source=health.source,
            verdict=health.verdict,
        )
        if health.verdict == "quarantined":
            obs.inc("source_quarantined_total", source=health.source)
            obs.event(
                "integrity.quarantine",
                level="warning",
                source=health.source,
                window=label,
                reasons="; ".join(health.reasons),
            )
        elif health.verdict == "suspect":
            obs.event(
                "integrity.suspect",
                level="info",
                source=health.source,
                window=label,
                reasons="; ".join(health.reasons),
            )
    for name, reason in report.dropped:
        obs.inc("source_dropped_total", source=name, reason=reason)
        obs.event(
            "integrity.source_dropped",
            level="warning",
            source=name,
            window=label,
            reason=reason,
        )


def _analysis_view(
    ex: Executor, window: TimeWindow
) -> tuple[dict[str, IPSet], SourceHealthReport | None]:
    """The one rule that drops a window's quarantined sources.

    Returns :meth:`~repro.engine.executor.Executor.analysis_datasets`
    plus the health report that judged them (``None`` with the policy
    off or fewer than two sources), so the window result resolves each
    once.
    """
    datasets = ex.datasets(window)
    if not ex.options.quarantine.enabled or len(datasets) < 2:
        return datasets, None
    health = ex.run("source_health", window)
    kept = {n: d for n, d in datasets.items() if n not in health.quarantined}
    return kept, health


def _window_result(ex: Executor, window: TimeWindow) -> WindowResult:
    """Full observed/estimated/truth bundle for one window.

    With the quarantine policy enabled this is where detection turns
    into graceful degradation: quarantined sources are excluded and the
    estimates refit on the remaining ones (a degraded-but-valid
    result), while suspect sources produce a with/without sensitivity
    bracket alongside the headline estimate.
    """
    kept, health = _analysis_view(ex, window)
    excluded: tuple[str, ...] = ()
    suspects: tuple[str, ...] = ()
    if health is not None:
        excluded = tuple(sorted(health.quarantined))
        suspects = health.suspect
    estimate_addresses = ex.run(
        "estimate", window, level="addresses", **_exclude_kw(excluded)
    )
    estimate_subnets = ex.run(
        "estimate", window, level="subnets", **_exclude_kw(excluded)
    )
    suspect_bracket = None
    if suspects and len(kept) - len(suspects) >= 2:
        without = tuple(sorted(set(excluded) | set(suspects)))
        alternative = ex.run(
            "estimate", window, level="addresses", exclude=without
        )
        pair = (estimate_addresses.population, alternative.population)
        suspect_bracket = (min(pair), max(pair))
    union = IPSet.empty().union(*kept.values())
    ping = kept.get("IPING", IPSet.empty())
    internet = ex.internet
    return WindowResult(
        window=window,
        routed_addresses=internet.routing.size(window.start, window.end),
        routed_subnets=internet.routing.subnet24_count(window.start, window.end),
        observed_addresses=len(union),
        observed_subnets=len(union.subnets24()),
        ping_addresses=len(ping),
        ping_subnets=len(ping.subnets24()),
        estimate_addresses=estimate_addresses,
        estimate_subnets=estimate_subnets,
        truth_addresses=internet.truth_used_addresses(window.start, window.end),
        truth_subnets=internet.truth_used_subnets(window.start, window.end),
        health=health,
        excluded_sources=excluded,
        suspect_bracket=suspect_bracket,
    )


@dataclass(frozen=True)
class Stage:
    """A named node of the dataflow graph; its edges are the
    ``executor.run`` calls the stage function makes."""

    name: str
    fn: Callable[..., Any]
    #: Whether the artifact is worth keeping beyond the run (heavy
    #: intermediates are; the cheap composites are too, they are small).
    #: A non-cacheable stage still memoises within the run's memory
    #: tier but never lands in the persistent store.
    cacheable: bool = True


#: The dataflow graph, in topological order.
STAGES: dict[str, Stage] = {
    s.name: s
    for s in (
        Stage("collect", _collect),
        Stage("preprocess", _preprocess),
        Stage("spoof_filter", _spoof_filter),
        Stage("source_health", _source_health),
        Stage("tabulate", _tabulate),
        # The batch plan stays memory-only: its per-level selections are
        # the `fit` stage's artifacts, which do persist — double-storing
        # them would let a stale plan mask a deliberately evicted fit.
        Stage("fit_batch", _fit_batch, cacheable=False),
        Stage("fit", _fit),
        Stage("estimate", _estimate),
        Stage("stratified", _stratified),
        Stage("sensitivity", _sensitivity),
        Stage("crossval", _crossval),
        Stage("window_result", _window_result),
    )
}
