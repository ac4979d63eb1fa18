"""Per-stage instrumentation for engine runs.

Every stage execution (or cache hit) appends one :class:`StageRecord`
to the run's :class:`RunReport`: wall time (inclusive, and exclusive of
the resolutions it made), cache hit/miss, input and
output artifact sizes, which worker produced it, and the fit-kernel
counter deltas (fits, IRLS iterations, warm-start/memo hits, Cholesky
fallbacks) the stage incurred.  Reports from process-pool workers are
merged back into the parent's report, so a parallel window sweep still
yields one complete account of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fitkernel import FitCounters


#: Terminal statuses a record can carry.  ``ok`` is a clean first-try
#: execution; ``retried`` succeeded after at least one failed attempt;
#: ``degraded`` exhausted its retries and was dropped from the run's
#: results (survivors carry the estimate); ``failed`` is a stage
#: resolution that raised to its caller after exhausting its retries,
#: or that passed up a dependency's exhausted failure.
TASK_STATUSES = ("ok", "retried", "degraded", "failed")


@dataclass(frozen=True)
class StageRecord:
    """One stage execution (or cache hit) inside a run."""

    stage: str
    key: str
    #: Wall seconds, inclusive of the nested resolutions it made.
    seconds: float
    cache_hit: bool
    #: Exclusive wall seconds: ``seconds`` minus the ``seconds`` of the
    #: resolutions this one made directly.  Summed over a run's records
    #: they give the wall time of its top-level resolutions.
    self_seconds: float = 0.0
    input_bytes: int = 0
    output_bytes: int = 0
    worker: str = "main"
    #: Which store tier served a cache hit ("memory" or "persistent");
    #: None for misses and for stores without tiers.
    tier: str | None = None
    #: Fit-kernel counter delta attributed to this execution (None when
    #: the stage ran no fits, e.g. cache hits and pure-IO stages).
    fit: FitCounters | None = None
    #: Fault-tolerance outcome (see :data:`TASK_STATUSES`).
    status: str = "ok"
    #: Total attempts made (1 for a clean execution).
    attempts: int = 1
    #: Last error message, for ``retried``/``degraded``/``failed``.
    error: str | None = None


@dataclass
class StageStats:
    """Aggregated view of one stage across a run."""

    stage: str
    calls: int = 0
    hits: int = 0
    misses: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    input_bytes: int = 0
    output_bytes: int = 0
    fit: FitCounters = field(default_factory=FitCounters)


@dataclass
class RunReport:
    """Structured record of everything an engine run did."""

    records: list[StageRecord] = field(default_factory=list)

    def record(self, rec: StageRecord) -> None:
        """Append one stage execution record."""
        self.records.append(rec)

    # -- aggregate views --------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.records if not r.cache_hit)

    def hit_tiers(self) -> dict[str, int]:
        """Cache hits per serving store tier (tier-less hits excluded)."""
        tiers: dict[str, int] = {}
        for r in self.records:
            if r.cache_hit and r.tier is not None:
                tiers[r.tier] = tiers.get(r.tier, 0) + 1
        return tiers

    # -- fault-tolerance views --------------------------------------------

    def degraded_records(self) -> list[StageRecord]:
        """Tasks that exhausted their retries and were dropped."""
        return [r for r in self.records if r.status == "degraded"]

    def retried_records(self) -> list[StageRecord]:
        """Tasks that succeeded only after at least one failed attempt."""
        return [r for r in self.records if r.status == "retried"]

    def failed_records(self) -> list[StageRecord]:
        """Stage resolutions that raised to their caller after their retries."""
        return [r for r in self.records if r.status == "failed"]

    @property
    def degraded_count(self) -> int:
        return len(self.degraded_records())

    @property
    def retry_count(self) -> int:
        """Total failed attempts behind this run's surviving results."""
        return sum(
            r.attempts - 1 for r in self.records if r.status == "retried"
        )

    def wall_time(self) -> float:
        """Seconds of the run's work, each counted once.

        The sum of every record's exclusive seconds: a nested
        resolution's seconds also sit in its caller's, so summing
        inclusive seconds would count them once per enclosing level.
        """
        return sum(r.self_seconds for r in self.records)

    def fit_totals(self) -> FitCounters:
        """Run-wide fit-kernel counters (sum of every record's delta)."""
        total = FitCounters()
        for r in self.records:
            if r.fit is not None:
                total = total + r.fit
        return total

    def by_stage(self) -> dict[str, StageStats]:
        """Per-stage aggregation in first-seen order."""
        stats: dict[str, StageStats] = {}
        for r in self.records:
            s = stats.setdefault(r.stage, StageStats(stage=r.stage))
            s.calls += 1
            if r.cache_hit:
                s.hits += 1
            else:
                s.misses += 1
            s.seconds += r.seconds
            s.self_seconds += r.self_seconds
            s.input_bytes += r.input_bytes
            s.output_bytes += r.output_bytes
            if r.fit is not None:
                s.fit = s.fit + r.fit
        return stats

    def to_dict(self) -> dict:
        """JSON-ready summary (used by the CLI and benches)."""
        out = {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            **(
                {"cache_hit_tiers": self.hit_tiers()}
                if self.hit_tiers()
                else {}
            ),
            "wall_time": self.wall_time(),
            "stages": {
                name: {
                    "calls": s.calls,
                    "hits": s.hits,
                    "misses": s.misses,
                    "seconds": round(s.seconds, 6),
                    "self_seconds": round(s.self_seconds, 6),
                    "input_bytes": s.input_bytes,
                    "output_bytes": s.output_bytes,
                    **({"fit_kernel": s.fit.as_dict()} if s.fit else {}),
                }
                for name, s in self.by_stage().items()
            },
        }
        totals = self.fit_totals()
        if totals:
            out["fit_kernel"] = totals.as_dict()
        degraded = self.degraded_records()
        failed = self.failed_records()
        if degraded or failed or self.retry_count:
            out["fault_tolerance"] = {
                "retries": self.retry_count,
                "degraded": [
                    {"stage": r.stage, "key": r.key, "error": r.error}
                    for r in degraded
                ],
                "failed": [
                    {"stage": r.stage, "key": r.key, "error": r.error}
                    for r in failed
                ],
            }
        return out

    def summary(self) -> str:
        """Printable per-stage table (plus fit-kernel counters, if any)."""
        header = f"{'stage':<14} {'calls':>5} {'hits':>5} {'miss':>5} " \
                 f"{'seconds':>9} {'self s':>9} {'out[MB]':>8}"
        lines = [header, "-" * len(header)]
        for name, s in self.by_stage().items():
            lines.append(
                f"{name:<14} {s.calls:>5} {s.hits:>5} {s.misses:>5} "
                f"{s.seconds:>9.3f} {s.self_seconds:>9.3f} "
                f"{s.output_bytes / 1e6:>8.2f}"
            )
        lines.append(
            f"total: {self.wall_time():.3f}s, "
            f"{self.cache_hits} hits / {self.cache_misses} misses"
        )
        degraded = self.degraded_records()
        if degraded or self.retry_count:
            lines.append(
                f"fault tolerance: {self.retry_count} retried attempt(s), "
                f"{len(degraded)} degraded task(s)"
            )
            for r in degraded:
                lines.append(f"  degraded {r.stage} {r.key}: {r.error}")
        totals = self.fit_totals()
        if totals:
            fit_header = (
                f"{'fit kernel':<14} {'fits':>6} {'irls':>6} {'pruned':>6} "
                f"{'saved':>6} {'warm':>6} {'memo':>6} {'chol-fb':>7} "
                f"{'nonconv':>7} {'boundary':>8}"
            )
            lines += [fit_header, "-" * len(fit_header)]
            for name, s in self.by_stage().items():
                if not s.fit:
                    continue
                f = s.fit
                lines.append(
                    f"{name:<14} {f.fits:>6} {f.irls_iterations:>6} "
                    f"{f.candidates_pruned:>6} {f.iterations_saved:>6} "
                    f"{f.warm_start_hits:>6} {f.memo_hits:>6} "
                    f"{f.cholesky_fallbacks:>7} {f.nonconverged:>7} "
                    f"{f.boundary:>8}"
                )
            lines.append(
                f"fit totals: {totals.fits} fits, "
                f"{totals.irls_iterations} IRLS iterations "
                f"({totals.iterations_saved} saved), "
                f"{totals.candidates_pruned} candidates pruned, "
                f"{totals.warm_start_hits} warm starts, "
                f"{totals.memo_hits} memo hits, "
                f"{totals.cholesky_fallbacks} Cholesky fallbacks, "
                f"{totals.nonconverged} not converged, "
                f"{totals.boundary} on a boundary"
            )
        return "\n".join(lines)
