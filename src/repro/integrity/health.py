"""Per-window source-health evaluation and its report objects.

:func:`evaluate_health` is the pure core of the engine's
``source_health`` stage: given a window's filtered datasets plus the
check inputs (empty calibration blocks, per-quarter capture-count
histories), it scores every source, applies a
:class:`~repro.integrity.policy.QuarantinePolicy` and returns a
picklable :class:`SourceHealthReport` that the executor caches like
any other stage artifact and :mod:`repro.obs.reporting` renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.integrity.checks import (
    agreement_scores,
    bogon_fraction,
    capture_count_zscore,
)
from repro.integrity.policy import (
    VERDICT_OK,
    VERDICT_QUARANTINED,
    VERDICT_SUSPECT,
    QuarantinePolicy,
)
from repro.ipspace.ipset import IPSet
from repro.ipspace.prefixes import Prefix


@dataclass(frozen=True)
class SourceHealth:
    """One source's scores and verdict for one window."""

    source: str
    addresses: int
    bogon_fraction: float
    capture_zscore: float
    agreement_score: float
    verdict: str = VERDICT_OK
    reasons: tuple[str, ...] = ()

    def scores(self) -> dict[str, float]:
        return {
            "bogon_fraction": self.bogon_fraction,
            "capture_zscore": self.capture_zscore,
            "agreement_score": self.agreement_score,
        }


@dataclass(frozen=True)
class SourceHealthReport:
    """Everything the integrity layer decided about one window.

    ``dropped`` lists sources that never reached health scoring
    because earlier stages emptied them — ``(name, reason)`` pairs
    such as ``("SPAM", "empty_after_preprocess")`` — so a sweep can
    account for every catalog source even when one yields nothing for
    a single window.
    """

    bounds: tuple[float, float]
    policy: QuarantinePolicy
    sources: tuple[SourceHealth, ...]
    agreement_names: tuple[str, ...] = ()
    agreement_matrix: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0))
    )
    dropped: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> tuple[str, ...]:
        return self._with_verdict(VERDICT_OK)

    @property
    def suspect(self) -> tuple[str, ...]:
        return self._with_verdict(VERDICT_SUSPECT)

    @property
    def quarantined(self) -> tuple[str, ...]:
        return self._with_verdict(VERDICT_QUARANTINED)

    @property
    def is_degraded(self) -> bool:
        """Whether the window's fit ran on fewer sources than observed."""
        return bool(self.quarantined or self.dropped)

    def verdict_of(self, name: str) -> str:
        for health in self.sources:
            if health.source == name:
                return health.verdict
        raise KeyError(f"no health record for source {name!r}")

    def _with_verdict(self, verdict: str) -> tuple[str, ...]:
        return tuple(
            h.source for h in self.sources if h.verdict == verdict
        )


def evaluate_health(
    datasets: Mapping[str, IPSet],
    *,
    policy: QuarantinePolicy,
    bounds: tuple[float, float] = (float("nan"), float("nan")),
    empty_blocks: Sequence[Prefix] = (),
    quarter_counts: Mapping[str, tuple[Sequence[int], Sequence[int]]]
    | None = None,
    previous: Mapping[str, IPSet] | None = None,
    dropped: tuple[tuple[str, str], ...] = (),
) -> SourceHealthReport:
    """Score every source and apply the quarantine policy.

    ``quarter_counts`` maps a source name to its ``(trailing, current)``
    per-quarter raw capture counts; sources absent from the mapping get
    a NaN z-score.  ``previous`` holds the same sources' datasets one
    window-length earlier — the baseline for the temporal agreement
    check (omit it and the check abstains).  Quarantining respects
    ``policy.min_sources``: when too many sources fail, only the worst
    offenders (by :meth:`QuarantinePolicy.severity`) are excluded and
    the rest are demoted to ``suspect``.
    """
    names, matrix, agreement = agreement_scores(datasets, previous)
    records: list[SourceHealth] = []
    for name in names:
        counts = (quarter_counts or {}).get(name)
        zscore = (
            capture_count_zscore(*counts) if counts is not None
            else float("nan")
        )
        scores = (
            bogon_fraction(datasets[name], empty_blocks),
            zscore,
            agreement.get(name, float("nan")),
        )
        verdict, reasons = policy.judge(*scores)
        records.append(
            SourceHealth(
                source=name,
                addresses=len(datasets[name]),
                bogon_fraction=scores[0],
                capture_zscore=scores[1],
                agreement_score=scores[2],
                verdict=verdict,
                reasons=reasons,
            )
        )
    records = _cap_quarantines(records, policy)
    return SourceHealthReport(
        bounds=bounds,
        policy=policy,
        sources=tuple(records),
        agreement_names=names,
        agreement_matrix=matrix,
        dropped=dropped,
    )


def _cap_quarantines(
    records: list[SourceHealth], policy: QuarantinePolicy
) -> list[SourceHealth]:
    """Demote the mildest quarantines to keep ``min_sources`` fitting."""
    quarantined = [r for r in records if r.verdict == VERDICT_QUARANTINED]
    allowed = max(0, len(records) - policy.min_sources)
    if len(quarantined) <= allowed:
        return records
    ranked = sorted(
        quarantined,
        key=lambda r: policy.severity(
            r.bogon_fraction, r.capture_zscore, r.agreement_score
        ),
        reverse=True,
    )
    keep = {r.source for r in ranked[:allowed]}
    out = []
    for record in records:
        if record.verdict == VERDICT_QUARANTINED and record.source not in keep:
            out.append(
                SourceHealth(
                    source=record.source,
                    addresses=record.addresses,
                    bogon_fraction=record.bogon_fraction,
                    capture_zscore=record.capture_zscore,
                    agreement_score=record.agreement_score,
                    verdict=VERDICT_SUSPECT,
                    reasons=record.reasons
                    + ("demoted: min_sources floor",),
                )
            )
        else:
            out.append(record)
    return out


def quarter_count_history(
    source,
    start: float,
    end: float,
    trailing_quarters: int = 6,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-quarter raw capture counts around a window, from any source.

    Returns ``(trailing, current)`` counts for
    :func:`~repro.integrity.checks.capture_count_zscore`.  Works
    against the plain :class:`~repro.sources.base.MeasurementSource`
    interface (one ``collect`` per quarter); quarters before the
    source's availability are skipped, so a source that just came
    online simply has a short (or empty) baseline.
    """
    from repro.sources.base import quarter_bounds, quarter_of

    lo = max(start, source.available_from)
    hi = min(end, source.available_to)
    if lo >= hi:
        return (), ()
    first = quarter_of(lo)
    last = quarter_of(hi - 1e-9)
    current = tuple(
        len(source.collect(*quarter_bounds(q)))
        for q in range(first, last + 1)
    )
    trailing = []
    for q in range(first - trailing_quarters, first):
        q_start, q_end = quarter_bounds(q)
        if q_end <= source.available_from:
            continue
        trailing.append(len(source.collect(q_start, q_end)))
    return tuple(trailing), tuple(current)
