"""Model selection for log-linear CR models (the paper's Section 3.3.2).

Selection picks which interaction parameters ``u_h`` are freed.  We
search hierarchical models by forward stepwise addition of interaction
terms starting from the independence model, scoring candidates by an
information criterion (AIC or BIC) computed on *divided* counts — the
paper's heuristic for the Poisson likelihood overstating the effective
sample size: all ``z_s`` are integer-divided by ``d`` before computing
``L``, with ``d`` either fixed or adaptive ("start at 1000, halve until
``d`` is smaller than the smallest positive ``z_s``").

The final choice applies the paper's parsimony rule: take the simplest
model ``m`` on the search path such that no other visited model ``n``
has ``IC_n < IC_m - 7``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence
import numpy as np

from repro.core import fitkernel
from repro.core.design import main_effect_terms, term_key, term_order
from repro.core.glm import Candidates, GlmFit, Race, fit_poisson_batch
from repro.core.histories import ContingencyTable
from repro.core.loglinear import FittedLoglinear, LoglinearModel

#: The parsimony margin of the "simplest within 7 IC units" rule [21].
IC_MARGIN = 7.0


def information_criterion(
    loglik: float, num_params: int, num_observed: int, kind: str = "aic"
) -> float:
    """AIC or BIC as defined in the paper (M = observed individuals)."""
    if kind == "aic":
        return 2.0 * num_params - 2.0 * loglik
    if kind == "bic":
        return float(np.log(max(num_observed, 1)) * num_params - 2.0 * loglik)
    raise ValueError(f"unknown information criterion: {kind!r}")


def adaptive_divisor(table: ContingencyTable, maximum: int = 1000) -> int:
    """The paper's adaptive ``d``: halve from ``maximum`` until below
    the smallest positive cell count (never below 1)."""
    if maximum < 1:
        raise ValueError(f"maximum divisor must be >= 1, got {maximum}")
    floor = table.positive_minimum()
    if floor <= 1:
        return 1
    divisor = maximum
    while divisor >= floor and divisor > 1:
        divisor //= 2
    return max(divisor, 1)


def resolve_divisor(table: ContingencyTable, divisor: int | str) -> int:
    """Interpret a divisor setting: an int, or ``"adaptive"``/``"adaptiveN"``."""
    if isinstance(divisor, int):
        if divisor < 1:
            raise ValueError(f"divisor must be >= 1, got {divisor}")
        return divisor
    if isinstance(divisor, str) and divisor.startswith("adaptive"):
        suffix = divisor[len("adaptive"):]
        maximum = int(suffix) if suffix else 1000
        return adaptive_divisor(table, maximum)
    raise ValueError(f"unknown divisor setting: {divisor!r}")


@dataclass(frozen=True)
class CandidateScore:
    """One model visited during the stepwise search."""

    terms: frozenset
    ic: float
    loglik: float
    num_params: int


@dataclass
class ModelSelection:
    """Outcome of :func:`select_model`.

    ``fit`` is the chosen model refitted on the *unscaled* table (the
    fit used for estimation); ``path`` records every model accepted
    during the search with its selection-time IC, and ``selected_ic``
    is the chosen model's IC on the divided counts.
    """

    fit: FittedLoglinear
    divisor: int
    criterion: str
    selected_ic: float
    path: list[CandidateScore] = field(default_factory=list)

    @property
    def terms(self) -> frozenset:
        return self.fit.terms


def _candidate_terms(
    num_sources: int, current: frozenset, max_order: int
) -> list[frozenset]:
    """Hierarchically addable terms (every subset already present), in
    the order :func:`~repro.core.design.term_order` gives them."""
    candidates = []
    for order in range(2, min(max_order, num_sources - 1) + 1):
        for combo in combinations(range(num_sources), order):
            term = frozenset(combo)
            if term in current:
                continue
            subsets_present = all(
                frozenset(sub) in current
                for size in range(1, order)
                for sub in combinations(combo, size)
            )
            if subsets_present:
                candidates.append(term)
    return candidates


def _next_candidates(
    candidates: list[frozenset],
    accepted: frozenset,
    current: frozenset,
    num_sources: int,
    max_order: int,
) -> list[frozenset]:
    """:func:`_candidate_terms` of ``current`` after ``accepted`` joined
    it, derived from the previous round's ``candidates``.

    Only terms containing ``accepted`` can have gained their last
    missing subset, and only those one source larger: a term qualifies
    once every subset one smaller is present (``current`` is
    hierarchical).  The list keeps :func:`_candidate_terms`' order.
    """
    kept = [term for term in candidates if term != accepted]
    if len(accepted) + 1 > min(max_order, num_sources - 1):
        return kept
    unlocked = []
    for source in range(num_sources):
        term = accepted | {source}
        if source not in accepted and all(term - {m} in current for m in term):
            unlocked.append(term)
    return sorted(kept + unlocked, key=term_key) if unlocked else kept


def _score(fitted: FittedLoglinear, criterion: str) -> CandidateScore:
    ic = information_criterion(
        fitted.loglik, fitted.num_params, fitted.table.num_observed, criterion
    )
    return CandidateScore(
        terms=fitted.terms,
        ic=ic,
        loglik=fitted.loglik,
        num_params=fitted.num_params,
    )


def _resolve_scaled(
    table: ContingencyTable, divisor: int | str
) -> tuple[ContingencyTable, int]:
    """Resolve the divisor and produce the scaled search table."""
    resolved = resolve_divisor(table, divisor)
    scaled = table.scaled(resolved)
    if scaled.num_observed == 0:
        # All counts rounded away: fall back to the raw table, matching
        # the paper's note that too large a d breaks the LLM down.
        scaled = table
        resolved = 1
    return scaled, resolved


def _finalise(state: "_SearchState", criterion: str) -> ModelSelection:
    """Parsimony rule + full-count refit of one table's search."""
    table, resolved, path = state.table, state.resolved, state.path
    # Parsimony rule: simplest visited model m with no n: IC_n < IC_m - 7.
    best_ic = min(score.ic for score in path)
    eligible = [score for score in path if score.ic <= best_ic + IC_MARGIN]
    chosen = min(eligible, key=lambda s: (s.num_params, s.ic))

    # Warm-start the full-count refit from the chosen candidate: counts
    # were integer-divided by d, so rates (and hence the intercept, on
    # the log scale) sit about log(d) higher on the unscaled table.
    beta0 = state.fetch(chosen.terms).coef.copy()
    beta0[0] += float(np.log(resolved))
    final_model = LoglinearModel(table.num_sources, chosen.terms, validate=False)
    final_fit = final_model.fit(
        table, distribution=state.distribution, limit=state.limit, beta0=beta0
    )
    return ModelSelection(
        fit=final_fit,
        divisor=resolved,
        criterion=criterion,
        selected_ic=chosen.ic,
        path=path,
    )


def select_model(
    table: ContingencyTable,
    criterion: str = "bic",
    divisor: int | str = "adaptive1000",
    max_order: int = 2,
    distribution: str = "poisson",
    limit: float | None = None,
) -> ModelSelection:
    """Stepwise model selection with the paper's heuristics.

    Forward search: start at independence, repeatedly add the
    interaction term (up to ``max_order`` sources) that lowers the IC
    most, computed on counts divided by ``divisor``; stop when nothing
    improves.  Then pick the simplest visited model within
    :data:`IC_MARGIN` of the best and refit it on the full counts.

    The search runs on the warm-started fit kernel: every candidate fit
    starts from its parent's coefficients (the one new column at 0),
    fits are memoised per term set so revisited models and the
    parsimony-rule refit never recompute, a candidate is fitted only
    while it can still win its round, and the final full-count fit
    starts from the chosen candidate's coefficients with the intercept
    shifted by ``log(divisor)`` (undoing the count division).  The fits
    are concave, so scores and estimates match a cold-start search
    within the fit tolerance.  This is :func:`select_models_batched`
    over the one table.
    """
    return select_models_batched(
        [table],
        criterion=criterion,
        divisor=divisor,
        max_order=max_order,
        distributions=distribution,
        limits=(limit,),
    )[0]


def _term_mask(term: frozenset) -> int:
    """The history bitmask a term's indicator column flags supersets of."""
    mask = 0
    for source in term:
        mask |= 1 << source
    return mask


class _SearchState:
    """Per-table stepwise bookkeeping for :func:`select_models_batched`."""

    __slots__ = (
        "table",
        "scaled",
        "resolved",
        "distribution",
        "limit",
        "counts",
        "memo",
        "current",
        "current_fit",
        "best",
        "floor",
        "path",
        "active",
        "candidates",
        "pending",
    )

    def __init__(self, table, scaled, resolved, distribution, limit):
        self.table = table
        self.scaled = scaled
        self.resolved = resolved
        self.distribution = distribution
        self.limit = limit
        self.counts = np.ascontiguousarray(scaled.counts[1:], dtype=np.float64)
        self.memo: dict[frozenset, FittedLoglinear] = {}
        self.path: list[CandidateScore] = []
        self.active = True
        self.candidates: list[frozenset] = []
        self.pending: list[frozenset] = []

    def fetch(self, terms: frozenset) -> FittedLoglinear:
        """Memoised fit lookup, counted as a memo hit."""
        cached = self.memo[terms]
        fitkernel.record(memo_hits=1, iterations_saved=cached.iterations)
        return cached


def _canonical_coef(coef: np.ndarray, position: int | None) -> np.ndarray:
    """Move an appended term's coefficient (the last) to ``position``.

    Batched candidate designs append the new term's column after the
    parent's canonically ordered columns; the ML likelihood is
    invariant under column permutation, so only that one coefficient
    needs moving.
    """
    if position is None or position == coef.size - 1:
        return coef
    out = np.empty_like(coef)
    out[:position] = coef[:position]
    out[position] = coef[-1]
    out[position + 1:] = coef[position:-1]
    return out


def _memoise(state: "_SearchState", terms: frozenset, fit: GlmFit, coef) -> None:
    """Record a finished candidate fit (canonical ``coef``) in the memo."""
    state.memo[terms] = FittedLoglinear(
        table=state.scaled,
        terms=terms,
        coef=coef,
        fitted=fit.fitted,
        loglik=fit.loglik,
        distribution="poisson",
        limit=None,
        converged=fit.converged,
        iterations=fit.iterations,
    )


def _columns(ordered) -> tuple[int, ...]:
    """Design columns as history bitmasks, intercept first, for terms
    in canonical order."""
    return (0,) + tuple(_term_mask(term) for term in ordered)


def _by_shape(states) -> list[list["_SearchState"]]:
    """Tables grouped by the design shape of their current model."""
    groups: dict[tuple[int, int], list[_SearchState]] = {}
    for state in states:
        shape = (state.counts.size, len(state.current))
        groups.setdefault(shape, []).append(state)
    return list(groups.values())


def _fit_roots(states: list["_SearchState"]) -> None:
    """Fit every table's independence model, one stack per design shape.

    Candidates are always scored with the plain Poisson likelihood: it
    is the cheap fit, and the paper notes truncation "otherwise makes
    little difference" outside small strata — the final model is refit
    with the requested distribution.
    """
    for group in _by_shape(states):
        fits = fit_poisson_batch(
            np.array([_columns(term_order(state.current)) for state in group]),
            np.stack([state.counts for state in group]),
        )
        for state, fit in zip(group, fits):
            _memoise(state, state.current, fit, fit.coef)


def _race_round(states: list["_SearchState"]) -> None:
    """Fit each table's pending candidates as its parent plus one column.

    Tables whose parents share a design shape go into one
    :func:`~repro.core.glm.fit_poisson_batch` call, each table's counts
    and parent coefficients passed once (see
    :class:`~repro.core.glm.Candidates`), and each table's candidates
    race for its round against the floor ``state.floor``.  Only the
    candidates that finish are memoised: one retired unfitted could not
    have won.  A candidate's new coefficient comes back last and is
    moved to its canonical slot — the ML likelihood is invariant under
    column permutation.
    """
    for group in _by_shape(state for state in states if state.pending):
        ordered = [term_order(state.current) for state in group]
        parent = np.repeat(
            np.arange(len(group)), [len(state.pending) for state in group]
        )
        pending = [(r, term) for r, state in enumerate(group) for term in state.pending]
        fits = fit_poisson_batch(
            np.array([_columns(terms) for terms in ordered]),
            np.stack([state.counts for state in group]),
            beta0=[state.current_fit.coef for state in group],
            race=Race(
                table=parent,
                floor=np.array([state.floor for state in group])[parent],
            ),
            candidates=Candidates(
                parent=parent,
                column=np.array([_term_mask(term) for _, term in pending]),
            ),
        )
        keys = [[term_key(term) for term in terms] for terms in ordered]
        for (r, term), fit in zip(pending, fits):
            if fit is None:
                continue
            position = 1 + bisect_left(keys[r], term_key(term))
            _memoise(
                group[r], group[r].current | {term}, fit,
                _canonical_coef(fit.coef, position),
            )


def select_models_batched(
    tables: Sequence[ContingencyTable],
    criterion: str = "bic",
    divisor: int | str = "adaptive1000",
    max_order: int = 2,
    distributions: str | Sequence[str] = "poisson",
    limits: Sequence[float | None] | None = None,
) -> list[ModelSelection]:
    """Stepwise selection over several tables with batched candidate fits.

    Runs the forward search of :func:`select_model` on every table at
    once, round-synchronised: each round collects every (table,
    candidate) fit still pending across the whole collection, groups
    them by design shape, and sends each group through
    :func:`~repro.core.glm.fit_poisson_batch` — one batched
    normal-equations build and Cholesky per group per IRLS iteration
    instead of thousands of scalar ``dposv`` calls.  A candidate is
    passed as its columns' history bitmasks only — the parent's
    canonical columns plus the new term's — so no dense design is ever
    stacked, and the new term's coefficient is moved to its canonical
    slot afterwards (the likelihood is invariant under column
    permutation, so scores are unchanged).

    Each round keeps only its best candidate, so candidate stacks race
    (see :class:`~repro.core.glm.Race`): a candidate whose duality
    bound shows it cannot clear the current model's IC, or reach a
    rival's log-likelihood, is retired unfitted and never scored.  The
    candidates that finish run exactly the iterations they would run
    unraced, so the selected terms, paths and fits are bit-identical
    to fitting every candidate to convergence.

    Tables may have different source counts; mixed shapes simply land
    in different batch groups.  ``distributions``/``limits`` give the
    final-refit settings per table (a single string broadcasts).  The
    final full-count refits run one table at a time, each warm-started
    from its chosen candidate's coefficients.
    """
    tables = list(tables)
    if not tables:
        return []
    if isinstance(distributions, str):
        distributions = [distributions] * len(tables)
    distributions = list(distributions)
    limits = [None] * len(tables) if limits is None else list(limits)
    if len(distributions) != len(tables) or len(limits) != len(tables):
        raise ValueError("distributions/limits must match the table count")

    states: list[_SearchState] = []
    for table, distribution, limit in zip(tables, distributions, limits):
        if table.num_sources < 2:
            raise ValueError("capture-recapture needs at least two sources")
        scaled, resolved = _resolve_scaled(table, divisor)
        states.append(_SearchState(table, scaled, resolved, distribution, limit))

    # Root fits (the independence model), batched across tables.
    for state in states:
        state.current = main_effect_terms(state.table.num_sources)
    _fit_roots(states)
    for state in states:
        state.current_fit = state.memo[state.current]
        state.best = _score(state.current_fit, criterion)
        state.path.append(state.best)
        state.candidates = _candidate_terms(
            state.table.num_sources, state.current, max_order
        )

    live = list(states)
    while live:
        for state in live:
            state.pending = []
            if not state.candidates:
                state.active = False
                continue
            # A challenger's one extra parameter costs half the
            # criterion's per-parameter penalty in log-likelihood: it
            # must clear this floor to lower the IC.
            state.floor = state.best.loglik + 0.5 * information_criterion(
                0.0, 1, state.scaled.num_observed, criterion
            )
            for term in state.candidates:
                cached = state.memo.get(state.current | {term})
                if cached is not None:
                    fitkernel.record(
                        memo_hits=1, iterations_saved=cached.iterations
                    )
                    continue
                state.pending.append(term)
        _race_round(live)
        for state in live:
            if not state.active:
                continue
            # Only candidates that finished the race are scored; one
            # retired unfitted could not have won the round.
            scores = [
                _score(state.memo[terms], criterion)
                for terms in (state.current | {term} for term in state.candidates)
                if terms in state.memo
            ]
            if not scores:
                state.active = False
                continue
            challenger = min(scores, key=lambda s: s.ic)
            if challenger.ic >= state.best.ic:
                state.active = False
                continue
            (accepted,) = challenger.terms - state.current
            state.best = challenger
            state.current = challenger.terms
            state.current_fit = state.fetch(state.current)
            state.path.append(challenger)
            state.candidates = _next_candidates(
                state.candidates, accepted, state.current,
                state.table.num_sources, max_order,
            )
        live = [state for state in live if state.active]

    return [_finalise(state, criterion) for state in states]
