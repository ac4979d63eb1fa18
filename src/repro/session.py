"""The unified entry point: one :class:`Session`, three ingestion paths.

Historically the library grew three divergent front doors — raw
address sets through :class:`~repro.core.estimator.CaptureRecapture`,
simulator runs through :class:`~repro.engine.executor.Executor`, and
scheduled campaigns through :class:`~repro.service.campaign.CampaignSpec`.
:class:`Session` puts one documented facade in front of all of them
(plus the streaming path):

``Session.from_sets({...})``
    named :class:`~repro.ipspace.ipset.IPSet` mappings — the
    bring-your-own-data path; ``estimate()`` is the one-shot answer.
``Session.from_simulation(...)``
    the synthetic Internet + standard source catalog; ``estimate()``
    bundles one window, ``sweep()`` the paper's eleven,
    ``campaign_spec()`` the equivalent schedulable campaign.
``Session.from_journal(...)``
    an observation-delta journal; ``stream()`` is the incremental
    estimator, ``sweep()`` closes every coverable window through it.

A ``Session`` constructs those classes internally, so adopting the
facade never changes what is computed.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.estimator import CaptureRecapture, EstimatorOptions
from repro.core.loglinear import PopulationEstimate
from repro.engine.executor import ExecutionPolicy, Executor
from repro.engine.stages import PipelineOptions, WindowResult
from repro.ipspace.ipset import IPSet
from repro.simnet.internet import SimulationConfig, SyntheticInternet
from repro.stream.estimator import StreamEstimator
from repro.stream.journal import DeltaJournal

if TYPE_CHECKING:
    from repro.analysis.windows import TimeWindow
    from repro.engine.faults import FaultInjector
    from repro.engine.store import ArtifactStore
    from repro.obs.observer import Observer
    from repro.service.campaign import CampaignSpec
    from repro.sources.base import MeasurementSource

#: Default simulator shape, matching the CLI and campaign defaults.
DEFAULT_SCALE_LOG2 = -12
DEFAULT_SIM_SEED = 20140630


class Session:
    """One estimation session, whatever the data came from.

    Construct through :meth:`from_sets`, :meth:`from_simulation` or
    :meth:`from_journal` — the constructor itself is internal.  Every
    session answers :meth:`estimate`; the simulation and journal modes
    additionally answer :meth:`sweep` (window series) and the journal
    mode :meth:`stream` (the incremental estimator).  Asking a mode for
    a capability it lacks raises a :class:`ValueError` naming the
    constructor that provides it.
    """

    _MODES = ("sets", "simulation", "journal")

    def __init__(self, *, _mode: str | None = None, **state: Any) -> None:
        if _mode not in self._MODES:
            raise TypeError(
                "Session() is not constructed directly; use "
                "Session.from_sets(...), Session.from_simulation(...) "
                "or Session.from_journal(...)"
            )
        self.mode = _mode
        self._state = state
        self._estimator: CaptureRecapture | None = None
        self._executor: Executor | None = None
        self._stream: StreamEstimator | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_sets(
        cls,
        sources: Mapping[str, IPSet],
        options: EstimatorOptions | None = None,
    ) -> "Session":
        """A session over named address sets (bring-your-own data)."""
        if len(sources) < 2:
            raise ValueError("capture-recapture needs at least two sources")
        return cls(
            _mode="sets",
            sources=dict(sources),
            options=options or EstimatorOptions(),
        )

    @classmethod
    def from_simulation(
        cls,
        internet: SyntheticInternet | None = None,
        *,
        scale_log2: int = DEFAULT_SCALE_LOG2,
        seed: int = DEFAULT_SIM_SEED,
        sources: "Mapping[str, MeasurementSource] | None" = None,
        options: PipelineOptions | None = None,
        policy: ExecutionPolicy | None = None,
        store: "ArtifactStore | None" = None,
        observer: "Observer | None" = None,
        faults: "FaultInjector | None" = None,
    ) -> "Session":
        """A session over the synthetic Internet and source catalog.

        Pass an existing ``internet`` to reuse a simulator, or let the
        session build one from ``scale_log2``/``seed`` (the CLI's
        defaults; ignored when ``internet`` is given).  ``sources``
        defaults to the standard catalog;
        ``store``/``observer``/``policy``/``faults`` thread through to
        the executor exactly as the CLI flags do.
        """
        if internet is None:
            internet = SyntheticInternet(
                SimulationConfig(scale=2.0**scale_log2, seed=seed)
            )
        return cls(
            _mode="simulation",
            internet=internet,
            sources=sources,
            options=options or PipelineOptions(),
            policy=policy,
            store=store,
            observer=observer,
            faults=faults,
        )

    @classmethod
    def from_journal(
        cls,
        journal: DeltaJournal | str | Path,
        *,
        internet: SyntheticInternet | None = None,
        scale_log2: int = DEFAULT_SCALE_LOG2,
        seed: int = DEFAULT_SIM_SEED,
        options: PipelineOptions | None = None,
        policy: ExecutionPolicy | None = None,
        store: "ArtifactStore | None" = None,
        observer: "Observer | None" = None,
        faults: "FaultInjector | None" = None,
    ) -> "Session":
        """A session tailing an observation-delta journal.

        ``journal`` is a :class:`~repro.stream.DeltaJournal` or its
        directory path.  The simulator still supplies the routed-space
        denominators and registry (as in every mode); the *observations*
        come exclusively from the journal.
        """
        if not isinstance(journal, DeltaJournal):
            journal = DeltaJournal(journal)
        if internet is None:
            internet = SyntheticInternet(
                SimulationConfig(scale=2.0**scale_log2, seed=seed)
            )
        return cls(
            _mode="journal",
            journal=journal,
            internet=internet,
            options=options or PipelineOptions(),
            policy=policy,
            store=store,
            observer=observer,
            faults=faults,
        )

    # -- mode plumbing -----------------------------------------------------

    def _require(self, capability: str, *modes: str) -> None:
        if self.mode not in modes:
            hints = {
                "sets": "Session.from_sets(...)",
                "simulation": "Session.from_simulation(...)",
                "journal": "Session.from_journal(...)",
            }
            wanted = " or ".join(hints[m] for m in modes)
            raise ValueError(
                f"{capability} is not available on a {self.mode!r} session; "
                f"construct one with {wanted}"
            )

    @property
    def internet(self) -> SyntheticInternet:
        """The simulator (simulation and journal modes)."""
        self._require("internet", "simulation", "journal")
        return self._state["internet"]

    def capture_recapture(self) -> CaptureRecapture:
        """The underlying set estimator (sets mode)."""
        self._require("capture_recapture()", "sets")
        if self._estimator is None:
            self._estimator = CaptureRecapture(
                self._state["sources"], self._state["options"]
            )
        return self._estimator

    def executor(self) -> Executor:
        """The underlying stage executor (simulation mode)."""
        self._require("executor()", "simulation")
        if self._executor is None:
            state = self._state
            self._executor = Executor(
                state["internet"],
                state["sources"],
                state["options"],
                cache=state["store"],
                policy=state["policy"],
                faults=state["faults"],
                observer=state["observer"],
            )
        return self._executor

    # -- the unified verbs -------------------------------------------------

    def estimate(
        self, window: "TimeWindow | None" = None
    ) -> "PopulationEstimate | WindowResult":
        """The session's headline estimate.

        Sets mode returns the :class:`PopulationEstimate` for the given
        sets (``window`` is meaningless there and rejected).  The
        simulation and journal modes return the :class:`WindowResult`
        bundle for ``window`` — defaulting to the latest standard
        window (simulation) or the latest coverable one (journal).
        """
        if self.mode == "sets":
            if window is not None:
                raise ValueError(
                    "a sets session has no time axis; drop the window "
                    "argument or build the session from a simulation/journal"
                )
            return self.capture_recapture().estimate()
        from repro.analysis.windows import standard_windows

        if self.mode == "simulation":
            if window is None:
                window = standard_windows()[-1]
            return self.executor().window_result(window)
        stream = self.stream()
        stream.ingest()
        if window is None:
            coverable = stream.closeable_windows()
            if not coverable:
                raise ValueError(
                    "the journal holds no fully-covered standard window yet"
                )
            window = coverable[-1]
        return stream.close(window)

    def sweep(
        self,
        windows: "Sequence[TimeWindow] | None" = None,
        workers: int = 1,
    ) -> list[WindowResult]:
        """The window series (the paper's Figure 4/5 sweep).

        Simulation mode fans out through
        :meth:`~repro.engine.executor.Executor.run_windows`; journal
        mode ingests the tail and closes every requested (or coverable)
        window through the stream.  ``workers`` only applies to the
        simulation mode — stream closes are incremental, not parallel.
        """
        self._require("sweep()", "simulation", "journal")
        if self.mode == "simulation":
            return self.executor().run_windows(windows, workers)
        return self.stream().advance(windows)

    def stream(self) -> StreamEstimator:
        """The incremental estimator over this session's journal.

        Resumes from the last persisted snapshot when the session has a
        store; call :meth:`~repro.stream.StreamEstimator.ingest` /
        :meth:`~repro.stream.StreamEstimator.advance` on it to absorb
        the journal tail.
        """
        self._require("stream()", "journal")
        if self._stream is None:
            state = self._state
            self._stream = StreamEstimator.resume(
                state["internet"],
                state["journal"],
                options=state["options"],
                policy=state["policy"],
                store=state["store"],
                observer=state["observer"],
                faults=state["faults"],
            )
        return self._stream

    def campaign_spec(
        self,
        windows: "Sequence[TimeWindow] | None" = None,
        drop_sources: Sequence[str] = (),
    ) -> "CampaignSpec":
        """The schedulable campaign equivalent to :meth:`sweep`.

        Simulation mode only: the spec captures this session's
        simulator shape and options, so submitting it to a
        :class:`~repro.service.CampaignScheduler` computes exactly what
        :meth:`sweep` would, content-addressed for the query ledger.

        A campaign rebuilds its simulator from a power-of-two scale and
        a seed alone, and always measures the standard source catalog;
        a session whose world it cannot rebuild raises
        :class:`ValueError`.
        """
        from repro.analysis.windows import standard_windows
        from repro.service.campaign import CampaignSpec

        self._require("campaign_spec()", "simulation")
        state = self._state
        if state["sources"] is not None:
            raise ValueError(
                "a campaign always measures the standard source catalog; "
                "this session was given its own sources"
            )
        config = state["internet"].config
        scale_log2 = round(math.log2(config.scale))
        if config != SimulationConfig(scale=2.0**scale_log2, seed=config.seed):
            raise ValueError(
                "a campaign rebuilds SimulationConfig(scale=2**k, seed=...) "
                f"with every other field at its default; cannot rebuild {config}"
            )
        return CampaignSpec(
            windows=tuple(
                (w.start, w.end)
                for w in (windows if windows is not None else standard_windows())
            ),
            scale_log2=scale_log2,
            seed=config.seed,
            options=state["options"],
            drop_sources=tuple(drop_sources),
        )

    def __repr__(self) -> str:
        return f"Session(mode={self.mode!r})"
