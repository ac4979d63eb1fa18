"""repro — capture-recapture estimation of the used IPv4 address space.

A production-quality reproduction of Zander, Andrew & Armitage,
*"Capturing Ghosts: Predicting the Used IPv4 Space by Inferring
Unobserved Addresses"* (IMC 2014): log-linear capture-recapture models
over heterogeneous measurement sources, the full IPv4 address-space
substrate they run on, a synthetic-Internet measurement simulator
standing in for the paper's proprietary datasets, the spoofed-address
filter, and the growth / unused-space / supply analyses.

Quick start — :class:`Session` is the unified entry point::

    from repro import Session, IPSet

    sources = {"ping": IPSet([...]), "weblog": IPSet([...]),
               "netflow": IPSet([...])}
    estimate = Session.from_sets(sources).estimate()
    print(estimate.population, estimate.unseen)

    # the full simulator pipeline (one window, or the paper's sweep)
    session = Session.from_simulation(scale_log2=-12)
    result = session.estimate()          # latest window's WindowResult
    results = session.sweep(workers=4)   # the Figure 4/5 series

    # streaming: tail an observation-delta journal
    stream = Session.from_journal("journal/").stream()
    stream.advance()                     # ingest + close coverable windows

``CaptureRecapture`` and ``Executor``, which ``Session`` builds
internally, stay constructible directly; see ``docs/API.md`` and
``examples/``.
"""

from repro.core import (
    CaptureRecapture,
    ContingencyTable,
    EstimatorOptions,
    LoglinearModel,
    PopulationEstimate,
    chao_estimate,
    lincoln_petersen_estimate,
    lincoln_petersen_from_sets,
    profile_likelihood_interval,
    select_model,
    stratified_estimate,
    tabulate_histories,
)
from repro.ipspace import IntervalSet, IPSet, Prefix, PrefixTrie
from repro.engine import (
    ArtifactCache,
    ArtifactStore,
    ExecutionPolicy,
    Executor,
    FaultInjector,
    FaultSpec,
    FaultySource,
    LocalStore,
    PipelineOptions,
    RunReport,
    SourceFaultSpec,
    TieredStore,
    WindowResult,
    apply_source_faults,
    open_store,
)
from repro.integrity import (
    QuarantinePolicy,
    SourceHealth,
    SourceHealthReport,
    evaluate_health,
)
from repro.obs import (
    MetricsRegistry,
    Observer,
    RunLedger,
    Tracer,
    get_global_metrics,
    render_run_diff,
    render_run_report,
)
from repro.analysis import TimeWindow, standard_windows
from repro.service import (
    CampaignScheduler,
    CampaignSpec,
    CampaignStatus,
    LedgerSchemaError,
    QueryLedger,
)
from repro.session import Session
from repro.simnet import SimulationConfig, SyntheticInternet
from repro.sources import build_standard_sources
from repro.stream import (
    DeltaJournal,
    IncrementalTabulator,
    JournalSource,
    ObservationDelta,
    StreamEstimator,
    journal_from_sources,
)

__version__ = "1.0.0"

__all__ = [
    # estimation core
    "CaptureRecapture",
    "ContingencyTable",
    "EstimatorOptions",
    "LoglinearModel",
    "PopulationEstimate",
    "chao_estimate",
    "lincoln_petersen_estimate",
    "lincoln_petersen_from_sets",
    "profile_likelihood_interval",
    "select_model",
    "stratified_estimate",
    "tabulate_histories",
    # address-space substrate
    "IPSet",
    "IntervalSet",
    "Prefix",
    "PrefixTrie",
    # execution engine
    "ArtifactCache",
    "ArtifactStore",
    "ExecutionPolicy",
    "Executor",
    "FaultInjector",
    "FaultSpec",
    "FaultySource",
    "LocalStore",
    "RunReport",
    "SourceFaultSpec",
    "TieredStore",
    "WindowResult",
    "apply_source_faults",
    "open_store",
    # source integrity
    "QuarantinePolicy",
    "SourceHealth",
    "SourceHealthReport",
    "evaluate_health",
    # observability
    "MetricsRegistry",
    "Observer",
    "RunLedger",
    "Tracer",
    "get_global_metrics",
    "render_run_diff",
    "render_run_report",
    # campaign service
    "CampaignScheduler",
    "CampaignSpec",
    "CampaignStatus",
    "LedgerSchemaError",
    "QueryLedger",
    # streaming
    "DeltaJournal",
    "IncrementalTabulator",
    "JournalSource",
    "ObservationDelta",
    "StreamEstimator",
    "journal_from_sources",
    # pipeline options / simulator / session
    "PipelineOptions",
    "Session",
    "SimulationConfig",
    "SyntheticInternet",
    "TimeWindow",
    "build_standard_sources",
    "standard_windows",
    "__version__",
]
