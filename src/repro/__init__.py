"""repro — capture-recapture estimation of the used IPv4 address space.

A production-quality reproduction of Zander, Andrew & Armitage,
*"Capturing Ghosts: Predicting the Used IPv4 Space by Inferring
Unobserved Addresses"* (IMC 2014): log-linear capture-recapture models
over heterogeneous measurement sources, the full IPv4 address-space
substrate they run on, a synthetic-Internet measurement simulator
standing in for the paper's proprietary datasets, the spoofed-address
filter, and the growth / unused-space / supply analyses.

Quick start — one class per kind of input::

    from repro import CaptureRecapture, IPSet

    sources = {"ping": IPSet([...]), "weblog": IPSet([...]),
               "netflow": IPSet([...])}
    estimate = CaptureRecapture(sources).estimate()
    print(estimate.population, estimate.unseen)

    # the full simulator pipeline (one window, or the paper's sweep)
    from repro import (Executor, SimulationConfig, SyntheticInternet,
                       standard_windows)
    internet = SyntheticInternet(SimulationConfig(scale=2.0**-12))
    executor = Executor(internet)
    result = executor.window_result(standard_windows()[-1])
    results = executor.run_windows(workers=4)   # the Figure 4/5 series

    # streaming: tail an observation-delta journal
    from repro import DeltaJournal, StreamEstimator
    stream = StreamEstimator.resume(internet, DeltaJournal("journal/"))
    stream.advance()                     # ingest + close coverable windows

``CampaignSpec(...)`` describes the same sweep as a schedulable
campaign; see ``docs/API.md`` and ``examples/``.
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
    # pipeline options / simulator
    "PipelineOptions",
    "SimulationConfig",
    "SyntheticInternet",
    "TimeWindow",
    "build_standard_sources",
    "standard_windows",
    "__version__",
]
