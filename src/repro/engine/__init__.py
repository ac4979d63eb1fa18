"""Staged execution engine for the estimation dataflow.

The paper's flow is an explicit multi-stage dataflow — collect,
preprocess, spoof-filter, tabulate, fit, estimate — repeated over many
windows, strata, sensitivity drops and cross-validation folds.  This
package makes that dataflow a first-class object:

* :mod:`repro.engine.stages` — the named :class:`Stage` functions of
  the executor (the strata, the sensitivity drops and the
  cross-validation folds each one batched stage), plus the shared
  :class:`PipelineOptions` / :class:`WindowResult` types.
* :mod:`repro.engine.artifacts` — keyed artifacts and the in-memory
  LRU :class:`ArtifactCache`.
* :mod:`repro.engine.store` — the :class:`ArtifactStore` interface,
  the on-disk entry codec and its persistent backends: the
  content-addressed :class:`LocalStore` directory and the
  write-through :class:`TieredStore` (memory LRU over a shared
  persistent directory) opened by :func:`open_store`.
* :mod:`repro.engine.report` — per-stage instrumentation
  (:class:`RunReport`), including retry/degradation accounting.
* :mod:`repro.engine.faults` — a deterministic, seeded
  :class:`FaultInjector` (exceptions, delays, worker kills, store-entry
  corruption) that makes every recovery path of the executor's
  :class:`ExecutionPolicy` testable in-process, plus source-level
  *data* faults (:class:`SourceFaultSpec` / :class:`FaultySource`:
  drop, truncate, duplicate, clock-skew, spoof-inject) that drive the
  integrity layer's detect→quarantine→refit path end to end.
* :mod:`repro.engine.executor` — the :class:`Executor` that resolves
  stage graphs, fans a sweep's windows or a campaign's tasks out
  across processes and records instrumentation.

See ``docs/ENGINE.md`` for the artifact-key, cache-policy and
parallel-determinism contracts.
"""

from repro.engine.artifacts import Artifact, ArtifactCache, ArtifactKey
from repro.engine.executor import ExecutionPolicy, Executor
from repro.engine.faults import (
    FaultInjected,
    FaultInjector,
    FaultSpec,
    FaultySource,
    SourceFaultSpec,
    apply_source_faults,
    parse_fault,
)
from repro.engine.report import RunReport, StageRecord
from repro.engine.store import (
    ArtifactStore,
    LocalStore,
    TieredStore,
    open_store,
)
from repro.engine.stages import (
    NETFLOW_SOURCES,
    SPOOF_FREE_REFERENCES,
    STAGES,
    PipelineOptions,
    Stage,
    WindowResult,
    spoof_filter_seed,
)

__all__ = [
    "Artifact",
    "ArtifactCache",
    "ArtifactKey",
    "ArtifactStore",
    "LocalStore",
    "TieredStore",
    "open_store",
    "ExecutionPolicy",
    "Executor",
    "FaultInjected",
    "FaultInjector",
    "FaultSpec",
    "FaultySource",
    "SourceFaultSpec",
    "apply_source_faults",
    "parse_fault",
    "RunReport",
    "StageRecord",
    "Stage",
    "STAGES",
    "PipelineOptions",
    "WindowResult",
    "NETFLOW_SOURCES",
    "SPOOF_FREE_REFERENCES",
    "spoof_filter_seed",
]
