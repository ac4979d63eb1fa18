"""The campaign scheduler: submit / status / results over a service directory.

:class:`CampaignScheduler` is the service facade the ROADMAP's
"estimation-as-a-service" item asks for.  It owns a *service
directory* — one subdirectory per campaign, addressed by the spec's
content digest — and three verbs:

* :meth:`~CampaignScheduler.submit` registers a campaign (idempotent:
  resubmitting an already-completed spec is a no-op lookup);
* :meth:`~CampaignScheduler.run` decomposes it into tasks, drains them
  through the engine's task runner under the executor's
  :class:`~repro.engine.executor.ExecutionPolicy` (in-process for one
  worker, a process pool for more) and, on completion, distils the
  results into a query ledger;
* :meth:`~CampaignScheduler.status` / :meth:`~CampaignScheduler.results`
  / :meth:`~CampaignScheduler.ledger` answer from the persisted state,
  so any process — a CLI invocation, a web worker — can poll a
  campaign another process is running.

Tasks execute against the existing stage graph through a normal
:class:`~repro.engine.executor.Executor`, so campaign fits flow
through the artifact store: overlapping campaigns (and plain
``repro windows`` runs against the same store) share cache entries,
and results are byte-identical to the equivalent direct sweep.

Campaign directory layout::

    <root>/<campaign_id>/
      spec.json     the CampaignSpec (schema-versioned)
      status.json   live task accounting, rewritten as tasks settle
      results.json  per-task outcomes, written at completion
      ledger.json   the query ledger (see repro.service.queryledger)
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from repro.engine.executor import Executor, TaskOutcome
from repro.engine.faults import FaultInjector
from repro.obs.observer import Observer
from repro.service.campaign import (
    CampaignSpec,
    CampaignStatus,
    CampaignTask,
    decompose,
)
from repro.service.queryledger import (
    QueryLedger,
    build_ledger,
    write_ledger,
)

#: Metric counting campaign task outcomes, labelled by state: each
#: failed attempt that is retried counts once as ``requeued``, and each
#: task counts once as ``done`` or ``degraded``.
CAMPAIGN_TASKS_METRIC = "campaign_tasks_total"


def default_executor_factory(
    spec: CampaignSpec,
    *,
    observer: Observer | None = None,
    cache: Any = None,
    faults: FaultInjector | None = None,
    policy: Any = None,
) -> Executor:
    """Build the executor a campaign's tasks resolve through.

    Constructs the simulated Internet from the spec's scale and seed —
    the same construction the CLI performs — so a campaign is fully
    reproducible from its spec alone.
    """
    from repro.simnet.internet import SimulationConfig, SyntheticInternet

    internet = SyntheticInternet(
        SimulationConfig(scale=2.0 ** spec.scale_log2, seed=spec.seed)
    )
    return Executor(
        internet,
        options=spec.options,
        observer=observer,
        cache=cache,
        faults=faults,
        policy=policy,
    )


def execute_task(executor: Executor, task: CampaignTask) -> dict[str, Any]:
    """Resolve one campaign task through the stage graph.

    The returned row is plain JSON — the unit the results file and the
    query ledger are assembled from.
    """
    from repro.analysis.windows import TimeWindow

    window = TimeWindow(*task.bounds)
    if task.kind == "window":
        result = executor.run("window_result", window)
        return {
            "start": task.bounds[0],
            "end": task.bounds[1],
            "label": window.label(),
            "routed_addresses": int(result.routed_addresses),
            "routed_subnets": int(result.routed_subnets),
            "observed_addresses": int(result.observed_addresses),
            "observed_subnets": int(result.observed_subnets),
            "ping_addresses": int(result.ping_addresses),
            "ping_subnets": int(result.ping_subnets),
            "estimated_addresses": float(result.estimated_addresses),
            "estimated_subnets": float(result.estimated_subnets),
            "truth_addresses": int(result.truth_addresses),
            "truth_subnets": int(result.truth_subnets),
            "excluded_sources": list(result.excluded_sources),
            "dropped_sources": (
                [name for name, _ in result.health.dropped]
                if result.health is not None
                else []
            ),
            "degraded": bool(result.is_degraded),
        }
    if task.kind == "sensitivity":
        (source,) = task.exclude
        # Leaving out a source the analysis view already lacks
        # (quarantined or absent) leaves the headline estimate.
        if source in executor.analysis_datasets(window):
            without = executor.run("sensitivity", window)[source].population
        else:
            without = executor.run("window_result", window).estimated_addresses
        return {
            "start": task.bounds[0],
            "end": task.bounds[1],
            "label": window.label(),
            "source": source,
            "estimate_without": float(without),
        }
    raise ValueError(f"unknown campaign task kind {task.kind!r}")


def _campaign_task(
    executor: Executor, task: CampaignTask, observer: Observer
) -> dict[str, Any]:
    """One campaign task as the runner executes it.

    ``execute_task`` is looked up on this module at call time, so a
    caller may swap it (perfbench times tasks that way).
    """
    with observer.span(
        "campaign-task", kind=task.kind, index=task.index, task=task.label()
    ):
        return execute_task(executor, task)


class CampaignScheduler:
    """Campaign lifecycle over a service directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- paths -------------------------------------------------------------

    def campaign_dir(self, campaign_id: str) -> Path:
        return self.root / campaign_id

    def _read_json(self, campaign_id: str, name: str) -> Any:
        path = self.campaign_dir(campaign_id) / name
        if not path.is_file():
            raise FileNotFoundError(
                f"campaign {campaign_id} has no {name} under {self.root}"
            )
        return json.loads(path.read_text())

    def _write_json(self, campaign_id: str, name: str, payload: Any) -> None:
        directory = self.campaign_dir(campaign_id)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(path)

    def campaigns(self) -> list[str]:
        """Known campaign ids, most recently touched first."""
        if not self.root.is_dir():
            return []
        dirs = [
            d for d in self.root.iterdir()
            if d.is_dir() and (d / "spec.json").is_file()
        ]
        dirs.sort(key=lambda d: d.stat().st_mtime, reverse=True)
        return [d.name for d in dirs]

    # -- the service API ---------------------------------------------------

    def submit(self, spec: CampaignSpec) -> str:
        """Register a campaign; returns its content-addressed id.

        Idempotent: a spec that already completed keeps its status and
        ledger untouched, so a resubmission is answered from cache.
        """
        campaign_id = spec.campaign_id()
        try:
            status = self.status(campaign_id)
        except FileNotFoundError:
            status = None
        if status is not None and status.finished:
            return campaign_id
        tasks = decompose(spec)
        self._write_json(campaign_id, "spec.json", spec.to_json())
        self._write_json(
            campaign_id,
            "status.json",
            CampaignStatus(
                campaign_id=campaign_id,
                state="pending",
                counts={"pending": len(tasks)},
                total=len(tasks),
            ).to_json(),
        )
        return campaign_id

    def spec(self, campaign_id: str) -> CampaignSpec:
        return CampaignSpec.from_json(self._read_json(campaign_id, "spec.json"))

    def status(self, campaign_id: str) -> CampaignStatus:
        return CampaignStatus.from_json(
            self._read_json(campaign_id, "status.json")
        )

    def results(self, campaign_id: str) -> dict[str, Any]:
        """The completed campaign's per-task outcomes."""
        return self._read_json(campaign_id, "results.json")

    def ledger(self, campaign_id: str) -> QueryLedger:
        """The completed campaign's query ledger (pure JSON read)."""
        return QueryLedger.load(self.campaign_dir(campaign_id))

    def run(
        self,
        campaign_id: str,
        workers: int = 1,
        *,
        executor: Executor | None = None,
    ) -> CampaignStatus:
        """Drain the campaign through the task runner until every task settles.

        Tasks resolve through ``executor`` (by default one built from
        the spec by :func:`default_executor_factory`) under its
        :class:`~repro.engine.executor.ExecutionPolicy`, fault injector
        and observer: in this process for ``workers == 1``, otherwise on
        a process pool of ``workers`` whose workers rebuild the
        executor once.  Results are assembled in spec order, so the
        outcome is independent of scheduling.  A campaign that already
        completed returns its status untouched — zero fits.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        status = self.status(campaign_id)
        if status.finished:
            return status
        spec = self.spec(campaign_id)
        tasks = decompose(spec)
        if executor is None:
            executor = default_executor_factory(spec)
        observer = executor.observer
        settled = {"done": 0, "degraded": 0}

        def on_settle(i: int, outcome: TaskOutcome) -> None:
            state = "degraded" if outcome.status == "degraded" else "done"
            settled[state] += 1
            if outcome.attempts > 1:
                observer.inc(
                    CAMPAIGN_TASKS_METRIC, outcome.attempts - 1, state="requeued"
                )
            observer.inc(CAMPAIGN_TASKS_METRIC, state=state)
            if state == "degraded":
                observer.event(
                    "campaign.task_degraded",
                    level="warning",
                    campaign=campaign_id,
                    task=tasks[i].label(),
                    error=outcome.error,
                )
            # The runner keeps up to `workers` tasks in flight.
            unsettled = len(tasks) - settled["done"] - settled["degraded"]
            running = min(workers, unsettled)
            self._publish_status(
                campaign_id,
                {"pending": unsettled - running, "running": running, **settled},
            )

        started = time.time()
        with observer.span(
            f"campaign:{campaign_id}", tasks=len(tasks), workers=workers
        ):
            outcomes = executor.run_tasks(
                tasks, _campaign_task,
                stage="campaign",
                keys=[task.task_id for task in tasks],
                workers=workers,
                on_settle=on_settle,
            )
        return self._finalize(
            campaign_id, spec, tasks, outcomes,
            wall_seconds=time.time() - started,
        )

    # -- internals ---------------------------------------------------------

    def _publish_status(self, campaign_id: str, counts: dict[str, int]) -> None:
        """Persist live task accounting so other processes can poll."""
        unsettled = counts["pending"] + counts["running"]
        self._write_json(
            campaign_id,
            "status.json",
            CampaignStatus(
                campaign_id=campaign_id,
                state="running" if unsettled else "completed",
                counts=counts,
                total=sum(counts.values()),
            ).to_json(),
        )

    def _finalize(
        self,
        campaign_id: str,
        spec: CampaignSpec,
        tasks: list[CampaignTask],
        outcomes: list[TaskOutcome],
        *,
        wall_seconds: float,
    ) -> CampaignStatus:
        """Assemble results in spec order and write the query ledger."""
        from repro.analysis.windows import TimeWindow

        window_rows: list[dict[str, Any]] = []
        missing: list[dict[str, Any]] = []
        sensitivity_rows: list[dict[str, Any]] = []
        for task, outcome in zip(tasks, outcomes):
            if outcome.status == "degraded":
                missing.append(
                    {
                        "start": task.bounds[0],
                        "end": task.bounds[1],
                        "label": TimeWindow(*task.bounds).label(),
                        "kind": task.kind,
                        "exclude": list(task.exclude),
                        "error": outcome.error,
                        "attempts": outcome.attempts,
                    }
                )
            elif task.kind == "window":
                window_rows.append(outcome.value)
            else:
                sensitivity_rows.append(outcome.value)
        counts = {
            "pending": 0,
            "running": 0,
            "done": len(tasks) - len(missing),
            "degraded": len(missing),
        }
        results = {
            "campaign_id": campaign_id,
            "windows": window_rows,
            "sensitivity": sensitivity_rows,
            "missing": missing,
            "counts": counts,
        }
        self._write_json(campaign_id, "results.json", results)
        ledger = build_ledger(
            spec,
            campaign_id,
            window_rows,
            sensitivity_rows,
            missing,
            wall_seconds=wall_seconds,
        )
        write_ledger(ledger, self.campaign_dir(campaign_id))
        self._publish_status(campaign_id, counts)
        return self.status(campaign_id)
