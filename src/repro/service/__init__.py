"""Estimation-as-a-service: campaign scheduling and ledger serving.

The service layer turns the library-call-only engine into a submit /
poll / fetch service:

* :class:`~repro.service.campaign.CampaignSpec` declares a campaign
  (windows x levels x sensitivity grid x quarantine policy) and
  content-addresses it;
* :class:`~repro.service.scheduler.CampaignScheduler` decomposes it
  into tasks, drains them through the engine's task runner (in-process
  or on a process pool, under the executor's ``ExecutionPolicy``) and
  persists per-campaign state under a service directory;
* :class:`~repro.service.queryledger.QueryLedger` serves the repeated
  queries — totals, growth curves, per-window and sensitivity
  estimates — from the completed campaign's precomputed answers,
  without ever touching IRLS.

CLI: ``repro campaign submit|status|results`` and ``repro query``.
"""

from repro.service.campaign import (
    CampaignSpec,
    CampaignStatus,
    CampaignTask,
    decompose,
)
from repro.service.queryledger import (
    LedgerSchemaError,
    QueryLedger,
    build_ledger,
    entry_key,
)
from repro.service.scheduler import (
    CampaignScheduler,
    default_executor_factory,
    execute_task,
)

__all__ = [
    "CampaignScheduler",
    "CampaignSpec",
    "CampaignStatus",
    "CampaignTask",
    "LedgerSchemaError",
    "QueryLedger",
    "build_ledger",
    "decompose",
    "default_executor_factory",
    "entry_key",
    "execute_task",
]
