"""Campaign model: what an estimation campaign *is*.

A campaign is a declarative request for repeated estimation — a grid of
observation windows, the two granularity levels, an optional
sensitivity axis (re-estimate each window with one source removed) and
the pipeline options (including the quarantine policy) the estimates
run under.  :class:`CampaignSpec` is frozen and canonically digestable,
so the same request always resolves to the same ``campaign_id`` — a
resubmitted campaign is a lookup, not a recomputation.

:func:`decompose` turns a spec into the flat list of
:class:`CampaignTask` units the scheduler feeds to its backend.  Each
task resolves through the existing stage graph (``window_result`` for
the headline estimates, the window's ``sensitivity`` drops for the
sensitivity axis), so overlapping campaigns share fits through the
artifact store.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro._canonical import canonical_digest
from repro.engine.stages import PipelineOptions
from repro.integrity.policy import QuarantinePolicy

#: Bump when the spec encoding (and therefore campaign ids) changes.
CAMPAIGN_SCHEMA_VERSION = 1

#: Task lifecycle states, as reported by ``status``.
TASK_STATES = ("pending", "running", "done", "degraded")


def _bounds(windows: Sequence[Any]) -> tuple[tuple[float, float], ...]:
    """Normalise TimeWindow-likes / (start, end) pairs to float bounds."""
    out = []
    for w in windows:
        if hasattr(w, "start") and hasattr(w, "end"):
            out.append((float(w.start), float(w.end)))
        else:
            start, end = w
            out.append((float(start), float(end)))
    return tuple(out)


@dataclass(frozen=True)
class CampaignSpec:
    """One estimation campaign: windows x levels x sensitivity grid.

    Frozen and canonically encodable: :meth:`campaign_id` digests the
    spec (with a schema version), so equal requests share an identity —
    and therefore a query ledger — across submissions and processes.
    """

    #: Window bounds (start, end) in fractional years, in report order.
    windows: tuple[tuple[float, float], ...]
    #: log2 of the simulation scale (as the CLI's ``--scale-log2``).
    scale_log2: int = -12
    #: Simulator seed (independent of ``options.seed``, as in the CLI).
    seed: int = 20140630
    #: Pipeline options the estimates run under (quarantine included).
    options: PipelineOptions = field(default_factory=PipelineOptions)
    #: Sensitivity axis: re-estimate every window with each of these
    #: sources removed in turn (empty = headline estimates only).
    drop_sources: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("a campaign needs at least one window")
        object.__setattr__(self, "windows", _bounds(self.windows))
        object.__setattr__(
            self, "drop_sources", tuple(str(s) for s in self.drop_sources)
        )

    def campaign_id(self) -> str:
        """Stable content address of this spec (``c`` + 16 hex chars)."""
        digest = canonical_digest(
            (
                CAMPAIGN_SCHEMA_VERSION,
                self.windows,
                self.scale_log2,
                self.seed,
                self.options,
                self.drop_sources,
            )
        )
        return "c" + digest[:16]

    # -- JSON round-trip ---------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        options = dataclasses.asdict(self.options)
        options["exclude_sources"] = list(self.options.exclude_sources)
        return {
            "schema": CAMPAIGN_SCHEMA_VERSION,
            "windows": [list(b) for b in self.windows],
            "scale_log2": self.scale_log2,
            "seed": self.seed,
            "options": options,
            "drop_sources": list(self.drop_sources),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        schema = payload.get("schema", CAMPAIGN_SCHEMA_VERSION)
        if schema != CAMPAIGN_SCHEMA_VERSION:
            raise ValueError(
                f"campaign spec schema {schema} unsupported "
                f"(this build reads {CAMPAIGN_SCHEMA_VERSION})"
            )
        options = dict(payload["options"])
        options["exclude_sources"] = tuple(options.get("exclude_sources", ()))
        options["quarantine"] = QuarantinePolicy(**options["quarantine"])
        return cls(
            windows=tuple(tuple(b) for b in payload["windows"]),
            scale_log2=int(payload["scale_log2"]),
            seed=int(payload["seed"]),
            options=PipelineOptions(**options),
            drop_sources=tuple(payload.get("drop_sources", ())),
        )


@dataclass(frozen=True)
class CampaignTask:
    """One schedulable unit of a campaign.

    ``kind`` selects the stage request the task resolves to:

    * ``window`` — the full ``window_result`` bundle for ``bounds``;
    * ``sensitivity`` — the address-level estimate for ``bounds`` with
      the one source in ``exclude`` left out: its row of the window's
      ``sensitivity`` stage, or the headline estimate when the window's
      analysis datasets lack that source.

    ``index`` is the task's position in decomposition order — the
    identity fault injectors key on (stage name ``"campaign"``).
    """

    task_id: str
    kind: str
    bounds: tuple[float, float]
    exclude: tuple[str, ...]
    index: int

    def label(self) -> str:
        base = f"{self.bounds[0]:.2f}-{self.bounds[1]:.2f}"
        if self.exclude:
            return f"{base} -{','.join(self.exclude)}"
        return base


def task_id_for(
    kind: str, bounds: tuple[float, float], exclude: tuple[str, ...]
) -> str:
    """Content address of one task (``t`` + 16 hex chars)."""
    digest = canonical_digest((CAMPAIGN_SCHEMA_VERSION, kind, bounds, exclude))
    return "t" + digest[:16]


def decompose(spec: CampaignSpec) -> list[CampaignTask]:
    """Flatten a spec into its schedulable tasks, in report order.

    Window tasks come first (they carry the headline series), then the
    sensitivity grid in (window, dropped-source) order.  Order is part
    of the contract: fault injection and progress accounting key on it.
    """
    tasks: list[CampaignTask] = []
    for bounds in spec.windows:
        tasks.append(
            CampaignTask(
                task_id=task_id_for("window", bounds, ()),
                kind="window",
                bounds=bounds,
                exclude=(),
                index=len(tasks),
            )
        )
    for bounds in spec.windows:
        for name in spec.drop_sources:
            tasks.append(
                CampaignTask(
                    task_id=task_id_for("sensitivity", bounds, (name,)),
                    kind="sensitivity",
                    bounds=bounds,
                    exclude=(name,),
                    index=len(tasks),
                )
            )
    return tasks


@dataclass(frozen=True)
class CampaignStatus:
    """Point-in-time task accounting for one campaign."""

    campaign_id: str
    #: ``pending`` | ``running`` | ``completed``.
    state: str
    #: Task counts keyed by :data:`TASK_STATES`.
    counts: Mapping[str, int]
    #: Total tasks the campaign decomposed into.
    total: int

    @property
    def finished(self) -> bool:
        return self.state == "completed"

    @property
    def degraded(self) -> int:
        return int(self.counts.get("degraded", 0))

    def summary(self) -> str:
        parts = ", ".join(
            f"{self.counts.get(state, 0)} {state}" for state in TASK_STATES
        )
        return f"campaign {self.campaign_id}: {self.state} ({parts})"

    def to_json(self) -> dict[str, Any]:
        return {
            "campaign_id": self.campaign_id,
            "state": self.state,
            "counts": dict(self.counts),
            "total": self.total,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "CampaignStatus":
        return cls(
            campaign_id=payload["campaign_id"],
            state=payload["state"],
            counts=dict(payload["counts"]),
            total=int(payload["total"]),
        )
