"""Deterministic fault injection and the engine's execution policy.

Combining nine heterogeneous measurement feeds only works if a run
survives the partial failures that real feeds exhibit — crashed
workers, hung fits, truncated store entries.  This module provides
the :class:`FaultInjector`: a seeded, picklable source of injected
failures (exceptions, delays, worker kills, store-entry corruption)
keyed by ``(stage, task index, attempt)``, so every recovery path of the
executor's :class:`~repro.engine.executor.ExecutionPolicy` — retry,
timeout, pool respawn, serial fallback, degradation — can be driven
deterministically from a test or from the CLI's ``--inject-faults``
flag.  The retry schedule those paths sleep on is
:meth:`~repro.engine.executor.ExecutionPolicy.backoff`.

A fault spec fires on the first ``count`` attempts of its task and
then stays quiet, which is what makes retry-then-succeed scenarios
expressible without any cross-process shared state: the attempt number
travels with the task, and the decision is a pure function of the
spec.  A ``kill`` spec calls ``os._exit`` only when it fires inside a
pool worker; fired in the parent process (one worker, or a task pulled
back out of the pool) it degrades to an injected exception, so an
injector can never take down the run it is testing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.ipspace.ipset import IPSet

if TYPE_CHECKING:
    # Imported lazily at runtime: repro.sources.__init__ transitively
    # imports the engine (via simnet scenarios), so a module-level
    # import here would be circular.
    from repro.sources.base import MeasurementSource

#: Exit code used by injected worker kills (visible in pool diagnostics).
KILL_EXIT_CODE = 87

#: Recognised fault kinds.
FAULT_KINDS = ("error", "delay", "kill", "corrupt")

#: Recognised source-level fault kinds (see :class:`SourceFaultSpec`).
SOURCE_FAULT_KINDS = ("drop", "truncate", "duplicate", "skew", "spoof")


class FaultInjected(RuntimeError):
    """An injected failure (also raised for in-parent ``kill`` faults)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    ``stage`` names the task family the fault targets — a stage name
    for engine resolutions (``"crossval"`` and ``"sensitivity"``
    included), the task runner's label (``"window_result"``,
    ``"campaign"``) for its tasks, or ``"*"`` for any.  ``index``
    selects the task within the family (resolution or submission order,
    0-based) and ``count`` bounds how many attempts of that task the
    fault fires on, so ``count=1`` exercises retry-then-succeed and a
    large ``count`` forces degradation.
    """

    stage: str
    kind: str
    index: int = 0
    count: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.count < 1:
            raise ValueError("count must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``stage:kind[:index[:count[:seconds]]]`` (the CLI form).

        Examples: ``window_result:kill:1``, ``fit:error:0:2``,
        ``crossval:delay:3:1:5.0``, ``preprocess:corrupt``.
        """
        parts = text.split(":")
        if len(parts) < 2:
            raise ValueError(
                f"fault spec must look like stage:kind[:index[:count"
                f"[:seconds]]], got {text!r}"
            )
        stage, kind = parts[0], parts[1]
        index = int(parts[2]) if len(parts) > 2 else 0
        count = int(parts[3]) if len(parts) > 3 else 1
        seconds = float(parts[4]) if len(parts) > 4 else 0.0
        return cls(
            stage=stage, kind=kind, index=index, count=count, seconds=seconds
        )

    def matches(self, stage: str, index: int, attempt: int) -> bool:
        """Whether this spec fires for one attempt of one task."""
        return (
            (self.stage == "*" or self.stage == stage)
            and self.index == index
            and attempt < self.count
        )


class FaultInjector:
    """Seeded, picklable fault source for the executor and the cache.

    The injector is constructed in the parent process and travels to
    pool workers as a pool initializer argument; ``_home_pid`` records
    where it was built so ``kill`` faults can tell worker from parent.
    """

    def __init__(
        self, specs: Iterable[FaultSpec | str] = (), seed: int = 0
    ) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(
            FaultSpec.parse(s) if isinstance(s, str) else s for s in specs
        )
        self.seed = seed
        self._home_pid = os.getpid()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def fire(self, stage: str, index: int, attempt: int = 0) -> None:
        """Apply matching ``delay``/``error``/``kill`` faults, in that order.

        Delays apply before failures so a single spec pair can model a
        task that hangs *and then* dies.  Kills exit the process only
        when running in a pool worker; in the parent they raise
        :class:`FaultInjected` instead.
        """
        matched = [
            s for s in self.specs
            if s.kind != "corrupt" and s.matches(stage, index, attempt)
        ]
        for spec in matched:
            if spec.kind == "delay":
                time.sleep(spec.seconds)
        for spec in matched:
            if spec.kind == "kill":
                if os.getpid() != self._home_pid:
                    os._exit(KILL_EXIT_CODE)
                raise FaultInjected(
                    f"injected kill (in-parent) at {stage}[{index}] "
                    f"attempt {attempt}"
                )
        for spec in matched:
            if spec.kind == "error":
                raise FaultInjected(
                    f"injected error at {stage}[{index}] attempt {attempt}"
                )

    def corrupt_spill(self, stage: str, index: int, path: Path) -> bool:
        """Garble a freshly written store entry if a ``corrupt`` spec matches.

        ``index`` counts entry writes per stage (assigned by the store).
        Corruption XORs a 64-byte run from the middle of the file: a
        garbled zlib body exercises the load-error path, a garbled
        pickle the checksum path.
        """
        if not any(
            s.kind == "corrupt" and s.matches(stage, index, 0)
            for s in self.specs
        ):
            return False
        data = bytearray(path.read_bytes())
        if not data:
            return False
        lo = len(data) // 2
        for i in range(lo, min(len(data), lo + 64)):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        return True


# -- source-level fault injection -------------------------------------------

#: Kind-specific meaning (and default) of ``SourceFaultSpec.amount``.
_SOURCE_FAULT_AMOUNTS = {
    "drop": 0.0,          # unused
    "truncate": 0.5,      # fraction of each quarter's addresses kept
    "duplicate": 1.0,     # quarters of stale data re-reported
    "skew": 0.5,          # clock offset in years (reports old quarters)
    "spoof": 100_000.0,   # spoofed addresses injected per quarter
}


@dataclass(frozen=True)
class SourceFaultSpec:
    """One injectable *data* fault on a measurement source.

    Where :class:`FaultSpec` breaks the execution of a stage, a source
    fault corrupts the data a source reports — the failure modes real
    feeds exhibit: total dropout (``drop``), a partially captured
    quarter (``truncate``), stale re-reported data (``duplicate``), a
    log clock running ``amount`` years behind (``skew``), and a
    random-source spoof flood (``spoof``).  ``start`` is the onset in
    fractional years: quarters beginning before it are untouched, so
    "the source goes bad mid-sweep" is directly expressible.
    """

    source: str
    kind: str
    amount: float | None = None
    start: float = float("-inf")

    def __post_init__(self) -> None:
        if self.kind not in SOURCE_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {SOURCE_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.amount is None:
            object.__setattr__(
                self, "amount", _SOURCE_FAULT_AMOUNTS[self.kind]
            )
        if self.amount < 0:
            raise ValueError(f"amount must be non-negative, got {self.amount}")
        if self.kind == "truncate" and self.amount > 1:
            raise ValueError("truncate amount is a kept fraction in [0, 1]")

    @classmethod
    def parse(cls, text: str) -> "SourceFaultSpec":
        """Parse ``source:NAME:kind[:amount[:start]]`` (the CLI form).

        Examples: ``source:CALT:spoof:400000``, ``source:SPAM:drop``,
        ``source:SWIN:skew:0.75:2013.5``, ``source:WEB:truncate:0.25``.
        """
        parts = text.split(":")
        if len(parts) < 3 or parts[0] != "source":
            raise ValueError(
                f"source fault spec must look like "
                f"source:NAME:kind[:amount[:start]], got {text!r}"
            )
        # An empty field keeps the kind's default amount, so an onset
        # can be given without one: source:MLAB:drop::2014.0.
        return cls(
            source=parts[1],
            kind=parts[2],
            amount=float(parts[3]) if len(parts) > 3 and parts[3] else None,
            start=float(parts[4]) if len(parts) > 4 and parts[4] else float("-inf"),
        )


def parse_fault(text: str) -> "FaultSpec | SourceFaultSpec":
    """Parse either CLI fault form (stage faults or ``source:`` faults)."""
    if text.startswith("source:"):
        return SourceFaultSpec.parse(text)
    return FaultSpec.parse(text)


def _draw_in_support(
    rng: np.random.Generator, count: int, support
) -> np.ndarray:
    """Exactly ``count`` uniform addresses inside an IntervalSet."""
    size = support.size()
    if size == 0 or count <= 0:
        return np.zeros(0, dtype=np.uint32)
    offsets = rng.integers(0, size, size=count, dtype=np.uint64)
    starts = support._starts  # noqa: SLF001 - package-internal fast path
    ends = support._ends  # noqa: SLF001
    cumulative = np.concatenate([[np.uint64(0)], np.cumsum(ends - starts)])
    idx = np.searchsorted(cumulative, offsets, side="right") - 1
    return (starts[idx] + (offsets - cumulative[idx])).astype(np.uint32)


class FaultySource:
    """A measurement source wrapped with seeded data faults.

    Duck-typed to the :class:`~repro.sources.base.MeasurementSource`
    interface (``name``, availability bounds, ``collect``) rather than
    subclassing it, so this module never imports the sources package at
    import time.  Perturbations are applied quarter by quarter (the
    granularity real feeds accumulate at) and drawn from RNGs seeded by
    ``(seed, source, kind, quarter)``, so a faulty sweep is exactly
    reproducible — in particular bit-identical between serial and
    process-pool execution, where the wrapper travels to workers inside
    the executor payload.
    """

    def __init__(
        self,
        base: "MeasurementSource",
        specs: Iterable[SourceFaultSpec | str],
        seed: int = 0,
        spoof_support=None,
    ) -> None:
        self.base = base
        self.name = base.name
        self.available_from = base.available_from
        self.available_to = base.available_to
        parsed = tuple(
            SourceFaultSpec.parse(s) if isinstance(s, str) else s
            for s in specs
        )
        self.specs = tuple(
            s for s in parsed if s.source in (base.name, "*")
        )
        self.seed = seed
        #: Address space spoof injections draw from (an IntervalSet,
        #: e.g. the registry's allocated space so injected spoofs
        #: survive routed-space preprocessing); ``None`` draws
        #: uniformly over the whole 32-bit space.
        self.spoof_support = spoof_support

    def available_in(self, start: float, end: float) -> bool:
        """Whether the wrapped source overlaps the window (delegated)."""
        return self.base.available_in(start, end)

    def __repr__(self) -> str:
        kinds = ",".join(s.kind for s in self.specs)
        return f"FaultySource({self.name!r}, kinds=[{kinds}])"

    def collect(self, start: float, end: float) -> IPSet:
        """The wrapped source's window data with the faults applied.

        Quarters are perturbed independently and unioned by
        :func:`repro.sources.base.union_of_quarters`, the rule
        :class:`~repro.sources.base.QuarterlySource` collects by.
        """
        from repro.sources.base import union_of_quarters

        return union_of_quarters(self, start, end)

    def quarter_set(self, q: int) -> np.ndarray:
        """Sorted-unique addresses of one quarter, faults applied."""
        from repro.sources.base import _derive_seed, quarter_bounds

        q_start, q_end = quarter_bounds(q)
        active = [s for s in self.specs if q_start >= s.start - 1e-9]
        data = self.base.collect(q_start, q_end)
        for spec in active:
            rng = np.random.default_rng(
                _derive_seed(self.seed, self.name, spec.kind, q)
            )
            data = self._apply(spec, data, q, rng)
        return data.addresses

    def _apply(
        self,
        spec: SourceFaultSpec,
        data: IPSet,
        q: int,
        rng: np.random.Generator,
    ) -> IPSet:
        from repro.sources.base import quarter_bounds
        from repro.sources.spoofing import draw_spoofed_addresses

        if spec.kind == "drop":
            return IPSet.empty()
        if spec.kind == "truncate":
            addrs = data.addresses
            keep = rng.random(len(addrs)) < spec.amount
            return IPSet.from_sorted_unique(addrs[keep])
        if spec.kind == "duplicate":
            stale = [
                self.base.collect(*quarter_bounds(q - back))
                for back in range(1, int(spec.amount) + 1)
            ]
            return data.union(*stale)
        if spec.kind == "skew":
            return self.base.collect(
                quarter_bounds(q)[0] - spec.amount,
                quarter_bounds(q)[1] - spec.amount,
            )
        if spec.kind == "spoof":
            count = int(spec.amount)
            if self.spoof_support is not None:
                injected = _draw_in_support(rng, count, self.spoof_support)
            else:
                injected = draw_spoofed_addresses(rng, count)
            return data.union(IPSet(injected))
        raise ValueError(f"unknown source fault kind {spec.kind!r}")


def apply_source_faults(
    sources: "Mapping[str, MeasurementSource]",
    specs: Iterable[SourceFaultSpec | str],
    seed: int = 0,
    spoof_support=None,
) -> "dict[str, MeasurementSource]":
    """Wrap the targeted sources of a catalog with :class:`FaultySource`.

    Specs naming a source not in ``sources`` raise ``ValueError`` (a
    typo would otherwise silently inject nothing); ``"*"`` targets
    every source.  Untargeted sources pass through unwrapped.
    """
    parsed = tuple(
        SourceFaultSpec.parse(s) if isinstance(s, str) else s for s in specs
    )
    unknown = {s.source for s in parsed} - set(sources) - {"*"}
    if unknown:
        raise ValueError(
            f"source fault specs target unknown sources: {sorted(unknown)}"
        )
    wrapped = dict(sources)
    for name, source in sources.items():
        mine = [s for s in parsed if s.source in (name, "*")]
        if mine:
            wrapped[name] = FaultySource(
                source, mine, seed=seed, spoof_support=spoof_support
            )
    return wrapped
