"""Shared pieces of the benchmark: the world, timed stores, statistics.

Everything here calls the program only through its public API; the
benchmark never edits ``src/``.  Paths stay inside the checkout: the
scratch directory lives under the checkout root and is removed when the
run ends.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

#: Checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: The simulated Internet's size: 2^-14 of the real address space.
SCALE_LOG2 = -14

#: The seed the paper reproduction uses everywhere by default.
DEFAULT_SEED = 20140630

#: Ledger query kinds a closed-loop client asks in turn.
QUERY_KINDS = ("totals", "growth", "windows")


def ensure_program_importable() -> None:
    """Put the checkout's ``src/`` first on the import path.

    Raises ``ImportError`` when the checkout holds no program: the
    benchmark must then fail without printing a result.
    """
    import sys

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # The run ledger stamps a git revision; keep git from walking out of
    # the checkout looking for a repository.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


@contextlib.contextmanager
def scratch_dir() -> Iterator[Path]:
    """A private scratch directory inside the checkout, removed on exit."""
    base = ROOT / ".perfbench_tmp"
    path = base / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    previous = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(path)
    try:
        yield path
    finally:
        if previous is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = previous
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


#: One speed probe's duration on a quiet run of the two-vCPU VM the
#: benchmark was written on; reported timings are at this speed.
REFERENCE_PROBE_S = 0.025


class SpeedProbe:
    """A fixed CPU kernel, timed between samples, that tracks machine speed.

    On a shared VM the same work runs 10-35 % slower for stretches of
    10-40 s, longer than a run.  Each timed sample is bracketed by two
    probe runs and scaled by ``REFERENCE_PROBE_S`` over their mean, so a
    reported time is the sample's wall time at the reference speed.  The
    kernel does what the program does most: small dense solves,
    ``np.unique`` over integer arrays and dict-heavy Python.  It calls
    nothing in the program, so no change to the program moves it.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._x = rng.random((256, 12))
        self._w = rng.random(256)
        self._y = rng.random(256)
        self._ints = rng.integers(0, 1 << 20, 20000)
        self.durations: list[float] = []
        self.mark()

    def _kernel(self) -> float:
        np = self._np
        start = perf_counter()
        total = 0.0
        for _ in range(8):
            xtw = self._x.T * self._w
            total += float(np.linalg.solve(xtw @ self._x, xtw @ self._y)[0])
            total += len(np.unique(self._ints))
            counts: dict[int, int] = {}
            for i in range(400):
                counts[i & 63] = counts.get(i & 63, 0) + i
            total += len(sorted(counts.items()))
        return perf_counter() - start

    def mark(self) -> None:
        """Probe now: the start bracket of the next timed stretch.

        A probe is the median of three kernel runs, so one run that an
        interrupt or a neighbour's burst slowed does not skew a bracket.
        """
        self._last = statistics.median(self._kernel() for _ in range(3))
        self.durations.append(self._last)

    def scale(self) -> float:
        """Probe now and return the factor for the stretch just timed."""
        before = self._last
        self.mark()
        return REFERENCE_PROBE_S / ((before + self._last) / 2)


def build_world(seed: int):
    """The simulated Internet at 2^-14 plus the paper's nine sources."""
    from repro.simnet.internet import SimulationConfig, SyntheticInternet
    from repro.sources.catalog import build_standard_sources

    internet = SyntheticInternet(
        SimulationConfig(scale=2.0**SCALE_LOG2, seed=seed)
    )
    return internet, build_standard_sources(internet)


def windows():
    """The paper's 11 standard observation windows."""
    from repro.analysis.windows import standard_windows

    return standard_windows()


def timed_store(path: Path):
    """A tiered artifact store whose ``get``/``put`` calls are timed.

    Built exactly like ``repro.engine.open_store`` (memory LRU over a
    persistent ``LocalStore``) and handed to ``Executor(cache=...)``, so
    the engine sees an ordinary store while the benchmark counts calls
    and seconds from the outside.
    """
    from repro.engine.artifacts import ArtifactCache
    from repro.engine.store import LocalStore, TieredStore

    class TimedStore(TieredStore):
        def __init__(self, memory, persistent) -> None:
            super().__init__(memory, persistent)
            self.get_calls = 0
            self.get_s = 0.0
            self.put_calls = 0
            self.put_s = 0.0

        def get(self, key):
            start = perf_counter()
            try:
                return super().get(key)
            finally:
                self.get_s += perf_counter() - start
                self.get_calls += 1

        def put(self, key, value) -> None:
            start = perf_counter()
            try:
                super().put(key, value)
            finally:
                self.put_s += perf_counter() - start
                self.put_calls += 1

    return TimedStore(ArtifactCache(), LocalStore(path))


def degraded_records(report) -> int:
    """Stage records a sweep gave up on (``status == "degraded"``)."""
    return sum(1 for record in report.records if record.status == "degraded")


def estimates(results) -> list[tuple[float, float, float, float]]:
    """(start, end, addresses, subnets) per window result, exact floats."""
    return [
        (
            float(r.window.start),
            float(r.window.end),
            float(r.estimated_addresses),
            float(r.estimated_subnets),
        )
        for r in results
    ]


def rel_err_max(results) -> float:
    """Max over windows and levels of |estimate - truth| / truth."""
    errors = []
    for r in results:
        errors.append(abs(r.estimated_addresses - r.truth_addresses) / r.truth_addresses)
        errors.append(abs(r.estimated_subnets - r.truth_subnets) / r.truth_subnets)
    return max(errors)


def publish_ledger(results, seed: int, directory: Path) -> list[dict]:
    """Write a query ledger for finished window results; return its rows.

    This is a campaign's finalize step applied to a sweep or a stream:
    ``execute_task`` turns each window into its ledger row, and
    ``build_ledger``/``write_ledger`` persist the document that
    ``QueryLedger`` serves.  ``execute_task`` only asks its executor for
    ``window_result``, so an adapter serving the finished results stands
    in for one.
    """
    from repro.service import CampaignSpec, decompose, execute_task
    from repro.service.queryledger import build_ledger, write_ledger

    by_bounds = {(r.window.start, r.window.end): r for r in results}

    class Finished:
        def run(self, stage, window):
            return by_bounds[(window.start, window.end)]

    spec = CampaignSpec(
        windows=tuple(r.window for r in results), scale_log2=SCALE_LOG2,
        seed=seed,
    )
    rows = [execute_task(Finished(), task) for task in decompose(spec)]
    write_ledger(build_ledger(spec, spec.campaign_id(), rows), directory)
    return rows


def answer_ledger(ledger, kind: str) -> Any:
    """Answer a query from a campaign's query ledger."""
    if kind == "totals":
        return ledger.totals()
    if kind == "growth":
        return ledger.growth()
    if kind == "windows":
        return ledger.windows()
    raise ValueError(f"unknown query kind {kind!r}")


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (1-99), linear between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(with_children: bool = False) -> float:
    """Peak resident set of this process in MiB, plus its largest child's.

    Linux reports ``ru_maxrss`` in KiB.  Children count only where they
    are workers (the pool on ``sweep_cold``): the short ``git``
    subprocess a ledger spawns would otherwise add the parent's whole
    resident set, which it reports as its own while forking.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0
