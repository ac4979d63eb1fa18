"""What a ``repro`` process imports: never ``scipy.stats`` or ``scipy.optimize``.

``scipy.stats`` pulls in ``scipy.optimize``, and together they cost a
fresh interpreter about 40 MB and 0.6 s before any work starts.  The
pipeline needs only tails and quantiles that ``scipy.special``
computes, and ``scipy.optimize`` only inside the classical M0/Mb
fitters.  Each check runs in a fresh interpreter, since this test
process has imported both already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.stats", "scipy.optimize")

REPORT = f"""
import sys
print(",".join(m for m in {HEAVY!r} if m in sys.modules))
"""


def heavy_modules_after(code: str) -> list[str]:
    """The heavy scipy modules loaded after running ``code`` afresh."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout
    last = out.strip().splitlines()[-1] if out.strip() else ""
    return [name for name in last.split(",") if name]


def test_cli_import():
    assert heavy_modules_after("import repro.cli") == []


def test_one_window_sweep():
    code = """
from repro import Executor, SimulationConfig, SyntheticInternet, standard_windows
internet = SyntheticInternet(SimulationConfig(scale=2.0**-14))
Executor(internet).run_windows(windows=standard_windows()[-1:])
"""
    assert heavy_modules_after(code) == []


def test_capture_recapture_with_profile_interval():
    code = """
import numpy as np
from repro import CaptureRecapture, IPSet
rng = np.random.default_rng(0)
universe = rng.choice(2**20, 5000, replace=False)
sources = {
    name: IPSet(universe[rng.random(universe.size) < p])
    for name, p in (("a", 0.5), ("b", 0.4), ("c", 0.3))
}
estimator = CaptureRecapture(sources)
estimator.estimate()
estimator.profile_interval()
"""
    assert heavy_modules_after(code) == []


def test_closed_model_fitters_still_reach_scipy_optimize():
    code = """
import numpy as np
from repro.core.closed_models import fit_m0
from repro.core.histories import ContingencyTable
fit_m0(ContingencyTable(2, np.array([0, 30, 20, 10])))
"""
    assert heavy_modules_after(code) == ["scipy.optimize"]
