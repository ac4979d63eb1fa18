"""The consolidated public surface and its plain config dataclasses.

`repro.__all__` is a contract: star-import exposes exactly the
documented names.  The config dataclasses accept only their canonical
keywords; the historical alias spellings are ordinary unknown keywords.
"""

import dataclasses
import warnings

import pytest

import repro
from repro.core.estimator import EstimatorOptions
from repro.engine.executor import ExecutionPolicy


class TestStarImport:
    def test_star_import_matches_all(self):
        ns = {}
        exec("from repro import *", ns)
        public = {k for k in ns if not k.startswith("_")}
        assert public == set(repro.__all__) - {"__version__"}

    def test_one_stop_objects_reexported(self):
        for name in (
            "CaptureRecapture", "EstimatorOptions", "ExecutionPolicy",
            "Executor", "FaultInjector", "FaultSpec", "RunReport",
            "WindowResult", "Observer", "MetricsRegistry", "RunLedger",
            "Tracer", "render_run_report",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name

    def test_subpackages_define_all(self):
        import repro.analysis
        import repro.core
        import repro.engine
        import repro.ipspace
        import repro.obs
        import repro.service
        import repro.simnet
        import repro.sources

        for pkg in (
            repro.analysis, repro.core, repro.engine, repro.ipspace,
            repro.obs, repro.service, repro.simnet, repro.sources,
        ):
            assert pkg.__all__, pkg.__name__
            for name in pkg.__all__:
                assert hasattr(pkg, name), f"{pkg.__name__}.{name}"


class TestExecutionPolicyAliases:
    def test_max_retries_alias(self):
        with pytest.raises(TypeError, match="unexpected keyword.*max_retries"):
            ExecutionPolicy(max_retries=3)

    def test_timeout_aliases(self):
        for spelling in ("timeout_s", "timeout"):
            with pytest.raises(TypeError, match=f"unexpected keyword.*{spelling}"):
                ExecutionPolicy(**{spelling: 5.0})

    def test_canonical_spelling_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ExecutionPolicy(retries=2, task_timeout=1.0)

    def test_unknown_kwarg_still_a_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ExecutionPolicy(nonsense=1)

    def test_dataclass_machinery_survives_the_shim(self):
        policy = ExecutionPolicy(retries=2)
        assert dataclasses.replace(policy, retries=3).retries == 3
        assert dataclasses.asdict(policy)["retries"] == 2

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ExecutionPolicy(retries=-1)
        for timeout in (0, -1.0):
            with pytest.raises(ValueError, match="task_timeout"):
                ExecutionPolicy(task_timeout=timeout)


class TestEstimatorOptionsAliases:
    def test_truncation_limit_alias(self):
        with pytest.raises(TypeError, match="unexpected keyword.*truncation_limit"):
            EstimatorOptions(truncation_limit=100.0)

    def test_min_observed_alias(self):
        with pytest.raises(TypeError, match="unexpected keyword.*min_observed"):
            EstimatorOptions(min_observed=5)

    def test_canonical_spelling_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            EstimatorOptions(limit=10.0, min_stratum_observed=2)

    def test_positional_construction_still_works(self):
        opts = EstimatorOptions("aic", 10)
        assert opts.criterion == "aic"
        assert opts.divisor == 10
