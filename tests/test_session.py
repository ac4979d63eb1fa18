"""The unified Session facade."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import Session, SimulationConfig
from repro.core.estimator import CaptureRecapture
from repro.engine.stages import PipelineOptions
from repro.stream.estimator import StreamEstimator
from repro.stream.journal import journal_from_sources


@pytest.fixture()
def toy_sets(rng):
    from tests.conftest import make_independent_sources

    _, sources = make_independent_sources(rng, 2000, [0.4, 0.5, 0.3])
    return sources


class TestConstruction:
    def test_direct_construction_is_rejected(self):
        with pytest.raises(TypeError, match="from_sets"):
            Session()

    def test_from_sets_requires_two_sources(self, toy_sets):
        only = {"S0": next(iter(toy_sets.values()))}
        with pytest.raises(ValueError, match="at least two"):
            Session.from_sets(only)

    def test_repr_names_the_mode(self, toy_sets):
        assert "sets" in repr(Session.from_sets(toy_sets))


class TestModeGating:
    def test_sets_session_has_no_sweep(self, toy_sets):
        session = Session.from_sets(toy_sets)
        with pytest.raises(ValueError, match="from_simulation"):
            session.sweep()

    def test_sets_session_has_no_stream(self, toy_sets):
        session = Session.from_sets(toy_sets)
        with pytest.raises(ValueError, match="from_journal"):
            session.stream()

    def test_sets_estimate_rejects_window(self, toy_sets, last_window):
        session = Session.from_sets(toy_sets)
        with pytest.raises(ValueError, match="no time axis"):
            session.estimate(window=last_window)

    def test_simulation_session_has_no_stream(self, tiny_internet):
        session = Session.from_simulation(tiny_internet)
        with pytest.raises(ValueError, match="from_journal"):
            session.stream()

    def test_journal_session_has_no_campaign_spec(self, tiny_internet, tmp_path):
        session = Session.from_journal(tmp_path / "journal", internet=tiny_internet)
        with pytest.raises(ValueError, match="from_simulation"):
            session.campaign_spec()


class TestFacadeEquivalence:
    def test_from_sets_matches_capture_recapture(self, toy_sets):
        legacy = CaptureRecapture(toy_sets).estimate()
        unified = Session.from_sets(toy_sets).estimate()
        assert unified.population == pytest.approx(legacy.population)
        assert unified.observed == legacy.observed
        assert unified.terms == legacy.terms

    def test_from_simulation_matches_pipeline(
        self, tiny_internet, tiny_sources, last_window, last_window_result
    ):
        session = Session.from_simulation(
            tiny_internet,
            sources=tiny_sources,
            options=PipelineOptions(min_stratum_observed=25),
        )
        result = session.estimate(last_window)
        np.testing.assert_allclose(
            result.estimated_addresses,
            last_window_result.estimated_addresses,
            rtol=1e-8,
        )
        assert result.excluded_sources == last_window_result.excluded_sources

    def test_from_journal_streams_the_latest_coverable_window(
        self, tiny_internet, tiny_sources, tmp_path, first_window, tiny_executor
    ):
        journal_from_sources(
            tiny_sources, tmp_path / "journal", through=2012.0
        )
        session = Session.from_journal(
            tmp_path / "journal",
            internet=tiny_internet,
            options=PipelineOptions(min_stratum_observed=25),
        )
        stream = session.stream()
        assert isinstance(stream, StreamEstimator)
        result = session.estimate()  # latest coverable == the first window
        assert result.window == first_window
        batch = tiny_executor.window_result(first_window)
        np.testing.assert_allclose(
            result.estimated_addresses, batch.estimated_addresses, rtol=1e-8
        )

    def test_empty_journal_estimate_is_a_clear_error(
        self, tiny_internet, tmp_path
    ):
        session = Session.from_journal(
            tmp_path / "journal", internet=tiny_internet
        )
        with pytest.raises(ValueError, match="no fully-covered"):
            session.estimate()

    def test_campaign_spec_captures_the_session_shape(self, tiny_internet):
        # The shape comes from the simulator itself (a 2^-13, seed-123
        # world), not from from_simulation's scale_log2/seed defaults.
        options = PipelineOptions(min_stratum_observed=25)
        session = Session.from_simulation(tiny_internet, options=options)
        spec = session.campaign_spec(drop_sources=("WIKI",))
        assert spec.scale_log2 == -13
        assert spec.seed == 123
        assert spec.drop_sources == ("WIKI",)
        assert len(spec.windows) == 11
        assert spec.options == options

    def test_campaign_spec_rejects_custom_sources(
        self, tiny_internet, tiny_sources
    ):
        session = Session.from_simulation(tiny_internet, sources=tiny_sources)
        with pytest.raises(ValueError, match="standard source catalog"):
            session.campaign_spec()

    @pytest.mark.parametrize(
        "config",
        [
            SimulationConfig(scale=3 * 2.0**-14, seed=123),
            SimulationConfig(scale=2.0**-13, seed=123, num_darknets=5),
        ],
        ids=["scale-not-power-of-two", "non-default-field"],
    )
    def test_campaign_spec_rejects_unrebuildable_world(self, config):
        # campaign_spec only reads the simulator's config, so a bare
        # holder of one stands in for a (costly) SyntheticInternet.
        session = Session.from_simulation(SimpleNamespace(config=config))
        with pytest.raises(ValueError, match="cannot rebuild"):
            session.campaign_spec()
