"""Supply runout prediction (Table 6)."""

import math

import pytest

from repro.analysis.supply import SupplyRow, supply_by_rir, world_supply
from repro.analysis.windows import TimeWindow
from repro.registry.rir import RIR


@pytest.fixture(scope="module")
def supply_rows(tiny_executor):
    return supply_by_rir(
        tiny_executor,
        TimeWindow(2011.0, 2012.0),
        TimeWindow(2013.5, 2014.5),
    )


class TestSupplyRows:
    def test_all_rirs_present(self, supply_rows):
        assert {r.label for r in supply_rows} == {r.name for r in RIR}

    def test_available_nonnegative(self, supply_rows):
        assert all(r.available >= 0 for r in supply_rows)

    def test_runout_after_now(self, supply_rows):
        for row in supply_rows:
            assert row.runout_year > 2014.5

    def test_regional_pressure_ordering(self, supply_rows):
        """The paper's pressure points: APNIC and LACNIC run out well
        before ARIN."""
        by_label = {r.label: r for r in supply_rows}
        arin = by_label["ARIN"].runout_year
        assert by_label["APNIC"].runout_year < arin
        assert by_label["LACNIC"].runout_year < arin

    def test_utilisation_cap_tightens_runout(self, tiny_executor):
        full = supply_by_rir(
            tiny_executor,
            TimeWindow(2011.0, 2012.0), TimeWindow(2013.5, 2014.5),
        )
        capped = supply_by_rir(
            tiny_executor,
            TimeWindow(2011.0, 2012.0), TimeWindow(2013.5, 2014.5),
            utilisation_cap=0.75,
        )
        for f, c in zip(full, capped):
            assert c.available <= f.available
            assert c.runout_year <= f.runout_year

    def test_invalid_cap_rejected(self, tiny_executor):
        with pytest.raises(ValueError):
            supply_by_rir(
                tiny_executor,
                TimeWindow(2011.0, 2012.0), TimeWindow(2013.5, 2014.5),
                utilisation_cap=0.0,
            )

    def test_subnet_level(self, tiny_executor):
        rows = supply_by_rir(
            tiny_executor,
            TimeWindow(2011.0, 2012.0), TimeWindow(2013.5, 2014.5),
            level="subnets",
        )
        assert len(rows) == 5
        assert all(r.available > 0 for r in rows)


class TestWorld:
    def test_world_aggregates(self, supply_rows):
        world = world_supply(supply_rows, now=2014.5)
        assert world.label == "World"
        assert world.available == pytest.approx(
            sum(r.available for r in supply_rows)
        )
        assert world.growth_per_year == pytest.approx(
            sum(r.growth_per_year for r in supply_rows)
        )

    def test_zero_growth_never_runs_out(self):
        row = SupplyRow("X", available=100.0, growth_per_year=0.0,
                        runout_year=math.inf)
        assert SupplyRow.runout(2014.5, 100.0, 0.0) == math.inf
        assert row.runout_year == math.inf
