"""Tests for the adaptive graceful-degradation scheduler."""

import pytest

from repro.aging import balance_case
from repro.core import (AgingApproximationLibrary, Block, Microarchitecture,
                        PrecisionSchedule, plan_graceful_degradation)
from repro.rtl import Adder, Multiplier


def mini_micro(width=10):
    return Microarchitecture("mini", [
        Block(name="mult", component=Multiplier(width), instances=2),
        Block(name="acc", component=Adder(width)),
    ])


@pytest.fixture(scope="module")
def schedule(lib):
    return plan_graceful_degradation(mini_micro(), lib, [1, 5, 10],
                                     effort="high")


class TestPlanning:
    def test_starts_at_full_precision(self, schedule):
        age, precisions = schedule.checkpoints[0]
        assert age == 0.0
        assert precisions == {"mult": 10, "acc": 10}

    def test_monotone_nonincreasing(self, schedule):
        for name in ("mult", "acc"):
            series = [p[name] for __, p in schedule.checkpoints]
            assert series == sorted(series, reverse=True)

    def test_violating_block_degrades_over_life(self, schedule):
        first = schedule.checkpoints[1][1]["mult"]
        last = schedule.checkpoints[-1][1]["mult"]
        assert last <= first < 10

    def test_healthy_block_never_degrades(self, schedule):
        assert all(p["acc"] == 10 for __, p in schedule.checkpoints)

    def test_constraint_recorded(self, schedule, lib):
        micro = mini_micro()
        assert schedule.constraint_ps == pytest.approx(
            micro.timing_constraint_ps(lib, "high"))

    def test_invalid_grid_rejected(self, lib):
        with pytest.raises(ValueError):
            plan_graceful_degradation(mini_micro(), lib, [])
        with pytest.raises(ValueError):
            plan_graceful_degradation(mini_micro(), lib, [0, 5])

    def test_shares_characterizations(self, lib):
        store = AgingApproximationLibrary()
        plan_graceful_degradation(mini_micro(), lib, [1, 10],
                                  approx_library=store, effort="high")
        entry = store.get("multiplier_w10")
        assert entry is not None
        assert entry.has_scenario("1y_worst")
        assert entry.has_scenario("10y_worst")

    def test_alternate_stress_factory(self, lib):
        worst = plan_graceful_degradation(mini_micro(), lib, [10],
                                          effort="high")
        typical = plan_graceful_degradation(
            mini_micro(), lib, [10], effort="high",
            scenario_factory=balance_case)
        assert typical.checkpoints[-1][1]["mult"] >= \
            worst.checkpoints[-1][1]["mult"]


class TestQueries:
    def test_precisions_at_interpolates_stepwise(self, schedule):
        assert schedule.precisions_at(0.5) == schedule.checkpoints[0][1]
        assert schedule.precisions_at(1.0) == schedule.checkpoints[1][1]
        assert schedule.precisions_at(7.0) == schedule.checkpoints[2][1]
        assert schedule.precisions_at(30.0) == schedule.checkpoints[-1][1]

    def test_negative_age_rejected(self, schedule):
        with pytest.raises(ValueError):
            schedule.precisions_at(-1.0)

    def test_total_bits_dropped(self, schedule):
        assert schedule.total_bits_dropped(0.0) == 0
        assert schedule.total_bits_dropped(10.0) >= \
            schedule.total_bits_dropped(1.0) > 0

    def test_adaptation_ages_subset_of_checkpoints(self, schedule):
        ages = schedule.adaptation_ages()
        checkpoint_ages = [a for a, __ in schedule.checkpoints]
        assert set(ages) <= set(checkpoint_ages)
        assert ages[0] == 0.0


class TestMergeSupport:
    def test_merge_extends_scenarios(self, lib):
        from repro.aging import worst_case
        from repro.core import characterize
        adder = Adder(8)
        base = characterize(adder, lib, scenarios=[worst_case(1)],
                            precisions=[8, 6], effort="low")
        extra = characterize(adder, lib, scenarios=[worst_case(10)],
                             precisions=[8, 6], effort="low")
        base.merge(extra)
        assert base.has_scenario("1y_worst")
        assert base.has_scenario("10y_worst")

    def test_merge_rejects_other_component(self, lib):
        from repro.aging import worst_case
        from repro.core import characterize
        a = characterize(Adder(8), lib, scenarios=[worst_case(1)],
                         precisions=[8], effort="low")
        b = characterize(Adder(6), lib, scenarios=[worst_case(1)],
                         precisions=[6], effort="low")
        with pytest.raises(ValueError):
            a.merge(b)

    def test_has_scenario_partial(self, lib):
        from repro.aging import worst_case
        from repro.core import characterize
        entry = characterize(Adder(8), lib, scenarios=[worst_case(1)],
                             precisions=[8, 7], effort="low")
        extra = characterize(Adder(8), lib, scenarios=[worst_case(10)],
                             precisions=[8], effort="low")
        entry.merge(extra)
        # 10y covers only precision 8 -> not fully characterized.
        assert not entry.has_scenario("10y_worst")
        assert entry.has_scenario("1y_worst")

    def test_partial_entry_renders(self, lib):
        """A scenario covering only some precisions renders its missing
        delays as None (rows) and ``-`` (report) instead of raising."""
        from repro.aging import worst_case
        from repro.core import characterize
        from repro.report import characterization_report
        entry = characterize(Adder(8), lib, scenarios=[worst_case(1)],
                             precisions=[8, 7], effort="low")
        extra = characterize(Adder(8), lib, scenarios=[worst_case(10)],
                             precisions=[8], effort="low")
        entry.merge(extra)
        rows = {row["precision"]: row for row in entry.to_rows()}
        assert rows[8]["10y_worst_ps"] == entry.aged_ps[(8, "10y_worst")]
        assert rows[7]["10y_worst_ps"] is None
        assert rows[7]["1y_worst_ps"] == entry.aged_ps[(7, "1y_worst")]
        text = characterization_report(entry)
        line7 = [line for line in text.splitlines()
                 if line.split()[:1] == ["7"]]
        assert len(line7) == 1 and "-" in line7[0].split()
        assert "10y_worst" in text and "1 of 2 precisions" in text
