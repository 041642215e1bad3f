"""Tests for the microarchitecture model and the Fig. 6 flow."""

import pytest

from repro.aging import balance_case, worst_case
from repro.core import (AgingApproximationLibrary, Block, Microarchitecture,
                        apply_aging_approximations, cache_enabled,
                        characterize, plan_graceful_degradation)
from repro.obs import metrics as obs_metrics
from repro.rtl import Adder, Multiplier
from repro.sta import critical_path_delay


def small_idct_like(width=10):
    """Multiplier-dominated two-block design (small IDCT stand-in)."""
    return Microarchitecture("mini", [
        Block(name="mult", component=Multiplier(width), instances=2),
        Block(name="acc", component=Adder(width), instances=1),
    ])


@pytest.fixture(scope="module")
def mini(lib):
    micro = small_idct_like()
    micro.synthesize(lib, effort="high")
    return micro


class TestMicroarchitecture:
    def test_duplicate_block_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Microarchitecture("bad", [
                Block(name="x", component=Adder(4)),
                Block(name="x", component=Adder(4)),
            ])

    def test_block_lookup(self, mini):
        assert mini.block("mult").component.family == "multiplier"
        with pytest.raises(KeyError):
            mini.block("missing")

    def test_constraint_is_slowest_block(self, lib, mini):
        constraint = mini.timing_constraint_ps(lib, effort="high")
        delays = [critical_path_delay(b.synthesized(lib, "high"), lib)
                  for b in mini.blocks]
        assert constraint == pytest.approx(max(delays))

    def test_timing_rows(self, lib, mini):
        timing = mini.timing(lib, scenario=worst_case(10), effort="high")
        assert set(timing) == {"mult", "acc"}
        mult = timing["mult"]
        assert mult.aged_ps > mult.fresh_ps
        assert mult.violates         # slowest block must violate
        assert not timing["acc"].violates

    def test_relative_slack_normalization(self, lib, mini):
        constraint = mini.timing_constraint_ps(lib, effort="high")
        timing = mini.timing(lib, scenario=worst_case(10),
                             constraint_ps=constraint, effort="high")
        for row in timing.values():
            assert row.relative_slack == pytest.approx(
                row.slack_ps / constraint)

    def test_with_precisions_copies(self, mini):
        derived = mini.with_precisions({"mult": 6})
        assert derived.block("mult").component.precision == 6
        assert derived.block("acc").component.precision == 10
        assert mini.block("mult").component.precision == 10
        assert derived.block("mult").netlist is None  # fresh synthesis

    def test_area_rollup_counts_instances(self, lib, mini):
        per_block = {b.name: b.synthesized(lib, "high").area(lib)
                     for b in mini.blocks}
        assert mini.area_um2(lib, effort="high") == pytest.approx(
            2 * per_block["mult"] + per_block["acc"])

    def test_iter_and_repr(self, mini):
        assert [b.name for b in mini] == ["mult", "acc"]
        assert "mult" in repr(mini)


class TestApplyApproximations:
    @pytest.fixture(scope="class")
    def outcome(self, lib):
        micro = small_idct_like()
        store = AgingApproximationLibrary()
        return apply_aging_approximations(micro, lib, worst_case(10),
                                          store, effort="high"), micro

    def test_violating_block_approximated(self, outcome):
        result, __ = outcome
        assert result.decisions["mult"].approximated
        assert result.decisions["mult"].chosen_precision < 10

    def test_healthy_block_untouched(self, outcome):
        result, __ = outcome
        assert not result.decisions["acc"].approximated
        assert result.decisions["acc"].chosen_precision == 10

    def test_validated_design_meets_constraint(self, outcome, lib):
        result, __ = outcome
        assert result.validated
        assert result.residual_guardband_ps == 0.0
        timing = result.design.timing(lib, scenario=worst_case(10),
                                      constraint_ps=result.constraint_ps,
                                      effort="high")
        for row in timing.values():
            assert row.slack_ps >= 0

    def test_slacks_recorded(self, outcome):
        result, __ = outcome
        mult = result.decisions["mult"]
        assert mult.slack_before_ps < 0
        assert mult.slack_after_ps >= 0

    def test_precision_map(self, outcome):
        result, __ = outcome
        pmap = result.precision_map
        assert set(pmap) == {"mult", "acc"}
        assert pmap["acc"] == 10

    def test_library_filled_on_demand(self, lib):
        micro = small_idct_like()
        store = AgingApproximationLibrary()
        apply_aging_approximations(micro, lib, worst_case(10), store,
                                   effort="high")
        assert "multiplier_w10" in store
        assert "adder_w10" not in store  # never violated -> never needed

    def test_invalid_rule_rejected(self, lib):
        with pytest.raises(ValueError, match="rule"):
            apply_aging_approximations(small_idct_like(), lib,
                                       worst_case(10),
                                       AgingApproximationLibrary(),
                                       rule="bogus")

    def test_relative_rule_is_more_conservative(self, lib):
        store = AgingApproximationLibrary()
        eq2 = apply_aging_approximations(small_idct_like(), lib,
                                         worst_case(10), store,
                                         effort="high", rule="eq2")
        rel = apply_aging_approximations(small_idct_like(), lib,
                                         worst_case(10), store,
                                         effort="high", rule="relative")
        assert rel.decisions["mult"].chosen_precision <= \
            eq2.decisions["mult"].chosen_precision

    def test_quality_check_backoff(self, lib):
        store = AgingApproximationLibrary()
        seen = []

        def reject_everything(design):
            seen.append(design)
            return False

        result = apply_aging_approximations(
            small_idct_like(), lib, worst_case(10), store, effort="high",
            quality_check=reject_everything, max_refinements=3)
        # Quality can never be satisfied, so the flow must fall back to a
        # residual guardband instead of looping forever.
        assert len(seen) >= 1
        assert not result.validated or result.residual_guardband_ps >= 0


def full_range_library(lib, scenarios):
    """A supplied library: the multiplier over the whole default range."""
    return AgingApproximationLibrary([characterize(
        Multiplier(10), lib, scenarios, effort="high", cache=None)])


def decisions_of(outcome):
    return ({name: (d.chosen_precision, d.slack_after_ps)
             for name, d in outcome.decisions.items()},
            outcome.residual_guardband_ps, outcome.iterations)


def above_eight(design):
    """Quality check rejecting any block below precision 8 (back-off)."""
    return all(blk.component.precision >= 8 for blk in design.blocks)


class TestTopDownSearch:
    """The Eq. 2 search characterizes only the precisions it reads."""

    @pytest.fixture(scope="class")
    def searched(self, lib):
        """Entries the search creates at jobs 1 and 2, with decisions."""
        out = {}
        for jobs in (1, 2):
            store = AgingApproximationLibrary()
            outcome = apply_aging_approximations(
                small_idct_like(), lib, worst_case(10), store,
                effort="high", jobs=jobs)
            out[jobs] = outcome, store.get("multiplier_w10")
        return out

    @pytest.mark.parametrize("rule", ["eq2", "relative"])
    @pytest.mark.parametrize("years", [1, 10])
    def test_same_decisions_as_full_range_library(self, lib, rule, years):
        scenario = worst_case(years)
        full = full_range_library(lib, [scenario])
        got = apply_aging_approximations(
            small_idct_like(), lib, scenario, AgingApproximationLibrary(),
            effort="high", rule=rule)
        want = apply_aging_approximations(small_idct_like(), lib, scenario,
                                          full, effort="high", rule=rule)
        assert decisions_of(got) == decisions_of(want)

    @pytest.mark.parametrize("rule", ["eq2", "relative"])
    def test_same_decisions_under_quality_backoff(self, lib, rule):
        full = full_range_library(lib, [worst_case(10)])
        got, want = (apply_aging_approximations(
            small_idct_like(), lib, worst_case(10), store, effort="high",
            rule=rule, quality_check=above_eight)
            for store in (AgingApproximationLibrary(), full))
        assert got.iterations > 1
        assert decisions_of(got) == decisions_of(want)

    @pytest.mark.parametrize("factory", [worst_case, balance_case])
    def test_schedule_same_as_full_range_library(self, lib, factory):
        years = [1, 5, 10]
        full = full_range_library(lib, [factory(y) for y in years])
        got, want = (plan_graceful_degradation(
            small_idct_like(), lib, years, approx_library=store,
            effort="high", scenario_factory=factory)
            for store in (None, full))
        assert got.checkpoints == want.checkpoints

    def test_created_entry_holds_width_to_chosen(self, searched):
        for outcome, entry in searched.values():
            chosen = outcome.decisions["mult"].chosen_precision
            assert chosen < 9  # the walk went past its first window
            assert entry.precisions == list(range(10, chosen - 1, -1))
            assert entry.has_scenario("10y_worst")

    def test_created_entry_equal_across_jobs(self, searched):
        (one, serial), (two, pooled) = searched[1], searched[2]
        assert decisions_of(one) == decisions_of(two)
        assert serial.to_dict() == pooled.to_dict()

    def test_supplied_full_range_library_characterizes_nothing(
            self, lib, tmp_path):
        full = full_range_library(lib, [worst_case(10)])
        small_idct_like().synthesize(lib, effort="high")
        runs = {}
        for name, store in (("supplied", full),
                            ("searched", AgingApproximationLibrary())):
            with cache_enabled(str(tmp_path / name)), \
                    obs_metrics.scoped() as registry:
                outcome = apply_aging_approximations(
                    small_idct_like(), lib, worst_case(10), store,
                    effort="high", jobs=1)
            runs[name] = (registry.value(obs_metrics.SYNTH_RUNS),
                          registry.value(obs_metrics.CACHE_STORES))
        assert runs["supplied"] == (0, 0)
        assert full.get("multiplier_w10").precisions == list(
            range(10, 0, -1))
        # An empty library stores exactly the points the search walked.
        chosen = outcome.decisions["mult"].chosen_precision
        assert runs["searched"][1] == 10 - chosen + 1

    def test_supplied_entry_gains_no_precisions(self, lib):
        partial = characterize(Multiplier(10), lib, [worst_case(1)],
                               precisions=[10, 9, 8, 7], effort="high",
                               cache=None)
        store = AgingApproximationLibrary([partial])
        apply_aging_approximations(small_idct_like(), lib, worst_case(10),
                                   store, effort="high")
        entry = store.get("multiplier_w10")
        assert entry.precisions == [10, 9, 8, 7]
        # No supplied precision meets 10y, so all were walked.
        assert entry.has_scenario("10y_worst")
        assert store.searched_scenarios("multiplier_w10") is None

    def test_supplied_entry_gains_new_scenario_down_to_answer(self, lib):
        store = full_range_library(lib, [worst_case(1)])
        outcome = apply_aging_approximations(
            small_idct_like(), lib, worst_case(10), store, effort="high")
        chosen = outcome.decisions["mult"].chosen_precision
        entry = store.get("multiplier_w10")
        assert entry.precisions == list(range(10, 0, -1))
        assert sorted(p for p, label in entry.aged_ps
                      if label == "10y_worst") == list(range(chosen, 11))
        assert entry.required_precision(
            "10y_worst", target_ps=outcome.constraint_ps) == chosen

    def test_older_scenario_extends_created_entry(self, lib):
        store = AgingApproximationLibrary()
        young = apply_aging_approximations(small_idct_like(), lib,
                                           worst_case(1), store,
                                           effort="high")
        entry = store.get("multiplier_w10")
        p1 = young.decisions["mult"].chosen_precision
        assert entry.precisions == list(range(10, p1 - 1, -1))
        old = apply_aging_approximations(small_idct_like(), lib,
                                         worst_case(10), store,
                                         effort="high")
        p10 = old.decisions["mult"].chosen_precision
        assert p10 < p1
        assert store.get("multiplier_w10") is entry
        assert entry.precisions == list(range(10, p10 - 1, -1))
        # The new precisions carry the earlier scenario too.
        assert entry.has_scenario("1y_worst")
        assert entry.has_scenario("10y_worst")

    def test_search_marks_live_in_memory_only(self, lib, tmp_path):
        store = AgingApproximationLibrary()
        apply_aging_approximations(small_idct_like(), lib, worst_case(10),
                                   store, effort="high")
        assert [s.label for s in store.searched_scenarios(
            "multiplier_w10")] == ["10y_worst"]
        path = str(tmp_path / "lib.json")
        store.save(path)
        assert AgingApproximationLibrary.load(path).searched_scenarios(
            "multiplier_w10") is None
        store.add(store.get("multiplier_w10"))
        assert store.searched_scenarios("multiplier_w10") is None
