"""Scheduler traces, subset selectors, and the per-regime invariants."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hierstretch import (
    MachineId,
    ParseError,
    RegimeMismatch,
    SizeLimit,
    alg_a,
    alg_b,
    alg_c,
    alg_d,
    generate,
    random_config,
    ratio_bound,
    run_stream,
    scheduler_for_regime,
    select_max_subset,
    select_prefix_max,
    select_prefix_min,
    SCHEDULERS,
)
from helpers import (
    brute_force_max_subset,
    in_lowest_terms,
    mixed_sizes,
    replay,
    stream,
)

M1, M2 = MachineId.M1, MachineId.M2

small_fractions = st.fractions(min_value="1/40", max_value=1, max_denominator=40)


class TestSelectMaxSubset:
    def test_prefers_single_larger_job(self):
        sel = select_max_subset([Fraction(13, 20), Fraction(7, 10)], Fraction(1))
        assert sel.chosen == (1,)
        assert sel.total == Fraction(7, 10)

    def test_empty(self):
        sel = select_max_subset([], Fraction(1))
        assert sel.chosen == ()
        assert sel.total == 0

    def test_tie_breaks_to_lowest_indices(self):
        sel = select_max_subset([Fraction(1, 2)] * 3, Fraction(1))
        assert sel.chosen == (0, 1)
        assert sel.total == 1

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            select_max_subset([Fraction(1)] * 25, Fraction(1))

    def test_negative_cap_rejected(self):
        with pytest.raises(ParseError):
            select_max_subset([Fraction(1)], Fraction(-1))

    @pytest.mark.parametrize(
        "sizes, cap",
        [([Fraction(1, 2)], 0.5), ([0.5], Fraction(1)), ([Fraction(1, 2)], "half")],
    )
    def test_floats_and_bad_literals_rejected(self, sizes, cap):
        with pytest.raises(ParseError):
            select_max_subset(sizes, cap)

    def test_int_and_literal_caps(self):
        sizes = [Fraction(1, 2), Fraction(1, 3)]
        assert select_max_subset(sizes, 1) == select_max_subset(sizes, Fraction(1))
        assert select_max_subset(sizes, "1/2").total == Fraction(1, 2)

    @settings(max_examples=150)
    @given(
        st.lists(small_fractions, max_size=9),
        st.fractions(min_value=0, max_value=3, max_denominator=40),
    )
    def test_matches_exhaustive_search(self, sizes, cap):
        sel = select_max_subset(sizes, cap)
        want_total, want_set = brute_force_max_subset(sizes, cap)
        assert sel.total == want_total
        assert tuple(sorted(sel.chosen)) == want_set

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(mixed_sizes, max_size=9),
        st.integers(0, 3) | mixed_sizes | st.sampled_from([Fraction(5, 4)]),
    )
    def test_large_denominators_match_exhaustive_search(self, sizes, cap):
        # int and Fraction caps over units up to the lcm of several
        # 10^10..10^13 denominators
        sel = select_max_subset(sizes, cap)
        want_total, want_set = brute_force_max_subset(sizes, cap)
        assert sel.total == want_total and in_lowest_terms(sel.total)
        assert sel.chosen == want_set


class TestPrefixSelectors:
    def test_min_prefix(self):
        sel = select_prefix_min([Fraction(7, 20), Fraction(17, 50)], Fraction(7, 30))
        assert sel.chosen == (0,)
        assert sel.total == Fraction(7, 20)

    def test_max_prefix_can_be_empty(self):
        sel = select_prefix_max([Fraction(13, 20)], Fraction(49, 100))
        assert sel.chosen == ()
        assert sel.total == 0

    def test_min_prefix_falls_back_to_entire_list(self):
        sel = select_prefix_min([Fraction(1, 10), Fraction(1, 10)], Fraction(1, 2))
        assert sel.chosen == (0, 1)
        assert sel.total == Fraction(1, 5)

    @settings(max_examples=100)
    @given(
        st.lists(small_fractions, max_size=8),
        st.fractions(min_value=0, max_value=2, max_denominator=40),
    )
    def test_prefix_properties(self, sizes, threshold):
        sizes = sorted(sizes, reverse=True)
        lo = select_prefix_min(sizes, threshold)
        hi = select_prefix_max(sizes, threshold)
        # prefixes are initial segments
        assert lo.chosen == tuple(range(len(lo.chosen)))
        assert hi.chosen == tuple(range(len(hi.chosen)))
        assert hi.total <= threshold
        # maximality / minimality of the prefix length
        if len(hi.chosen) < len(sizes):
            assert hi.total + sizes[len(hi.chosen)] > threshold
        if lo.total >= threshold and lo.chosen:
            shorter = sum(sizes[: len(lo.chosen) - 1], Fraction(0))
            assert shorter < threshold
        if lo.total < threshold:
            assert lo.chosen == tuple(range(len(sizes)))


class TestAlgorithmA:
    def test_threshold_trace(self):
        result = run_stream(stream(("4/5", 2), ("3/5", 2)), alg_a, Fraction(5, 2))
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(3, 5),
            Fraction(4, 5),
        )
        assert [dec.step for dec in result.decisions] == [3, 2]
        # the completed stream really has optimum 1, so 4/5 is within bound
        from hierstretch import brute_opt

        assert result.makespan <= Fraction(5, 4) * brute_opt(
            stream(("4/5", 2), ("3/5", 2))
        )

    def test_rebalance_trace(self):
        result = run_stream(stream(("13/20", 2), ("7/10", 2)), alg_a, Fraction(5, 2))
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(13, 20),
            Fraction(7, 10),
        )
        assert result.decisions[1].step == 4
        assert result.decisions[1].migrations == ((1, M1),)
        entry = result.ledger.entries[1]
        assert entry.migrated_total == Fraction(13, 20)
        assert entry.migrated_total <= Fraction(5, 2) * Fraction(7, 10)

    def test_gos1_routing(self):
        steps = list(
            replay(stream(("4/5", 2), ("1/10", 1)), alg_a, Fraction(5, 2))
        )
        _, job, decision, _ = steps[1]
        assert job.gos == 1
        assert decision.target is M1
        assert decision.step == 2
        assert decision.migrations == ()

    def test_regime_gate(self):
        with pytest.raises(RegimeMismatch):
            run_stream(stream(("1/2", 2)), alg_a, Fraction(2))


class TestAlgorithmB:
    def test_guarded_step5_sends_to_m1(self):
        result = run_stream(stream(("7/10", 2), ("3/5", 2)), alg_b, Fraction(1))
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(3, 5),
            Fraction(7, 10),
        )
        assert [dec.step for dec in result.decisions] == [3, 5]
        assert result.decisions[1].migrations == ()

    def test_saturated_second_machine(self):
        result = run_stream(
            stream(("2/5", 2), ("2/5", 2), ("3/5", 2)), alg_b, Fraction(1)
        )
        assert [dec.step for dec in result.decisions] == [3, 3, 2]
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(3, 5),
            Fraction(4, 5),
        )

    def test_step5_migrates_all_but_max(self):
        result = run_stream(
            stream(("7/20", 2), ("7/20", 2), ("3/5", 2)), alg_b, Fraction(1)
        )
        assert [dec.step for dec in result.decisions] == [3, 3, 5]
        assert result.decisions[2].migrations == ((2, M1),)
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(7, 20),
            Fraction(19, 20),
        )
        # moved volume within the 3/4 envelope
        assert result.ledger.entries[2].migrated_total <= Fraction(3, 4) * Fraction(3, 5)

    def test_regime_gate(self):
        for m in ("1/2", "5/2", "10"):
            with pytest.raises(RegimeMismatch):
                run_stream(stream(("1/2", 2)), alg_b, Fraction(m))


class TestAlgorithmC:
    def test_step5_migrates_prefix(self):
        result = run_stream(stream(("1/2", 2), ("19/20", 2)), alg_c, Fraction(3, 5))
        assert [dec.step for dec in result.decisions] == [3, 5]
        assert result.decisions[1].migrations == ((1, M1),)
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(1, 2),
            Fraction(19, 20),
        )
        assert result.ledger.entries[1].migrated_total <= Fraction(3, 5) * Fraction(19, 20)

    def test_step4_keeps_big_resident(self):
        result = run_stream(stream(("11/20", 2), ("9/10", 2)), alg_c, Fraction(3, 5))
        assert [dec.step for dec in result.decisions] == [3, 4]
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(9, 10),
            Fraction(11, 20),
        )

    def test_at_half_behaves_like_baseline(self):
        # at m = 1/2 the rebalancing steps need p > 1, impossible at opt 1
        rng = random.Random(42)
        for _ in range(30):
            instance = generate(random_config(rng))
            got = run_stream(instance.jobs, alg_c, Fraction(1, 2))
            want = run_stream(
                instance.jobs, SCHEDULERS["baseline"], Fraction(1, 2)
            )
            assert [d.target for d in got.decisions] == [
                d.target for d in want.decisions
            ]
            assert all(dec.step in (2, 3) for dec in got.decisions)

    def test_regime_gate(self):
        for m in ("1/4", "2/3", "3/4"):
            with pytest.raises(RegimeMismatch):
                run_stream(stream(("1/2", 2)), alg_c, Fraction(m))


class TestAlgorithmD:
    def test_step4_empty_prefix_goes_to_m1(self):
        result = run_stream(stream(("13/20", 2), ("7/10", 2)), alg_d, Fraction(7, 10))
        assert [dec.step for dec in result.decisions] == [3, 4]
        assert result.decisions[1].migrations == ()
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(7, 10),
            Fraction(13, 20),
        )

    def test_step5_keeps_prefix_within_window(self):
        result = run_stream(
            stream(("7/20", 2), ("17/50", 2), ("17/25", 2)), alg_d, Fraction(7, 10)
        )
        assert [dec.step for dec in result.decisions] == [3, 3, 5]
        assert result.decisions[2].migrations == ((1, M1),)
        y_final = result.final_state.load2
        assert y_final == Fraction(51, 50)
        assert Fraction(7, 10) <= y_final <= Fraction(13, 10)

    def test_step5_prefix_reaches_floor(self):
        # largest machine-2 job 11/50 is short of the floor m/3 = 7/30, so
        # the prefix takes the next one too (a floor of m/4 would stop)
        result = run_stream(
            stream(("1/5", 2), ("1/5", 2), ("11/50", 2), ("69/100", 2)),
            alg_d,
            Fraction(7, 10),
        )
        assert [dec.step for dec in result.decisions] == [3, 3, 3, 5]
        assert result.decisions[3].target is M2
        assert result.decisions[3].migrations == ((3, M1), (1, M1))
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(21, 50),
            Fraction(89, 100),
        )

    def test_step5_complement_swap_to_m2(self):
        # the floor prefix 11/50 + 11/50 exceeds m * p = 427/1000, so its
        # complement migrates and the arrival still joins machine 2
        result = run_stream(
            stream(("11/50", 2), ("11/50", 2), ("1/5", 2), ("11/200", 2),
                   ("61/100", 2)),
            alg_d,
            Fraction(7, 10),
        )
        assert [dec.step for dec in result.decisions] == [3, 3, 3, 3, 5]
        assert result.decisions[4].target is M2
        assert result.decisions[4].migrations == ((3, M1), (4, M1))
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(51, 200),
            Fraction(21, 20),
        )

    def test_step5_complement_swap_then_m1(self):
        result = run_stream(stream(("13/20", 2), ("17/25", 2)), alg_d, Fraction(7, 10))
        assert [dec.step for dec in result.decisions] == [3, 5]
        assert result.decisions[1].target is M1
        assert result.decisions[1].migrations == ()
        # the co-resident pair is too big to share a machine with the arrival
        assert Fraction(13, 20) + Fraction(17, 25) > 2 - Fraction(7, 10)

    def test_regime_gate(self):
        for m in ("3/5", "3/4", "1"):
            with pytest.raises(RegimeMismatch):
                run_stream(stream(("1/2", 2)), alg_d, Fraction(m))


class TestBaseline:
    def test_forced_three_halves(self):
        result = run_stream(
            stream(("1/2", 2), ("1", 2), ("1/2", 1)),
            SCHEDULERS["baseline"],
            Fraction(0),
        )
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(3, 2),
            Fraction(1, 2),
        )

    def test_single_unit_job(self):
        result = run_stream(stream(("1", 2)), SCHEDULERS["baseline"], Fraction(0))
        assert result.makespan == 1

    def test_threshold_switch(self):
        jobs = stream(*([("1/10", 2)] * 10), ("1", 1))
        result = run_stream(jobs, SCHEDULERS["baseline"], Fraction(0))
        assert (result.final_state.load1, result.final_state.load2) == (
            Fraction(3, 2),
            Fraction(1, 2),
        )
        # exactly the first five grade-2 jobs land on machine 2
        targets = [dec.target for dec in result.decisions[:10]]
        assert targets == [M2] * 5 + [M1] * 5

    def test_never_migrates(self):
        jobs = stream(("1/2", 2), ("1", 2), ("1/2", 1))
        result = run_stream(jobs, SCHEDULERS["baseline"], Fraction(5))
        assert all(dec.migrations == () for dec in result.decisions)


class TestDeterminism:
    def test_identical_histories_identical_decisions(self):
        rng = random.Random(7)
        for _ in range(10):
            instance = generate(random_config(rng))
            for m in (Fraction(1, 2), Fraction(7, 10), Fraction(1), Fraction(3)):
                name, fn = scheduler_for_regime(m)
                first = run_stream(instance.jobs, fn, m)
                second = run_stream(instance.jobs, fn, m)
                assert first.decisions == second.decisions


def _window_checks(jobs, m):
    """Post-rebalance windows for the migrating schedulers."""
    name, fn = scheduler_for_regime(m)
    for pre, job, decision, post in replay(jobs, fn, m):
        if decision.step not in (4, 5):
            continue
        moved = sum(
            (pre.jobs[i].size for i, _ in decision.migrations), Fraction(0)
        )
        if name == "B" and decision.step == 5 and decision.target is M2:
            deficit = pre.y + job.size - Fraction(5, 4)
            assert job.size + pre.sorted_y_desc()[0][1] <= Fraction(5, 4)
            assert deficit <= moved <= Fraction(3, 4) * job.size
            assert moved < Fraction(1, 2)
        if name == "C" and decision.step == 5:
            deficit = job.size + pre.y - (2 - m)
            assert deficit <= moved <= m * job.size
        if name == "D" and decision.step == 5 and decision.target is M2:
            assert m <= post.y <= 2 - m
        # no scheduler ever migrates a grade-1 job
        for idx, _ in decision.migrations:
            assert pre.jobs[idx].gos == 2


class TestWindows:
    def test_migration_windows_hold(self):
        rng = random.Random(99)
        m_values = [Fraction(11, 20), Fraction(7, 10), Fraction(1), Fraction(3)]
        for _ in range(120):
            instance = generate(random_config(rng))
            for m in m_values:
                _window_checks(instance.jobs, m)

    @pytest.mark.parametrize(
        "pairs, moved",
        [
            # largest job holds half of machine 2: all others migrate
            ((("7/20", 2), ("7/20", 2), ("3/5", 2)), (2,)),
            # largest job in [1/4, y/2): it migrates alone
            ((("3/10", 2), ("1/5", 2), ("1/5", 2), ("3/5", 2)), (1,)),
            # all jobs below 1/4: the shortest prefix reaching 1/4 migrates
            ((("1/5", 2), ("1/5", 2), ("1/5", 2), ("3/25", 2), ("3/5", 2)), (1, 2)),
            # that prefix exceeds 3/4 * p, so its complement migrates
            ((("6/25", 2), ("6/25", 2), ("23/100", 2), ("11/20", 2)), (3,)),
        ],
    )
    def test_b_step5_to_m2_window(self, pairs, moved):
        jobs = stream(*pairs)
        _window_checks(jobs, Fraction(1))
        last = run_stream(jobs, alg_b, Fraction(1)).decisions[-1]
        assert (last.step, last.target) == (5, M2)
        assert last.migrations == tuple((idx, M1) for idx in moved)

    @pytest.mark.parametrize(
        "fn, m, to_r, to_floor",
        [
            (alg_a, "5/2", ("1/2", "3/4"), ("3/4", "1/4")),
            (alg_b, "1", ("1/2", "3/4"), ("3/4", "1/4")),
            (alg_c, "11/20", ("1/2", "19/20"), ("11/20", "1/4")),
            (alg_d, "7/10", ("3/5", "7/10"), ("7/10", "1/5")),
        ],
        ids=["A", "B", "C", "D"],
    )
    def test_window_edges_are_inclusive(self, fn, m, to_r, to_floor):
        # an arrival filling machine 2 to exactly r joins it (step 3); a
        # machine 2 at exactly 2 - r sends the next arrival away (step 2)
        m = Fraction(m)
        r = ratio_bound(m).bound
        up = stream(*((p, 2) for p in to_r))
        assert sum(job.size for job in up) == r
        result = run_stream(up, fn, m)
        assert [(d.step, d.target) for d in result.decisions] == [(3, M2), (3, M2)]
        down = stream(*((p, 2) for p in to_floor))
        assert down[0].size == 2 - r
        result = run_stream(down, fn, m)
        assert [(d.step, d.target) for d in result.decisions] == [(3, M2), (2, M1)]


class TestGuaranteeSample:
    """Small randomized slice of the full acceptance guarantee suite."""

    def test_bounds_budgets_hierarchy(self):
        rng = random.Random(4242)
        m_values = [
            Fraction(1, 2),
            Fraction(13, 20),
            Fraction(7, 10),
            Fraction(3, 4),
            Fraction(5, 2),
            Fraction(4),
        ]
        for _ in range(60):
            instance = generate(random_config(rng))
            for m in m_values:
                name, fn = scheduler_for_regime(m)
                bound = ratio_bound(m).bound
                result = run_stream(
                    instance.jobs, fn, m, bound=bound, per_arrival_bound=True
                )
                assert result.violations == []
                cap = Fraction(3, 4) if name == "B" else m
                assert result.ledger.max_ratio <= cap
                if name in ("B", "C", "D"):
                    assert result.step45_count <= 1
                final = result.final_state
                for idx, mach in final.assignment.items():
                    if final.jobs[idx].gos == 1:
                        assert mach is M1
