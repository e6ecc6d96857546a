"""Core types: state bookkeeping, budgets, bounds, instance validation."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hierstretch import (
    AssignmentDecision,
    BudgetExceeded,
    HierStretchError,
    HierarchyViolation,
    IllegalDecision,
    Instance,
    Job,
    MachineId,
    MigrationLedger,
    NegativeM,
    ParseError,
    Regime,
    ScheduleState,
    UnknownJob,
    apply_decision,
    as_fraction,
    fraction_str,
    instance_from_json_dict,
    ratio_bound,
    validate_instance,
)
from hierstretch.core import to_units
from helpers import stream

M1, M2 = MachineId.M1, MachineId.M2


class TestJob:
    def test_valid(self):
        job = Job(1, Fraction(1, 2), 2)
        assert job.size == Fraction(1, 2)

    @pytest.mark.parametrize("size", [0, Fraction(0), Fraction(-1, 3)])
    def test_rejects_nonpositive_size(self, size):
        with pytest.raises(ParseError):
            Job(1, Fraction(size), 2)

    def test_rejects_bad_gos(self):
        # a grade is the int 1 or 2: bools and floats are refused too
        for gos in (3, True, 2.0):
            with pytest.raises(ParseError):
                Job(1, Fraction(1), gos)

    @pytest.mark.parametrize("index", [0, True, 1.5, "1", None])
    def test_rejects_bad_index(self, index):
        # an index is an int >= 1, as strict as the grade
        with pytest.raises(ParseError):
            Job(index, Fraction(1), 2)

    def test_coerces_strings(self):
        assert Job(1, "7/10", 2).size == Fraction(7, 10)


class TestToUnits:
    def test_common_unit(self):
        units = to_units([Fraction(1, 2), Fraction(2, 3), Fraction(5)])
        assert units == ([3, 4, 30], 6)

    def test_empty(self):
        assert to_units([]) == ([], 1)


def _state_with(pairs, machines):
    """Build a state by placing the given jobs directly."""
    state = ScheduleState()
    ledger = MigrationLedger()
    for (p, g), mach in zip(pairs, machines):
        job = Job(len(state.jobs) + 1, as_fraction(p), g)
        state = apply_decision(
            state, job, AssignmentDecision(mach), ledger, Fraction(10)
        )
    return state


class TestApplyDecision:
    def test_budget_exceeded(self):
        # budget is (1/2)*(2/5) = 1/5, but 1/4 wants to move
        state = _state_with([("1/4", 2)], [M2])
        job = Job(2, Fraction(2, 5), 2)
        decision = AssignmentDecision(M2, migrations=((1, M1),))
        with pytest.raises(BudgetExceeded):
            apply_decision(state, job, decision, MigrationLedger(), Fraction(1, 2))

    def test_simple_placement(self):
        state = ScheduleState()
        job = Job(1, Fraction(1, 2), 2)
        new = apply_decision(
            state, job, AssignmentDecision(M2), MigrationLedger(), Fraction(0)
        )
        assert new.y == Fraction(1, 2)
        assert new.load1 == 0

    def test_accepted_migration_is_ledgered(self):
        state = _state_with([("13/20", 2)], [M2])
        job = Job(2, Fraction(7, 10), 2)
        decision = AssignmentDecision(M2, migrations=((1, M1),))
        ledger = MigrationLedger()
        new = apply_decision(state, job, decision, ledger, Fraction(5, 2))
        assert ledger.entries[-1].migrated_total == Fraction(13, 20)
        assert ledger.entries[-1].budget == Fraction(7, 4)
        assert new.load1 == Fraction(13, 20)
        assert new.load2 == Fraction(7, 10)

    def test_hierarchy_violation_on_target(self):
        job = Job(1, Fraction(1), 1)
        with pytest.raises(HierarchyViolation):
            apply_decision(
                ScheduleState(),
                job,
                AssignmentDecision(M2),
                MigrationLedger(),
                Fraction(1),
            )

    def test_hierarchy_violation_on_migration(self):
        state = _state_with([("1/2", 1)], [M1])
        job = Job(2, Fraction(1), 2)
        decision = AssignmentDecision(M1, migrations=((1, M2),))
        with pytest.raises(HierarchyViolation):
            apply_decision(state, job, decision, MigrationLedger(), Fraction(10))

    def test_unknown_job(self):
        job = Job(1, Fraction(1), 2)
        decision = AssignmentDecision(M1, migrations=((9, M1),))
        with pytest.raises(UnknownJob):
            apply_decision(
                ScheduleState(), job, decision, MigrationLedger(), Fraction(10)
            )

    def test_noop_migration_rejected(self):
        state = _state_with([("1/2", 2)], [M2])
        job = Job(2, Fraction(1), 2)
        decision = AssignmentDecision(M1, migrations=((1, M2),))
        with pytest.raises(IllegalDecision, match="does not change machines"):
            apply_decision(state, job, decision, MigrationLedger(), Fraction(10))

    def test_duplicate_migration_rejected(self):
        state = _state_with([("1/2", 2)], [M2])
        job = Job(2, Fraction(1), 2)
        decision = AssignmentDecision(M2, migrations=((1, M1), (1, M1)))
        with pytest.raises(IllegalDecision, match="listed twice"):
            apply_decision(state, job, decision, MigrationLedger(), Fraction(10))

    def test_duplicate_arrival_rejected(self):
        state = _state_with([("1/2", 2)], [M2])
        with pytest.raises(IllegalDecision, match="already scheduled"):
            apply_decision(
                state,
                Job(1, Fraction(1), 2),
                AssignmentDecision(M1),
                MigrationLedger(),
                Fraction(1),
            )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_arbitrary_decisions_refused_or_sound(self, data):
        # any decision, malformed migration entries included, either raises
        # an IllegalDecision, leaving the ledger as it was, or gives a sound
        # state and a move within the budget
        machines = st.sampled_from([M1, M2, 1, 2, 3])
        m = data.draw(st.fractions(min_value=0, max_value=3, max_denominator=4))
        sizes = st.fractions(min_value="1/8", max_value=1, max_denominator=8)
        pairs = data.draw(
            st.lists(st.tuples(sizes, st.sampled_from([1, 2])), min_size=1, max_size=6)
        )
        state, ledger = ScheduleState(), MigrationLedger()
        for job in stream(*pairs):
            indices = st.integers(0, job.index + 1)
            moves = st.tuples(indices, machines) | st.one_of(
                st.tuples(indices),
                st.tuples(indices, machines, machines),
                st.tuples(st.lists(indices, max_size=2) | st.booleans(), machines),
                st.lists(indices | machines, max_size=2),
                st.none() | indices,
            )
            decision = AssignmentDecision(
                data.draw(machines), tuple(data.draw(st.lists(moves, max_size=4)))
            )
            entries = list(ledger.entries)
            try:
                new = apply_decision(state, job, decision, ledger, m)
            except IllegalDecision:
                assert ledger.entries == entries
                new = apply_decision(state, job, AssignmentDecision(M1), ledger, m)
            else:
                moved = sum(state.jobs[i].size for i, _ in decision.migrations)
                assert moved <= m * job.size
            state = new
            assert all(isinstance(mach, MachineId) for mach in state.assignment.values())
            assert state.arrived_total == sum(j.size for j in state.jobs.values())
            assert all(
                state.assignment[i] is M1 for i, j in state.jobs.items() if j.gos == 1
            )

    def test_negative_m(self):
        with pytest.raises(NegativeM):
            apply_decision(
                ScheduleState(),
                Job(1, Fraction(1), 2),
                AssignmentDecision(M1),
                MigrationLedger(),
                Fraction(-1),
            )


class TestScheduleState:
    def test_aggregates_and_max_jobs(self):
        state = _state_with(
            [("1/4", 1), ("1/2", 2), ("1/3", 2), ("1/5", 2)],
            [M1, M2, M2, M1],
        )
        assert state.x == Fraction(1, 4)
        assert state.y == Fraction(1, 2) + Fraction(1, 3)
        assert state.z == Fraction(1, 5)
        assert state.load1 == Fraction(1, 4) + Fraction(1, 5)
        assert state.makespan == state.load2
        # machine 2 holds jobs 2 and 3, largest first; job 4 stays on machine 1
        assert state.sorted_y_desc() == [(2, Fraction(1, 2)), (3, Fraction(1, 3))]

    def test_max_jobs_default_to_zero(self):
        assert ScheduleState().sorted_y_desc() == []
        one = _state_with([("1/2", 2)], [M2])
        assert one.sorted_y_desc() == [(1, Fraction(1, 2))]

    def test_sorted_y_breaks_ties_by_arrival(self):
        state = _state_with([("1/2", 2), ("1/2", 2)], [M2, M2])
        assert state.sorted_y_desc() == [
            (1, Fraction(1, 2)),
            (2, Fraction(1, 2)),
        ]


class TestRatioBound:
    @pytest.mark.parametrize(
        "m, bound, regime",
        [
            ("3", "11/9", Regime.HIGH),
            ("5/2", "5/4", Regime.HIGH),
            ("3/5", "7/5", Regime.LOW_C),
            ("1/4", "3/2", Regime.NO_MIG),
            ("0", "3/2", Regime.NO_MIG),
            ("2/3", "4/3", Regime.LOW_D),
            ("73/100", "127/100", Regime.LOW_D),
            ("3/4", "5/4", Regime.MID),
            ("1000", "2005/2003", Regime.HIGH),
        ],
    )
    def test_values(self, m, bound, regime):
        result = ratio_bound(m)
        assert result.bound == Fraction(bound)
        assert result.regime is regime

    def test_mu_only_in_high(self):
        assert ratio_bound(3).mu == Fraction(2, 9)
        assert ratio_bound("5/2").mu == Fraction(1, 4)
        for m in ("0", "1/2", "2/3", "1"):
            assert ratio_bound(m).mu is None

    def test_mu_range(self):
        for m in ("5/2", "3", "10", "1000000"):
            mu = ratio_bound(m).mu
            assert 0 < mu <= Fraction(1, 4)

    def test_boundary_continuity(self):
        assert ratio_bound("5/2").bound == Fraction(5, 4)  # high meets mid
        assert ratio_bound("3/4").bound == 2 - Fraction(3, 4)  # mid meets lowD
        assert ratio_bound("1/2").bound == Fraction(3, 2)  # lowC meets nomig

    def test_negative_m(self):
        with pytest.raises(NegativeM):
            ratio_bound("-1/2")

    @given(
        st.fractions(min_value=0, max_value=50, max_denominator=400),
        st.fractions(min_value=0, max_value=50, max_denominator=400),
    )
    def test_monotone_non_increasing(self, m1, m2):
        if m1 > m2:
            m1, m2 = m2, m1
        assert ratio_bound(m1).bound >= ratio_bound(m2).bound

    def test_migration_cap(self):
        # B keeps 3/4 = 2 - 5/4 whatever m is; every other regime keeps m
        for m in ("3/4", "1", "2"):
            assert ratio_bound(m).migration_cap == Fraction(3, 4)
        for m in ("0", "1/4", "11/20", "7/10", "5/2", "3"):
            assert ratio_bound(m).migration_cap == Fraction(m)

    def test_scheme_property(self):
        # the excess over 1 vanishes as the budget grows
        for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 10**6)):
            assert ratio_bound(1 / eps).bound - 1 < eps


class TestMigrationLedger:
    def test_max_ratio(self):
        ledger = MigrationLedger()
        assert ledger.max_ratio == 0
        ledger.record(Job(1, Fraction(1, 2), 2), Fraction(1, 4), Fraction(2))
        ledger.record(Job(2, Fraction(1, 3), 2), Fraction(1, 4), Fraction(2))
        assert ledger.max_ratio == Fraction(3, 4)
        assert ledger.entries[0].budget == Fraction(1)


class TestValidateInstance:
    def test_lower_bound_sand_instance(self):
        jobs = stream(
            ("4/5", 2), ("3/5", 2),
            *( [("1/10", 2)] * 6 ),
        )
        inst = Instance(jobs=jobs, declared_opt=Fraction(1))
        report = validate_instance(inst, check_opt=True)
        assert report.valid
        assert report.oracle_opt == 1

    def test_gos1_overflow(self):
        inst = Instance(jobs=stream(("3/2", 1)), declared_opt=Fraction(1))
        report = validate_instance(inst)
        assert not report.valid
        assert any("grade-1" in failure for failure in report.failures)

    def test_empty_is_structurally_valid_but_opt_flagged(self):
        inst = Instance(jobs=(), declared_opt=Fraction(1))
        assert validate_instance(inst).valid
        report = validate_instance(inst, check_opt=True)
        assert not report.valid
        assert report.oracle_opt == 0

    def test_total_overflow(self):
        inst = Instance(jobs=stream(("3/2", 2), ("3/4", 2)), declared_opt=Fraction(1))
        report = validate_instance(inst)
        assert not report.valid


class TestInstanceJson:
    def test_round_trip(self):
        inst = Instance(
            jobs=stream(("7/10", 2), ("1/5", 1)), declared_opt=Fraction(1)
        )
        again = instance_from_json_dict(json.loads(inst.to_json()))
        assert again == inst

    def test_canonical_strings(self):
        inst = Instance(jobs=stream(("2/4", 2)), declared_opt=Fraction(1))
        data = inst.to_json_dict()
        assert data["jobs"][0]["p"] == "1/2"
        assert data["declared_opt"] == "1/1"

    @pytest.mark.parametrize(
        "data",
        [
            {"jobs": []},
            {"declared_opt": "1", "jobs": [{"p": "0", "g": 2}]},
            {"declared_opt": "1", "jobs": [{"p": "1/2", "g": 3}]},
            {"declared_opt": "1", "jobs": [{"p": "nope", "g": 2}]},
            {"declared_opt": "0", "jobs": []},
            {"declared_opt": "1", "jobs": [{"g": 2}]},
            {"declared_opt": "1", "jobs": [{"p": "1/2", "g": True}]},
            {"declared_opt": "1", "jobs": [{"p": "1/2", "g": 2.0}]},
            {"declared_opt": "1", "jobs": [{"p": "1/2", "g": "2"}]},
        ],
    )
    def test_parse_errors(self, data):
        with pytest.raises(ParseError):
            instance_from_json_dict(data)

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
            | st.text(max_size=6) | st.sampled_from(["1/2", "0", "-1", "1/0", "2"]),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(
                st.sampled_from(["declared_opt", "jobs", "p", "g"]) | st.text(max_size=2),
                inner,
                max_size=3,
            ),
            max_leaves=12,
        )
    )
    def test_arbitrary_json_raises_only_typed_errors(self, data):
        try:
            instance = instance_from_json_dict(data)
        except HierStretchError:
            return
        assert isinstance(instance, Instance)

    def test_normalized_rescales(self):
        inst = Instance(jobs=stream(("3/2", 2), ("1", 1)), declared_opt=Fraction(2))
        scaled = inst.normalized()
        assert scaled.declared_opt == 1
        assert [job.size for job in scaled.jobs] == [Fraction(3, 4), Fraction(1, 2)]

    def test_indices_must_be_sequential(self):
        with pytest.raises(ParseError):
            Instance(jobs=(Job(2, Fraction(1), 2),), declared_opt=Fraction(1))

    @pytest.mark.parametrize("declared_opt", [0, Fraction(-1, 2), "0"])
    def test_declared_opt_must_be_positive(self, declared_opt):
        with pytest.raises(ParseError):
            Instance(jobs=stream(("1/2", 2)), declared_opt=declared_opt)


def test_fraction_helpers():
    assert fraction_str(Fraction(10, 8)) == "5/4"
    assert as_fraction("5/4") == Fraction(5, 4)
    assert as_fraction(3) == Fraction(3)
    with pytest.raises(ParseError):
        as_fraction("1/0")
    with pytest.raises(ParseError):
        as_fraction(None)
