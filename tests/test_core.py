"""Core types: state bookkeeping, budgets, bounds, instance validation."""
from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hierstretch import core, oracle
from hierstretch.adversary import AdvHigh, play_duel
from hierstretch.algorithms import SCHEDULERS, alg_b, select_max_subset
from hierstretch.core import (
    M1,
    M2,
    AssignmentDecision,
    Instance,
    Job,
    LedgerEntry,
    MachineId,
    MigrationLedger,
    Regime,
    ScheduleState,
    apply_decision,
    as_fraction,
    fraction_str,
    ZERO,
    instance_from_json_dict,
    job_units,
    jobs_from_pairs,
    json_ready,
    ratio_bound,
    to_units,
    validate_instance,
)
from hierstretch.errors import (
    BudgetExceeded,
    HierarchyViolation,
    HierStretchError,
    IllegalDecision,
    NegativeM,
    ParseError,
    SizeLimit,
    UnknownJob,
)
from hierstretch.generators import GenConfig, generate
from hierstretch.harness import guarantee_suite, run_stream
from hierstretch.oracle import (
    _least_optimal_split,
    brute_opt,
    opt_prefix_loads,
    prefix_opt_monotone_check,
)
from helpers import in_lowest_terms, mixed_sizes, stream

SRC = Path(__file__).resolve().parents[1] / "src"


class TestJob:
    def test_valid(self):
        job = Job(1, Fraction(1, 2), 2)
        assert job.size == Fraction(1, 2)

    @pytest.mark.parametrize("size", [0, Fraction(0), Fraction(-1, 3), "-1/3", "0/7"])
    def test_rejects_nonpositive_size(self, size):
        with pytest.raises(ParseError):
            Job(1, size, 2)

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

    @given(
        st.one_of(
            st.fractions(min_value=0, max_denominator=10**6).filter(bool),
            st.integers(1, 10**6),
            st.builds("{}/{}".format, st.integers(1, 10**6), st.integers(1, 10**6)),
        ),
        st.integers(1, 100),
        st.sampled_from([1, 2]),
    )
    def test_size_pair(self, size, index, gos):
        # the pair is the size's lowest terms, read once; equality, hash and
        # repr see only the three fields, and replace() recomputes the pair
        job, exact = Job(index, size, gos), Fraction(size)
        assert job.size == exact
        assert (job.size_num, job.size_den) == exact.as_integer_ratio()
        twin = Job(index, exact, gos)
        object.__setattr__(twin, "size_num", job.size_num + 1)
        assert twin == job and hash(twin) == hash(job)
        assert repr(twin) == repr(job) == f"Job(index={index}, size={exact!r}, gos={gos})"
        moved = dataclasses.replace(job, size=exact * 7 / 3)
        assert (moved.size_num, moved.size_den) == (exact * 7 / 3).as_integer_ratio()
        assert (moved.index, moved.gos) == (index, gos)
        with pytest.raises(ParseError, match=f"job {index} has non-positive size 0"):
            dataclasses.replace(job, size="0/3")

    @pytest.mark.parametrize(
        "index, size, gos, message",
        [
            (0, 1, 2, "job index must be an int >= 1, got 0"),
            (True, 1, 2, "job index must be an int >= 1, got True"),
            ("1", 1, 2, "job index must be an int >= 1, got '1'"),
            (3, "0/7", 2, "job 3 has non-positive size 0"),
            (3, Fraction(-1, 3), 2, "job 3 has non-positive size -1/3"),
            (3, "x", 2, "bad rational literal 'x'"),
            (3, 0.5, 2, "not a rational: 0.5"),
            (3, None, 2, "not a rational: None"),
            (3, 1, 2.0, "job 3 has bad grade of service 2.0"),
            (3, 1, True, "job 3 has bad grade of service True"),
        ],
    )
    def test_malformed_field_messages(self, index, size, gos, message):
        with pytest.raises(ParseError) as info:
            Job(index, size, gos)
        assert str(info.value) == message


class TestToUnits:
    def test_common_unit(self):
        units = to_units([Fraction(1, 2), Fraction(2, 3), Fraction(5)])
        assert units == ([3, 4, 30], 6)

    def test_empty(self):
        assert to_units([]) == ([], 1)


class TestJobUnits:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(mixed_sizes, st.sampled_from([1, 2])), max_size=30))
    def test_units_are_the_sizes_over_the_lcm(self, pairs):
        # any count: past EXACT_SEARCH_LIMIT grade-2 jobs too
        jobs = stream(*pairs)
        unit = math.lcm(*[job.size_den for job in jobs])
        units = [job.size * unit for job in jobs]
        assert all(size.denominator == 1 for size in units)
        assert job_units(jobs) == (
            unit,
            sum(units),
            [size for size, job in zip(units, jobs) if job.gos == 2],
        )

    def test_empty(self):
        assert job_units(()) == (1, 0, [])

    def test_lcm_only_on_a_new_denominator(self, monkeypatch):
        # the unit grows only on a denominator that does not divide it, so
        # a stream whose denominators all divide the first one's takes a
        # single lcm per call, whatever the mix of grades and the caller
        calls = []

        def counting(*dens):
            calls.append(dens)
            return math.lcm(*dens)

        monkeypatch.setattr(core, "math", SimpleNamespace(lcm=counting))
        divisors = stream(
            ("1/1000", 2), ("1/2", 1), ("3/500", 2), ("1/8", 2), ("7/40", 1)
        )
        instance = Instance(jobs=divisors, declared_opt=Fraction(3, 2))
        for call in (
            job_units,
            brute_opt,
            _least_optimal_split,
            opt_prefix_loads,
            lambda jobs: validate_instance(instance),
            lambda jobs: Instance(jobs=jobs).total_size,
        ):
            calls.clear()
            call(divisors)
            assert len(calls) == 1
        # a new denominator grows it: the unit is the lcm of them all
        jobs = stream(("1/2", 2), ("1/3", 1), ("2/7", 2), ("5/9", 2), ("1/4", 1))
        assert job_units(jobs)[0] == math.lcm(2, 3, 7, 9, 4)
        assert brute_opt(jobs) == Fraction(19, 18)
        assert opt_prefix_loads(jobs).opt == Fraction(19, 18)
        opt, _, unit = _least_optimal_split(jobs)
        assert opt == Fraction(19, 18)
        assert unit == math.lcm(2, 3, 7, 9, 4)


def _state_with(pairs, machines, m=10):
    """Build a state under m by placing the given jobs directly."""
    state = ScheduleState(m)
    ledger = MigrationLedger()
    for (p, g), mach in zip(pairs, machines):
        job = Job(len(state.jobs) + 1, as_fraction(p), g)
        state = apply_decision(state, job, AssignmentDecision(mach), ledger)
    return state


def _y_sizes(state):
    """The machine-2 jobs of :meth:`ScheduleState.y_order` as (index, size)
    with Fraction sizes, which do not depend on the state's unit."""
    sizes, indices = state.y_order()
    return [(idx, Fraction(size, state.unit)) for size, idx in zip(sizes, indices)]


def _columns(ledger):
    """Copies of every column of a ledger, and its running maximum."""
    return (
        list(ledger.jobs), list(ledger.decisions), list(ledger.ms),
        dict(ledger.migrated), ledger.max_ratio,
    )


class TestApplyDecision:
    def test_budget_exceeded(self):
        # budget is (1/2)*(2/5) = 1/5, but 1/4 wants to move
        state = _state_with([("1/4", 2)], [M2], Fraction(1, 2))
        job = Job(2, Fraction(2, 5), 2)
        decision = AssignmentDecision(M2, migrations=((1, M1),))
        with pytest.raises(BudgetExceeded):
            apply_decision(state, job, decision, MigrationLedger())

    def test_simple_placement(self):
        state = ScheduleState(0)
        job = Job(1, Fraction(1, 2), 2)
        new = apply_decision(state, job, AssignmentDecision(M2), MigrationLedger())
        assert new.load2 == Fraction(1, 2)
        assert new.load1 == 0

    def test_accepted_migration_is_ledgered(self):
        state = _state_with([("13/20", 2)], [M2], Fraction(5, 2))
        job = Job(2, Fraction(7, 10), 2)
        decision = AssignmentDecision(M2, migrations=((1, M1),))
        ledger = MigrationLedger()
        new = apply_decision(state, job, decision, ledger)
        assert ledger.entries[-1].migrated_total == Fraction(13, 20)
        assert ledger.entries[-1].budget == Fraction(7, 4)
        assert new.load1 == Fraction(13, 20)
        assert new.load2 == Fraction(7, 10)

    def test_hierarchy_violation_on_target(self):
        job = Job(1, Fraction(1), 1)
        with pytest.raises(HierarchyViolation):
            apply_decision(
                ScheduleState(1), job, AssignmentDecision(M2), MigrationLedger()
            )

    def test_hierarchy_violation_on_migration(self):
        state = _state_with([("1/2", 1)], [M1])
        job = Job(2, Fraction(1), 2)
        decision = AssignmentDecision(M1, migrations=((1, M2),))
        with pytest.raises(HierarchyViolation):
            apply_decision(state, job, decision, MigrationLedger())

    def test_unknown_job(self):
        job = Job(1, Fraction(1), 2)
        decision = AssignmentDecision(M1, migrations=((9, M1),))
        with pytest.raises(UnknownJob):
            apply_decision(ScheduleState(10), job, decision, MigrationLedger())

    def test_migration_to_an_int_machine_rejected(self):
        # 2 equals MachineId.M2 but is not a MachineId
        state = _state_with([("1/2", 2)], [M1])
        job = Job(2, Fraction(1), 2)
        decision = AssignmentDecision(M1, migrations=((1, 2),))
        with pytest.raises(IllegalDecision, match="migrated to unknown machine 2"):
            apply_decision(state, job, decision, MigrationLedger())

    def test_noop_migration_rejected(self):
        state = _state_with([("1/2", 2)], [M2])
        job = Job(2, Fraction(1), 2)
        decision = AssignmentDecision(M1, migrations=((1, M2),))
        with pytest.raises(IllegalDecision, match="does not change machines"):
            apply_decision(state, job, decision, MigrationLedger())

    def test_duplicate_migration_rejected(self):
        state = _state_with([("1/2", 2)], [M2])
        job = Job(2, Fraction(1), 2)
        decision = AssignmentDecision(M2, migrations=((1, M1), (1, M1)))
        with pytest.raises(IllegalDecision, match="listed twice"):
            apply_decision(state, job, decision, MigrationLedger())

    def test_duplicate_arrival_rejected(self):
        state = _state_with([("1/2", 2)], [M2])
        with pytest.raises(IllegalDecision, match="already scheduled"):
            apply_decision(
                state, Job(1, Fraction(1), 2), AssignmentDecision(M1), MigrationLedger()
            )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_arbitrary_decisions_refused_or_sound(self, data):
        # any decision, malformed decisions and migration entries included,
        # either raises an IllegalDecision, leaving the ledger as it was, or
        # gives a sound state and a move within the budget
        machines = st.sampled_from([M1, M2, 1, 2, 3])
        m = data.draw(st.fractions(min_value=0, max_value=3, max_denominator=4))
        sizes = st.fractions(min_value="1/8", max_value=1, max_denominator=8)
        pairs = data.draw(
            st.lists(st.tuples(sizes, st.sampled_from([1, 2])), min_size=1, max_size=6)
        )
        state, ledger = ScheduleState(m), MigrationLedger()
        # a twin fed the same legal decisions, whose entries are read only
        # at the end, and the entries the old ledger built eagerly
        twin, lazy, eager = ScheduleState(m), MigrationLedger(), []
        for job in stream(*pairs):
            indices = st.integers(0, job.index + 1)
            moves = st.tuples(indices, machines) | st.one_of(
                st.tuples(indices),
                st.tuples(indices, machines, machines),
                st.tuples(st.lists(indices, max_size=2) | st.booleans(), machines),
                st.lists(indices | machines, max_size=2),
                st.none() | indices,
            )
            migrations = st.lists(moves, max_size=4).map(tuple) | st.none() | indices
            # well-formed decisions moving placed jobs (or the arrival
            # itself), so that legal migrations and budget overruns are
            # drawn too
            target = st.sampled_from([M1, M2])
            placed = st.tuples(st.integers(1, job.index), target)
            wellformed = st.lists(placed, max_size=3, unique_by=lambda move: move[0])
            decision = data.draw(
                st.builds(AssignmentDecision, target, wellformed.map(tuple))
                | st.builds(AssignmentDecision, machines, migrations)
                | st.none()
            )
            entries = list(ledger.entries)
            columns = _columns(ledger)
            before = state.copy()
            try:
                new = apply_decision(state, job, decision, ledger)
            except IllegalDecision:
                assert ledger.entries == entries
                assert _columns(ledger) == columns
                assert state == before
                # a refused arrival may still have grown the unit
                assert _y_sizes(state) == _y_sizes(before)
                decision = AssignmentDecision(M1)
                new = apply_decision(state, job, decision, ledger)
            else:
                moved = sum(state.jobs[i].size for i, _ in decision.migrations)
                assert moved <= m * job.size
            moved = sum((before.jobs[i].size for i, _ in decision.migrations), ZERO)
            eager.append(LedgerEntry(job, decision, moved, state.m))
            assert ledger.entries == eager
            apply_decision(twin, job, decision, lazy)
            state = new
            assert all(isinstance(mach, MachineId) for mach in state.assignment.values())
            assert state.arrived_total == sum(j.size for j in state.jobs.values())
            assert all(
                state.assignment[i] is M1 for i, j in state.jobs.items() if j.gos == 1
            )
        assert lazy.entries == eager
        old_walk = max(
            (e.migrated_total / e.job.size for e in eager if e.migrated_total),
            default=ZERO,
        )
        assert ledger.max_ratio == lazy.max_ratio == old_walk

    @pytest.mark.parametrize("name", ["baseline", "B"])
    def test_run_stream_negative_m(self, name):
        # the caller's bad m is refused at entry, not blamed on the scheduler
        with pytest.raises(NegativeM):
            run_stream(stream(("1/2", 2), ("1/4", 1)), SCHEDULERS[name], -1)


class TestScheduleState:
    def test_aggregates_and_max_jobs(self):
        state = _state_with(
            [("1/4", 1), ("1/2", 2), ("1/3", 2), ("1/5", 2)],
            [M1, M2, M2, M1],
        )
        unit = state.unit
        assert (state.load1_units, state.y_units) == (
            unit // 4 + unit // 5, unit // 2 + unit // 3
        )
        assert state.load2 == Fraction(1, 2) + Fraction(1, 3)
        assert state.load1 == Fraction(1, 4) + Fraction(1, 5)
        assert state.makespan == state.load2
        # machine 2 holds jobs 2 and 3, largest first; job 4 stays on machine 1
        assert state.y_order() == ([unit // 2, unit // 3], [2, 3])

    def test_max_jobs_default_to_zero(self):
        assert ScheduleState(1).y_order() == ([], [])
        one = _state_with([("1/2", 2)], [M2])
        assert one.y_order() == ([one.unit // 2], [1])

    def test_repr_shows_the_two_loads(self):
        state = _state_with([("1/2", 2), ("1/4", 1)], [M2, M1])
        assert repr(state) == (
            "ScheduleState(m=Fraction(10, 1), jobs={1: Job(index=1, "
            "size=Fraction(1, 2), gos=2), 2: Job(index=2, size=Fraction(1, 4), "
            "gos=1)}, assignment={1: <MachineId.M2: 2>, 2: <MachineId.M1: 1>}, "
            "load1=Fraction(1, 4), load2=Fraction(1, 2))"
        )

    def test_states_are_unhashable(self):
        # a class that defines __eq__ without __hash__ gets no hash
        with pytest.raises(TypeError):
            hash(ScheduleState(1))

    def test_sorted_y_breaks_ties_by_arrival(self):
        state = _state_with([("1/2", 2), ("1/2", 2)], [M2, M2])
        half = state.unit // 2
        assert state.y_order() == ([half, half], [1, 2])

    def test_negative_m(self):
        with pytest.raises(NegativeM):
            ScheduleState(-1)

    @pytest.mark.parametrize("m", ["0", "1/4", "11/20", "7/10", "1", "5/2", "3"])
    def test_constants_are_ratio_bound_units(self, m):
        # the three constants are m's, scaled to the state's unit, before
        # and after the unit grows
        state = ScheduleState(m)
        den, scaled = ratio_bound(m).units
        for size in (None, Fraction(1, 7919), Fraction(3, 14)):
            if size is not None:
                state.units_of(Job(1, size, 2))
            factor, rest = divmod(state.unit, den)
            assert rest == 0
            assert [getattr(state, name) for name in ScheduleState.SCALED[2:]] == [
                value * factor for value in scaled
            ]
        assert (state.m, state.tight) == (Fraction(m), ratio_bound(m))

    def test_extending_a_copy_leaves_the_original(self):
        state = _state_with([("1/2", 2), ("1/3", 2)], [M2, M1], 1)
        scaled = [getattr(state, name) for name in ScheduleState.SCALED]
        unit = state.unit
        twin = state.copy()
        twin.units_of(Job(3, Fraction(1, 7919), 2))
        assert twin.unit == 7919 * unit and state.unit == unit
        assert [getattr(state, name) for name in ScheduleState.SCALED] == scaled
        assert twin == state
        # 9/10 does not fit over machine 2's 1/2, so B rebalances
        job = Job(3, Fraction(9, 10), 2)
        assert alg_b(twin, job) == alg_b(state, job)
        assert alg_b(state, job).step == 4

    def test_states_under_different_m_differ(self):
        assert ScheduleState(1) == ScheduleState("1")
        assert ScheduleState(1) != ScheduleState(Fraction(5, 2))

    def test_a_state_never_equals_another_type(self):
        state = ScheduleState(1)
        assert state.__eq__(1) is NotImplemented
        assert (state == 1) is False and state != 1

    # the paper's loads x (grade 1) and z (grade 2 on machine 1) both live in
    # load1_units, y in y_units; z's case moves a grade-2 unit from machine 2
    # to machine 1, so the total stays and only the split differs
    @pytest.mark.parametrize(
        "shift",
        [(1, 0), (0, 1), (1, -1)],
        ids=["x_units", "y_units", "z_units"],
    )
    def test_equality_reads_each_load(self, shift):
        state = _state_with([("1/2", 1), ("1/3", 2), ("1/4", 2)], [M1, M2, M1], 1)
        twin = state.copy()
        twin.units_of(Job(4, Fraction(1, 7919), 2))
        assert twin == state and twin.unit != state.unit
        # a unit the jobs and assignment do not show
        twin.load1_units += shift[0]
        twin.y_units += shift[1]
        assert twin != state and state != twin


# migration factors each scheduler accepts, with assorted denominators
KERNEL_M = {
    "A": ["5/2", "3", "100"],
    "B": ["3/4", "1", "7/5"],
    "C": ["1/2", "11/20", "3/5"],
    "D": ["2/3", "7/10", "73/100"],
}


class TestKernel:
    """The int kernel against a recount from ``jobs`` and ``assignment``."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_views_match_a_recount(self, data):
        # mixed denominators force rescales part way through a stream
        name = data.draw(st.sampled_from(sorted(SCHEDULERS)))
        m = Fraction(data.draw(st.sampled_from(KERNEL_M.get(name, ["0", "1/4", "3"]))))
        pairs = data.draw(
            st.lists(st.tuples(mixed_sizes, st.sampled_from([1, 2])), min_size=1, max_size=10)
        )
        state, ledger = ScheduleState(m), MigrationLedger()
        for job in stream(*pairs):
            try:
                apply_decision(state, job, SCHEDULERS[name](state, job), ledger)
            except IllegalDecision:
                break
            jobs, where = state.jobs, state.assignment
            assert all(state.unit % j.size.denominator == 0 for j in jobs.values())
            on_m2 = [i for i in jobs if where[i] is M2]
            x = sum(j.size for j in jobs.values() if j.gos == 1)
            y = sum(jobs[i].size for i in on_m2)
            z = sum(j.size for i, j in jobs.items() if j.gos == 2 and where[i] is M1)
            unit = state.unit
            assert (state.load1_units, state.y_units) == ((x + z) * unit, y * unit)
            views = (state.load1, state.load2, state.makespan, state.arrived_total)
            assert views == (x + z, y, max(x + z, y), x + y + z)
            assert all(in_lowest_terms(view) for view in views)
            fresh = sorted(((i, jobs[i].size) for i in on_m2), key=lambda e: (-e[1], e[0]))
            assert _y_sizes(state) == fresh
            entry = ledger.entries[-1]
            assert entry.job is job
            assert entry.budget == m * job.size
            assert entry.migrated_total == sum(
                jobs[i].size for i, _ in entry.decision.migrations
            )
            assert in_lowest_terms(entry.migrated_total)
        assert ledger.max_ratio == max(
            (e.migrated_total / e.job.size for e in ledger.entries), default=0
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_decisions_do_not_depend_on_the_unit(self, data):
        # a unit first extended by an unrelated prime scales every int the
        # schedulers compare; no decision may change with it.  Sizes spread
        # over (0, 1] so that the rebalancing rules fire, each with a mixed
        # denominator
        sizes = st.builds(lambda k, s: Fraction(k, 20) - s / 20, st.integers(2, 20), mixed_sizes)
        pairs = data.draw(
            st.lists(st.tuples(sizes, st.sampled_from([1, 2])), min_size=1, max_size=10)
        )
        jobs = stream(*pairs)
        for name, fn in SCHEDULERS.items():
            m = Fraction(data.draw(st.sampled_from(KERNEL_M.get(name, ["0", "1/4", "3"]))))
            fresh, primed = ScheduleState(m), ScheduleState(m)
            primed.units_of(Job(1, Fraction(1, 7919), 2))
            runs = []
            for state in (fresh, primed):
                ledger = MigrationLedger()
                for job in jobs:
                    try:
                        apply_decision(state, job, fn(state, job), ledger)
                    except IllegalDecision:
                        break
                # the two states hold different units; the migrated
                # volume each entry stores does not depend on them
                runs.append([(e.decision, e.migrated_total) for e in ledger.entries])
            assert primed.unit % 7919 == 0 and fresh.unit % 7919 != 0
            assert runs[0] == runs[1], name
            assert fresh == primed, name

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sizes_follow_the_unit(self, data):
        # each placed job's units stay its size over the state's unit after
        # every arrival, every extension and every copy, and converting a
        # placed job never extends the unit
        name = data.draw(st.sampled_from(sorted(SCHEDULERS)))
        m = Fraction(data.draw(st.sampled_from(KERNEL_M.get(name, ["0", "1/4", "3"]))))
        pairs = data.draw(
            st.lists(st.tuples(mixed_sizes, st.sampled_from([1, 2])), min_size=1, max_size=10)
        )
        primes = iter([7919, 7907, 7901, 7883, 7879, 7877, 7873, 7867, 7853, 7841])

        def holds(state):
            unit = state.unit
            for job in state.jobs.values():
                assert Fraction(state.units_of(job), unit) == job.size
            assert state.unit == unit

        state, ledger = ScheduleState(m), MigrationLedger()
        for job in stream(*pairs):
            try:
                apply_decision(state, job, SCHEDULERS[name](state, job), ledger)
            except IllegalDecision:
                break
            holds(state)
            twin = state.copy()
            holds(twin)
            # the original extends, the copy keeps
            state.units_of(Job(1, Fraction(1, next(primes)), 2))
            holds(state)
            holds(twin)
            for side in (state, twin):
                assert Fraction(side.units_of(job), side.unit) == job.size
            # and the other way round: the copy extends, the original keeps
            twin.units_of(Job(1, Fraction(1, 7829), 2))
            holds(twin)
            assert Fraction(state.units_of(job), state.unit) == job.size

    def test_copy_is_a_snapshot(self):
        state, ledger = ScheduleState(1), MigrationLedger()
        jobs = stream(("1/2", 2), ("1/3", 2))
        apply_decision(state, jobs[0], AssignmentDecision(M2), ledger)
        snapshot = state.copy()
        assert apply_decision(state, jobs[1], AssignmentDecision(M2), ledger) is state
        assert snapshot.jobs == {1: jobs[0]} and snapshot.load2 == Fraction(1, 2)
        assert (snapshot.load1_units, snapshot.y_units) == (0, snapshot.unit // 2)
        assert state != snapshot and state.load2 == Fraction(5, 6)


CALLS = {
    "to_units": lambda: to_units([Fraction(1, 3), Fraction(2, 7)]),
    "job_units": lambda: job_units(stream(("1/2", 2), ("1/3", 2), ("2/7", 1))),
    # 1/2, 1/3, 1/4 and 2/5 under the cap 1, over the unit 1/60
    "select_max_subset": lambda: select_max_subset([30, 20, 15, 24], 60),
    # the same over the unit 1/(60 * 10^10): a total past BITSET_LIMIT
    # takes the branch-and-bound
    "select_max_subset_search": lambda: select_max_subset(
        [30 * 10**10, 20 * 10**10, 15 * 10**10, 24 * 10**10], 60 * 10**10
    ),
    "brute_opt": lambda: brute_opt(
        stream(("1/2", 2), ("1/3", 2), ("2/3", 2), ("1/2", 1))
    ),
    "opt_prefix_loads": lambda: opt_prefix_loads(
        stream(("1/2", 2), ("1/3", 2), ("2/3", 1))
    ),
    "opt_prefix_loads_search": lambda: opt_prefix_loads(
        stream(("1/2", 2), ("333333333347/1000000000039", 2), ("2/3", 2), ("1/4", 1))
    ),
    "prefix_opt_monotone_check": lambda: prefix_opt_monotone_check(
        stream(("1/2", 2), ("1/3", 2), ("2/3", 1))
    ),
    "validate_instance": lambda: validate_instance(
        Instance(jobs=stream(("1/2", 2), ("1/3", 2), ("2/3", 1))), check_opt=True
    ),
    "total_size": lambda: Instance(jobs=stream(("1/2", 2), ("1/3", 2), ("2/3", 1))).total_size,
    "run_stream": lambda: run_stream(
        stream(("3/5", 2), ("7/10", 2), ("1/4", 1)), SCHEDULERS["B"], 1
    ),
    # A, C and D each reach their rebalancing rule, which reads the state on demand
    "run_stream_A": lambda: run_stream(
        stream(("3/5", 2), ("7/10", 2), ("1/4", 1)), SCHEDULERS["A"], 3
    ),
    "run_stream_C": lambda: run_stream(
        stream(("1/2", 2), ("19/20", 2), ("1/4", 1)), SCHEDULERS["C"], "3/5"
    ),
    "run_stream_D": lambda: run_stream(
        stream(("1/3", 2), ("1/3", 2), ("2/3", 2), ("1/4", 1)), SCHEDULERS["D"], "7/10"
    ),
    "play_duel": lambda: play_duel(AdvHigh(3), "A", SCHEDULERS["A"], 3),
    "generate": lambda: generate(GenConfig(seed=3, n_gos2=6, n_gos1=2)),
    "guarantee_suite": lambda: guarantee_suite(5, 1),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_calls_leave_no_cycles(call):
    # garbage in reference cycles waits for the cyclic collector, so peak
    # memory would grow with the number of calls between collections
    call()  # warm any caches first
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_repeated_calls_hold_flat_memory(call):
    # tuple() of a generator allocates ten slots and shrinks the tuple; the
    # freed tuples pile up in the interpreter's per-size free lists, which
    # only a full collection empties, so each call kept a block or more
    gc.collect()
    gc.disable()
    try:
        for _ in range(200):  # let caches and the free lists settle
            call()
        before = sys.getallocatedblocks()
        for _ in range(300):
            call()
        assert sys.getallocatedblocks() - before < 30
    finally:
        gc.enable()


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
        for m in ("-1/2", "-1/3", Fraction(-1, 10**9)):
            with pytest.raises(NegativeM):
                ratio_bound(m)

    def test_a_bound_is_returned_as_it_is(self):
        for m in ("0", "3/5", "7/10", "1", "3"):
            bound = ratio_bound(m)
            assert ratio_bound(bound) is bound
            assert ScheduleState(bound).tight is bound

    def test_cached_once_per_value(self):
        # one cached bound per m in lowest terms, however m is written
        assert ratio_bound(3) is ratio_bound("6/2") is ratio_bound(Fraction(3))
        assert ratio_bound("3").m == 3

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
        ledger, state = MigrationLedger(), ScheduleState(2)
        assert ledger.max_ratio == 0
        jobs = stream(("1/4", 2), ("1/2", 2), ("1/3", 2))
        decisions = [
            AssignmentDecision(M2),
            AssignmentDecision(M2, ((1, M1),)),
            AssignmentDecision(M1, ((1, M2),)),
        ]
        for job, decision in zip(jobs, decisions):
            state = apply_decision(state, job, decision, ledger)
        # one entry per arrival: the job, its decision, moved volume, budget
        assert [e.job for e in ledger.entries] == list(jobs)
        assert [e.decision for e in ledger.entries] == decisions
        moved = [e.migrated_total for e in ledger.entries]
        assert moved == [0, Fraction(1, 4), Fraction(1, 4)]
        assert [e.budget for e in ledger.entries] == [Fraction(1, 2), 1, Fraction(2, 3)]
        assert ledger.max_ratio == Fraction(3, 4)

    def test_entries_store_what_they_report(self):
        ledger = MigrationLedger()
        jobs = stream(("1/4", 2), ("1/2", 2))
        moving = AssignmentDecision(M2, ((1, M1),))
        state = apply_decision(ScheduleState(2), jobs[0], AssignmentDecision(M2), ledger)
        apply_decision(state, jobs[1], moving, ledger)
        first, second = ledger.entries
        assert first.migrated_total is ZERO
        assert tuple(second) == (jobs[1], moving, Fraction(1, 4), Fraction(2))
        assert type(second.migrated_total) is Fraction
        with pytest.raises(AttributeError):
            second.migrated_total = ZERO


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

    def test_calls_the_oracle_through_its_module(self, monkeypatch):
        # a rebound oracle.brute_opt (the benchmark's probe, a test) must
        # see validate_instance's call
        seen = []

        def rebound(jobs):
            seen.append(jobs)
            return Fraction(7)

        monkeypatch.setattr(oracle, "brute_opt", rebound)
        inst = Instance(jobs=stream(("1/2", 2)), declared_opt=Fraction(1, 2))
        report = validate_instance(inst, check_opt=True)
        assert seen == [inst.jobs]
        assert report.oracle_opt == 7
        assert report.failures == ["brute-force optimum 7 differs from declared 1/2"]

    @pytest.mark.parametrize("first", ["hierstretch.oracle", "hierstretch.core"])
    def test_oracle_check_after_either_import_order(self, first):
        # core binds the oracle module last, since the oracle imports core
        code = (
            f"import {first}\n"
            "from fractions import Fraction\n"
            "from hierstretch.core import Instance, jobs_from_pairs, validate_instance\n"
            "jobs = jobs_from_pairs([('1/2', 2), ('1/2', 2), ('1/3', 1)])\n"
            "report = validate_instance(Instance(jobs=jobs, declared_opt=Fraction(5, 6)), check_opt=True)\n"
            "print(report.valid, report.oracle_opt)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "True 5/6\n"

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

    @pytest.mark.parametrize("extra, valid", [("1/2", True), ("501/1000", False)])
    def test_total_at_its_bound(self, extra, valid):
        # a total of exactly 2 * 3/2 passes, one unit of 1/1000 more fails
        jobs = stream(("3/2", 2), ("1", 2), (extra, 2))
        report = validate_instance(Instance(jobs=jobs, declared_opt=Fraction(3, 2)))
        assert report.failures == (
            [] if valid else ["total size 3001/1000 exceeds twice the declared optimum 3/2"]
        )

    def test_totals_past_the_search_limit(self, monkeypatch):
        # validation has no grade-2 limit; the oracle refuses the same jobs
        # before it builds any reach
        jobs = stream(*[("1/30", 2)] * 30, ("1/4", 1), ("1/4", 1))
        assert validate_instance(Instance(jobs=jobs)).valid
        report = validate_instance(Instance(jobs=jobs, declared_opt=Fraction(2, 5)))
        assert report.failures == [
            "total size 3/2 exceeds twice the declared optimum 2/5",
            "grade-1 total 1/2 exceeds the declared optimum 2/5",
        ]

        def unreachable(*args):
            raise AssertionError("a search ran before the size check")

        for name in ("_best_load", "_suffix_reach", "_walk", "_max_subset", "_searched_load"):
            monkeypatch.setattr(oracle, name, unreachable)
        with pytest.raises(SizeLimit, match="^30 grade-2 jobs exceed the exact-search limit 24$"):
            brute_opt(jobs)

    @pytest.mark.parametrize("extra, valid", [("1/2", True), ("501/1000", False)])
    def test_grade1_total_at_its_bound(self, extra, valid):
        # a grade-1 total of exactly 3/2 passes, one unit of 1/1000 more fails
        jobs = stream(("1", 1), ("1", 2), (extra, 1))
        report = validate_instance(Instance(jobs=jobs, declared_opt=Fraction(3, 2)))
        assert report.failures == (
            [] if valid else ["grade-1 total 1501/1000 exceeds the declared optimum 3/2"]
        )


class TestInstanceTotals:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(mixed_sizes, st.sampled_from([1, 2])), max_size=10))
    def test_totals_are_the_fraction_sums(self, pairs):
        instance = Instance(jobs=stream(*pairs))
        sizes = [job.size for job in instance.jobs]
        assert instance.total_size == sum(sizes, Fraction(0))
        assert in_lowest_terms(instance.total_size)

    def test_empty(self):
        instance = Instance(jobs=())
        assert instance.total_size == 0
        assert in_lowest_terms(instance.total_size)

    def test_total_size_is_computed_once(self):
        instance = Instance(jobs=stream(("1/2", 2), ("1/3", 1)))
        total = instance.total_size
        assert total == Fraction(5, 6)
        assert instance.total_size is total
        # replace builds a new Instance, which sums its own jobs
        grown = dataclasses.replace(instance, jobs=stream(("1/2", 2), ("1/3", 1), ("1/6", 2)))
        assert grown.total_size == 1
        assert instance.total_size is total


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

    def test_jobs_object_is_not_a_list(self):
        with pytest.raises(ParseError, match="'jobs' must be a list"):
            instance_from_json_dict({"declared_opt": "1", "jobs": {}})

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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: jobs_from_pairs([(1,)]),
            lambda: jobs_from_pairs([("1/2", 2, 3)]),
            lambda: jobs_from_pairs([("1/2", 2), 5]),
            lambda: Instance(jobs=(1, 2)),
            lambda: Instance(jobs=(Job(1, Fraction(1), 2), None)),
            lambda: Instance(jobs=5),
        ],
        ids=["short-pair", "long-pair", "not-a-pair", "ints", "none", "not-iterable"],
    )
    def test_malformed_job_lists(self, build):
        with pytest.raises(ParseError):
            build()

    def test_indices_must_be_sequential(self):
        with pytest.raises(ParseError):
            Instance(jobs=(Job(2, Fraction(1), 2),), declared_opt=Fraction(1))

    @pytest.mark.parametrize("declared_opt", [0, Fraction(-1, 2), "0"])
    def test_declared_opt_must_be_positive(self, declared_opt):
        with pytest.raises(ParseError):
            Instance(jobs=stream(("1/2", 2)), declared_opt=declared_opt)


def test_json_ready():
    payload = {
        "m": Fraction(5, 2),
        "loads": (Fraction(1), Fraction(6, 8)),
        "runs": [{"opt": None, "moves": ((1, M1), (2, M2)), "ok": True}],
        "count": 3,
        "text": "1/2",
    }
    ready = json_ready(payload)
    assert ready == {
        "m": "5/2",
        "loads": ["1/1", "3/4"],
        "runs": [{"opt": None, "moves": [[1, 1], [2, 2]], "ok": True}],
        "count": 3,
        "text": "1/2",
    }
    # a MachineId is left as it is, and json writes it as its int
    assert ready["runs"][0]["moves"][0][1] is M1
    assert json.dumps(ready["runs"][0]["moves"]) == "[[1, 1], [2, 2]]"
    assert payload["loads"] == (Fraction(1), Fraction(3, 4))  # input untouched


def test_fraction_helpers():
    assert fraction_str(Fraction(10, 8)) == "5/4"
    assert as_fraction("5/4") == Fraction(5, 4)
    assert as_fraction(3) == Fraction(3)
    with pytest.raises(ParseError):
        as_fraction("1/0")
    with pytest.raises(ParseError):
        as_fraction(None)
