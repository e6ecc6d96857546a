"""Brute-force optimum, prefix loads, and their invariants."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hierstretch import (
    MachineId,
    SizeLimit,
    brute_opt,
    generate,
    opt_prefix_loads,
    prefix_opt_monotone_check,
    random_config,
)
from helpers import in_lowest_terms, mixed_sizes, stream

M1, M2 = MachineId.M1, MachineId.M2

small_streams = st.lists(
    st.tuples(
        st.fractions(min_value="1/6", max_value=1, max_denominator=6),
        st.sampled_from([1, 2]),
    ),
    max_size=7,
)


def least_split_by_enumeration(jobs):
    """(makespan, machine-2 load, machine vector) of the least optimal
    split, by listing every assignment of the grade-2 jobs."""
    base1 = sum((job.size for job in jobs if job.gos == 1), Fraction(0))
    sizes = [job.size for job in jobs if job.gos == 2]
    keys = []
    for vector in product((M1, M2), repeat=len(sizes)):
        y = sum((s for s, mach in zip(sizes, vector) if mach is M2), Fraction(0))
        load1 = base1 + sum(sizes, Fraction(0)) - y
        keys.append((max(load1, y), y, vector))
    return min(keys)


class TestBruteOpt:
    def test_unit_job_balances(self):
        assert brute_opt(stream(("1/2", 2), ("1", 2), ("1/2", 1))) == 1

    def test_empty(self):
        assert brute_opt(()) == 0

    def test_four_job_swap(self):
        jobs = stream(("4/5", 2), ("3/5", 2), ("2/5", 2), ("1/5", 1))
        assert brute_opt(jobs) == 1

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            brute_opt(stream(*[("1/100", 2)] * 25))

    @settings(max_examples=120)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value="1/30", max_value=1, max_denominator=30),
                st.sampled_from([1, 2]),
            ),
            max_size=8,
        )
    )
    def test_bounds(self, pairs):
        jobs = stream(*pairs)
        total = sum((job.size for job in jobs), Fraction(0))
        gos1 = sum((job.size for job in jobs if job.gos == 1), Fraction(0))
        opt = brute_opt(jobs)
        assert opt <= total
        assert opt >= gos1
        if jobs:
            assert opt >= max(job.size for job in jobs)
        if jobs and gos1 == 0:
            assert opt >= total / 2


class TestOptPrefixLoads:
    def test_unique_optimum(self):
        loads = opt_prefix_loads(stream(("1/2", 2), ("1", 2), ("1/2", 1))).loads
        assert loads == (
            (Fraction(1, 2), Fraction(0)),
            (Fraction(1, 2), Fraction(1)),
            (Fraction(1), Fraction(1)),
        )

    def test_tie_breaks_toward_small_second_load(self):
        result = opt_prefix_loads(stream(("1", 2)))
        assert result.loads == ((Fraction(1), Fraction(0)),)
        assert result.machines[1] is MachineId.M1

    def test_equal_jobs_fill_machine_one_first(self):
        result = opt_prefix_loads(stream(*[("1/2", 2)] * 4))
        assert [result.machines[i] for i in (1, 2, 3, 4)] == [M1, M1, M2, M2]
        assert result.opt == 1

    def test_smaller_second_load_beats_lexicographic_order(self):
        # (M1, M1, M2) is lexicographically smaller, but puts 1 on machine 2
        result = opt_prefix_loads(stream(("1/4", 2), ("1/4", 2), ("1", 2)))
        assert [result.machines[i] for i in (1, 2, 3)] == [M2, M2, M1]
        assert result.loads == (
            (Fraction(0), Fraction(1, 4)),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1), Fraction(1, 2)),
        )

    @settings(max_examples=150)
    @given(small_streams)
    def test_least_optimal_split(self, pairs):
        jobs = stream(*pairs)
        result = opt_prefix_loads(jobs)
        opt, y, vector = least_split_by_enumeration(jobs)
        assert result.opt == brute_opt(jobs) == opt
        assert tuple(result.machines[j.index] for j in jobs if j.gos == 2) == vector
        if jobs:
            assert result.loads[-1][1] == y

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(mixed_sizes, st.sampled_from([1, 2, 2])), max_size=7))
    def test_least_optimal_split_large_denominators(self, pairs):
        # the integer-unit search against enumeration over Fractions, with
        # units up to the lcm of several 10^10..10^13 denominators
        jobs = stream(*pairs)
        result = opt_prefix_loads(jobs)
        opt, y, vector = least_split_by_enumeration(jobs)
        assert result.opt == brute_opt(jobs) == opt
        assert tuple(result.machines[j.index] for j in jobs if j.gos == 2) == vector
        assert in_lowest_terms(result.opt) and in_lowest_terms(brute_opt(jobs))
        assert all(in_lowest_terms(load) for pair in result.loads for load in pair)
        if jobs:
            assert result.loads[-1][1] == y

    def test_empty(self):
        result = opt_prefix_loads(())
        assert result.loads == ()
        assert result.opt == 0

    def test_loads_are_cumulative_and_bounded(self):
        rng = random.Random(5)
        for _ in range(25):
            instance = generate(random_config(rng))
            result = opt_prefix_loads(instance.jobs)
            assert result.opt == brute_opt(instance.jobs)
            prev = (Fraction(0), Fraction(0))
            for pair in result.loads:
                assert pair[0] >= prev[0] and pair[1] >= prev[1]
                prev = pair
            assert max(prev) == result.opt


class TestPrefixMonotone:
    def test_two_job_example(self):
        report = prefix_opt_monotone_check(stream(("4/5", 2), ("3/5", 2)))
        assert report.ok
        assert report.prefix_opts == [Fraction(4, 5), Fraction(4, 5)]

    def test_single_gos1(self):
        report = prefix_opt_monotone_check(stream(("1", 1)))
        assert report.ok
        assert report.prefix_opts == [Fraction(1)]

    def test_generated_instances_monotone(self):
        rng = random.Random(17)
        for _ in range(20):
            instance = generate(random_config(rng))
            assert prefix_opt_monotone_check(instance.jobs).ok
