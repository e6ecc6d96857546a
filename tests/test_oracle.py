"""Brute-force optimum, prefix loads, and their invariants."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from hierstretch.core import M1, M2, Job
from hierstretch.errors import ParseError, SizeLimit
from hierstretch.generators import generate, random_config
from hierstretch import oracle
from hierstretch.oracle import (
    BITSET_LIMIT,
    _best_load,
    _least_optimal_split,
    _searched_load,
    brute_opt,
    opt_prefix_loads,
    prefix_opt_monotone_check,
    select_max_subset,
)
from helpers import MIXED_DENOMINATORS, in_lowest_terms, mixed_sizes, stream

small_streams = st.lists(
    st.tuples(
        st.fractions(min_value="1/6", max_value=1, max_denominator=6),
        st.sampled_from([1, 2]),
    ),
    max_size=7,
)


def both_paths(call, *args):
    """``call(*args)`` as it runs, then with every total above
    ``BITSET_LIMIT``, so that the branch-and-bound takes it."""
    first = call(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "BITSET_LIMIT", 0)
        return first, call(*args)


def split_jobs(sizes, grade1):
    """Grade-2 jobs of these sizes, then a grade-1 job of size ``grade1``
    unless it is 0."""
    pairs = [(size, 2) for size in sizes]
    return stream(*pairs, (grade1, 1)) if grade1 else stream(*pairs)


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

    def test_size_limit_before_any_search(self, monkeypatch):
        # 25 grade-2 jobs are refused by the conversion pass: no search
        # helper is reached, on either side of BITSET_LIMIT
        def unreachable(*args):
            raise AssertionError("a search ran before the size check")

        for name in ("_best_load", "_suffix_reach", "_walk", "_max_subset", "_searched_load"):
            monkeypatch.setattr(oracle, name, unreachable)
        for size in ("1/100", "1/10000007"):
            jobs = stream(*[(size, 2)] * 25, ("1/2", 1))
            for call in (brute_opt, _least_optimal_split, opt_prefix_loads):
                with pytest.raises(SizeLimit, match="25 grade-2 jobs"):
                    call(jobs)

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

    def test_small_grade2_total_beside_huge_grade1_load(self):
        # the bitset masks are sized by the grade-2 total, not the total
        jobs = stream((10**12, 1), ("1/2", 2))
        assert brute_opt(jobs) == 10**12
        result = opt_prefix_loads(jobs)
        assert result.opt == 10**12
        assert result.machines[2] is M2


class TestBitsetAgainstSearch:
    """The reach and walk against the branch-and-bound, through one entry
    point with ``BITSET_LIMIT`` lowered, and the best loads called
    directly."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 1000), min_size=8, max_size=18),
        # grade-1 totals near the grade-2 total put half the total on
        # either side of it, so the best loads' short cuts fire and do not
        st.one_of(
            st.just(0),
            st.integers(1, 3000),
            st.integers(3000, 20000),
            st.integers(1, 10**15),
        ),
    )
    def test_same_split_at_thousandths(self, sizes, grade1):
        # sizes in units of 1/1000, beside a grade-1 total of any size
        jobs = split_jobs([Fraction(size, 1000) for size in sizes], Fraction(grade1, 1000))
        bitset, search = both_paths(_least_optimal_split, jobs)
        assert bitset == search
        assert both_paths(brute_opt, jobs) == (bitset[0], bitset[0])
        # and A's selector, under caps on both sides of half the total
        for cap in (0, sum(sizes) // 2, min(grade1, sum(sizes) - 1)):
            bitset, search = both_paths(select_max_subset, sizes, cap)
            assert bitset == search

    @settings(max_examples=300)
    @given(st.lists(st.integers(1, 60), max_size=8), st.integers(0, 400))
    # the short cuts: the grade-2 total fits under half the total (even
    # and odd), or the largest y up to half is half itself (even and odd)
    @example([2], 4)
    @example([2], 5)
    @example([3, 3], 0)
    @example([3, 4], 0)
    # the search from the top half: y = 0 below, 5 above
    @example([5], 1)
    def test_best_load_against_every_reachable_load(self, sizes, grade1):
        grade2 = sum(sizes)
        total = grade1 + grade2
        reach = 1
        for size in sizes:
            reach |= reach << size
        expected = min(
            (max(total - y, y), y) for y in range(grade2 + 1) if reach >> y & 1
        )
        assert _best_load(reach, total, grade2) == expected
        best, y, machine1 = _searched_load(sizes, total, grade2)
        assert (best, y) == expected
        if machine1 is not None:
            assert sum(sizes[i] for i in machine1) == grade2 - y

    @pytest.mark.parametrize(
        "sizes, grade1, searches",
        [
            ([5], 1, 2),  # the upper y wins: its search gives the split
            ([2, 5], 0, 3),  # the lower y wins a tie: a third search
            ([3, 3], 0, 3),  # the lower y is half, and wins the tie
            ([1, 2], 9, 0),  # every grade-2 job fits under half
        ],
    )
    def test_searches_per_split(self, sizes, grade1, searches, monkeypatch):
        # the machine-1 set of the upper y is the set its search found
        calls = []

        def counting(*args):
            calls.append(args)
            return max_subset(*args)

        max_subset = oracle._max_subset
        monkeypatch.setattr(oracle, "BITSET_LIMIT", 0)
        monkeypatch.setattr(oracle, "_max_subset", counting)
        jobs = split_jobs(sizes, grade1)
        assert _least_optimal_split(jobs)[:2] == least_split_by_enumeration(jobs)[::2]
        assert len(calls) == searches

    @pytest.mark.parametrize("grade2", [BITSET_LIMIT, BITSET_LIMIT + 1])
    def test_path_boundary(self, grade2, monkeypatch):
        sizes = [grade2 // 3, grade2 // 5, grade2 - grade2 // 3 - grade2 // 5]
        for grade1 in (0, grade2 // 7, 3 * grade2):
            jobs = split_jobs(sizes, grade1)
            split = _least_optimal_split(jobs)
            assert split[:2] == least_split_by_enumeration(jobs)[::2]
            # the other path, with the limit moved across the total
            other = grade2 - 1 if grade2 <= BITSET_LIMIT else grade2
            monkeypatch.setattr(oracle, "BITSET_LIMIT", other)
            assert _least_optimal_split(jobs) == split
            monkeypatch.undo()
        # the reach takes totals up to the limit, the search anything above
        jobs = split_jobs(sizes, grade2 // 7)
        split = _least_optimal_split(jobs)
        if grade2 <= BITSET_LIMIT:
            unused = ["_max_subset", "_searched_load"]
        else:
            unused = ["_suffix_reach", "_walk", "_best_load"]
        for name in unused:
            monkeypatch.setattr(oracle, name, None)
        assert _least_optimal_split(jobs) == split
        # brute_opt builds its own reach int, and takes the search above it
        assert brute_opt(jobs) == split[0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(mixed_sizes, st.sampled_from([1, 2, 2])), max_size=9))
    def test_optimum_alone_matches_the_split(self, pairs):
        # units from 1/7 to the lcm of several 10^10..10^13 denominators put
        # the grade-2 total on both sides of the limit
        jobs = stream(*pairs)
        opt = brute_opt(jobs)
        assert opt == _least_optimal_split(jobs)[0]
        assert in_lowest_terms(opt)


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
        assert result.machines[1] is M1

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


class TestInternedResults:
    # equal results are one shared Fraction, built once per (num, unit)
    @pytest.mark.parametrize("limit", [BITSET_LIMIT, 0], ids=["bitset", "search"])
    def test_equal_results_are_one_fraction(self, limit, monkeypatch):
        monkeypatch.setattr(oracle, "BITSET_LIMIT", limit)
        pairs = (("1/2", 2), ("1/3", 1), ("2/7", 2), ("5/9", 2))
        assert brute_opt(stream(*pairs)) is brute_opt(stream(*pairs))
        first, again = opt_prefix_loads(stream(*pairs)), opt_prefix_loads(stream(*pairs))
        assert first.opt is again.opt
        assert first.loads[-1][0] is again.loads[-1][0] == Fraction(5, 6)

    @settings(max_examples=300)
    @given(
        st.integers(0, 10**15) | st.just(0),
        st.sampled_from(MIXED_DENOMINATORS) | st.integers(1, 2 * 10**13 + 10**6),
    )
    def test_values_are_fractions_in_lowest_terms(self, num, den):
        value = oracle._fraction(num, den)
        exact = Fraction(num, den)
        assert in_lowest_terms(value)
        assert (value.numerator, value.denominator) == (exact.numerator, exact.denominator)

    def test_cache_stays_bounded(self):
        maxsize = oracle._fraction.cache_info().maxsize
        for k in range(1, maxsize + 100):
            assert brute_opt([Job(1, Fraction(k, 10**6), 2)]) == Fraction(k, 10**6)
        assert oracle._fraction.cache_info().currsize <= maxsize


class TestNotAJob:
    # an item that is not a Job is named by its position, not met with a
    # raw AttributeError from the first size read
    def test_brute_opt(self):
        with pytest.raises(ParseError, match="position 1 holds None, not a Job"):
            brute_opt([None])

    def test_opt_prefix_loads(self):
        with pytest.raises(ParseError, match="position 2 holds None, not a Job"):
            opt_prefix_loads([*stream(("1/2", 2)), None])

    def test_prefix_opt_monotone_check(self):
        jobs = [*stream(("1/2", 2), ("1/3", 1)), "job"]
        with pytest.raises(ParseError, match="position 3 holds 'job', not a Job"):
            prefix_opt_monotone_check(jobs)

    @pytest.mark.parametrize("fields", [{"size_den": 2}, {"size_den": 2, "size_num": 1}])
    def test_an_item_with_only_some_fields(self, fields):
        # a denominator alone gets past the unit loop; the size loop's
        # failed read is named by position as well
        for call in (brute_opt, opt_prefix_loads):
            with pytest.raises(ParseError, match="^position 2 holds namespace"):
                call([*stream(("1/2", 2)), SimpleNamespace(**fields)])

    def test_a_job_without_its_fields_keeps_its_attribute_error(self):
        # the failure-path check finds a Job, so the size read's error stands
        with pytest.raises(AttributeError):
            brute_opt([object.__new__(Job)])


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

    @pytest.mark.parametrize(
        "opts, failures",
        [
            (
                ["1", "3/2", "1"],
                [
                    "prefix optimum drops at job 3: 3/2 -> 1",
                    "full-input optimum is below a prefix optimum",
                ],
            ),
            (["1", "1/2", "2"], ["prefix optimum drops at job 2: 1 -> 1/2"]),
            (["1", "1", "3/2"], []),
            (["1", "1", "1"], []),
            # optima over different denominators: a drop by 1/35, then none
            (["3/7", "2/5", "9/10"], ["prefix optimum drops at job 2: 3/7 -> 2/5"]),
            (["2/5", "3/7", "5/7"], []),
        ],
    )
    def test_reports_a_dropping_optimum(self, opts, failures, monkeypatch):
        # an oracle that breaks monotonicity, to see both failure lines
        monkeypatch.setattr(oracle, "brute_opt", lambda jobs: Fraction(opts[len(jobs) - 1]))
        report = prefix_opt_monotone_check(stream(("1/2", 2), ("1/2", 2), ("1/2", 1)))
        assert report.prefix_opts == [Fraction(opt) for opt in opts]
        assert report.failures == failures

    def test_one_brute_opt_call_per_prefix(self, monkeypatch):
        # the check reads brute_opt through the module on every prefix, so
        # a rebound oracle.brute_opt sees each one, in order
        seen = []

        def counting(jobs):
            seen.append(tuple(jobs))
            return brute_opt(jobs)

        jobs = stream(("1/2", 2), ("1/3", 1), ("2/3", 2), ("1/4", 2))
        monkeypatch.setattr(oracle, "brute_opt", counting)
        report = prefix_opt_monotone_check(jobs)
        assert seen == [jobs[:j] for j in range(1, len(jobs) + 1)]
        assert report.prefix_opts == [brute_opt(prefix) for prefix in seen]
