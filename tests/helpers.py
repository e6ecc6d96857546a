"""Shared helpers for the test suite."""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from hierstretch.adversary import AdvTotalSize, refine_theta
from hierstretch.core import (
    M1,
    M2,
    AssignmentDecision,
    MigrationLedger,
    ScheduleState,
    apply_decision,
    jobs_from_pairs,
)

# sizes in (0, 1] over mixed and very large denominators: 1/7, 1/1000,
# 1/10^6, refine_theta()'s 14,361,400,000, and the known-total-size
# adversary's sand at m = 1, 10, 100 and 1000, together with theta and the
# sand sizes themselves
SAND_SIZES = [AdvTotalSize(m).sand_size for m in (1, 10, 100, 1000)]
MIXED_DENOMINATORS = [7, 1000, 10**6, refine_theta().denominator] + [
    size.denominator for size in SAND_SIZES
]
mixed_sizes = st.one_of(
    st.sampled_from([refine_theta(), *SAND_SIZES]),
    st.sampled_from(MIXED_DENOMINATORS).flatmap(
        lambda d: st.integers(1, d).map(lambda k: Fraction(k, d))
    ),
)


def stream(*pairs):
    """Jobs from (size, gos) pairs; sizes may be strings."""
    return jobs_from_pairs(pairs)


def emitting(later):
    """A scheduler that puts the first arrival on machine 2 and answers
    every later one with ``later``: a tuple is taken as the migrations of
    a move to machine 1, anything else is returned as it is."""

    def scheduler(state, job):
        if not state.jobs:
            return AssignmentDecision(M2)
        if isinstance(later, tuple):
            return AssignmentDecision(M1, later)
        return later

    return scheduler


def replay(jobs, scheduler_fn, m):
    """Yield (pre_state, job, decision, post_state) for every arrival under
    m, the states as snapshots, since :func:`apply_decision` updates in
    place."""
    state = ScheduleState(m)
    ledger = MigrationLedger()
    for job in jobs:
        pre = state.copy()
        decision = scheduler_fn(state, job)
        apply_decision(state, job, decision, ledger)
        yield pre, job, decision, state.copy()


def in_lowest_terms(value):
    """True when ``value`` is a Fraction whose numerator and denominator
    share no factor."""
    return type(value) is Fraction and gcd(value.numerator, value.denominator) == 1


def brute_force_max_subset(sizes, cap):
    """Independent check for the exact subset selector: enumerate all
    subsets, maximize total under the cap, break ties by the smallest
    index tuple."""
    from itertools import combinations

    best_total = Fraction(0)
    for r in range(len(sizes) + 1):
        for combo in combinations(range(len(sizes)), r):
            total = sum((sizes[i] for i in combo), Fraction(0))
            if total <= cap and total > best_total:
                best_total = total
    winners = [
        combo
        for r in range(len(sizes) + 1)
        for combo in combinations(range(len(sizes)), r)
        if sum((sizes[i] for i in combo), Fraction(0)) == best_total
    ]
    return best_total, min(winners)
