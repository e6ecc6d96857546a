"""Shared helpers for the test suite."""
from __future__ import annotations

from fractions import Fraction

from hierstretch import (
    AssignmentDecision,
    MachineId,
    MigrationLedger,
    ScheduleState,
    apply_decision,
    jobs_from_pairs,
)


def stream(*pairs):
    """Jobs from (size, gos) pairs; sizes may be strings."""
    return jobs_from_pairs(pairs)


def emitting(migrations):
    """A scheduler that puts the first arrival on machine 2 and answers
    every later one with machine 1 plus the given migrations."""

    def scheduler(state, job, m):
        if not state.jobs:
            return AssignmentDecision(MachineId.M2)
        return AssignmentDecision(MachineId.M1, migrations)

    return scheduler


def replay(jobs, scheduler_fn, m):
    """Yield (pre_state, job, decision, post_state) for every arrival."""
    m = Fraction(m)
    state = ScheduleState()
    ledger = MigrationLedger()
    for job in jobs:
        decision = scheduler_fn(state, job, m)
        new_state = apply_decision(state, job, decision, ledger, m)
        yield state, job, decision, new_state
        state = new_state


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
