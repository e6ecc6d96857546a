#!/usr/bin/env python3
"""Watch each scheduler make its decisions, arrival by arrival.

Each walkthrough streams a short instance through one scheduler and
prints the placement, any migrations, and the machine loads after every
arrival.  The migration ledger at the end shows how much of each
arrival's budget was actually spent.
"""
from hierstretch.algorithms import SCHEDULERS
from hierstretch.core import (
    MigrationLedger,
    ScheduleState,
    apply_decision,
    jobs_from_pairs,
)


def walkthrough(title, pairs, scheduler_name, m):
    # the schedule is bound to its migration factor m once, up front
    state = ScheduleState(m)
    print(f"--- {title} (scheduler {scheduler_name}, m = {state.m}) ---")
    ledger = MigrationLedger()
    scheduler = SCHEDULERS[scheduler_name]
    for job in jobs_from_pairs(pairs):
        decision = scheduler(state, job)
        state = apply_decision(state, job, decision, ledger)
        moved = ", ".join(
            f"job{idx}->m{int(mach)}" for idx, mach in decision.migrations
        )
        print(
            f"  job{job.index} (p={job.size}, g={job.gos}) -> "
            f"machine {int(decision.target)}"
            + (f", migrated {moved}" if moved else "")
        )
        print(f"      loads now: m1 = {state.load1}, m2 = {state.load2}")
    print(f"  final makespan {state.makespan} vs tight bound {state.tight.bound}")
    if ledger.max_ratio:
        print(f"  largest migration spend: {ledger.max_ratio} of an arrival")
    print()


# the high-budget scheduler rebalances machine 2 with an exact subset sum
walkthrough(
    "rebalance after an oversized arrival",
    [("13/20", 2), ("7/10", 2), ("1/10", 1)],
    "A",
    "5/2",
)

# the mid scheduler guards machine 2 with the window [3/4, 5/4]
walkthrough(
    "a medium arrival that cannot fit",
    [("7/20", 2), ("7/20", 2), ("3/5", 2)],
    "B",
    "1",
)

# below budget 2/3, only a short prefix of machine 2 may leave
walkthrough(
    "shortest-prefix migration",
    [("1/2", 2), ("19/20", 2)],
    "C",
    "3/5",
)

# between 2/3 and 3/4, the prefix is swapped for its complement if needed
walkthrough(
    "prefix kept within [m/3, 2m/3]",
    [("7/20", 2), ("17/50", 2), ("17/25", 2)],
    "D",
    "7/10",
)

# without migration, a threshold of 1/2 on machine 2 gives 3/2
walkthrough(
    "no-migration threshold rule",
    [("1/2", 2), ("1", 2), ("1/2", 1)],
    "baseline",
    "0",
)
