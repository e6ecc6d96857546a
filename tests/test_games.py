"""Every lower-bound game against every legal reply.

A game's claimed ratio must bind any scheduler that keeps the budget and
the hierarchy, not only the schedulers in ``SCHEDULERS``.  The walk below
plays a game against all such replies: at each arrival, every target the
job's grade allows, each with every set of earlier grade-2 jobs moved to
the other machine whose total fits the budget m * p.  Each reply goes
through :func:`apply_decision` on a copy of the state, which must accept
it.  States are memoised on the ordered (size, grade, machine) tuple of
the placed jobs, which is all an adversary reads.  At every leaf the
oracle confirms the certified optimum and the ratio must reach the claim.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

from hierstretch.adversary import AdvHigh, AdvMid, AdvTotalSize, Stop
from hierstretch.core import (
    EXACT_SEARCH_LIMIT,
    M1,
    M2,
    ZERO,
    AssignmentDecision,
    MigrationLedger,
    ScheduleState,
    apply_decision,
)
from hierstretch.harness import soundness_adversaries
from hierstretch.oracle import brute_opt

# the largest walk covered below visits 2,082 states; a game that
# grows past the cap fails instead of running on
MAX_NODES = 20_000

# AdvTotalSize at m = 10 and 100 emits 28 and 276 sand jobs after its two
# large ones: past the oracle's limit and past any walk that fits in a
# test run.  The games carry no hand-written migration-proof check, so
# the walk also covers parameters other than the defaults: a gamma well
# below mu, gamma = mu/2 at m = 5/2, a large m, and eps = 1/20 and 1/100
GAMES = [
    adv for adv in soundness_adversaries()
    if not (adv.name == AdvTotalSize.name and adv.m >= 10)
] + [
    pytest.param(adv, id=f"{adv.name}@{adv.m},{name}={value}")
    for adv in (
        AdvHigh(3, Fraction(1, 9)),
        AdvHigh(Fraction(5, 2), Fraction(1, 8)),
        AdvHigh(10, Fraction(1, 100)),
        AdvMid(Fraction(3, 5), Fraction(1, 20)),
        AdvMid(Fraction(73, 100), Fraction(1, 100)),
    )
    for name, value in adv.params().items()
]


def legal_replies(state, job):
    """Every decision for ``job`` that keeps the hierarchy and the budget
    m * p: each target its grade allows, with each set of earlier grade-2
    jobs moved to the other machine, depth-first, a set pruned once its
    total exceeds the budget."""
    budget = state.m * job.size
    movable = [
        (idx, other.size, M1 if state.assignment[idx] is M2 else M2)
        for idx, other in state.jobs.items()
        if other.gos == 2
    ]
    moves = []

    def extend(start, chosen, total):
        moves.append(chosen)
        for pos in range(start, len(movable)):
            idx, size, machine = movable[pos]
            if total + size <= budget:
                extend(pos + 1, chosen + ((idx, machine),), total + size)

    extend(0, (), ZERO)
    targets = (M1, M2) if job.gos == 2 else (M1,)
    return [AssignmentDecision(target, move) for target in targets for move in moves]


def forced_ratio(adversary):
    """The smallest makespan / certified optimum over every legal reply,
    with the claim of its leaf; asserts at each leaf that the oracle
    confirms the certificate and that the ratio reaches the claim."""
    seen = set()
    worst = None
    stack = [ScheduleState(adversary.m)]
    while stack:
        state = stack.pop()
        move = adversary.next(state)
        if isinstance(move, Stop):
            jobs = list(state.jobs.values())
            grade2 = sum(job.gos == 2 for job in jobs)
            assert grade2 <= EXACT_SEARCH_LIMIT, f"leaf with {grade2} grade-2 jobs"
            assert brute_opt(jobs) == move.certified_opt, state
            ratio = state.makespan / move.certified_opt
            assert ratio >= move.claimed_min_ratio, state
            leaf = (ratio, move.claimed_min_ratio)
            worst = leaf if worst is None else min(worst, leaf)
            continue
        for decision in legal_replies(state, move):
            child = apply_decision(state.copy(), move, decision, MigrationLedger())
            key = tuple(
                (job.size, job.gos, child.assignment[idx])
                for idx, job in child.jobs.items()
            )
            if key not in seen:
                seen.add(key)
                assert len(seen) <= MAX_NODES, f"walk passed {MAX_NODES} states"
                stack.append(child)
    return worst


@pytest.mark.parametrize("adversary", GAMES, ids=lambda adv: f"{adv.name}@{adv.m}")
def test_game_forces_its_claim_against_every_legal_reply(adversary):
    # the walk checks every leaf against its claim; the weakest leaf meets
    # it exactly, so no game claims less than it forces
    forced, claimed = forced_ratio(adversary)
    assert forced == claimed
