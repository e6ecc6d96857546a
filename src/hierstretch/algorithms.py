"""The online schedulers and their subset-selection procedures.

Schedulers A-D share one window: with r = ``ratio_bound(m).bound`` they
keep machine 2 inside [2-r, r], and differ in how they rebalance an
arrival that would push machine 2 above r:

* ``alg_a`` (m >= 5/2, r = 1+mu with mu = 2/(2m+3)) repartitions all
  grade-2 jobs via an exact max-subset-sum, :func:`select_max_subset`, on
  the oracle's one reach and walk or its one branch-and-bound.
* ``alg_b`` (3/4 <= m < 5/2, r = 5/4) never migrates more than
  (3/4) * p_j, whatever m is.
* ``alg_c`` (1/2 <= m < 2/3) and ``alg_d`` (2/3 <= m < 3/4), both with
  r = 2-m, differ in how the migrating subset is chosen.
* ``baseline_nomig`` ignores m, never migrates and achieves 3/2 when the
  optimum is 1.

Each is called as ``fn(state, job)``: the state carries its migration
factor m and m's constants.  All of them decide as deterministic
functions of the visible state, on ints over the state's unit: every
job's size, the arrival's and the placed jobs', from
:meth:`ScheduleState.units_of` (the only change they make to a state is
to extend that unit); the subset selectors take and return ints over
that unit too.  Schedulers A-D check the state's regime in their shared
window.  The enforcement of budgets and hierarchy
stays in :func:`core.apply_decision`.
Three deliberately naive opponents used by adversary tests live at the
bottom.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence

from .core import (
    EXACT_SEARCH_LIMIT,  # re-exported: A refuses past it, through select_max_subset
    AssignmentDecision,
    M1,
    M2,
    Job,
    MachineId,
    Regime,
    RegimeBound,
    ScheduleState,
    ratio_bound,
)
from .errors import RegimeMismatch
from .oracle import select_max_subset

SchedulerFn = Callable[[ScheduleState, Job], AssignmentDecision]

# the window's decisions, and the naive opponents', carry no migrations,
# so one frozen record of each serves every arrival
_WINDOW_M1 = AssignmentDecision(M1, step=2)
_WINDOW_M2 = AssignmentDecision(M2, step=3)
_PLAIN_M1 = AssignmentDecision(M1)
_PLAIN_M2 = AssignmentDecision(M2)


def select_prefix_max(sizes: Sequence[int], cap: int) -> tuple[int, int]:
    """Length and total of the longest prefix with total at most ``cap``
    (possibly empty)."""
    total = 0
    for count, size in enumerate(sizes):
        if total + size > cap:
            return count, total
        total += size
    return len(sizes), total


def select_prefix_min(sizes: Sequence[int], floor: int) -> tuple[int, int]:
    """Length and total of the shortest prefix with total at least
    ``floor``; the entire list if even that falls short."""
    total = 0
    for count, size in enumerate(sizes):
        if total >= floor:
            return count, total
        total += size
    return len(sizes), total


# the regime each migrating scheduler is proven for; the baseline never
# migrates and keeps its 3/2 at every m
SCHEDULER_REGIME: dict[str, Regime] = {
    "A": Regime.HIGH,
    "B": Regime.MID,
    "C": Regime.LOW_C,
    "D": Regime.LOW_D,
}


def require_regime(name: str, m) -> RegimeBound:
    """Return m's tight bound, or raise RegimeMismatch unless m lies in
    scheduler ``name``'s regime."""
    regime = SCHEDULER_REGIME[name]
    tight = ratio_bound(m)
    if tight.regime is not regime:
        raise RegimeMismatch(
            f"scheduler {name} expects the {regime.value} regime; "
            f"m={tight.m} falls in {tight.regime.value}"
        )
    return tight


def _window(name: str, state: ScheduleState, job: Job) -> AssignmentDecision | None:
    """Steps 2-3 of scheduler ``name`` (A-D), for r = ratio_bound(m).bound,
    after raising RegimeMismatch unless the state's m lies in its regime:
    grade-1 jobs, or any job once machine 2 holds 2-r, go to machine 1; a
    job that keeps machine 2 within r joins it; otherwise None
    (rebalancing)."""
    if state.tight.regime is not SCHEDULER_REGIME[name]:
        require_regime(name, state.m)
    if job.gos == 1 or state.y_units >= state.low:
        return _WINDOW_M1
    if state.units_of(job) + state.y_units <= state.r:
        return _WINDOW_M2
    return None


def _to_m1(indices: list[int]) -> tuple[tuple[int, MachineId], ...]:
    """Migrations moving these machine-2 jobs to machine 1."""
    return tuple([(idx, M1) for idx in indices])


def _clear_prefix(state: ScheduleState, p: int, budget: int) -> AssignmentDecision:
    """Step 4 of B and D for a large arrival of ``p`` units: the longest
    machine-2 prefix within ``budget`` (the caller's migration cap times
    p, in units rounded down) moves to machine 1 so the arrival fits under
    r; if it still does not fit, it takes machine 1."""
    sizes, indices = state.y_order()
    k, total = select_prefix_max(sizes, budget)
    if state.y_units - total + p > state.r:
        return AssignmentDecision(M1, step=4)
    return AssignmentDecision(M2, _to_m1(indices[:k]), step=4)


def alg_a(state: ScheduleState, job: Job) -> AssignmentDecision:
    """High-migration scheduler (m >= 5/2): final makespan at most 1 + mu.

    When the arrival does not fit the window, all grade-2 jobs plus the
    arrival are repartitioned so machine 2 carries a maximum-total subset
    of size at most 1; among equal totals the subset search prefers the
    earliest arrivals.
    """
    decision = _window("A", state, job)
    if decision is not None:
        return decision

    # rebalance: machine 2 gets a max-total subset of Z u Y u {j} capped at 1
    p = state.units_of(job)
    candidates = [other for other in state.jobs.values() if other.gos == 2]
    sizes = [state.units_of(other) for other in candidates] + [p]
    picked = set(select_max_subset(sizes, state.unit)[0])
    migrations = []
    for pos, other in enumerate(candidates):
        new_machine = M2 if pos in picked else M1
        if state.assignment[other.index] is not new_machine:
            migrations.append((other.index, new_machine))
    target = M2 if len(candidates) in picked else M1  # the arrival is last
    return AssignmentDecision(target, tuple(migrations), step=4)


def alg_b(state: ScheduleState, job: Job) -> AssignmentDecision:
    """Mid-migration scheduler (3/4 <= m < 5/2): makespan at most 5/4 while
    migrating at most (3/4) * p_j per arrival."""
    decision = _window("B", state, job)
    if decision is not None:
        return decision
    p = state.units_of(job)
    # the mid regime's migration cap, 3/4 = 2 - r, times p, rounded down
    budget = state.low * p // state.unit
    if p >= state.low:
        return _clear_prefix(state, p, budget)

    # medium arrival (1/2 < p < 3/4); machine 2 holds more than 1/2
    sizes, indices = state.y_order()
    p_max = sizes[0]
    if p + p_max > state.r:
        return AssignmentDecision(M1, step=5)
    if 2 * p_max >= state.y_units:
        moved = indices[1:]
    elif 4 * p_max >= state.unit:  # p_max >= 1/4
        moved = indices[:1]
    else:
        # the shortest prefix of total at least 1/4, rounded up to a unit
        k, total = select_prefix_min(sizes, -(-state.unit // 4))
        if total > budget:
            moved = indices[k:]
        else:
            moved = indices[:k]
    return AssignmentDecision(M2, _to_m1(moved), step=5)


def alg_c(state: ScheduleState, job: Job) -> AssignmentDecision:
    """Low-migration scheduler for 1/2 <= m < 2/3: makespan at most 2 - m.

    When the arrival does not fit, it goes to machine 1 if the largest
    machine-2 job is too big to migrate; otherwise the shortest prefix
    covering the overflow migrates and the arrival takes machine 2.
    """
    decision = _window("C", state, job)
    if decision is not None:
        return decision
    p = state.units_of(job)
    sizes, indices = state.y_order()
    if sizes and sizes[0] > state.m_units * p // state.unit:
        return AssignmentDecision(M1, step=4)

    deficit = p + state.y_units - state.r
    k, _ = select_prefix_min(sizes, deficit)
    return AssignmentDecision(M2, _to_m1(indices[:k]), step=5)


def alg_d(state: ScheduleState, job: Job) -> AssignmentDecision:
    """Low-migration scheduler for 2/3 <= m < 3/4: makespan at most 2 - m.

    Large arrivals (p >= m) clear the longest prefix that fits the budget;
    smaller ones move a prefix of total in [m/3, 2m/3], swapped for its
    complement when it exceeds what the budget allows.
    """
    decision = _window("D", state, job)
    if decision is not None:
        return decision
    p = state.units_of(job)
    m_units = state.m_units
    budget = m_units * p // state.unit
    if p >= m_units:
        return _clear_prefix(state, p, budget)

    # a prefix of total at least m/3 and at most 2m/3 and the budget, with
    # m/3 rounded up and 2m/3 down to a unit
    sizes, indices = state.y_order()
    k, w_total = select_prefix_min(sizes, -(-m_units // 3))
    moved = indices[:k]
    if w_total > min(2 * m_units // 3, budget):
        moved, w_total = indices[k:], state.y_units - w_total
    if state.y_units - w_total + p > state.r:
        return AssignmentDecision(M1, step=5)
    return AssignmentDecision(M2, _to_m1(moved), step=5)


def baseline_nomig(state: ScheduleState, job: Job) -> AssignmentDecision:
    """Threshold rule without migration: grade-2 jobs join machine 2 until
    its load reaches 1/2, everything else goes to machine 1.

    Achieves makespan at most 3/2 on any stream whose true optimum is 1:
    if machine 2 ends below 1/2 it holds every grade-2 job, so machine 1
    carries only grade-1 load (at most 1); otherwise machine 1 carries at
    most 2 - 1/2 and machine 2 at most 1/2 + 1.  The state's migration
    factor is ignored.
    """
    if job.gos == 1 or 2 * state.y_units >= state.unit:
        return _WINDOW_M1
    return _WINDOW_M2


# --- naive opponents used to exercise the adversaries -----------------

def greedy_to_m2(state: ScheduleState, job: Job) -> AssignmentDecision:
    """Send every grade-2 job to machine 2, never migrate."""
    return _PLAIN_M2 if job.gos == 2 else _PLAIN_M1


def greedy_least_loaded(state: ScheduleState, job: Job) -> AssignmentDecision:
    """Grade-2 jobs join the currently smaller machine (ties to machine 2)."""
    if job.gos == 1 or state.load1_units < state.y_units:
        return _PLAIN_M1
    return _PLAIN_M2


def all_to_m1(state: ScheduleState, job: Job) -> AssignmentDecision:
    """Pile everything onto machine 1."""
    return _PLAIN_M1


SCHEDULERS: dict[str, SchedulerFn] = {
    "A": alg_a,
    "B": alg_b,
    "C": alg_c,
    "D": alg_d,
    "baseline": baseline_nomig,
    "greedy-m2": greedy_to_m2,
    "least-loaded": greedy_least_loaded,
    "all-m1": all_to_m1,
}

# schedulers with a proven makespan guarantee, keyed by regime
REGIME_ALGORITHM: dict[Regime, str] = {
    **{regime: name for name, regime in SCHEDULER_REGIME.items()},
    Regime.NO_MIG: "baseline",
}


def scheduler_for_regime(m) -> tuple[str, SchedulerFn]:
    """Name and function of the guaranteed scheduler for this m (or its
    :class:`RegimeBound`)."""
    name = REGIME_ALGORITHM[ratio_bound(m).regime]
    return name, SCHEDULERS[name]

