"""The online schedulers and their subset-selection procedures.

Schedulers A-D share one window: with r = ``ratio_bound(m).bound`` they
keep machine 2 inside [2-r, r], and differ in how they rebalance an
arrival that would push machine 2 above r:

* ``alg_a`` (m >= 5/2, r = 1+mu with mu = 2/(2m+3)) repartitions all
  grade-2 jobs via an exact max-subset-sum.
* ``alg_b`` (3/4 <= m < 5/2, r = 5/4) never migrates more than
  (3/4) * p_j, whatever m is.
* ``alg_c`` (1/2 <= m < 2/3) and ``alg_d`` (2/3 <= m < 3/4), both with
  r = 2-m, differ in how the migrating subset is chosen.
* ``baseline_nomig`` ignores m, never migrates and achieves 3/2 when the
  optimum is 1.

All of them are deterministic pure functions of the visible state; the
enforcement of budgets and hierarchy stays in :func:`core.apply_decision`.
Three deliberately naive opponents used by adversary tests live at the
bottom.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    EXACT_SEARCH_LIMIT,
    AssignmentDecision,
    Job,
    MachineId,
    RationalLike,
    Regime,
    RegimeBound,
    ScheduleState,
    ZERO,
    as_fraction,
    ratio_bound,
    to_units,
)
from .errors import ParseError, RegimeMismatch, SizeLimit

SchedulerFn = Callable[[ScheduleState, Job, Fraction], AssignmentDecision]

M1 = MachineId.M1
M2 = MachineId.M2


@dataclass(frozen=True)
class WSelection:
    """A chosen subset of candidates: positions and their total size."""

    chosen: tuple[int, ...]
    total: Fraction


def select_max_subset(sizes: Sequence[RationalLike], cap: RationalLike) -> WSelection:
    """Subset of maximum total size not exceeding ``cap``, exact.

    On integer units after ``as_fraction`` (a float raises ParseError):
    depth-first in the given order, include before exclude, pruned by
    suffix sums; among equal-total optima this visits the lexicographically
    smallest index set first, which is the tie-break.
    """
    cap = as_fraction(cap)
    if cap < 0:
        raise ParseError(f"cap must be >= 0, got {cap}")
    n = len(sizes)
    if n > EXACT_SEARCH_LIMIT:
        raise SizeLimit(
            f"{n} candidates exceed the exact-search limit {EXACT_SEARCH_LIMIT}"
        )
    units, unit = to_units([*map(as_fraction, sizes), cap])
    cap_units = units.pop()

    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + units[i]

    best_total = 0
    best: tuple[int, ...] = ()

    def search(i: int, total: int, chosen: tuple[int, ...]) -> None:
        nonlocal best_total, best
        reach = total + suffix[i]
        if reach <= best_total:
            return  # cannot strictly improve; equal totals are lex-larger
        if reach <= cap_units:  # always so at i == n, as total <= cap
            best_total = reach
            best = chosen + tuple(range(i, n))
            return
        if total + units[i] <= cap_units:
            search(i + 1, total + units[i], chosen + (i,))
            if best_total == cap_units:
                return
        search(i + 1, total, chosen)

    search(0, 0, ())
    return WSelection(chosen=best, total=Fraction(best_total, unit))


def select_prefix_max(
    sizes: Sequence[Fraction], cap: Fraction
) -> WSelection:
    """Longest prefix with total at most ``cap`` (possibly empty)."""
    total = ZERO
    chosen: list[int] = []
    for i, size in enumerate(sizes):
        if total + size > cap:
            break
        total += size
        chosen.append(i)
    return WSelection(chosen=tuple(chosen), total=total)


def select_prefix_min(
    sizes: Sequence[Fraction], floor: Fraction
) -> WSelection:
    """Shortest prefix with total at least ``floor``; the entire list if
    even that falls short."""
    total = ZERO
    chosen: list[int] = []
    for i, size in enumerate(sizes):
        if total >= floor:
            break
        total += size
        chosen.append(i)
    return WSelection(chosen=tuple(chosen), total=total)


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


def _window(state: ScheduleState, job: Job, r: Fraction) -> AssignmentDecision | None:
    """Steps 2-3 of schedulers A-D, for r = ratio_bound(m).bound: grade-1
    jobs, or any job once machine 2 holds 2-r, go to machine 1; a job that
    keeps machine 2 within r joins it; otherwise None (rebalancing)."""
    if job.gos == 1 or state.y >= 2 - r:
        return AssignmentDecision(M1, step=2)
    if state.y + job.size <= r:
        return AssignmentDecision(M2, step=3)
    return None


def _clear_prefix(
    state: ScheduleState, job: Job, tight: RegimeBound
) -> AssignmentDecision:
    """Step 4 of B and D for a large arrival (p >= 2-r): the longest
    machine-2 prefix within migration_cap * p moves to machine 1 so the
    arrival fits under r; if it still does not fit, it takes machine 1."""
    sorted_y = state.sorted_y_desc()
    selection = select_prefix_max(
        [size for _, size in sorted_y], tight.migration_cap * job.size
    )
    if state.y - selection.total + job.size > tight.bound:
        return AssignmentDecision(M1, step=4)
    migrations = tuple((sorted_y[i][0], M1) for i in selection.chosen)
    return AssignmentDecision(M2, migrations, step=4)


def alg_a(state: ScheduleState, job: Job, m: Fraction) -> AssignmentDecision:
    """High-migration scheduler (m >= 5/2): final makespan at most 1 + mu.

    When the arrival does not fit the window, all grade-2 jobs plus the
    arrival are repartitioned so machine 2 carries a maximum-total subset
    of size at most 1.
    """
    decision = _window(state, job, require_regime("A", m).bound)
    if decision is not None:
        return decision

    # rebalance: machine 2 gets a max-total subset of Z u Y u {j} capped at 1
    candidates = sorted(idx for idx, held in state.jobs.items() if held.gos == 2)
    sizes = [state.jobs[idx].size for idx in candidates] + [job.size]
    selection = select_max_subset(sizes, Fraction(1))
    picked = set(selection.chosen)
    migrations = []
    for pos, idx in enumerate(candidates):
        new_machine = M2 if pos in picked else M1
        if state.assignment[idx] is not new_machine:
            migrations.append((idx, new_machine))
    target = M2 if len(candidates) in picked else M1  # the arrival is last
    return AssignmentDecision(target, tuple(migrations), step=4)


def alg_b(state: ScheduleState, job: Job, m: Fraction) -> AssignmentDecision:
    """Mid-migration scheduler (3/4 <= m < 5/2): makespan at most 5/4 while
    migrating at most (3/4) * p_j per arrival."""
    tight = require_regime("B", m)
    r = tight.bound
    decision = _window(state, job, r)
    if decision is not None:
        return decision
    p = job.size
    if p >= 2 - r:
        return _clear_prefix(state, job, tight)

    # medium arrival (1/2 < p < 3/4); machine 2 holds more than 1/2
    sorted_y = state.sorted_y_desc()
    idx_max, p_max = sorted_y[0]
    if p + p_max > r:
        return AssignmentDecision(M1, step=5)
    if p_max >= state.y / 2:
        chosen = [idx for idx, _ in sorted_y if idx != idx_max]
    elif p_max >= Fraction(1, 4):
        chosen = [idx_max]
    else:
        sizes = [size for _, size in sorted_y]
        selection = select_prefix_min(sizes, Fraction(1, 4))
        if selection.total > tight.migration_cap * p:
            kept = set(selection.chosen)
            chosen = [sorted_y[i][0] for i in range(len(sizes)) if i not in kept]
        else:
            chosen = [sorted_y[i][0] for i in selection.chosen]
    migrations = tuple((idx, M1) for idx in chosen)
    return AssignmentDecision(M2, migrations, step=5)


def alg_c(state: ScheduleState, job: Job, m: Fraction) -> AssignmentDecision:
    """Low-migration scheduler for 1/2 <= m < 2/3: makespan at most 2 - m.

    When the arrival does not fit, it goes to machine 1 if the largest
    machine-2 job is too big to migrate; otherwise the shortest prefix
    covering the overflow migrates and the arrival takes machine 2.
    """
    tight = require_regime("C", m)
    m, r = tight.m, tight.bound
    decision = _window(state, job, r)
    if decision is not None:
        return decision
    p = job.size
    sorted_y = state.sorted_y_desc()
    if sorted_y and sorted_y[0][1] > m * p:
        return AssignmentDecision(M1, step=4)

    deficit = p + state.y - r
    selection = select_prefix_min([size for _, size in sorted_y], deficit)
    migrations = tuple((sorted_y[i][0], M1) for i in selection.chosen)
    return AssignmentDecision(M2, migrations, step=5)


def alg_d(state: ScheduleState, job: Job, m: Fraction) -> AssignmentDecision:
    """Low-migration scheduler for 2/3 <= m < 3/4: makespan at most 2 - m.

    Large arrivals (p >= m) clear the longest prefix that fits the budget;
    smaller ones move a prefix of total in [m/3, 2m/3], swapped for its
    complement when it exceeds what the budget allows.
    """
    tight = require_regime("D", m)
    m, r = tight.m, tight.bound
    decision = _window(state, job, r)
    if decision is not None:
        return decision
    p = job.size
    if p >= m:
        return _clear_prefix(state, job, tight)

    y_prev = state.y
    sorted_y = state.sorted_y_desc()
    sizes = [size for _, size in sorted_y]
    selection = select_prefix_min(sizes, m / 3)
    chosen = list(selection.chosen)
    w_total = selection.total
    if w_total > min(2 * m / 3, m * p):
        kept = set(chosen)
        chosen = [i for i in range(len(sizes)) if i not in kept]
        w_total = y_prev - w_total
    if y_prev - w_total + p > r:
        return AssignmentDecision(M1, step=5)
    migrations = tuple((sorted_y[i][0], M1) for i in chosen)
    return AssignmentDecision(M2, migrations, step=5)


def baseline_nomig(state: ScheduleState, job: Job, m: Fraction) -> AssignmentDecision:
    """Threshold rule without migration: grade-2 jobs join machine 2 until
    its load reaches 1/2, everything else goes to machine 1.

    Achieves makespan at most 3/2 on any stream whose true optimum is 1:
    if machine 2 ends below 1/2 it holds every grade-2 job, so machine 1
    carries only grade-1 load (at most 1); otherwise machine 1 carries at
    most 2 - 1/2 and machine 2 at most 1/2 + 1.  The migration factor m is
    ignored.
    """
    if job.gos == 1 or state.y >= Fraction(1, 2):
        return AssignmentDecision(M1, step=2)
    return AssignmentDecision(M2, step=3)


# --- naive opponents used to exercise the adversaries -----------------

def greedy_to_m2(state: ScheduleState, job: Job, m: Fraction) -> AssignmentDecision:
    """Send every grade-2 job to machine 2, never migrate."""
    return AssignmentDecision(M2 if job.gos == 2 else M1)


def greedy_least_loaded(
    state: ScheduleState, job: Job, m: Fraction
) -> AssignmentDecision:
    """Grade-2 jobs join the currently smaller machine (ties to machine 2)."""
    if job.gos == 1:
        return AssignmentDecision(M1)
    return AssignmentDecision(M1 if state.load1 < state.load2 else M2)


def all_to_m1(state: ScheduleState, job: Job, m: Fraction) -> AssignmentDecision:
    """Pile everything onto machine 1."""
    return AssignmentDecision(M1)


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
    """Name and function of the guaranteed scheduler for this m."""
    name = REGIME_ALGORITHM[ratio_bound(m).regime]
    return name, SCHEDULERS[name]

