"""Brute-force offline optimum and prefix loads, used as ground truth.

The search is exact: sizes are scaled once to integer units, every
assignment of grade-2 jobs is enumerated on those ints (grade-1 jobs are
pinned to machine 1) with branch-and-bound pruning on the partial loads,
and results leave as Fractions.  Deliberately a different computation path
from any scheduler, so tests can use it as an independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import EXACT_SEARCH_LIMIT, Job, MachineId, ZERO, to_units
from .errors import SizeLimit


def _least_optimal_split(
    jobs: Sequence[Job],
) -> tuple[Fraction, tuple[MachineId, ...]]:
    """The least optimal assignment of the grade-2 jobs, exact.

    Returns the optimal makespan and the machine of each grade-2 job in
    arrival order.  Among optimal assignments the least is the one with
    the smallest machine-2 load, then the lexicographically smallest
    machine vector (machine 1 before machine 2).  Grade-1 jobs are pinned
    to machine 1; empty input gives makespan 0.
    """
    units, unit = to_units([job.size for job in jobs])
    sizes = [size for size, job in zip(units, jobs) if job.gos == 2]
    n = len(sizes)
    if n > EXACT_SEARCH_LIMIT:
        raise SizeLimit(
            f"{n} grade-2 jobs exceed the exact-search limit {EXACT_SEARCH_LIMIT}"
        )
    # start from everything on machine 1: the least vector of all
    best = sum(units)
    best_y = 0
    best_mask = 0  # bit i set: grade-2 job i on machine 2

    def search(i: int, load1: int, y: int, mask: int) -> None:
        nonlocal best, best_y, best_mask
        # partial loads only grow, so (max(load1, y), y) bounds the key of
        # every leaf below; equal keys are kept, because machine 2 is tried
        # first and a later leaf has the lexicographically smaller vector
        low = max(load1, y)
        if low >= best and (low > best or y > best_y):
            return
        if i == n:
            best, best_y, best_mask = low, y, mask
            return
        search(i + 1, load1, y + sizes[i], mask | (1 << i))
        search(i + 1, load1 + sizes[i], y, mask)

    search(0, best - sum(sizes), 0, 0)
    vector = tuple(
        MachineId.M2 if best_mask >> i & 1 else MachineId.M1 for i in range(n)
    )
    return Fraction(best, unit), vector


def brute_opt(jobs: Sequence[Job]) -> Fraction:
    """Minimum makespan over all feasible assignments, exact.

    Grade-1 jobs are forced onto machine 1; the 2^k placements of the k
    grade-2 jobs are searched with pruning.  Empty input gives 0.
    """
    return _least_optimal_split(jobs)[0]


@dataclass(frozen=True)
class OptimalPrefixLoads:
    """Loads of one fixed optimal assignment restricted to each prefix.

    ``loads[j-1]`` is (machine-1 load, machine-2 load) after the first j
    jobs of that assignment; ``machines`` maps job index to its machine.
    """

    loads: tuple[tuple[Fraction, Fraction], ...]
    machines: dict[int, MachineId]
    opt: Fraction


def opt_prefix_loads(jobs: Sequence[Job]) -> OptimalPrefixLoads:
    """Pick one optimal full assignment and report cumulative prefix loads.

    Deterministic tie-break among optima: smallest final machine-2 load,
    then the lexicographically smallest machine vector over grade-2 jobs
    in arrival order (machine 1 before machine 2).
    """
    opt, vector = _least_optimal_split(jobs)
    gos2_machines = iter(vector)
    machines: dict[int, MachineId] = {}
    loads = []
    load1 = load2 = ZERO
    for job in jobs:
        machine = MachineId.M1 if job.gos == 1 else next(gos2_machines)
        machines[job.index] = machine
        if machine is MachineId.M1:
            load1 += job.size
        else:
            load2 += job.size
        loads.append((load1, load2))
    return OptimalPrefixLoads(loads=tuple(loads), machines=machines, opt=opt)


@dataclass
class PrefixMonotoneReport:
    prefix_opts: list[Fraction]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def prefix_opt_monotone_check(jobs: Sequence[Job]) -> PrefixMonotoneReport:
    """Assert the brute-force optimum is non-decreasing over prefixes and
    never exceeds the optimum of the full input."""
    prefix_opts: list[Fraction] = []
    failures: list[str] = []
    for j in range(1, len(jobs) + 1):
        prefix_opts.append(brute_opt(jobs[:j]))
    for j in range(1, len(prefix_opts)):
        if prefix_opts[j] < prefix_opts[j - 1]:
            failures.append(
                f"prefix optimum drops at job {j + 1}: "
                f"{prefix_opts[j - 1]} -> {prefix_opts[j]}"
            )
    if prefix_opts and prefix_opts[-1] != max(prefix_opts):
        failures.append("full-input optimum is below a prefix optimum")
    return PrefixMonotoneReport(prefix_opts=prefix_opts, failures=failures)
