"""Exact offline optimum and prefix loads, and the one exact subset search
that scheduler A shares.

Each call reads its jobs in integer units from :func:`core.job_units`,
the one place a job list is scaled, refuses more than
``EXACT_SEARCH_LIMIT`` grade-2 jobs before any search, and runs on ints;
each Fraction it returns comes from one bounded cache.  Grade-1 jobs are
pinned to machine 1, so the optimum is fixed by y, the machine-2 load:
the makespan is max(T - y, y) over the total T, and the best y is the
largest reachable one up to T/2 or the smallest from T/2 up.

Subset sums take one of two paths, by one test: is the grade-2 total at
most ``BITSET_LIMIT`` units?  Up to it, the sums the jobs from each
position on can reach are the set bits of one int, and a walk in arrival
order that puts a job on machine 1 whenever the later jobs can still make
up y gives the least machine vector for y.  Above it, one depth-first
branch-and-bound, include before exclude, finds the largest total under a
cap and the least position set for it.  Scheduler A's
:func:`select_max_subset` takes the largest total under its cap, as the
machine-1 jobs of the walk to its complement.  As A and the oracle share
this search, their independent check is the tests' exhaustive
enumerators, ``brute_force_max_subset`` and ``least_split_by_enumeration``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .core import EXACT_SEARCH_LIMIT, M1, M2, Job, MachineId, ZERO, job_units
from .errors import ParseError, SizeLimit

# largest grade-2 total, in units, whose reachable loads are kept as the
# bits of one int (128 KiB); larger totals take the branch-and-bound
BITSET_LIMIT = 1 << 20

# every Fraction the module returns, interned on (num, unit): a hit costs
# a fifth of a construction, the 700 instances of a benchmark deck take
# about 1,400 distinct pairs, and a full cache holds about 1.2 MB
_fraction = lru_cache(maxsize=4096)(Fraction)


def _best_load(reach: int, total: int, grade2: int) -> tuple[int, int]:
    """The least makespan over the machine-2 loads y set in ``reach``
    (grade-2 total ``grade2``, all jobs ``total``), and its smallest y."""
    # y <= total // 2 has makespan total - y: take the largest such y
    half = total // 2
    if grade2 <= half:
        # bit grade2 is always set, and no y above it is reachable
        return total - grade2, grade2
    # the mask is sized by half < grade2, since total may be huge
    y = (reach & ((2 << half) - 1)).bit_length() - 1
    best = total - y
    # y >= total - half has makespan y: take the smallest, if it is
    # better; at y == half, best is total - half and none can be
    if y < half:
        rest = total - half
        upper = reach >> rest  # nonzero: rest <= grade2, whose bit is set
        up = rest + (upper & -upper).bit_length() - 1
        if up < best:
            best = y = up
    return best, y


def _suffix_reach(sizes: Sequence[int]) -> list[int]:
    """``suffix[i]``: bit y set when the sizes from position i on can put
    exactly y on machine 2; ``suffix[0]`` holds every reachable sum."""
    suffix = [1]
    for size in reversed(sizes):
        suffix.append(suffix[-1] | suffix[-1] << size)
    return suffix[::-1]


def _walk(sizes: Sequence[int], suffix: list[int], y: int) -> tuple[MachineId, ...]:
    """The least machine vector that puts exactly ``y`` on machine 2."""
    # machine 1 first, whenever the later jobs can still make up y
    vector = []
    for size, later in zip(sizes, suffix[1:]):
        if later >> y & 1:
            vector.append(M1)
        else:
            vector.append(M2)
            y -= size
    return tuple(vector)


def _max_subset(sizes: Sequence[int], cap: int) -> tuple[tuple[int, ...], int]:
    """:func:`select_max_subset` for checked sizes of any total: depth-first,
    include before exclude, pruned by suffix sums, so among equal totals
    the lexicographically smallest position set is met first."""
    suffix = [*accumulate(reversed(sizes), initial=0)][::-1]  # suffix sums
    best_total = 0
    best: tuple[int, ...] = ()

    def search(i: int, total: int, chosen: tuple[int, ...]) -> None:
        nonlocal best_total, best
        reach = total + suffix[i]
        if reach <= best_total:
            return  # cannot strictly improve; equal totals are lex-larger
        if reach <= cap:  # always so at i == len(sizes), as total <= cap
            best_total = reach
            best = chosen + tuple(range(i, len(sizes)))
            return
        if total + sizes[i] <= cap:
            search(i + 1, total + sizes[i], chosen + (i,))
            if best_total == cap:
                return
        search(i + 1, total, chosen)

    search(0, 0, ())
    del search  # its cell refers to it: leave no cycle for the collector
    return best, best_total


def select_max_subset(sizes: Sequence[int], cap: int) -> tuple[tuple[int, ...], int]:
    """Positions and total of a subset of maximum total size not exceeding
    ``cap``, exact; among equal totals, the lexicographically least set.

    Sizes are a sequence of ints > 0 and the cap an int >= 0, all over one
    unit; anything else raises ParseError and more than
    ``EXACT_SEARCH_LIMIT`` sizes raise SizeLimit, before any search."""
    if type(cap) is not int or cap < 0:
        raise ParseError(f"cap must be an int >= 0, got {cap!r}")
    if not isinstance(sizes, Sequence):
        raise ParseError(f"sizes must be a sequence, got {sizes!r}")
    if len(sizes) > EXACT_SEARCH_LIMIT:
        raise SizeLimit(
            f"{len(sizes)} candidates exceed the exact-search limit {EXACT_SEARCH_LIMIT}"
        )
    for size in sizes:
        if type(size) is not int or size <= 0:
            raise ParseError(f"sizes must be ints > 0, got {size!r}")
    grade2 = sum(sizes)
    if cap >= grade2 or grade2 > BITSET_LIMIT:
        # a cap that holds them all ends the search at its first node
        return _max_subset(sizes, cap)
    # the walk to the best total's complement puts the least subset on machine 1
    suffix = _suffix_reach(sizes)
    total = (suffix[0] & ((2 << cap) - 1)).bit_length() - 1
    vector = _walk(sizes, suffix, grade2 - total)
    return tuple([i for i, machine in enumerate(vector) if machine is M1]), total


def _searched_load(
    sizes: list[int], total: int, grade2: int
) -> tuple[int, int, tuple[int, ...] | None]:
    """:func:`_best_load` by branch-and-bound, for any grade-2 total, and
    the machine-1 positions of its y when the search for y found them."""
    half = total // 2
    if grade2 <= half:
        return total - grade2, grade2, ()
    low = _max_subset(sizes, half)[1]
    # the smallest y from total - half up leaves the largest complement
    machine1, kept = _max_subset(sizes, grade2 - (total - half))
    if grade2 - kept < total - low:
        return grade2 - kept, grade2 - kept, machine1
    return total - low, low, None


def _least_optimal_split(
    jobs: Sequence[Job],
) -> tuple[Fraction, tuple[MachineId, ...], int]:
    """The least optimal assignment of the grade-2 jobs, exact.

    Returns the optimal makespan, the machine of each grade-2 job in
    arrival order and the unit the sizes were scaled to.  Among optima the
    least has the smallest machine-2 load, then the lexicographically
    smallest machine vector (machine 1 before machine 2).  Grade-1 jobs
    are pinned to machine 1; empty input gives makespan 0.
    """
    unit, total, sizes = job_units(jobs)
    if len(sizes) > EXACT_SEARCH_LIMIT:
        raise SizeLimit(
            f"{len(sizes)} grade-2 jobs exceed the exact-search limit "
            f"{EXACT_SEARCH_LIMIT}"
        )
    grade2 = sum(sizes)
    if grade2 <= BITSET_LIMIT:
        suffix = _suffix_reach(sizes)
        best, y = _best_load(suffix[0], total, grade2)
        return _fraction(best, unit), _walk(sizes, suffix, y), unit
    best, y, machine1 = _searched_load(sizes, total, grade2)
    # the upper y's search found its set; the lower y's takes one more
    picked = set(_max_subset(sizes, grade2 - y)[0] if machine1 is None else machine1)
    vector = tuple([M1 if i in picked else M2 for i in range(len(sizes))])
    return _fraction(best, unit), vector, unit


def brute_opt(jobs: Sequence[Job]) -> Fraction:
    """Minimum makespan over all feasible assignments, exact.

    Grade-1 jobs are forced onto machine 1 and the grade-2 jobs placed
    as the module docstring describes; only the optimum is computed, not
    the split that reaches it.  Empty input gives 0.
    """
    unit, total, sizes = job_units(jobs)
    if len(sizes) > EXACT_SEARCH_LIMIT:
        raise SizeLimit(
            f"{len(sizes)} grade-2 jobs exceed the exact-search limit "
            f"{EXACT_SEARCH_LIMIT}"
        )
    grade2 = sum(sizes)
    if grade2 > BITSET_LIMIT:
        return _fraction(_searched_load(sizes, total, grade2)[0], unit)
    reach = 1  # bit y set: some grade-2 jobs seen so far sum to y
    for size in sizes:
        reach |= reach << size
    return _fraction(_best_load(reach, total, grade2)[0], unit)


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
    opt, vector, unit = _least_optimal_split(jobs)
    gos2_machines = iter(vector)
    machines: dict[int, MachineId] = {}
    loads = []
    # the loads run as ints, each job converted as it is placed; each
    # prefix builds a Fraction only for the load that changed and shares
    # the other one's
    load1 = load2 = 0
    frac1 = frac2 = ZERO
    for job in jobs:
        size = job.size_num * (unit // job.size_den)
        machine = M1 if job.gos == 1 else next(gos2_machines)
        machines[job.index] = machine
        if machine is M1:
            load1 += size
            frac1 = _fraction(load1, unit)
        else:
            load2 += size
            frac2 = _fraction(load2, unit)
        loads.append((frac1, frac2))
    return OptimalPrefixLoads(loads=tuple(loads), machines=machines, opt=opt)


@dataclass
class PrefixMonotoneReport:
    prefix_opts: list[Fraction]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def prefix_opt_monotone_check(jobs: Sequence[Job]) -> PrefixMonotoneReport:
    """Assert the exact optimum is non-decreasing over prefixes and
    never exceeds the optimum of the full input."""
    # one brute_opt call per prefix, looked up in the module each time, so
    # a rebound oracle.brute_opt (a probe, a test) sees every prefix
    prefix_opts = [brute_opt(jobs[:j]) for j in range(1, len(jobs) + 1)]
    failures: list[str] = []
    # each optimum as a (num, den) pair, den > 0, compared by
    # cross-multiplication rather than through Fraction.__lt__
    ratios = [opt.as_integer_ratio() for opt in prefix_opts]
    for j in range(1, len(ratios)):
        (num0, den0), (num, den) = ratios[j - 1], ratios[j]
        if num * den0 < num0 * den:
            failures.append(
                f"prefix optimum drops at job {j + 1}: "
                f"{prefix_opts[j - 1]} -> {prefix_opts[j]}"
            )
    # without a drop the optima never decrease, so the last is the largest
    if failures and prefix_opts[-1] != max(prefix_opts):
        failures.append("full-input optimum is below a prefix optimum")
    return PrefixMonotoneReport(prefix_opts=prefix_opts, failures=failures)
