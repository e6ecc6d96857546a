"""Exact offline optimum and prefix loads, used as ground truth.

Each call scales its sizes to integer units over a unit that grows
only on a denominator that does not divide it, then sums the total,
picks out the grade-2 sizes and checks their count before any search;
the work runs on ints and a Fraction is made only for a value it
returns.
Every such Fraction comes from one bounded cache keyed on (num, unit),
so equal results are one shared, immutable Fraction in lowest terms.
Grade-1 jobs are pinned to machine 1, so the optimum is fixed by y, the
machine-2 load: the makespan is max(T - y, y) over the total T.  When
the grade-2 total is at most ``BITSET_LIMIT`` units, the loads y the
grade-2 jobs can reach are the set bits of one int, built with one
shift-or per job; the best y is the largest reachable one up to T/2 or
the smallest from T/2 up.  :func:`brute_opt` keeps only that one int.
The least optimal split keeps the reach of every suffix, and one walk in
arrival order picks its machine vector; :func:`opt_prefix_loads` then
runs the prefix loads as ints.  Larger totals (sizes with huge
denominators, such as the known-total-size adversary's sand) fall back
to a branch-and-bound over the 2^k placements.  Both paths refuse more
than ``EXACT_SEARCH_LIMIT`` grade-2 jobs and return the same split.
Deliberately a different computation path from any scheduler, so tests
can use it as an independent oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .core import EXACT_SEARCH_LIMIT, M1, M2, Job, MachineId, ZERO, require_jobs
from .errors import SizeLimit

# largest grade-2 total, in units, whose reachable loads are kept as the
# bits of one int (128 KiB); larger totals take the branch-and-bound
BITSET_LIMIT = 1 << 20

# every Fraction the module returns, interned on (num, unit): a hit costs
# a fifth of a construction, the 700 instances of a benchmark deck take
# about 1,400 distinct pairs, and a full cache holds about 1.2 MB
_fraction = lru_cache(maxsize=4096)(Fraction)


def _grade2_sizes(jobs: Sequence[Job]) -> tuple[int, int, list[int]]:
    """``(unit, total, sizes)``: the lcm of the jobs' denominators, every
    job's size summed in units and the grade-2 sizes in arrival order;
    more than ``EXACT_SEARCH_LIMIT`` grade-2 jobs raise
    :class:`SizeLimit` before any search.  Items are read through their
    :class:`Job` fields (``size_num``, ``size_den``, ``gos``): one that
    lacks them raises :class:`ParseError` naming its position, and one
    that has them is read as a Job without a check of its type."""
    # the unit grows only on a denominator it is not yet a multiple of:
    # the `oracle` benchmark deck takes 1.6 lcm calls per oracle call this
    # way, and one lcm over a list of all the denominators costs more
    unit = 1
    try:
        for job in jobs:
            den = job.size_den
            if unit % den:
                unit = lcm(unit, den)
    except AttributeError:
        # checked only when a size cannot be read: a type check per job
        # in this loop cost 2.5-5.6% of the `oracle` benchmark's ops_per_s
        # (medians of 6-9 alternating 20-second runs, `type(job)` and
        # `job.__class__` forms; 2-CPU Xeon, CPython 3.11.7)
        require_jobs(jobs)
        raise
    total = 0
    sizes: list[int] = []
    for job in jobs:
        size = job.size_num * (unit // job.size_den)
        total += size
        if job.gos == 2:
            sizes.append(size)
    if len(sizes) > EXACT_SEARCH_LIMIT:
        raise SizeLimit(
            f"{len(sizes)} grade-2 jobs exceed the exact-search limit "
            f"{EXACT_SEARCH_LIMIT}"
        )
    return unit, total, sizes


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


def _bitset_split(
    sizes: list[int], total: int
) -> tuple[int, tuple[MachineId, ...]]:
    """The least optimal split of grade-2 ``sizes`` (ints) when all jobs sum
    to ``total``: its makespan and the machine of each grade-2 job."""
    # suffix[i]: bit y set when jobs i.. can put exactly y on machine 2
    suffix = [1]
    for size in reversed(sizes):
        reach = suffix[-1]
        suffix.append(reach | reach << size)
    suffix.reverse()
    best, y = _best_load(suffix[0], total, sum(sizes))
    # machine 1 first, whenever the later jobs can still make up y
    vector = []
    for size, later in zip(sizes, suffix[1:]):
        if later >> y & 1:
            vector.append(M1)
        else:
            vector.append(M2)
            y -= size
    return best, tuple(vector)


def _search_split(
    sizes: list[int], total: int
) -> tuple[int, tuple[MachineId, ...]]:
    """:func:`_bitset_split` by branch-and-bound, for any grade-2 total."""
    n = len(sizes)
    # start from everything on machine 1: the least vector of all
    best = total
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

    search(0, total - sum(sizes), 0, 0)
    del search  # its cell refers to it: leave no cycle for the collector
    return best, tuple([
        M2 if best_mask >> i & 1 else M1 for i in range(n)
    ])


def _least_optimal_split(
    jobs: Sequence[Job],
) -> tuple[Fraction, tuple[MachineId, ...], int]:
    """The least optimal assignment of the grade-2 jobs, exact.

    Returns the optimal makespan, the machine of each grade-2 job in
    arrival order and the unit the sizes were scaled to.  Among
    optimal assignments the least is the one with the smallest machine-2
    load, then the lexicographically smallest machine vector (machine 1
    before machine 2).  Grade-1 jobs are pinned to machine 1; empty input
    gives makespan 0.
    """
    unit, total, sizes = _grade2_sizes(jobs)
    split = _bitset_split if sum(sizes) <= BITSET_LIMIT else _search_split
    best, vector = split(sizes, total)
    return _fraction(best, unit), vector, unit


def brute_opt(jobs: Sequence[Job]) -> Fraction:
    """Minimum makespan over all feasible assignments, exact.

    Grade-1 jobs are forced onto machine 1 and the grade-2 jobs placed
    as the module docstring describes; only the optimum is computed, not
    the split that reaches it.  Empty input gives 0.
    """
    unit, total, sizes = _grade2_sizes(jobs)
    grade2 = sum(sizes)
    if grade2 > BITSET_LIMIT:
        return _fraction(_search_split(sizes, total)[0], unit)
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
