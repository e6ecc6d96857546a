"""Domain types, schedule bookkeeping, migration budgets, and tight bounds.

Everything is exact: sizes, loads, budgets, and bounds cross the API as
:class:`fractions.Fraction` values, while the work runs on ints over a
common unit (see :class:`Job`, :class:`ScheduleState`,
:class:`MigrationLedger` and :func:`job_units`, which alone scales a job list).
Every guarantee in this package is a decidable comparison rather than a
float tolerance.  JSON output goes through one codec, :func:`json_ready`,
which writes each Fraction as its 'num/den' string.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import (
    BudgetExceeded,
    HierarchyViolation,
    HierStretchError,
    IllegalDecision,
    NegativeM,
    ParseError,
    UnknownJob,
)

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)

# largest number of items an exact exponential search accepts: the
# oracle's grade-2 jobs and scheduler A's rebalancing candidates
EXACT_SEARCH_LIMIT = 24


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, and 'num/den' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
    raise ParseError(f"not a rational: {value!r}")


def as_migration_factor(value: RationalLike) -> Fraction:
    """:func:`as_fraction` for a migration factor m, which must be >= 0."""
    m = as_fraction(value)
    if m.numerator < 0:
        raise NegativeM(f"migration factor must be >= 0, got {m}")
    return m


def to_units(values: list[Fraction]) -> tuple[list[int], int]:
    """Scale exact rationals to ints over one common unit: returns each
    ``value * unit`` and ``unit``, the lcm of the denominators (1 if none)."""
    ratios = [value.as_integer_ratio() for value in values]
    unit = math.lcm(*[den for _, den in ratios])
    return [num * (unit // den) for num, den in ratios], unit


def fraction_str(value: Fraction) -> str:
    """Canonical 'num/den' form: lowest terms, positive denominator."""
    return f"{value.numerator}/{value.denominator}"


def json_ready(value):
    """``value`` ready for :func:`json.dumps`: through dicts, lists and
    tuples, each Fraction becomes its :func:`fraction_str` and each tuple a
    list; everything else is left as it is."""
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, dict):
        return {key: json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(item) for item in value]
    return value


class MachineId(IntEnum):
    """The two machines. M1 runs everything; M2 only grade-2 jobs."""

    M1 = 1
    M2 = 2


# a member read through its enum class costs a metaclass lookup; the hot
# paths here and in the other modules read these module globals instead
M1 = MachineId.M1
M2 = MachineId.M2


@dataclass(frozen=True, slots=True, init=False)
class Job:
    """One stream element: positive size and a grade of service in {1, 2}.

    Grade-1 jobs may only ever run on machine 1; grade-2 jobs run anywhere.
    A malformed field raises :class:`ParseError`: the index must be an int
    >= 1 and the grade the int 1 or 2, so ``True`` and floats are refused.
    ``size_num`` and ``size_den`` are the size's numerator and denominator
    in lowest terms, read once when the job is made, so every conversion
    of the size to units reads two ints; equality, hashing and the repr
    ignore them.
    """

    index: int
    size: Fraction
    gos: int
    size_num: int = field(init=False, repr=False, compare=False)
    size_den: int = field(init=False, repr=False, compare=False)

    # written by hand, not as a __post_init__ after a generated __init__:
    # the adversaries make a Job per arrival and the generator one per
    # deck entry, so it validates its arguments once and writes each slot
    # through the slot's own setter, which costs less than the
    # object.__setattr__ a frozen dataclass otherwise uses
    def __init__(self, index: int, size: RationalLike, gos: int) -> None:
        if type(index) is not int or index < 1:
            raise ParseError(f"job index must be an int >= 1, got {index!r}")
        if type(size) is not Fraction:  # a Fraction subclass is kept as is
            size = as_fraction(size)
        num, den = size.as_integer_ratio()
        if num <= 0:
            raise ParseError(f"job {index} has non-positive size {size}")
        if type(gos) is not int or gos not in (1, 2):
            raise ParseError(f"job {index} has bad grade of service {gos!r}")
        _set_index(self, index)
        _set_size(self, size)
        _set_gos(self, gos)
        _set_num(self, num)
        _set_den(self, den)


_set_index, _set_size, _set_gos, _set_num, _set_den = [
    getattr(Job, name).__set__
    for name in ("index", "size", "gos", "size_num", "size_den")
]


def require_jobs(items: Iterable, start: int = 1) -> None:
    """Raise :class:`ParseError` naming the first position, counted from
    ``start``, whose item is not a :class:`Job`."""
    for pos, item in enumerate(items, start=start):
        if not isinstance(item, Job):
            raise ParseError(f"position {pos} holds {item!r}, not a Job")


def job_units(jobs: Sequence[Job]) -> tuple[int, int, list[int]]:
    """``(unit, total, grade2)`` for any number of jobs: the lcm of their
    denominators, their total size in units and the grade-2 sizes in units,
    in arrival order.  Items are read through a :class:`Job`'s
    ``size_num``, ``size_den`` and ``gos``: one that lacks any of them
    raises :class:`ParseError` naming its position, and one that has them
    all is read as a Job without a check of its type."""
    # the unit grows only on a denominator it is not yet a multiple of:
    # the `oracle` benchmark deck takes 1.6 lcm calls per oracle call this
    # way, and one lcm over a list of all the denominators costs more
    unit = 1
    total = 0
    grade2: list[int] = []
    try:
        for job in jobs:
            den = job.size_den
            if unit % den:
                unit = math.lcm(unit, den)
        for job in jobs:
            size = job.size_num * (unit // job.size_den)
            total += size
            if job.gos == 2:
                grade2.append(size)
    except AttributeError:
        # checked only when a field cannot be read: a type check per job
        # in the unit loop cost 2.5-5.6% of the `oracle` benchmark's
        # ops_per_s (medians of 6-9 alternating 20-second runs, `type(job)`
        # and `job.__class__` forms; 2-CPU Xeon, CPython 3.11.7)
        require_jobs(jobs)
        raise
    return unit, total, grade2


@dataclass(frozen=True)
class AssignmentDecision:
    """Target machine for the arriving job plus reassignments of older jobs.

    ``migrations`` lists each moved job exactly once with its new machine;
    the arriving job itself is never part of it.  ``step`` records which
    scheduler rule produced the decision (diagnostic only).
    """

    target: MachineId
    migrations: tuple[tuple[int, MachineId], ...] = ()
    step: int | None = None


class LedgerEntry(NamedTuple):
    """One applied arrival: the job, the decision that placed it, the
    volume it migrated (``ZERO`` unless the decision migrated) and the
    migration factor m; its budget is m * p_j."""

    job: Job
    decision: AssignmentDecision
    migrated_total: Fraction
    m: Fraction

    @property
    def budget(self) -> Fraction:
        return self.m * self.job.size


class MigrationLedger:
    """Per-arrival record of decisions and migrated volume, in arrival
    order, kept as columns that :func:`apply_decision` appends to.

    ``jobs``, ``decisions`` and ``ms`` (the m of the state that applied
    the arrival) hold one item per applied arrival; ``migrated`` maps the
    position of each arrival that migrated to its volume, a Fraction.
    ``max_ratio`` is the largest migrated volume / p_j so far (``ZERO`` if
    none), updated only when an arrival migrates.  :attr:`entries` is the
    same record as :class:`LedgerEntry` values, built when read.
    """

    def __init__(self) -> None:
        self.jobs: list[Job] = []
        self.decisions: list[AssignmentDecision] = []
        self.ms: list[Fraction] = []
        self.migrated: dict[int, Fraction] = {}
        self.max_ratio = ZERO
        self._entries: list[LedgerEntry] = []

    @property
    def entries(self) -> list[LedgerEntry]:
        """One :class:`LedgerEntry` per applied arrival, in arrival order.

        The list is cached and extended by the arrivals applied since the
        last read, so reading it after every arrival stays linear; do not
        modify it."""
        built = self._entries
        start = len(built)
        if start < len(self.jobs):
            migrated = self.migrated
            built += [
                LedgerEntry(job, decision, migrated.get(pos, ZERO), m)
                for pos, job, decision, m in zip(
                    range(start, len(self.jobs)),
                    self.jobs[start:], self.decisions[start:], self.ms[start:],
                )
            ]
        return built


class ScheduleState:
    """Assignment of all arrived jobs plus the two machine loads under one
    migration factor m, fixed for the schedule.

    ``ScheduleState(m)`` parses m once (a negative m raises
    :class:`NegativeM`) and keeps it with its tight bound ``tight``; m may
    be that :class:`RegimeBound` itself.
    ``jobs`` holds the arrived jobs in arrival order and ``assignment``
    their machines.  The ints named in ``SCALED`` share one ``unit``, the
    lcm of every denominator among them and the sizes seen: the loads
    ``load1_units`` (machine 1) and ``y_units`` (machine 2), then the
    constants every arrival reads, ``r`` (the tight bound), ``low``
    (2 - r) and ``m_units`` (m).  A new denominator rescales all of them
    once, so read them from the state where they are used; a rule that
    needs another threshold works it out from these and ``unit`` where it
    reads it.  :meth:`units_of` gives any job's size in units, placed or
    arriving, and :meth:`y_order` sorts the machine-2 jobs.

    ``load1``, ``load2`` and ``makespan`` are the loads' Fraction views in
    lowest terms.  :func:`apply_decision` updates a state in place;
    :meth:`copy` takes a snapshot.  States compare by their m, jobs,
    assignment and loads, not by their unit.
    """

    SCALED = ("load1_units", "y_units", "r", "low", "m_units")

    def __init__(self, m: RationalLike | RegimeBound) -> None:
        self.tight = tight = ratio_bound(m)
        self.m = tight.m
        self.jobs: dict[int, Job] = {}
        self.assignment: dict[int, MachineId] = {}
        self.unit, (self.r, self.low, self.m_units) = tight.units
        self.load1_units = self.y_units = 0

    def copy(self) -> ScheduleState:
        twin = object.__new__(ScheduleState)
        for name in ("m", "tight", "unit", *self.SCALED):
            setattr(twin, name, getattr(self, name))
        twin.jobs, twin.assignment = dict(self.jobs), dict(self.assignment)
        return twin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleState):
            return NotImplemented
        # the loads compare across units by cross-multiplying
        mine, theirs = self.unit, other.unit
        return (self.m, self.jobs, self.assignment) == (
            other.m, other.jobs, other.assignment
        ) and (self.load1_units * theirs, self.y_units * theirs) == (
            other.load1_units * mine, other.y_units * mine
        )

    def __repr__(self) -> str:
        return (
            f"ScheduleState(m={self.m!r}, jobs={self.jobs!r}, "
            f"assignment={self.assignment!r}, load1={self.load1!r}, "
            f"load2={self.load2!r})"
        )

    def units_of(self, job: Job) -> int:
        """``job``'s size in units, first extending the unit to its
        denominator; reads the job's ``size_num`` and ``size_den``."""
        den = job.size_den
        if self.unit % den:
            self._extend(den)
        return job.size_num * (self.unit // den)

    def _extend(self, den: int) -> None:
        """Rescale every ``SCALED`` int once, so the unit becomes a
        multiple of den."""
        factor = math.lcm(self.unit, den) // self.unit
        self.unit *= factor
        self.load1_units *= factor
        self.y_units *= factor
        self.r *= factor
        self.low *= factor
        self.m_units *= factor

    @property
    def load1(self) -> Fraction:
        return Fraction(self.load1_units, self.unit)

    @property
    def load2(self) -> Fraction:
        return Fraction(self.y_units, self.unit)

    @property
    def makespan_units(self) -> int:
        return max(self.load1_units, self.y_units)

    @property
    def makespan(self) -> Fraction:
        return Fraction(self.makespan_units, self.unit)

    @property
    def arrived_total(self) -> Fraction:
        return Fraction(self.load1_units + self.y_units, self.unit)

    def y_order(self) -> tuple[list[int], list[int]]:
        """Machine-2 jobs as ``(sizes, indices)``, two parallel lists: the
        largest job first, ties to the smaller index; sizes in units."""
        jobs, units_of = self.jobs, self.units_of
        order = sorted([
            (-units_of(jobs[idx]), idx)
            for idx, machine in self.assignment.items()
            if machine is M2
        ])
        return [-neg for neg, _ in order], [idx for _, idx in order]


def apply_decision(
    state: ScheduleState,
    job: Job,
    decision: AssignmentDecision,
    ledger: MigrationLedger,
) -> ScheduleState:
    """Place ``job`` and apply the decision's migrations, enforcing the
    per-arrival migration budget m * p_j, for the state's m, and the
    machine hierarchy.

    Updates ``state`` in place and returns it; the ledger's columns gain
    this arrival.  Raises an :class:`IllegalDecision` (BudgetExceeded,
    HierarchyViolation, UnknownJob, or the base class itself) on an
    illegal decision, a decision that is not an
    :class:`AssignmentDecision` with a tuple of migrations, a malformed
    migration entry or a machine that is not a :class:`MachineId`
    included, and then leaves the state's values and the ledger untouched.
    """
    if job.index in state.jobs:
        raise IllegalDecision(f"job {job.index} already scheduled")
    if not (
        isinstance(decision, AssignmentDecision)
        and isinstance(decision.migrations, tuple)
    ):
        raise IllegalDecision(f"job {job.index} got malformed decision {decision!r}")
    target = decision.target
    if not isinstance(target, MachineId):
        raise IllegalDecision(f"job {job.index} sent to unknown machine {target!r}")
    if job.gos == 1 and target is M2:
        raise HierarchyViolation(
            f"grade-1 job {job.index} cannot run on machine 2"
        )

    p = state.units_of(job)
    assignment = state.assignment
    migrations = decision.migrations
    if migrations:
        migrated = to_m2 = 0  # to_m2: net units moved onto machine 2
        seen: set[int] = set()
        for entry in migrations:
            if not (
                isinstance(entry, tuple) and len(entry) == 2 and type(entry[0]) is int
            ):
                raise IllegalDecision(
                    f"migration {entry!r} is not an (int, machine) pair"
                )
            idx, new_machine = entry
            if idx in seen:
                raise IllegalDecision(f"job {idx} listed twice in one decision")
            seen.add(idx)
            moved = state.jobs.get(idx)
            if moved is None:
                raise UnknownJob(f"migration references unknown job {idx}")
            if not isinstance(new_machine, MachineId):
                raise IllegalDecision(
                    f"job {idx} migrated to unknown machine {new_machine!r}"
                )
            if assignment[idx] is new_machine:
                raise IllegalDecision(
                    f"migration of job {idx} does not change machines"
                )
            if moved.gos == 1 and new_machine is M2:
                raise HierarchyViolation(
                    f"grade-1 job {idx} cannot migrate to machine 2"
                )
            size = state.units_of(moved)
            migrated += size
            to_m2 += size if new_machine is M2 else -size
        migrated_total = Fraction(migrated, state.unit)
        if migrated * state.unit > state.m_units * p:
            raise BudgetExceeded(
                f"arrival {job.index}: migrated {migrated_total} "
                f"> budget {state.m * job.size}"
            )
        for idx, new_machine in migrations:
            assignment[idx] = new_machine
        state.y_units += to_m2
        state.load1_units -= to_m2
        ledger.migrated[len(ledger.jobs)] = migrated_total
        ratio = Fraction(migrated, p)
        if ratio > ledger.max_ratio:
            ledger.max_ratio = ratio

    idx = job.index
    state.jobs[idx] = job
    assignment[idx] = target
    if target is M2:
        state.y_units += p
    else:
        state.load1_units += p
    ledger.jobs.append(job)
    ledger.decisions.append(decision)
    ledger.ms.append(state.m)
    return state


class Regime(str, Enum):
    """Migration-factor intervals with distinct tight competitive ratios."""

    HIGH = "high"      # m >= 5/2
    MID = "mid"        # 3/4 <= m < 5/2
    LOW_D = "lowD"     # 2/3 <= m < 3/4
    LOW_C = "lowC"     # 1/2 <= m < 2/3
    NO_MIG = "nomig"   # 0 <= m < 1/2


@dataclass(frozen=True)
class RegimeBound:
    """Exact tight competitive ratio for a migration factor.

    ``mu`` is the slack 2/(2m+3) of the high regime, defined there only.
    """

    m: Fraction
    regime: Regime
    bound: Fraction
    mu: Fraction | None = None

    @property
    def migration_cap(self) -> Fraction:
        """Migration factor the regime's scheduler keeps: m, or 3/4 if mid."""
        return 2 - self.bound if self.regime is Regime.MID else self.m

    @cached_property
    def units(self) -> tuple[int, tuple[int, ...]]:
        """``(den, scaled)``: the bound, 2 - bound and m, the constants of
        a :class:`ScheduleState` under m in the order of its ``SCALED``
        after the two loads, as ints over their common denominator
        ``den``; computed once per cached bound, so once per m."""
        scaled, den = to_units([self.bound, 2 - self.bound, self.m])
        return den, tuple(scaled)


@lru_cache(maxsize=4096)
def _ratio_bound_cached(num: int, den: int) -> RegimeBound:
    """The bound of m = num/den in lowest terms; keyed on two ints, which
    hash faster than a Fraction."""
    m = Fraction(num, den)
    if m >= Fraction(5, 2):
        mu = Fraction(2, 2 * m + 3)
        return RegimeBound(m, Regime.HIGH, 1 + mu, mu)
    if m >= Fraction(3, 4):
        return RegimeBound(m, Regime.MID, Fraction(5, 4))
    if m >= Fraction(2, 3):
        return RegimeBound(m, Regime.LOW_D, 2 - m)
    if m >= Fraction(1, 2):
        return RegimeBound(m, Regime.LOW_C, 2 - m)
    return RegimeBound(m, Regime.NO_MIG, Fraction(3, 2))


def ratio_bound(m: RationalLike | RegimeBound) -> RegimeBound:
    """Tight competitive ratio as a function of the migration factor.

    (2m+5)/(2m+3) for m >= 5/2; 5/4 on [3/4, 5/2); 2-m on [1/2, 3/4);
    3/2 below 1/2.  Non-increasing in m and continuous at every boundary.
    A :class:`RegimeBound` is returned as it is, so a caller that holds
    one can pass it wherever an m is taken.
    """
    if isinstance(m, RegimeBound):
        return m
    m = as_migration_factor(m)
    return _ratio_bound_cached(m.numerator, m.denominator)


@dataclass(frozen=True)
class Instance:
    """Ordered job stream with a declared optimal makespan.

    Streams are normalized so the declared optimum is 1 before scheduling;
    :meth:`normalized` performs the exact rescale.  Jobs that are not an
    iterable, indices other than 1..n in order, an element that is not a
    :class:`Job`, or a non-positive declared optimum raise
    :class:`ParseError`.
    """

    jobs: tuple[Job, ...]
    declared_opt: Fraction = ONE

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "jobs", tuple(self.jobs))
        except TypeError:
            raise ParseError(f"jobs must be an iterable of Jobs, got {self.jobs!r}") from None
        if not isinstance(self.declared_opt, Fraction):
            object.__setattr__(self, "declared_opt", as_fraction(self.declared_opt))
        if self.declared_opt <= 0:
            raise ParseError(
                f"declared_opt must be positive, got {self.declared_opt}"
            )
        require_jobs(self.jobs)
        for pos, job in enumerate(self.jobs, start=1):
            if job.index != pos:
                raise ParseError(
                    f"job indices must be 1..n in order; position {pos} has {job.index}"
                )

    @cached_property
    def total_size(self) -> Fraction:
        """The sum of the job sizes, computed on the first read and kept."""
        unit, total, _ = job_units(self.jobs)
        return Fraction(total, unit)

    def normalized(self) -> "Instance":
        """Rescale sizes by 1/declared_opt so the declared optimum is 1."""
        if self.declared_opt == 1:
            return self
        scale = 1 / self.declared_opt
        jobs = tuple([
            Job(job.index, job.size * scale, job.gos) for job in self.jobs
        ])
        return Instance(jobs=jobs, declared_opt=ONE)

    def to_json_dict(self) -> dict:
        return json_ready({
            "declared_opt": self.declared_opt,
            "jobs": [{"p": job.size, "g": job.gos} for job in self.jobs],
        })

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def jobs_from_pairs(pairs: Iterable[tuple[RationalLike, int]]) -> tuple[Job, ...]:
    """Build an indexed job tuple from (size, gos) pairs in arrival order;
    an entry that is not such a pair raises :class:`ParseError`."""
    try:
        return tuple([Job(i, p, g) for i, (p, g) in enumerate(pairs, start=1)])
    except (TypeError, ValueError) as exc:  # an entry that does not unpack
        raise ParseError(f"job list must hold (size, gos) pairs: {exc}") from None


def instance_from_json_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise ParseError("instance must be a JSON object")
    try:
        declared_opt = as_fraction(data["declared_opt"])
        raw_jobs = data["jobs"]
    except KeyError as exc:
        raise ParseError(f"instance missing field {exc}") from exc
    if not isinstance(raw_jobs, list):
        raise ParseError("'jobs' must be a list")
    jobs = []
    for pos, entry in enumerate(raw_jobs, start=1):
        if not isinstance(entry, dict) or "p" not in entry or "g" not in entry:
            raise ParseError(f"job {pos} must be an object with 'p' and 'g'")
        jobs.append(Job(pos, entry["p"], entry["g"]))
    return Instance(jobs=tuple(jobs), declared_opt=declared_opt)


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON
        raise ParseError(f"cannot read instance {path!r}: {exc}") from exc
    return instance_from_json_dict(data)


def dump_instance(instance: Instance, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(instance.to_json())
            handle.write("\n")
    except OSError as exc:
        raise HierStretchError(f"cannot write instance {path!r}: {exc}") from exc


@dataclass
class ValidationReport:
    """Outcome of structural (and optionally oracle) instance checks."""

    failures: list[str] = field(default_factory=list)
    oracle_opt: Fraction | None = None

    @property
    def valid(self) -> bool:
        return not self.failures


def validate_instance(instance: Instance, check_opt: bool = False) -> ValidationReport:
    """Check the bin-stretching invariants of an instance.

    Structural checks: positive sizes (enforced at parse already), total
    size at most twice the declared optimum, and grade-1 total at most the
    declared optimum.  With ``check_opt``, the exact oracle must
    reproduce the declared optimum exactly.
    """
    report = ValidationReport()
    jobs, opt = instance.jobs, instance.declared_opt
    # both totals as ints over the jobs' unit, compared with opt = num/den
    # by cross-multiplication; a Fraction is built only for a failure message
    unit, total, grade2 = job_units(jobs)
    gos1 = total - sum(grade2)
    num, den = opt.as_integer_ratio()
    if total * den > 2 * num * unit:
        report.failures.append(
            f"total size {Fraction(total, unit)} exceeds twice the declared "
            f"optimum {opt}"
        )
    if gos1 * den > num * unit:
        report.failures.append(
            f"grade-1 total {Fraction(gos1, unit)} exceeds the declared "
            f"optimum {opt}"
        )
    if check_opt:
        # read from the module on each call, so a rebound oracle.brute_opt
        # (a probe, a test) sees this call too
        report.oracle_opt = oracle.brute_opt(jobs)
        if report.oracle_opt != opt:
            report.failures.append(
                f"brute-force optimum {report.oracle_opt} differs from declared "
                f"{opt}"
            )
    return report


# the oracle imports this module, so it is bound last, once core is complete
from . import oracle  # noqa: E402
