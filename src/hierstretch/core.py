"""Domain types, schedule bookkeeping, migration budgets, and tight bounds.

Everything is exact: sizes, loads, budgets, and bounds cross the API as
:class:`fractions.Fraction` values, and the exponential searches run on
ints after one scaling (:func:`to_units`), so every guarantee in this
package is a decidable comparison rather than a float tolerance.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

from .errors import (
    BudgetExceeded,
    HierarchyViolation,
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


def to_units(values: list[Fraction]) -> tuple[list[int], int]:
    """Scale exact rationals to ints over one common unit: returns each
    ``value * unit`` and ``unit``, the lcm of the denominators (1 if none)."""
    unit = math.lcm(*(value.denominator for value in values))
    return [value.numerator * (unit // value.denominator) for value in values], unit


def fraction_str(value: Fraction) -> str:
    """Canonical 'num/den' form: lowest terms, positive denominator."""
    return f"{value.numerator}/{value.denominator}"


class MachineId(IntEnum):
    """The two machines. M1 runs everything; M2 only grade-2 jobs."""

    M1 = 1
    M2 = 2


@dataclass(frozen=True, slots=True)
class Job:
    """One stream element: positive size and a grade of service in {1, 2}.

    Grade-1 jobs may only ever run on machine 1; grade-2 jobs run anywhere.
    A malformed field raises :class:`ParseError`: the index must be an int
    >= 1 and the grade the int 1 or 2, so ``True`` and floats are refused.
    """

    index: int
    size: Fraction
    gos: int

    def __post_init__(self) -> None:
        if type(self.index) is not int or self.index < 1:
            raise ParseError(f"job index must be an int >= 1, got {self.index!r}")
        if not isinstance(self.size, Fraction):
            object.__setattr__(self, "size", as_fraction(self.size))
        if self.size <= 0:
            raise ParseError(f"job {self.index} has non-positive size {self.size}")
        if type(self.gos) is not int or self.gos not in (1, 2):
            raise ParseError(
                f"job {self.index} has bad grade of service {self.gos!r}"
            )


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


@dataclass(frozen=True)
class LedgerEntry:
    job_index: int
    job_size: Fraction
    migrated_total: Fraction
    budget: Fraction

    @property
    def ratio(self) -> Fraction:
        return self.migrated_total / self.job_size


class MigrationLedger:
    """Per-arrival record of migrated volume against the budget m * p_j."""

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []

    def record(self, job: Job, migrated_total: Fraction, m: Fraction) -> LedgerEntry:
        entry = LedgerEntry(job.index, job.size, migrated_total, m * job.size)
        self.entries.append(entry)
        return entry

    @property
    def max_ratio(self) -> Fraction:
        """Largest migrated_total / p_j over all arrivals (0 if none)."""
        return max((entry.ratio for entry in self.entries), default=ZERO)


@dataclass(frozen=True)
class ScheduleState:
    """Assignment of all arrived jobs plus cached load aggregates.

    ``x``: total size of grade-1 jobs (all on machine 1).
    ``y``: total size of grade-2 jobs on machine 2.
    ``z``: total size of grade-2 jobs on machine 1.
    States are value-like; :func:`apply_decision` returns a new state.
    """

    jobs: dict[int, Job] = field(default_factory=dict)
    assignment: dict[int, MachineId] = field(default_factory=dict)
    x: Fraction = ZERO
    y: Fraction = ZERO
    z: Fraction = ZERO

    @property
    def load1(self) -> Fraction:
        return self.x + self.z

    @property
    def load2(self) -> Fraction:
        return self.y

    @property
    def makespan(self) -> Fraction:
        return max(self.load1, self.load2)

    @property
    def arrived_total(self) -> Fraction:
        return self.x + self.y + self.z

    def sorted_y_desc(self) -> list[tuple[int, Fraction]]:
        """Machine-2 jobs as (index, size), non-increasing size, ties by
        smaller arrival index first."""
        items = [
            (idx, self.jobs[idx].size)
            for idx, mach in self.assignment.items()
            if mach is MachineId.M2
        ]
        items.sort(key=lambda pair: (-pair[1], pair[0]))
        return items


def apply_decision(
    state: ScheduleState,
    job: Job,
    decision: AssignmentDecision,
    ledger: MigrationLedger,
    m: RationalLike,
) -> ScheduleState:
    """Place ``job`` and apply the decision's migrations, enforcing the
    per-arrival migration budget and the machine hierarchy.

    Returns the new state; the ledger gains one entry for this arrival.
    Raises an :class:`IllegalDecision` (BudgetExceeded, HierarchyViolation,
    UnknownJob, or the base class itself) on an illegal decision, a
    malformed migration entry or a machine that is not a :class:`MachineId`
    included, and leaves the ledger untouched.
    """
    m = as_fraction(m)
    if m < 0:
        raise NegativeM(f"migration factor must be >= 0, got {m}")
    if job.index in state.jobs:
        raise IllegalDecision(f"job {job.index} already scheduled")
    target = decision.target
    if not isinstance(target, MachineId):
        raise IllegalDecision(f"job {job.index} sent to unknown machine {target!r}")
    if job.gos == 1 and target is MachineId.M2:
        raise HierarchyViolation(
            f"grade-1 job {job.index} cannot run on machine 2"
        )

    assignment = dict(state.assignment)
    x, y, z = state.x, state.y, state.z
    migrated_total = ZERO
    seen: set[int] = set()
    for entry in decision.migrations:
        if not (isinstance(entry, tuple) and len(entry) == 2 and type(entry[0]) is int):
            raise IllegalDecision(f"migration {entry!r} is not an (int, machine) pair")
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
        if moved.gos == 1 and new_machine is MachineId.M2:
            raise HierarchyViolation(
                f"grade-1 job {idx} cannot migrate to machine 2"
            )
        migrated_total += moved.size
        assignment[idx] = new_machine
        shift = moved.size if new_machine is MachineId.M2 else -moved.size
        y += shift
        z -= shift

    budget = m * job.size
    if migrated_total > budget:
        raise BudgetExceeded(
            f"arrival {job.index}: migrated {migrated_total} > budget {budget}"
        )

    assignment[job.index] = target
    if job.gos == 1:
        x += job.size
    elif target is MachineId.M2:
        y += job.size
    else:
        z += job.size

    ledger.record(job, migrated_total, m)
    jobs = {**state.jobs, job.index: job}
    return ScheduleState(jobs=jobs, assignment=assignment, x=x, y=y, z=z)


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


@lru_cache(maxsize=4096)
def _ratio_bound_cached(m: Fraction) -> RegimeBound:
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


def ratio_bound(m: RationalLike) -> RegimeBound:
    """Tight competitive ratio as a function of the migration factor.

    (2m+5)/(2m+3) for m >= 5/2; 5/4 on [3/4, 5/2); 2-m on [1/2, 3/4);
    3/2 below 1/2.  Non-increasing in m and continuous at every boundary.
    """
    m = as_fraction(m)
    if m < 0:
        raise NegativeM(f"migration factor must be >= 0, got {m}")
    return _ratio_bound_cached(m)


@dataclass(frozen=True)
class Instance:
    """Ordered job stream with a declared optimal makespan.

    Streams are normalized so the declared optimum is 1 before scheduling;
    :meth:`normalized` performs the exact rescale.  Indices other than
    1..n in order, or a non-positive declared optimum, raise
    :class:`ParseError`.
    """

    jobs: tuple[Job, ...]
    declared_opt: Fraction = ONE

    def __post_init__(self) -> None:
        if not isinstance(self.declared_opt, Fraction):
            object.__setattr__(self, "declared_opt", as_fraction(self.declared_opt))
        if self.declared_opt <= 0:
            raise ParseError(
                f"declared_opt must be positive, got {self.declared_opt}"
            )
        for pos, job in enumerate(self.jobs, start=1):
            if job.index != pos:
                raise ParseError(
                    f"job indices must be 1..n in order; position {pos} has {job.index}"
                )

    @property
    def total_size(self) -> Fraction:
        return sum((job.size for job in self.jobs), ZERO)

    @property
    def gos1_total(self) -> Fraction:
        return sum((job.size for job in self.jobs if job.gos == 1), ZERO)

    def normalized(self) -> "Instance":
        """Rescale sizes by 1/declared_opt so the declared optimum is 1."""
        if self.declared_opt == 1:
            return self
        scale = 1 / self.declared_opt
        jobs = tuple(
            Job(job.index, job.size * scale, job.gos) for job in self.jobs
        )
        return Instance(jobs=jobs, declared_opt=ONE)

    def to_json_dict(self) -> dict:
        return {
            "declared_opt": fraction_str(self.declared_opt),
            "jobs": [
                {"p": fraction_str(job.size), "g": job.gos} for job in self.jobs
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def jobs_from_pairs(pairs: Iterable[tuple[RationalLike, int]]) -> tuple[Job, ...]:
    """Build an indexed job tuple from (size, gos) pairs in arrival order."""
    return tuple(
        Job(i, as_fraction(p), g) for i, (p, g) in enumerate(pairs, start=1)
    )


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
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read instance {path!r}: {exc}") from exc
    return instance_from_json_dict(data)


def dump_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(instance.to_json())
        handle.write("\n")


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
    declared optimum.  With ``check_opt``, the brute-force oracle must
    reproduce the declared optimum exactly.
    """
    report = ValidationReport()
    total = instance.total_size
    if total > 2 * instance.declared_opt:
        report.failures.append(
            f"total size {total} exceeds twice the declared optimum "
            f"{instance.declared_opt}"
        )
    gos1 = instance.gos1_total
    if gos1 > instance.declared_opt:
        report.failures.append(
            f"grade-1 total {gos1} exceeds the declared optimum "
            f"{instance.declared_opt}"
        )
    if check_opt:
        from .oracle import brute_opt

        opt = brute_opt(instance.jobs)
        report.oracle_opt = opt
        if opt != instance.declared_opt:
            report.failures.append(
                f"brute-force optimum {opt} differs from declared "
                f"{instance.declared_opt}"
            )
    return report
