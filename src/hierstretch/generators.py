"""Random valid instances with a planted optimal makespan of exactly 1.

The generator first builds a hidden packing (machine 1 gets all grade-1
jobs plus possibly some grade-2 jobs, machine 2 only grade-2 jobs), then
emits the jobs in a seeded random arrival order.  Sizes come from
stick-breaking an integer number of 1/denominator units, so machine totals
are exact by construction and no piece is zero.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import Instance, Job
from .errors import InfeasibleConfig


class FillMode(str, Enum):
    """How the hidden packing fills the two machines.

    EXACT: both machines total exactly 1 (total size 2, optimum forced).
    SLACK: machine totals at most 1, with the optimum still pinned to 1 by
    a machine whose load is exactly 1 (a grade-1 side filled to 1, or a
    single grade-2 job of size 1).
    """

    EXACT = "exact"
    SLACK = "slack"


@dataclass(frozen=True)
class GenConfig:
    seed: int
    n_gos2: int
    n_gos1: int
    denominator_bound: int = 1000
    fill_mode: FillMode = FillMode.EXACT


def _break_units(rng: random.Random, total_units: int, parts: int) -> list[int]:
    """Split total_units into `parts` positive integers, uniformly at random;
    every caller has checked 1 <= parts <= total_units."""
    cuts = sorted(rng.sample(range(1, total_units), parts - 1))
    pieces = []
    prev = 0
    for cut in cuts + [total_units]:
        pieces.append(cut - prev)
        prev = cut
    return pieces


def _exact_fill(rng: random.Random, config: GenConfig) -> list[tuple[Fraction, int]]:
    d = config.denominator_bound
    n2, n1 = config.n_gos2, config.n_gos1
    if n2 < 1:
        raise InfeasibleConfig("exact fill needs a grade-2 job for machine 2")
    max_on_m2 = n2 if n1 > 0 else n2 - 1
    if max_on_m2 < 1:
        raise InfeasibleConfig(
            "exact fill needs at least one job left for machine 1"
        )
    k2 = rng.randint(1, max_on_m2)
    m1_count = n1 + (n2 - k2)
    if k2 > d or m1_count > d:
        raise InfeasibleConfig("denominator bound too small for the job counts")

    m2_units = _break_units(rng, d, k2)
    m1_units = _break_units(rng, d, m1_count)
    rng.shuffle(m1_units)
    jobs = [(Fraction(u, d), 2) for u in m2_units]
    jobs += [(Fraction(u, d), 1) for u in m1_units[:n1]]
    jobs += [(Fraction(u, d), 2) for u in m1_units[n1:]]
    return jobs


def _slack_fill(rng: random.Random, config: GenConfig) -> list[tuple[Fraction, int]]:
    d = config.denominator_bound
    n2, n1 = config.n_gos2, config.n_gos1
    if n1 == 0 and n2 == 0:
        raise InfeasibleConfig("no jobs requested")

    # pick which machine carries the pinned load of exactly 1
    if n2 == 0:
        pinned_gos1 = True
    elif n1 == 0:
        pinned_gos1 = False
    else:
        pinned_gos1 = rng.random() < 0.5

    if pinned_gos1:
        # grade-1 side sums to exactly 1, so the optimum cannot drop below 1
        if max(n1, n2) > d:
            raise InfeasibleConfig("denominator bound too small for the job counts")
        jobs = [(Fraction(u, d), 1) for u in _break_units(rng, d, n1)]
        if n2 > 0:
            budget = rng.randint(n2, d)
            jobs += [(Fraction(u, d), 2) for u in _break_units(rng, budget, n2)]
        return jobs

    # a single grade-2 job of size 1 pins the optimum; the rest stays <= 1
    jobs = [(Fraction(1), 2)]
    rest = n1 + n2 - 1
    if rest > 0:
        if rest > d:
            raise InfeasibleConfig("denominator bound too small for the job counts")
        budget = rng.randint(rest, d)
        units = _break_units(rng, budget, rest)
        rng.shuffle(units)
        jobs += [(Fraction(u, d), 1) for u in units[:n1]]
        jobs += [(Fraction(u, d), 2) for u in units[n1:]]
    return jobs


def generate(config: GenConfig) -> Instance:
    """Deterministic-per-seed instance with declared (and true) optimum 1;
    the seed must be a plain int."""
    if type(config.seed) is not int:
        raise InfeasibleConfig(f"seed must be an int, got {config.seed!r}")
    counts = (config.n_gos2, config.n_gos1, config.denominator_bound)
    if any(type(value) is not int for value in counts):
        raise InfeasibleConfig(f"counts and denominator bound must be ints: {counts}")
    if config.denominator_bound < 1:
        raise InfeasibleConfig("denominator bound must be at least 1")
    if config.n_gos1 < 0 or config.n_gos2 < 0:
        raise InfeasibleConfig("job counts must be non-negative")
    try:
        fill_mode = FillMode(config.fill_mode)
    except ValueError:
        raise InfeasibleConfig(f"unknown fill mode {config.fill_mode!r}") from None
    rng = random.Random(config.seed)
    if fill_mode is FillMode.EXACT:
        sized = _exact_fill(rng, config)
    else:
        sized = _slack_fill(rng, config)
    rng.shuffle(sized)
    jobs = tuple([
        Job(i, size, gos) for i, (size, gos) in enumerate(sized, start=1)
    ])
    return Instance(jobs=jobs, declared_opt=Fraction(1))


def random_config(rng: random.Random) -> GenConfig:
    """Sample a feasible configuration for property suites: up to 10
    grade-2 and 4 grade-1 jobs in 1/1000 units."""
    fill = FillMode.EXACT if rng.random() < 0.5 else FillMode.SLACK
    n_gos1 = rng.randint(0, 4)
    if fill is FillMode.EXACT:
        low = 2 if n_gos1 == 0 else 1
    else:
        low = 1 if n_gos1 == 0 else 0
    n_gos2 = rng.randint(low, 10)
    return GenConfig(
        seed=rng.getrandbits(64),
        n_gos2=n_gos2,
        n_gos1=n_gos1,
        fill_mode=fill,
    )
