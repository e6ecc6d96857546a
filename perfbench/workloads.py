"""Seeded inputs, operations and output checks for the three workloads.

A workload builds a *deck* from the seed: a fixed list of operations.  Each
operation calls the package's public functions through their module
attributes (so a probe can rebind them), checks every output exactly, and
returns True, or False when scheduler A refused the input with its typed
``SizeLimit`` and the refusal checked out (see :func:`check_refusal`).  A
wrong output raises :class:`WrongResult`, which fails the whole run.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from hierstretch import adversary, algorithms, core, generators, harness, oracle
from hierstretch.errors import SizeLimit

GenConfig = generators.GenConfig
FillMode = generators.FillMode


class WrongResult(Exception):
    """An output broke a bound, a budget, the hierarchy or an optimum."""


@dataclass
class Deck:
    """The seeded inputs of one run.

    ``ops`` run in order, cycling when a run outlasts them.  ``verify`` are
    the positions the untimed verification pass replays under a probe, and
    ``warmup`` those set-up runs once, chosen so that set-up work hardly
    depends on the seed.  ``inputs`` is a canonical description of every
    input, hashed into the report.
    """

    ops: list[Callable[[], bool]]
    verify: list[int]
    warmup: list[int]
    inputs: list = field(default_factory=list)
    adversaries: list = field(default_factory=list)


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(count)]


# --- guarantees ---------------------------------------------------------

GUARANTEE_DECK = 1000
GUARANTEE_VERIFY = 200
M_COUNT = len(harness.ACCEPTANCE_M_VALUES)


def guarantee_op(instance_seed: int) -> bool:
    """One planted instance under all 12 acceptance migration factors."""
    summary = harness.guarantee_suite(instance_seed, 1)
    if summary.runs != M_COUNT or not summary.ok:
        raise WrongResult(
            f"guarantee_suite({instance_seed}, 1): {summary.runs} runs, "
            f"violations {summary.violations[:3]}"
        )
    return True


def guarantees_deck(seed: int) -> Deck:
    seeds = _seeds(seed, GUARANTEE_DECK)
    return Deck(
        ops=[partial(guarantee_op, s) for s in seeds],
        verify=list(range(GUARANTEE_VERIFY)),
        warmup=list(range(20)),
        inputs=seeds,
    )


# --- long streams -------------------------------------------------------

LONG_M_VALUES = (
    Fraction(1, 4),    # baseline
    Fraction(11, 20),  # C
    Fraction(7, 10),   # D
    Fraction(1),       # B
    Fraction(3),       # A
)
LONG_INSTANCES = 48
LONG_VERIFY_INSTANCES = 3
LONG_UNITS = 10**6
DUEL_M_VALUES = (Fraction(100), Fraction(1000))
DUEL_SCHEDULERS = ("A", "baseline", "greedy-m2", "least-loaded", "all-m1")


REFUSAL = re.compile(
    r"(\d+) candidates exceed the exact-search limit "
    + str(algorithms.EXACT_SEARCH_LIMIT) + "$"
)


def check_refusal(tag: str, scheduler: str, message: str) -> None:
    """Accept only A's documented refusal of an over-long exact search.

    Scheduler A is the only one that searches subsets, and it must refuse
    exactly when the candidates outnumber ``EXACT_SEARCH_LIMIT``.
    """
    match = REFUSAL.search(message)
    if (
        scheduler != "A"
        or match is None
        or int(match.group(1)) <= algorithms.EXACT_SEARCH_LIMIT
    ):
        raise WrongResult(f"{tag}: unexpected refusal {message!r}")


def stream_op(jobs, total: Fraction, m: Fraction) -> bool:
    """One long stream under the regime scheduler, bound checked per arrival.

    A stream A refuses is checked up to the refused arrival.
    """
    name, fn = algorithms.scheduler_for_regime(m)
    bound = core.ratio_bound(m).bound
    result = harness.run_stream(jobs, fn, m, bound=bound, per_arrival_bound=True)
    tag = f"{name}@m={m} on {len(jobs)} jobs"
    refused = (
        len(result.violations) == 1 and ": SizeLimit: " in result.violations[0]
    )
    if refused:
        check_refusal(tag, name, result.violations[0])
    elif result.violations:
        raise WrongResult(f"{tag}: {result.violations[:3]}")
    cap = Fraction(3, 4) if name == "B" else m
    if result.ledger.max_ratio > cap:
        raise WrongResult(f"{tag}: migrated {result.ledger.max_ratio} x p > {cap} x p")
    if name in ("B", "C", "D") and result.step45_count > 1:
        raise WrongResult(f"{tag}: rebalanced {result.step45_count} times")
    placed = len(result.decisions)
    if refused:
        total = sum((job.size for job in jobs[:placed]), Fraction(0))
    if (placed == len(jobs)) == refused or result.final_state.arrived_total != total:
        raise WrongResult(f"{tag}: jobs lost or duplicated")
    return not refused


def duel_op(adv, scheduler: str, m: Fraction) -> bool:
    """One known-total-size duel; scheduler A may refuse with SizeLimit."""
    tag = f"totalsize vs {scheduler} @ m={m}"
    try:
        transcript = adversary.play_duel(
            adv, scheduler, algorithms.SCHEDULERS[scheduler], m
        )
    except SizeLimit as exc:
        check_refusal(tag, scheduler, str(exc))
        return False
    except AssertionError as exc:  # the oracle contradicted the certificate
        raise WrongResult(f"{tag}: {exc}") from exc
    if transcript.illegal is not None:
        raise WrongResult(f"{tag}: illegal decision {transcript.illegal}")
    if not all(holds for _, holds in transcript.proof_checks):
        raise WrongResult(f"{tag}: migration-proof check failed")
    if transcript.achieved_ratio is None or (
        transcript.achieved_ratio < transcript.claimed_min_ratio
    ):
        raise WrongResult(
            f"{tag}: ratio {transcript.achieved_ratio} below claimed "
            f"{transcript.claimed_min_ratio}"
        )
    return True


def long_streams_deck(seed: int) -> Deck:
    rng = random.Random(seed)
    # stratified stream lengths keep the deck's total work nearly seed-free
    lengths = [
        100 + (900 * i + rng.randrange(900)) // LONG_INSTANCES
        for i in range(LONG_INSTANCES)
    ]
    rng.shuffle(lengths)
    streams = []
    for i, n_gos2 in enumerate(lengths):
        config = GenConfig(
            seed=rng.getrandbits(64),
            n_gos2=n_gos2,
            n_gos1=rng.randint(0, n_gos2 // 4),
            denominator_bound=LONG_UNITS,
            fill_mode=FillMode.EXACT if i % 2 == 0 else FillMode.SLACK,
        )
        streams.append((config, generators.generate(config)))

    theta = adversary.refine_theta()
    advs = [adversary.AdvTotalSize(m, theta) for m in DUEL_M_VALUES]
    ops: list[Callable[[], bool]] = []
    inputs: list = []
    verify: list[int] = []
    warmup: list[int] = []
    shortest = lengths.index(min(lengths))
    for adv in advs:
        for scheduler in DUEL_SCHEDULERS:
            verify.append(len(ops))
            ops.append(partial(duel_op, adv, scheduler, adv.m))
            inputs.append(["duel", adv.m, scheduler])
    for i, (config, instance) in enumerate(streams):
        for m in LONG_M_VALUES:
            if i < LONG_VERIFY_INSTANCES:
                verify.append(len(ops))
            if i == shortest:
                warmup.append(len(ops))
            ops.append(partial(stream_op, instance.jobs, instance.total_size, m))
            inputs.append(["stream", config.seed, config.n_gos2, config.n_gos1,
                           config.fill_mode.value, m])
    # a shuffled order makes any prefix of a cycle a fair sample of the mix
    order = list(range(len(ops)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    return Deck(
        ops=[ops[old] for old in order],
        verify=sorted(position[old] for old in verify),
        warmup=sorted(position[old] for old in warmup),
        inputs=[inputs[old] for old in order],
        adversaries=advs,
    )


# --- oracle -------------------------------------------------------------

ORACLE_K = tuple(range(6, 11))
ORACLE_DECK = 700
ORACLE_VERIFY = 70


def oracle_op(instance) -> bool:
    """Certify one planted exact-fill instance three independent ways."""
    tag = f"instance with {len(instance.jobs)} jobs"
    report = core.validate_instance(instance, check_opt=True)
    if not report.valid or report.oracle_opt != 1:
        raise WrongResult(
            f"{tag}: oracle optimum {report.oracle_opt}, {report.failures}"
        )
    loads = oracle.opt_prefix_loads(instance.jobs)
    load1, load2 = loads.loads[-1]
    if loads.opt != 1 or max(load1, load2) != 1:
        raise WrongResult(f"{tag}: optimal prefix loads end at {loads.opt}")
    if any(
        loads.machines[job.index] is not core.MachineId.M1
        for job in instance.jobs
        if job.gos == 1
    ):
        raise WrongResult(f"{tag}: optimal assignment puts a grade-1 job on machine 2")
    mono = oracle.prefix_opt_monotone_check(instance.jobs)
    if not mono.ok or mono.prefix_opts[-1] != 1:
        raise WrongResult(f"{tag}: prefix optima {mono.failures}")
    return True


def oracle_deck(seed: int) -> Deck:
    rng = random.Random(seed)
    ops: list[Callable[[], bool]] = []
    inputs: list = []
    while len(ops) < ORACLE_DECK:
        # every block holds each grade-2 count once, in a seeded order
        block = list(ORACLE_K)
        rng.shuffle(block)
        for k in block:
            config = GenConfig(
                seed=rng.getrandbits(64),
                n_gos2=k,
                n_gos1=rng.randint(0, 4),
                denominator_bound=1000,
                fill_mode=FillMode.EXACT,
            )
            ops.append(partial(oracle_op, generators.generate(config)))
            inputs.append([config.seed, k, config.n_gos1])
    return Deck(
        ops=ops,
        verify=list(range(ORACLE_VERIFY)),
        warmup=list(range(len(ORACLE_K))),
        inputs=inputs,
    )


WORKLOADS = {
    "guarantees": guarantees_deck,
    "long_streams": long_streams_deck,
    "oracle": oracle_deck,
}
