#!/usr/bin/env python3
"""The lower bounds as playable games.

Each adversary watches where the scheduler puts its jobs (after all
migrations settle) and picks the next job to hurt it most.  Played
against the matching scheduler, the forced ratio creeps up to the tight
bound; played against naive schedulers, it only gets worse for them.
Every adversary below uses its default parameters.
"""
from fractions import Fraction

from hierstretch.adversary import (
    AdvHigh,
    AdvLow,
    AdvMid,
    AdvTotalSize,
    play_duel,
)
from hierstretch.algorithms import SCHEDULERS
from hierstretch.core import ratio_bound


def show(adversary, scheduler_name):
    transcript = play_duel(
        adversary, scheduler_name, SCHEDULERS[scheduler_name], adversary.m
    )
    sizes = ", ".join(f"({job.size}, g{job.gos})" for job in transcript.jobs[:6])
    if len(transcript.jobs) > 6:
        sizes += f", ... {len(transcript.jobs) - 6} more"
    print(f"  vs {scheduler_name:<12} issued [{sizes}]")
    print(
        f"     forced ratio {transcript.achieved_ratio} "
        f"(~{float(transcript.achieved_ratio):.5f}), "
        f"claimed at least {float(transcript.claimed_min_ratio):.5f}, "
        f"optimum {transcript.certified_opt}"
        + (" [oracle-checked]" if transcript.oracle_checked else "")
    )


m = Fraction(3)
print(f"high-budget game at m = {m} (bound {ratio_bound(m).bound}):")
show(AdvHigh(m), "A")  # gamma defaults to mu * (1 - 1/1000)
show(AdvHigh(m), "greedy-m2")
print()

m = Fraction(3, 5)
print(f"mid game at m = {m} (bound {ratio_bound(m).bound}):")
show(AdvMid(m), "C")  # eps defaults to 1/1000
show(AdvMid(m), "all-m1")
print()

m = Fraction(1, 4)
print(f"no-migration game at m = {m} (bound {ratio_bound(m).bound}):")
show(AdvLow(m), "baseline")
show(AdvLow(m), "least-loaded")
print()

print(
    "known-total-size game: even huge budgets stay above "
    f"{float(AdvTotalSize(1).claimed):.5f}"
)
for m in (Fraction(1), Fraction(100)):
    print(f"at m = {m}:")
    show(AdvTotalSize(m), "baseline")  # theta_hat defaults to refine_theta()
    show(AdvTotalSize(m), "greedy-m2")
