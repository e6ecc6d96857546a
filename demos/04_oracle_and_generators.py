#!/usr/bin/env python3
"""Planted instances and the brute-force ground truth.

The generator hides an optimal packing with makespan exactly 1 and then
shuffles the arrival order; the oracle recovers that optimum by exhaustive
search, which is what every guarantee in the test suite is measured
against.
"""
from fractions import Fraction

from hierstretch.algorithms import scheduler_for_regime
from hierstretch.core import ratio_bound, validate_instance
from hierstretch.generators import FillMode, GenConfig, generate
from hierstretch.harness import run_stream
from hierstretch.oracle import (
    brute_opt,
    opt_prefix_loads,
    prefix_opt_monotone_check,
)

config = GenConfig(seed=20260809, n_gos2=5, n_gos1=2, fill_mode=FillMode.EXACT)
instance = generate(config)
print(f"generated {len(instance.jobs)} jobs, total size {instance.total_size}:")
for job in instance.jobs:
    print(f"  job{job.index}: p = {job.size}, grade {job.gos}")

report = validate_instance(instance, check_opt=True)
print(f"valid: {report.valid}, brute-force optimum: {report.oracle_opt}")
print()

monotone = prefix_opt_monotone_check(instance.jobs)
print("optimum of each prefix (never decreases):")
print("  " + " -> ".join(str(opt) for opt in monotone.prefix_opts))
print()

prefix = opt_prefix_loads(instance.jobs)
print("one fixed optimal assignment, prefix by prefix:")
for job, (load1, load2) in zip(instance.jobs, prefix.loads):
    mach = int(prefix.machines[job.index])
    print(f"  job{job.index} -> m{mach}: optimal loads ({load1}, {load2})")
print()

print("every scheduler honors its bound on this instance:")
for m in (Fraction(11, 20), Fraction(7, 10), Fraction(1), Fraction(3)):
    name, fn = scheduler_for_regime(m)
    result = run_stream(instance.jobs, fn, m)
    bound = ratio_bound(m).bound
    assert result.makespan <= bound and not result.violations
    print(
        f"  m = {m}: scheduler {name} reaches makespan {result.makespan} "
        f"<= {bound}"
    )

print()
print("same seed, same instance:")
print(f"  deterministic: {generate(config) == instance}")
