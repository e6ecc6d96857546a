"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every comparison is exact rational arithmetic; the only decimals are the
stated tolerances themselves (2/1000 tightness windows and the 1.18604
floor), which are exact fractions here too.
"""
from __future__ import annotations

import csv
import io
import time
from fractions import Fraction

from hierstretch.adversary import ADVERSARIES, AdvTotalSize, play_duel
from hierstretch.algorithms import SCHEDULERS, scheduler_for_regime
from hierstretch.core import Regime, ratio_bound
from hierstretch.harness import (
    ACCEPTANCE_M_VALUES,
    FOREIGN_SCHEDULERS,
    guarantee_suite,
    iter_suite_instances,
    main,
    oracle_suite,
    soundness_adversaries,
    tightness_duels,
)
from hierstretch.oracle import brute_opt, opt_prefix_loads
from helpers import replay

SEED = 20260809
GUARANTEE_COUNT = 10_000

_guarantee_cache: dict = {}


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _full_guarantee_summary():
    if "summary" not in _guarantee_cache:
        start = time.monotonic()
        summary = guarantee_suite(seed=SEED, count=GUARANTEE_COUNT)
        _guarantee_cache["summary"] = summary
        _guarantee_cache["elapsed"] = time.monotonic() - start
    return _guarantee_cache["summary"], _guarantee_cache["elapsed"]


def test_criterion_1_bound_table(capsys):
    grid = ["0", "1/4", "1/2", "3/5", "2/3", "7/10", "3/4", "1", "5/2", "3", "10"]
    expected = [
        Fraction(3, 2), Fraction(3, 2), Fraction(3, 2), Fraction(7, 5),
        Fraction(4, 3), Fraction(13, 10), Fraction(5, 4), Fraction(5, 4),
        Fraction(5, 4), Fraction(11, 9), Fraction(25, 23),
    ]
    start = time.monotonic()
    code = main(["curve", *grid, "--csv"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))[1:]
    got = [Fraction(int(num), int(den)) for _, _, num, den, _ in rows]
    with capsys.disabled():
        _verdict(
            "criterion 1: bound table",
            code == 0 and got == expected and elapsed < 1.0,
            f"11 grid points exact in {elapsed:.3f}s",
        )


def test_criterion_2_guarantee_suite(capsys):
    summary, elapsed = _full_guarantee_summary()
    ok = summary.ok and summary.runs == GUARANTEE_COUNT * len(ACCEPTANCE_M_VALUES)
    ok = ok and elapsed < 300.0
    detail = (
        f"{summary.runs} runs (10000 instances x {len(ACCEPTANCE_M_VALUES)} m "
        f"values) in {elapsed:.1f}s, violations: {len(summary.violations)}"
    )
    with capsys.disabled():
        _verdict("criterion 2: guarantee suite", ok, detail)


def test_criterion_3_once_only(capsys):
    summary, _ = _full_guarantee_summary()
    fires = {
        name: summary.notes.get(f"max rebalances per run ({name})", "0")
        for name in ("B", "C", "D")
    }
    ok = summary.ok and all(int(v) <= 1 for v in fires.values())
    with capsys.disabled():
        _verdict(
            "criterion 3: once-only rebalancing",
            ok,
            f"max step-4/5 fires per run: {fires}",
        )


def test_criterion_4_adversary_tightness(capsys):
    window = Fraction(2, 1000)
    duels = tightness_duels()
    start = time.monotonic()
    failures = []
    for adv, algorithm in duels:
        transcript = play_duel(adv, algorithm, SCHEDULERS[algorithm], adv.m)
        tag = f"{adv.name} vs {algorithm} @ m={adv.m}"
        bound = ratio_bound(adv.m).bound
        if transcript.illegal or not transcript.oracle_checked:
            failures.append(f"{tag}: not certified")
            continue
        if not bound - window <= transcript.achieved_ratio <= bound:
            failures.append(
                f"{tag}: ratio {transcript.achieved_ratio} outside "
                f"[{bound - window}, {bound}]"
            )
        if brute_opt(transcript.jobs) != transcript.certified_opt:
            failures.append(f"{tag}: certificate mismatch")
    elapsed = time.monotonic() - start
    # every regime with a lower-bound game is played at its tight point
    regimes = {ratio_bound(adv.m).regime for adv, _ in duels}
    if regimes != {Regime.HIGH, Regime.LOW_D, Regime.LOW_C, Regime.NO_MIG}:
        failures.append(f"tightness duels cover only {sorted(regimes)}")
    ok = not failures and elapsed < 10.0
    with capsys.disabled():
        _verdict(
            "criterion 4: adversary tightness",
            ok,
            failures[0] if failures else f"{len(duels)} duels within "
            f"[bound - 1/500, bound], oracle-certified, in {elapsed:.2f}s",
        )


def test_criterion_5_adversary_soundness(capsys):
    adversaries = soundness_adversaries()
    failures = []
    # every lower-bound game takes part
    kinds = {adv.name for adv in adversaries}
    if kinds != set(ADVERSARIES):
        failures.append(f"soundness duels cover only {sorted(kinds)}")
    count = 0
    for adv in adversaries:
        for name in FOREIGN_SCHEDULERS:
            transcript = play_duel(adv, name, SCHEDULERS[name], adv.m)
            count += 1
            if transcript.illegal is not None:
                continue  # an illegal scheduler is a loss, not a counterexample
            if transcript.achieved_ratio < transcript.claimed_min_ratio:
                failures.append(
                    f"{adv.name}@m={adv.m} vs {name}: "
                    f"{transcript.achieved_ratio} < {transcript.claimed_min_ratio}"
                )
    with capsys.disabled():
        _verdict(
            "criterion 5: adversary soundness",
            not failures,
            failures[0] if failures else
            f"{count} duels vs naive schedulers all meet the claimed ratio",
        )


def test_criterion_6_known_total_size_separation(capsys):
    floor = Fraction("1.18604")
    failures = []
    count = 0
    for m in (Fraction(1), Fraction(10), Fraction(100)):
        auto_name, _ = scheduler_for_regime(m)
        names = [auto_name, "baseline", "greedy-m2", "least-loaded", "all-m1"]
        for name in names:
            transcript = play_duel(AdvTotalSize(m), name, SCHEDULERS[name], m)
            count += 1
            if transcript.illegal is not None:
                failures.append(f"{name}@m={m}: illegal play")
                continue
            if transcript.achieved_ratio < floor:
                failures.append(
                    f"{name}@m={m}: ratio {float(transcript.achieved_ratio):.6f} "
                    f"below 1.18604"
                )
    # meanwhile the known-makespan bound keeps collapsing toward 1
    if not ratio_bound(100).bound < Fraction("1.01"):
        failures.append("ratio_bound(100) is not below 1.01")
    with capsys.disabled():
        _verdict(
            "criterion 6: known-total-size separation",
            not failures,
            failures[0] if failures else
            f"{count} duels at m in {{1, 10, 100}} all forced above 1.18604 "
            f"while ratio_bound(100) = {ratio_bound(100).bound} < 1.01",
        )


def test_criterion_7_prefix_load_floor(capsys):
    m = Fraction(3)
    mu = ratio_bound(m).mu
    floor_cap = 1 - mu
    violations = []
    runs = 0
    for _, instance in iter_suite_instances(seed=SEED + 7, count=1000):
        prefix = opt_prefix_loads(instance.jobs)
        runs += 1
        steps = replay(instance.jobs, SCHEDULERS["A"], m)
        for j, (_, _, _, state) in enumerate(steps, start=1):
            o_j2 = prefix.loads[j - 1][1]
            if state.load2 < min(floor_cap, o_j2):
                violations.append(
                    f"run {runs} arrival {j}: y={state.load2} < "
                    f"min(1-mu, o_j2)={min(floor_cap, o_j2)}"
                )
    with capsys.disabled():
        _verdict(
            "criterion 7: machine-2 floor on scheduler A",
            not violations and runs == 1000,
            violations[0] if violations else
            "1000 runs at m=3: y_j >= min(1 - mu, o_j2) after every arrival",
        )


def test_criterion_8_oracle_sanity(capsys):
    # planted exact-fill optima and prefix monotonicity on 500 instances;
    # the games' streams are oracle-checked where they are played, by
    # play_duel and by tests/test_games.py at every leaf
    summary = oracle_suite(SEED + 8, 500)
    with capsys.disabled():
        _verdict(
            "criterion 8: oracle sanity",
            summary.ok and summary.runs == 500,
            summary.violations[0] if summary.violations else
            f"{summary.runs} runs: 500 exact-fill optima = 1 with monotone "
            "prefix chains",
        )
