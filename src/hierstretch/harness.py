"""Run schedulers on instances, play duels, sweep bounds, and verify suites.

This is both the library-level entry point for batch verification and the
``hierstretch`` command-line tool (subcommands: run, duel, curve, gen,
verify, suite).  All rationals cross the CLI boundary as 'num/den' strings;
decimals appear only as display columns.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .adversary import (
    ADVERSARIES,
    Adversary,
    AdvHigh,
    AdvLow,
    AdvMid,
    AdvTotalSize,
    DuelTranscript,
    play_duel,
)
from .algorithms import (
    SCHEDULER_REGIME,
    SCHEDULERS,
    SchedulerFn,
    require_regime,
    scheduler_for_regime,
)
from .core import (
    Instance,
    Job,
    MigrationLedger,
    RegimeBound,
    ScheduleState,
    ZERO,
    apply_decision,
    as_fraction,
    dump_instance,
    fraction_str,
    load_instance,
    ratio_bound,
    validate_instance,
)
from .errors import HierStretchError, ParseError, RegimeMismatch
from .generators import FillMode, GenConfig, generate, random_config
from .oracle import brute_opt, prefix_opt_monotone_check

ENV_SEED = "HIERSTRETCH_SEED"
DEFAULT_SEED = 1729

ACCEPTANCE_M_VALUES = (
    Fraction(1, 2),
    Fraction(11, 20),
    Fraction(3, 5),
    Fraction(13, 20),
    Fraction(2, 3),
    Fraction(7, 10),
    Fraction(73, 100),
    Fraction(3, 4),
    Fraction(1),
    Fraction(5, 2),
    Fraction(3),
    Fraction(5),
)

# explicit streams from the lower-bound constructions, all with optimum 1
LOWER_BOUND_STREAMS = {
    "high": (
        (Fraction(4, 5), 2),
        (Fraction(3, 5), 2),
        (Fraction(2, 5), 2),
        (Fraction(1, 5), 1),
    ),
    "mid": (
        (Fraction(61, 100), 2),
        (Fraction(1), 2),
        (Fraction(39, 100), 1),
    ),
    "low": (
        (Fraction(1, 2), 2),
        (Fraction(1), 2),
        (Fraction(1, 2), 1),
    ),
}


def default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise HierStretchError(f"{ENV_SEED} must be an integer, got {raw!r}")


@dataclass
class RunResult:
    """Outcome of streaming one job list through one scheduler."""

    final_state: ScheduleState
    ledger: MigrationLedger
    decisions: list
    violations: list[str]

    @property
    def step45_count(self) -> int:
        return sum(1 for dec in self.decisions if dec.step in (4, 5))

    @property
    def makespan(self) -> Fraction:
        return self.final_state.makespan


def run_stream(
    jobs: Sequence[Job],
    scheduler_fn: SchedulerFn,
    m,
    bound: Fraction | None = None,
    per_arrival_bound: bool = False,
) -> RunResult:
    """Feed jobs through a scheduler with full budget/hierarchy enforcement.

    Records a violation (and stops) if the scheduler produces an illegal
    decision; optionally checks the makespan against ``bound`` after every
    arrival.  Conservation of total size is always verified at the end.
    """
    m = as_fraction(m)
    state = ScheduleState()
    ledger = MigrationLedger()
    decisions: list = []
    violations: list[str] = []

    arrived = ZERO
    for job in jobs:
        try:
            decision = scheduler_fn(state, job, m)
            state = apply_decision(state, job, decision, ledger, m)
        except RegimeMismatch:
            raise
        except HierStretchError as exc:
            violations.append(f"arrival {job.index}: {type(exc).__name__}: {exc}")
            break
        decisions.append(decision)
        arrived += job.size
        if per_arrival_bound and bound is not None and state.makespan > bound:
            violations.append(
                f"arrival {job.index}: makespan {state.makespan} > bound {bound}"
            )
    if bound is not None and state.makespan > bound:
        violations.append(f"final makespan {state.makespan} > bound {bound}")
    if state.arrived_total != arrived:
        violations.append(
            f"conservation broken: loads sum to {state.arrived_total}, "
            f"arrived {arrived}"
        )
    return RunResult(
        final_state=state,
        ledger=ledger,
        decisions=decisions,
        violations=violations,
    )


@dataclass
class RunReport:
    """Per-run report as shown by the ``run`` subcommand."""

    instance_id: str
    algorithm: str
    m: Fraction
    final_loads: tuple[Fraction, Fraction]
    makespan: Fraction
    opt: Fraction | None
    ratio: Fraction | None
    max_migration_ratio: Fraction
    step45_count: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance_id,
            "algorithm": self.algorithm,
            "m": fraction_str(self.m),
            "final_loads": [fraction_str(load) for load in self.final_loads],
            "makespan": fraction_str(self.makespan),
            "opt": fraction_str(self.opt) if self.opt is not None else None,
            "ratio": fraction_str(self.ratio) if self.ratio is not None else None,
            "max_migration_ratio": fraction_str(self.max_migration_ratio),
            "step45_count": self.step45_count,
            "violations": self.violations,
        }


def resolve_algorithm(name: str, m) -> tuple[str, SchedulerFn]:
    """Map an algorithm id (or 'auto') to a scheduler, checking the regime."""
    if name == "auto":
        return scheduler_for_regime(m)
    if name not in SCHEDULERS:
        choices = ", ".join(["auto", *sorted(SCHEDULERS)])
        raise ParseError(f"unknown scheduler {name!r}; choose from {choices}")
    if name in SCHEDULER_REGIME:
        # surface the regime check now rather than on the first arrival
        require_regime(name, m)
    return name, SCHEDULERS[name]


def run_instance(
    instance: Instance,
    algorithm: str,
    m,
    use_oracle: bool = False,
    instance_id: str = "<instance>",
) -> RunReport:
    """Normalize, schedule, and report one instance."""
    m = as_fraction(m)
    name, fn = resolve_algorithm(algorithm, m)
    bound = ratio_bound(m).bound
    normalized = instance.normalized()
    result = run_stream(
        normalized.jobs, fn, m, bound=bound, per_arrival_bound=False
    )
    scale = instance.declared_opt
    loads = (result.final_state.load1 * scale, result.final_state.load2 * scale)
    makespan = result.makespan * scale
    opt = None
    ratio = None
    if use_oracle:
        opt = brute_opt(instance.jobs)
        if opt > 0:
            ratio = makespan / opt
    return RunReport(
        instance_id=instance_id,
        algorithm=name,
        m=m,
        final_loads=loads,
        makespan=makespan,
        opt=opt,
        ratio=ratio,
        max_migration_ratio=result.ledger.max_ratio,
        step45_count=result.step45_count,
        violations=result.violations,
    )


def curve_rows(grid: Sequence) -> list[RegimeBound]:
    """Exact tight bound for every migration factor in the grid."""
    return [ratio_bound(m) for m in grid]


@dataclass
class SuiteSummary:
    name: str
    runs: int = 0
    violations: list[str] = field(default_factory=list)
    notes: dict[str, str] = field(default_factory=dict)

    MAX_REPORTED = 20

    @property
    def ok(self) -> bool:
        return not self.violations

    def add_violation(self, text: str) -> None:
        if len(self.violations) < self.MAX_REPORTED:
            self.violations.append(text)
        elif len(self.violations) == self.MAX_REPORTED:
            self.violations.append("... further violations suppressed")

    def to_json_dict(self) -> dict:
        return {
            "suite": self.name,
            "runs": self.runs,
            "ok": self.ok,
            "violations": self.violations,
            "notes": self.notes,
        }


def iter_suite_instances(seed: int, count: int):
    """Deterministic stream of generated instances for the suites."""
    rng = random.Random(seed)
    for _ in range(count):
        config = random_config(rng)
        yield config, generate(config)


def guarantee_suite(seed: int, count: int) -> SuiteSummary:
    """Run every generated instance under the regime's scheduler for each m.

    Checks, all exact: final (and per-arrival) makespan within the tight
    bound, per-arrival migration within ``migration_cap`` * p_j (m, or 3/4
    for scheduler B), no hierarchy violations, and at most one rebalancing
    step per run for schedulers B, C, and D.
    """
    summary = SuiteSummary(name="guarantees")
    plans = [
        (m, ratio_bound(m), *scheduler_for_regime(m)) for m in ACCEPTANCE_M_VALUES
    ]
    worst_margin: Fraction | None = None
    max_step45: dict[str, int] = {}
    for index, (config, instance) in enumerate(iter_suite_instances(seed, count)):
        for m, tight, name, fn in plans:
            result = run_stream(
                instance.jobs, fn, m, bound=tight.bound, per_arrival_bound=True
            )
            summary.runs += 1
            tag = f"instance#{index}(seed={config.seed}) {name}@m={m}"
            for violation in result.violations:
                summary.add_violation(f"{tag}: {violation}")
            if result.ledger.max_ratio > tight.migration_cap:
                summary.add_violation(
                    f"{tag}: migration ratio {result.ledger.max_ratio} "
                    f"exceeds {tight.migration_cap}"
                )
            fires = result.step45_count
            if name in ("B", "C", "D"):
                max_step45[name] = max(max_step45.get(name, 0), fires)
                if fires > 1:
                    summary.add_violation(
                        f"{tag}: rebalancing fired {fires} times"
                    )
            margin = tight.bound - result.makespan
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
    if worst_margin is not None:
        summary.notes["smallest bound margin"] = (
            f"{fraction_str(worst_margin)} (~{float(worst_margin):.6f})"
        )
    for name in sorted(max_step45):
        summary.notes[f"max rebalances per run ({name})"] = str(max_step45[name])
    return summary


def soundness_adversaries() -> list[Adversary]:
    """Every lower-bound game, with default parameters, at the migration
    factors where its claimed ratio must bind any budget-respecting
    scheduler."""
    plays = (
        (AdvHigh, ("5/2", "3", "4", "5")),
        (AdvMid, ("1/2", "3/5", "2/3", "7/10")),
        (AdvLow, ("0", "1/4", "49/100")),
        (AdvTotalSize, ("1", "10", "100")),
    )
    return [cls(m) for cls, ms in plays for m in ms]


def tightness_duels() -> list[tuple[Adversary, str]]:
    """Every lower-bound game but the known-total-size one, each against
    the guaranteed scheduler of its m: the game's claimed ratio is the
    floor, the tight bound the ceiling."""
    return [
        (adv, scheduler_for_regime(adv.m)[0])
        for adv in soundness_adversaries()
        if adv.name != AdvTotalSize.name
    ]


FOREIGN_SCHEDULERS = ("greedy-m2", "least-loaded", "all-m1")


def adversary_suite() -> SuiteSummary:
    """Tightness against the matching algorithms plus soundness against
    deliberately naive schedulers, all certificates oracle-confirmed."""
    summary = SuiteSummary(name="adversaries")
    worst_gap: Fraction | None = None

    for adv, algorithm in tightness_duels():
        transcript = play_duel(adv, algorithm, SCHEDULERS[algorithm], adv.m)
        summary.runs += 1
        tag = f"{adv.name} vs {algorithm} @ m={fraction_str(adv.m)}"
        _check_duel(summary, tag, transcript, require_oracle=True)
        if transcript.achieved_ratio is not None:
            bound = transcript.bound
            if transcript.achieved_ratio > bound:
                summary.add_violation(
                    f"{tag}: ratio {transcript.achieved_ratio} above bound {bound}"
                )
            gap = bound - transcript.achieved_ratio
            if worst_gap is None or gap > worst_gap:
                worst_gap = gap

    for adv in soundness_adversaries():
        for name in FOREIGN_SCHEDULERS:
            transcript = play_duel(adv, name, SCHEDULERS[name], adv.m)
            summary.runs += 1
            tag = f"{adv.name} vs {name} @ m={fraction_str(adv.m)}"
            _check_duel(summary, tag, transcript, require_oracle=False)

    if worst_gap is not None:
        summary.notes["largest tightness gap"] = (
            f"{fraction_str(worst_gap)} (~{float(worst_gap):.6f})"
        )
    return summary


def _check_duel(
    summary: SuiteSummary,
    tag: str,
    transcript: DuelTranscript,
    require_oracle: bool,
) -> None:
    if transcript.illegal is not None:
        summary.add_violation(f"{tag}: scheduler played illegally: {transcript.illegal}")
        return
    for text, holds in transcript.proof_checks:
        if not holds:
            summary.add_violation(f"{tag}: migration-proof check failed: {text}")
    if require_oracle and not transcript.oracle_checked:
        summary.add_violation(f"{tag}: certificate not oracle-checked")
    if (
        transcript.achieved_ratio is not None
        and transcript.claimed_min_ratio is not None
        and transcript.achieved_ratio < transcript.claimed_min_ratio
    ):
        summary.add_violation(
            f"{tag}: achieved {transcript.achieved_ratio} below claimed "
            f"{transcript.claimed_min_ratio}"
        )


def oracle_suite(seed: int, count: int) -> SuiteSummary:
    """Planted-optimum and prefix-monotonicity checks for the oracle."""
    summary = SuiteSummary(name="oracle")
    rng = random.Random(seed)
    for i in range(count):
        config = GenConfig(
            seed=rng.getrandbits(64),
            n_gos2=rng.randint(2, 8),
            n_gos1=rng.randint(0, 4),
            denominator_bound=1000,
            fill_mode=FillMode.EXACT,
        )
        instance = generate(config)
        summary.runs += 1
        opt = brute_opt(instance.jobs)
        if opt != 1:
            summary.add_violation(
                f"instance#{i}(seed={config.seed}): planted optimum is {opt}, not 1"
            )
        report = prefix_opt_monotone_check(instance.jobs)
        for failure in report.failures:
            summary.add_violation(f"instance#{i}(seed={config.seed}): {failure}")
    for name, stream in LOWER_BOUND_STREAMS.items():
        summary.runs += 1
        jobs = tuple(Job(i, p, g) for i, (p, g) in enumerate(stream, start=1))
        opt = brute_opt(jobs)
        if opt != 1:
            summary.add_violation(
                f"lower-bound stream {name!r}: optimum {opt}, expected 1"
            )
    return summary


SUITES = {
    "guarantees": lambda seed, count: guarantee_suite(seed, count),
    "adversaries": lambda seed, count: adversary_suite(),
    "oracle": oracle_suite,
}


# --- command-line interface -------------------------------------------

def _fmt(value: Fraction) -> str:
    return f"{fraction_str(value)} (~{float(value):.6f})"


def _print_report(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json_dict(), indent=2))
        return
    print(f"instance   : {report.instance_id}")
    print(f"algorithm  : {report.algorithm}  (m = {fraction_str(report.m)})")
    print(
        "loads      : machine1 "
        f"{_fmt(report.final_loads[0])}, machine2 {_fmt(report.final_loads[1])}"
    )
    print(f"makespan   : {_fmt(report.makespan)}")
    if report.opt is not None:
        print(f"oracle opt : {_fmt(report.opt)}")
    if report.ratio is not None:
        print(f"ratio      : {_fmt(report.ratio)}")
    print(f"max moved  : {_fmt(report.max_migration_ratio)} of the arrival size")
    print(f"rebalances : {report.step45_count}")
    if report.violations:
        print("violations :")
        for violation in report.violations:
            print(f"  - {violation}")
    else:
        print("violations : none")


def _print_transcript(transcript: DuelTranscript, as_json: bool) -> None:
    if as_json:
        print(transcript.to_json())
        return
    print(
        f"duel       : {transcript.adversary} adversary vs "
        f"{transcript.scheduler} (m = {fraction_str(transcript.m)})"
    )
    for key, value in transcript.adversary_params.items():
        print(f"  {key:<9}: {_fmt(value)}")
    print(f"jobs issued: {len(transcript.jobs)}")
    for job, dec in zip(transcript.jobs, transcript.decisions):
        moved = (
            ""
            if not dec.migrations
            else "  moved " + ", ".join(
                f"job{idx}->m{int(mach)}" for idx, mach in dec.migrations
            )
        )
        print(
            f"  job{job.index:<3} p={fraction_str(job.size):<12} g={job.gos} "
            f"-> m{int(dec.target)}{moved}"
        )
    if transcript.illegal is not None:
        print(f"scheduler played illegally: {transcript.illegal}")
        return
    print(
        "loads      : machine1 "
        f"{_fmt(transcript.final_loads[0])}, machine2 {_fmt(transcript.final_loads[1])}"
    )
    print(f"certified  : optimum {_fmt(transcript.certified_opt)}"
          + ("  [oracle-checked]" if transcript.oracle_checked else ""))
    print(f"achieved   : ratio {_fmt(transcript.achieved_ratio)}")
    print(f"claimed    : at least {_fmt(transcript.claimed_min_ratio)}")
    print(f"tight bound: {_fmt(transcript.bound)}")


def _cmd_run(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    report = run_instance(
        instance,
        args.algorithm,
        as_fraction(args.m),
        use_oracle=args.oracle,
        instance_id=args.instance,
    )
    _print_report(report, args.json)
    return 0 if report.ok else 1


def _cmd_duel(args: argparse.Namespace) -> int:
    m = as_fraction(args.m)
    # only the chosen adversary's own option is passed; the others are ignored
    options = {"high": args.gamma, "mid": args.eps, "totalsize": args.theta}
    given = options.get(args.adversary)
    params = () if given is None else (given,)
    adv = ADVERSARIES[args.adversary](m, *params)
    transcript = play_duel(adv, args.algorithm, SCHEDULERS[args.algorithm], m)
    _print_transcript(transcript, args.json)
    if transcript.illegal is not None:
        return 1
    ok = all(holds for _, holds in transcript.proof_checks)
    ok = ok and transcript.achieved_ratio >= transcript.claimed_min_ratio
    return 0 if ok else 1


def _cmd_curve(args: argparse.Namespace) -> int:
    rows = curve_rows([as_fraction(text) for text in args.m_values])
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["m", "regime", "bound_num", "bound_den", "bound_decimal"])
        for row in rows:
            writer.writerow(
                [
                    fraction_str(row.m),
                    row.regime.value,
                    row.bound.numerator,
                    row.bound.denominator,
                    f"{float(row.bound):.10f}",
                ]
            )
        return 0
    print(f"{'m':>12}  {'regime':<6}  {'bound':>10}  {'decimal':>12}")
    for row in rows:
        print(
            f"{fraction_str(row.m):>12}  {row.regime.value:<6}  "
            f"{fraction_str(row.bound):>10}  {float(row.bound):>12.8f}"
        )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    config = GenConfig(
        seed=seed,
        n_gos2=args.gos2,
        n_gos1=args.gos1,
        denominator_bound=args.denominator_bound,
        fill_mode=FillMode(args.fill),
    )
    instance = generate(config)
    if args.output:
        dump_instance(instance, args.output)
        print(f"wrote {len(instance.jobs)} jobs to {args.output}")
    else:
        print(instance.to_json())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    report = validate_instance(instance, check_opt=args.oracle)
    payload = {
        "instance": args.instance,
        "valid": report.valid,
        "failures": report.failures,
        "oracle_opt": (
            fraction_str(report.oracle_opt)
            if report.oracle_opt is not None
            else None
        ),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"instance : {args.instance}")
        print(f"valid    : {report.valid}")
        if report.oracle_opt is not None:
            print(f"oracle   : optimum {_fmt(report.oracle_opt)}")
        for failure in report.failures:
            print(f"  - {failure}")
    return 0 if report.valid else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    summary = SUITES[args.suite](seed, args.count)
    if args.json:
        print(json.dumps(summary.to_json_dict(), indent=2))
    else:
        print(f"suite      : {summary.name}")
        print(f"runs       : {summary.runs}")
        for key, value in summary.notes.items():
            print(f"{key:<11}: {value}")
        if summary.violations:
            print("violations :")
            for violation in summary.violations:
                print(f"  - {violation}")
        else:
            print("violations : none")
    return 0 if summary.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierstretch",
        description=(
            "Semi-online bin stretching with migration on two hierarchical "
            "machines: run schedulers, play adversary duels, sweep the tight "
            "bound, and verify the guarantee suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="schedule an instance file")
    p_run.add_argument("instance", help="path to an instance JSON file")
    p_run.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto"] + sorted(SCHEDULERS),
        help="scheduler id; 'auto' picks by regime of m",
    )
    p_run.add_argument("--m", required=True, help="migration factor, e.g. 5/2")
    p_run.add_argument(
        "--oracle", action="store_true", help="compute the brute-force optimum"
    )
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_duel = sub.add_parser("duel", help="play an adversary against a scheduler")
    p_duel.add_argument("adversary", choices=sorted(ADVERSARIES))
    p_duel.add_argument("algorithm", choices=sorted(SCHEDULERS))
    p_duel.add_argument("--m", required=True, help="migration factor")
    p_duel.add_argument("--gamma", help="gap parameter for the high adversary")
    p_duel.add_argument("--eps", help="epsilon for the mid adversary")
    p_duel.add_argument("--theta", help="large-job size for totalsize")
    p_duel.add_argument("--json", action="store_true")
    p_duel.set_defaults(func=_cmd_duel)

    p_curve = sub.add_parser("curve", help="tight bound over a grid of m values")
    p_curve.add_argument("m_values", nargs="+", help="migration factors")
    p_curve.add_argument("--csv", action="store_true")
    p_curve.set_defaults(func=_cmd_curve)

    p_gen = sub.add_parser("gen", help="generate a planted-optimum instance")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--gos2", type=int, default=6, help="grade-2 job count")
    p_gen.add_argument("--gos1", type=int, default=2, help="grade-1 job count")
    p_gen.add_argument("--denominator-bound", type=int, default=1000)
    p_gen.add_argument(
        "--fill", choices=[mode.value for mode in FillMode], default="exact"
    )
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = sub.add_parser("verify", help="validate an instance file")
    p_verify.add_argument("instance")
    p_verify.add_argument(
        "--oracle",
        action="store_true",
        help="also confirm the declared optimum by brute force",
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_suite = sub.add_parser("suite", help="run a verification suite")
    p_suite.add_argument("suite", choices=sorted(SUITES))
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--count", type=int, default=200)
    p_suite.add_argument("--json", action="store_true")
    p_suite.set_defaults(func=_cmd_suite)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HierStretchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
