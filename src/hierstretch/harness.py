"""Run schedulers on instances, play duels, sweep bounds, and verify suites.

This is both the library-level entry point for batch verification and the
``hierstretch`` command-line tool (subcommands: run, duel, curve, gen,
verify, suite).  Each verdict has one home: :func:`run_violations` judges
a run for ``run`` and the guarantee suite alike, and
:meth:`DuelTranscript.failures` judges a duel for ``duel`` and the
adversary suite.  All rationals cross the CLI boundary as 'num/den'
strings; decimals appear only as display columns.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

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
    AssignmentDecision,
    Instance,
    Job,
    MigrationLedger,
    RationalLike,
    RegimeBound,
    ScheduleState,
    apply_decision,
    as_fraction,
    dump_instance,
    fraction_str,
    json_ready,
    load_instance,
    ratio_bound,
    require_jobs,
    validate_instance,
)
from .errors import HierStretchError, ParseError, RegimeMismatch
from .generators import FillMode, GenConfig, generate, random_config
from .oracle import brute_opt, prefix_opt_monotone_check

DEFAULT_SEED = 1729
ONCE_ONLY = ("B", "C", "D")  # schedulers that rebalance at most once per run

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

def _fmt(value: Fraction) -> str:
    return f"{fraction_str(value)} (~{float(value):.6f})"


@dataclass
class RunResult:
    """Outcome of streaming one job list through one scheduler.

    ``decisions`` and ``step45_count`` read the ledger's decision column;
    the count walks it on its first read only."""

    final_state: ScheduleState
    ledger: MigrationLedger
    violations: list[str]
    _step45: int | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def decisions(self) -> list[AssignmentDecision]:
        return list(self.ledger.decisions)

    @property
    def step45_count(self) -> int:
        if self._step45 is None:
            self._step45 = sum(1 for d in self.ledger.decisions if d.step in (4, 5))
        return self._step45

    @property
    def makespan(self) -> Fraction:
        return self.final_state.makespan


def run_stream(
    jobs: Iterable[Job],
    scheduler_fn: SchedulerFn,
    m,
    bound: RationalLike | None = None,
    per_arrival_bound: bool = False,
) -> RunResult:
    """Feed jobs through a scheduler with full budget/hierarchy enforcement.

    ``m`` is a migration factor or its :class:`RegimeBound`, which is
    used as it is.  A negative ``m`` raises :class:`NegativeM` and a
    ``bound`` that is not rational (see :func:`as_fraction`)
    :class:`ParseError`, both before the first arrival.  Records a
    violation (and stops) if the scheduler produces an illegal decision;
    optionally checks the makespan against ``bound`` after every arrival,
    as ints against the bound in units rounded down.  Conservation of
    total size is always verified at the end, against a separate int sum
    of the input jobs placed (the ledger's), each read from its own
    ``size_num`` and ``size_den`` rather than the state's units, so
    ``jobs`` may be a one-shot iterator.  An item that is not a :class:`Job`
    raises :class:`ParseError` naming its position.
    """
    state = ScheduleState(m)  # a negative m raises NegativeM here
    ledger = MigrationLedger()
    violations: list[str] = []
    if bound is not None:
        bound = as_fraction(bound)
        bound_num, bound_den = bound.numerator, bound.denominator
    check_each = per_arrival_bound and bound is not None
    # an int makespan exceeds the bound exactly when it exceeds the bound's
    # floor in units: recomputed when the unit grows
    limit_unit = limit = 0
    for job in jobs:
        if not isinstance(job, Job):
            # every earlier arrival was placed, or the loop would have ended
            require_jobs([job], start=len(ledger.jobs) + 1)
        try:
            decision = scheduler_fn(state, job)
            state = apply_decision(state, job, decision, ledger)
        except RegimeMismatch:
            raise
        except HierStretchError as exc:
            violations.append(f"arrival {job.index}: {type(exc).__name__}: {exc}")
            break
        if check_each:
            if state.unit != limit_unit:
                limit_unit = state.unit
                limit = bound_num * limit_unit // bound_den
            if state.load1_units > limit or state.y_units > limit:
                violations.append(
                    f"arrival {job.index}: makespan {state.makespan} > bound {bound}"
                )
    unit = state.unit
    if bound is not None and state.makespan_units * bound_den > bound_num * unit:
        violations.append(f"final makespan {state.makespan} > bound {bound}")
    arrived = 0
    for job in ledger.jobs:
        arrived += job.size_num * (unit // job.size_den)
    if state.load1_units + state.y_units != arrived:
        violations.append(
            f"conservation broken: loads sum to {state.arrived_total}, "
            f"arrived {Fraction(arrived, unit)}"
        )
    return RunResult(final_state=state, ledger=ledger, violations=violations)


def run_violations(result: RunResult, name: str, tight: RegimeBound) -> list[str]:
    """The run's own violations, then a migration ratio above the regime's
    ``migration_cap``, then more than one rebalance by a ``ONCE_ONLY``
    scheduler."""
    violations = list(result.violations)
    ratio = result.ledger.max_ratio
    # a run that never migrated keeps every cap: compare only a nonzero ratio
    if ratio and ratio > tight.migration_cap:
        violations.append(f"migration ratio {ratio} exceeds {tight.migration_cap}")
    if name in ONCE_ONLY and result.step45_count > 1:
        violations.append(f"rebalancing fired {result.step45_count} times")
    return violations


@dataclass
class RunReport:
    """Per-run report as shown by the ``run`` subcommand; its fields are
    the keys of its JSON form, in order."""

    instance: str
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
        return json_ready(asdict(self))


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
    tight = ratio_bound(m)
    result = run_stream(instance.normalized().jobs, fn, m, bound=tight.bound)
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
        instance=instance_id,
        algorithm=name,
        m=m,
        final_loads=loads,
        makespan=makespan,
        opt=opt,
        ratio=ratio,
        max_migration_ratio=result.ledger.max_ratio,
        step45_count=result.step45_count,
        violations=run_violations(result, name, tight),
    )


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


def _check_count(count) -> None:
    """Raise ParseError unless a suite's instance count is an int >= 0."""
    if type(count) is not int or count < 0:
        raise ParseError(f"suite count must be >= 0, got {count!r}")


# the tight bound of each acceptance m, computed once
ACCEPTANCE_BOUNDS = tuple(ratio_bound(m) for m in ACCEPTANCE_M_VALUES)


def guarantee_suite(seed: int = DEFAULT_SEED, count: int = 200) -> SuiteSummary:
    """Run every generated instance under the regime's scheduler for each m.

    Checks, all exact: the makespan within the tight bound after every
    arrival, then :func:`run_violations`: no illegal decision, migration
    within ``migration_cap`` * p_j (m, or 3/4 for scheduler B), and at most
    one rebalancing step per run for schedulers B, C, and D.  The twelve
    bounds are computed once, in ``ACCEPTANCE_BOUNDS``, and passed as
    they are to the scheduler lookup, once per call, and to every run;
    per run, the margin to the bound is kept as an int pair over the
    run's unit, and the note's Fraction is built once at the end.  A ``count`` that is not an int >= 0 raises
    :class:`ParseError`.
    """
    _check_count(count)
    summary = SuiteSummary(name="guarantees")
    # looked up per call, so a rebound scheduler_for_regime or SCHEDULERS
    # entry (a wrapper, a probe) is the one that runs
    plans = [(tight, *scheduler_for_regime(tight)) for tight in ACCEPTANCE_BOUNDS]
    # the smallest bound - makespan so far, as (num, den) with den > 0
    worst: tuple[int, int] | None = None
    max_step45: dict[str, int] = {}
    for index, (config, instance) in enumerate(iter_suite_instances(seed, count)):
        for tight, name, fn in plans:
            m, bound = tight.m, tight.bound
            result = run_stream(
                instance.jobs, fn, tight, bound=bound, per_arrival_bound=True
            )
            summary.runs += 1
            violations = run_violations(result, name, tight)
            if violations:
                tag = f"instance#{index}(seed={config.seed}) {name}@m={m}"
                for violation in violations:
                    summary.add_violation(f"{tag}: {violation}")
            if name in ONCE_ONLY:
                max_step45[name] = max(max_step45.get(name, 0), result.step45_count)
            state = result.final_state
            unit, bound_den = state.unit, bound.denominator
            num = bound.numerator * unit - state.makespan_units * bound_den
            den = bound_den * unit
            if worst is None or num * worst[1] < worst[0] * den:
                worst = num, den
    if worst is not None:
        summary.notes["smallest bound margin"] = _fmt(Fraction(*worst))
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
    deliberately naive schedulers; the note ``oracle-checked
    certificates`` counts the duels whose certificate the oracle checked."""
    summary = SuiteSummary(name="adversaries")
    worst_gap: Fraction | None = None
    checked = 0
    duels = [(adv, name, True) for adv, name in tightness_duels()] + [
        (adv, name, False)
        for adv in soundness_adversaries()
        for name in FOREIGN_SCHEDULERS
    ]
    for adv, name, tightness in duels:
        transcript = play_duel(adv, name, SCHEDULERS[name], adv.m)
        summary.runs += 1
        checked += transcript.oracle_checked
        tag = f"{adv.name} vs {name} @ m={fraction_str(adv.m)}"
        for failure in transcript.failures(tightness):
            summary.add_violation(f"{tag}: {failure}")
        if tightness and transcript.achieved_ratio is not None:
            gap = transcript.bound - transcript.achieved_ratio
            if worst_gap is None or gap > worst_gap:
                worst_gap = gap
    if worst_gap is not None:
        summary.notes["largest tightness gap"] = _fmt(worst_gap)
    summary.notes["oracle-checked certificates"] = f"{checked} of {summary.runs}"
    return summary


def oracle_suite(seed: int = DEFAULT_SEED, count: int = 200) -> SuiteSummary:
    """Planted-optimum and prefix-monotonicity checks for the oracle; a
    ``count`` that is not an int >= 0 raises :class:`ParseError`."""
    _check_count(count)
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
        # the last prefix is the whole input: its optimum is the planted one
        report = prefix_opt_monotone_check(instance.jobs)
        opt = report.prefix_opts[-1]
        if opt != 1:
            summary.add_violation(
                f"instance#{i}(seed={config.seed}): planted optimum is {opt}, not 1"
            )
        for failure in report.failures:
            summary.add_violation(f"instance#{i}(seed={config.seed}): {failure}")
    return summary


SUITES = {
    "guarantees": guarantee_suite,
    "adversaries": adversary_suite,
    "oracle": oracle_suite,
}


# --- command-line interface -------------------------------------------

def _print_violations(violations: list[str]) -> None:
    if not violations:
        print("violations : none")
        return
    print("violations :")
    for violation in violations:
        print(f"  - {violation}")


def _print_report(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json_dict(), indent=2))
        return
    print(f"instance   : {report.instance}")
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
    _print_violations(report.violations)


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
    for entry in transcript.ledger.entries:
        job, dec = entry.job, entry.decision
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
    # each game takes at most its own option, and low takes none
    own = {"high": "gamma", "mid": "eps", "totalsize": "theta"}.get(args.adversary)
    for flag in ("gamma", "eps", "theta"):
        if flag != own and getattr(args, flag) is not None:
            raise ParseError(f"the {args.adversary} adversary takes no --{flag}")
    option = vars(args).get(own)
    adv = ADVERSARIES[args.adversary](m, *([] if option is None else [option]))
    transcript = play_duel(adv, args.algorithm, SCHEDULERS[args.algorithm], m)
    _print_transcript(transcript, args.json)
    return 1 if transcript.failures() else 0


def _cmd_curve(args: argparse.Namespace) -> int:
    grid = [as_fraction(text) for text in args.m_values]  # parse all m, then bound
    rows = [ratio_bound(m) for m in grid]
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
    config = GenConfig(
        seed=args.seed,
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
    if args.json:
        payload = {
            "instance": args.instance,
            "valid": report.valid,
            "failures": report.failures,
            "oracle_opt": report.oracle_opt,
        }
        print(json.dumps(json_ready(payload), indent=2))
    else:
        print(f"instance : {args.instance}")
        print(f"valid    : {report.valid}")
        if report.oracle_opt is not None:
            print(f"oracle   : optimum {_fmt(report.oracle_opt)}")
        for failure in report.failures:
            print(f"  - {failure}")
    return 0 if report.valid else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    # only the options given: each suite fills in its own defaults
    given = {flag: vars(args)[flag] for flag in ("seed", "count") if flag in vars(args)}
    if args.suite == "adversaries" and given:  # a fixed list of duels
        raise ParseError(f"the adversaries suite takes no --{next(iter(given))}")
    summary = SUITES[args.suite](**given)
    if args.json:
        print(json.dumps(summary.to_json_dict(), indent=2))
    else:
        print(f"suite      : {summary.name}")
        print(f"runs       : {summary.runs}")
        for key, value in summary.notes.items():
            print(f"{key:<11}: {value}")
        _print_violations(summary.violations)
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
        "--oracle", action="store_true", help="compute the exact optimum"
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
    p_gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    p_suite.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p_suite.add_argument("--count", type=int, default=argparse.SUPPRESS)
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
    except BrokenPipeError:
        # the reader closed stdout: send the unflushed rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
