"""Harness machinery and the command-line interface."""
from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import hierstretch
from hierstretch import algorithms, core, harness, oracle
from hierstretch.adversary import Adversary, Stop, play_duel
from hierstretch.algorithms import SCHEDULERS
from hierstretch.core import (
    M1,
    M2,
    AssignmentDecision,
    Instance,
    Job,
    LedgerEntry,
    fraction_str,
    jobs_from_pairs,
    ratio_bound,
)
from hierstretch.errors import ParseError
from hierstretch.generators import FillMode, GenConfig, generate
from hierstretch.harness import (
    ACCEPTANCE_M_VALUES,
    FOREIGN_SCHEDULERS,
    DEFAULT_SEED,
    adversary_suite,
    guarantee_suite,
    iter_suite_instances,
    main,
    oracle_suite,
    resolve_algorithm,
    run_instance,
    run_stream,
    run_violations,
    soundness_adversaries,
    tightness_duels,
)
from hierstretch.oracle import PrefixMonotoneReport
from helpers import emitting, stream

SRC = Path(__file__).resolve().parents[1] / "src"


class TestRunMachinery:
    def test_run_stream_reports_conservation(self):
        jobs = stream(("1/2", 2), ("1/4", 1))
        result = run_stream(jobs, SCHEDULERS["baseline"], Fraction(0))
        assert result.violations == []
        assert result.final_state.arrived_total == Fraction(3, 4)

    def test_run_stream_flags_bound_breach(self):
        jobs = stream(("1/2", 2), ("1", 2), ("1/2", 1))
        result = run_stream(
            jobs, SCHEDULERS["baseline"], Fraction(0), bound=Fraction(5, 4)
        )
        assert any("bound" in violation for violation in result.violations)

    @pytest.mark.parametrize(
        "jobs, migrations, reason",
        [
            (stream(("1/2", 2), ("1", 2)), ((1, M1), (1, M1)), "listed twice"),
            (stream(("1/2", 2), ("1", 2)), ((1, M2),), "does not change machines"),
            (
                (Job(1, Fraction(1, 2), 2), Job(1, Fraction(1), 2)),
                (),
                "already scheduled",
            ),
            (stream(("1/2", 2), ("1", 2)), ((1,),), "not an (int, machine) pair"),
            (stream(("1/2", 2), ("1", 2)), (([1], M1),), "not an (int, machine) pair"),
            (stream(("1/2", 2), ("1", 2)), None, "malformed decision None"),
            (stream(("1/2", 2), ("1", 2)), AssignmentDecision(M1, None), "malformed"),
            (stream(("1/2", 2), ("1", 2)), AssignmentDecision(M1, 5), "malformed"),
        ],
    )
    def test_run_stream_records_illegal_decisions(self, jobs, migrations, reason):
        result = run_stream(jobs, emitting(migrations), Fraction(10))
        assert len(result.decisions) == 1
        assert len(result.violations) == 1
        assert "IllegalDecision" in result.violations[0]
        assert reason in result.violations[0]

    @pytest.mark.parametrize("m", ["1/4", "11/20", "7/10", "1", "3"])
    def test_run_stream_takes_a_regime_bound(self, m):
        # the caller's RegimeBound is used as it is, with the same outcome
        # as the m it was made from
        tight = ratio_bound(m)
        jobs = generate(GenConfig(seed=7, n_gos2=9, n_gos1=3)).jobs
        name, fn = algorithms.scheduler_for_regime(tight)
        assert (name, fn) == algorithms.scheduler_for_regime(tight.m)
        by_bound = run_stream(jobs, fn, tight, bound=tight.bound, per_arrival_bound=True)
        by_m = run_stream(jobs, fn, tight.m, bound=tight.bound, per_arrival_bound=True)
        assert by_bound.final_state.tight is tight
        assert by_bound.final_state == by_m.final_state
        assert by_bound.ledger.entries == by_m.ledger.entries
        assert by_bound.violations == by_m.violations == []

    def test_run_stream_coerces_bound(self):
        # a 'num/den' string is a bound; floats and bools are not rationals
        jobs = stream(("1/2", 2), ("1", 2), ("1/2", 1))
        baseline = SCHEDULERS["baseline"]
        assert run_stream(jobs, baseline, 0, bound="3/2").violations == []
        result = run_stream(jobs, baseline, 0, bound="5/4", per_arrival_bound=True)
        assert result.violations == [
            "arrival 3: makespan 3/2 > bound 5/4", "final makespan 3/2 > bound 5/4"
        ]
        for bad in (1.25, True):
            with pytest.raises(ParseError):
                run_stream(jobs, baseline, 0, bound=bad)

    @pytest.mark.parametrize("name, gos", [("all-m1", 1), ("greedy-m2", 2)])
    def test_per_arrival_bound_at_the_boundary(self, name, gos):
        # at m = 0 the unit starts at 2 and grows to 6, 30 and 1860 with
        # the arrivals: 2/3 is 4 units of 6, under the bound 7/10 (4.2
        # units); 7/10 is 21 units of 30, equal to it; the last arrival
        # adds one unit of 1860 over it
        jobs = stream(("1/3", gos), ("1/3", gos), ("1/30", gos), ("1/1860", gos))
        fn = SCHEDULERS[name]
        bound = Fraction(7, 10)
        result = run_stream(jobs[:3], fn, 0, bound=bound, per_arrival_bound=True)
        assert result.violations == []
        assert (result.makespan, result.final_state.unit) == (bound, 30)
        result = run_stream(jobs, fn, 0, bound=bound, per_arrival_bound=True)
        assert result.final_state.unit == 1860
        over = bound + Fraction(1, 1860)
        assert result.violations == [
            f"arrival 4: makespan {over} > bound 7/10",
            f"final makespan {over} > bound 7/10",
        ]
        # 3/4 is 9 units of 12: over the bound, which lies between 8 and 9
        jobs = stream(("1/3", gos), ("1/3", gos), ("1/12", gos))
        result = run_stream(jobs, fn, 0, bound=bound, per_arrival_bound=True)
        assert result.violations == [
            "arrival 3: makespan 3/4 > bound 7/10", "final makespan 3/4 > bound 7/10"
        ]

    @pytest.mark.parametrize("name", ["A", "all-m1"])
    def test_an_item_that_is_not_a_job_is_a_parse_error(self, name):
        # A reads the item's grade, all-m1 leaves it to apply_decision
        with pytest.raises(ParseError, match="position 1 holds 'x', not a Job"):
            run_stream(["x"], SCHEDULERS[name], 3)
        jobs = [*stream(("1/2", 2)), None]
        with pytest.raises(ParseError, match="position 2 holds None, not a Job"):
            run_stream(jobs, SCHEDULERS[name], 3)

    @pytest.mark.parametrize("name, m", [("A", 3), ("B", 1), ("all-m1", 3)])
    def test_an_item_with_a_jobs_fields_is_still_a_parse_error(self, name, m):
        # every field a scheduler or apply_decision reads is there, so only
        # the type check tells this item from a Job
        item = SimpleNamespace(
            index=1, size=Fraction(1, 2), size_num=1, size_den=2, gos=2
        )
        with pytest.raises(ParseError, match=r"position 1 holds namespace\("):
            run_stream([item], SCHEDULERS[name], m)
        with pytest.raises(ParseError, match=r"position 2 holds namespace\("):
            run_stream([*stream(("1/4", 2)), item], SCHEDULERS[name], m)

    def test_a_schedulers_own_attribute_error_propagates(self):
        # every item is a Job, so the type check passes and the error is
        # neither a ParseError nor a recorded violation
        def broken(state, job):
            return job.weight

        with pytest.raises(AttributeError, match="weight"):
            run_stream(stream(("1/2", 2)), broken, 3)

    def test_conservation_catches_a_dropped_load_update(self, monkeypatch):
        # an apply_decision that forgets the grade-1 arrival's load
        original = harness.apply_decision

        def dropping(state, job, decision, ledger):
            original(state, job, decision, ledger)
            if job.gos == 1:
                state.load1_units -= state.units_of(job)
            return state

        monkeypatch.setattr(harness, "apply_decision", dropping)
        jobs = stream(("1/2", 2), ("1/4", 1))
        result = run_stream(jobs, SCHEDULERS["baseline"], Fraction(0))
        assert result.violations == [
            "conservation broken: loads sum to 1/2, arrived 3/4"
        ]

    def test_conservation_is_independent_of_the_kernel_conversion(self, monkeypatch):
        # a conversion that makes arrival 2 one unit too large also grows
        # the loads; the check sums each placed job's own
        # size_num and size_den, so it still sees the extra unit
        original = core.ScheduleState.units_of

        def inflating(state, job):
            return original(state, job) + (job.index == 2)

        monkeypatch.setattr(core.ScheduleState, "units_of", inflating)
        jobs = stream(("1/2", 2), ("1/4", 1), ("1/4", 2))
        result = run_stream(jobs, SCHEDULERS["baseline"], Fraction(0))
        assert result.violations == [
            "conservation broken: loads sum to 5/4, arrived 1"
        ]

    @pytest.mark.parametrize(
        "name, m, big", [("A", 3, None), ("B", 1, 1), ("C", "3/5", 1), ("D", "7/10", 1)]
    )
    def test_run_stream_reads_no_fraction_per_arrival(self, name, m, big, monkeypatch):
        # once the jobs exist, a run reads Fraction's numerator, denominator
        # and as_integer_ratio as often at 1,000 arrivals as at 100: every
        # conversion of a size reads the job's size_num and size_den
        def deck(n):
            # n grade-2 jobs just under 1/(2n), over denominators that keep
            # extending the unit; then ``big``, which B, C and D rebalance
            # for in one migrating arrival; then n grade-1 jobs of 1/(4n)
            pairs = [
                (Fraction(1, 2 * n) - Fraction(1, 2 * n * (5, 7, 11, 13)[i % 4]), 2)
                for i in range(n)
            ]
            pairs += [(big, 2)] if big is not None else []
            return stream(*pairs, *[(Fraction(1, 4 * n), 1)] * n)

        decks = {n: deck(n) for n in (100, 1000)}
        bound = ratio_bound(m).bound
        core.ScheduleState(m)  # fill the caches of m's bound for both runs
        reads: dict[int, dict[str, int]] = {}
        counts: dict[str, int] = {}

        def counting(attr, read):
            def counted(self, *args):
                counts[attr] = counts.get(attr, 0) + 1
                return read(self, *args)
            return counted

        for attr in ("numerator", "denominator"):
            read = counting(attr, getattr(Fraction, attr).fget)
            monkeypatch.setattr(Fraction, attr, property(read))
        monkeypatch.setattr(
            Fraction, "as_integer_ratio", counting("as_integer_ratio", Fraction.as_integer_ratio)
        )
        results = {}
        for n, jobs in decks.items():
            counts.clear()
            results[n] = run_stream(jobs, SCHEDULERS[name], m, bound, per_arrival_bound=True)
            reads[n] = dict(counts)
        monkeypatch.undo()
        for n, result in results.items():
            assert result.violations == []
            assert len(result.ledger.jobs) == len(decks[n])
            assert len(result.ledger.migrated) == (big is not None)
        # m and the bound are parsed once: the counters are live
        assert reads[100]["numerator"] > 0
        assert reads[100] == reads[1000]

    def test_conservation_on_a_one_shot_iterator(self):
        # the end-of-run sum reads the jobs placed, not the consumed input
        jobs = stream(("1/2", 2), ("1/2", 1), ("1/3", 2))
        baseline = SCHEDULERS["baseline"]
        result = run_stream(iter(jobs), baseline, 0)
        assert result.violations == []
        assert result.decisions == run_stream(jobs, baseline, 0).decisions
        assert result.final_state.arrived_total == Fraction(4, 3)

    def test_entries_are_built_only_when_read(self, monkeypatch):
        # a long run keeps its ledger as columns: the decisions, the
        # rebalance count, the migration ratio and the verdict read no entry
        built = []

        def counting(*fields):
            built.append(fields)
            return LedgerEntry(*fields)

        monkeypatch.setattr(core, "LedgerEntry", counting)
        config = GenConfig(
            seed=0, n_gos2=800, n_gos1=200, denominator_bound=10**6,
            fill_mode=FillMode.SLACK,
        )
        jobs = generate(config).jobs
        assert len(jobs) == 1000
        m = Fraction(1)
        tight = ratio_bound(m)
        result = run_stream(
            jobs, SCHEDULERS["B"], m, bound=tight.bound, per_arrival_bound=True
        )
        assert run_violations(result, "B", tight) == []
        assert len(result.decisions) == 1000
        assert result.step45_count == 1
        assert result.ledger.max_ratio > 0
        assert built == []
        entries = result.ledger.entries
        assert len(built) == 1000
        assert [e.decision for e in entries] == result.decisions
        assert result.ledger.entries is entries and len(built) == 1000

    def test_rescaled_instance(self):
        # declared optimum 2: sizes are halved internally, reports rescale back
        inst = Instance(
            jobs=jobs_from_pairs([("8/5", 2), ("6/5", 2)]), declared_opt=Fraction(2)
        )
        report = run_instance(inst, "A", Fraction(5, 2), use_oracle=True)
        assert report.ok
        assert report.opt == Fraction(8, 5)
        assert report.makespan <= Fraction(5, 4) * report.opt

    def test_resolve_auto(self):
        assert resolve_algorithm("auto", Fraction(3))[0] == "A"
        assert resolve_algorithm("auto", Fraction(1))[0] == "B"
        assert resolve_algorithm("auto", Fraction(7, 10))[0] == "D"
        assert resolve_algorithm("auto", Fraction(11, 20))[0] == "C"
        assert resolve_algorithm("auto", Fraction(1, 4))[0] == "baseline"

    def test_unknown_algorithm_is_a_parse_error(self):
        inst = Instance(jobs=jobs_from_pairs([("1/2", 2)]))
        with pytest.raises(ParseError, match="choose from auto, A, B"):
            run_instance(inst, "nope", Fraction(1))

    def test_acceptance_m_values_cover_the_four_migrating_regimes(self):
        names = {resolve_algorithm("auto", m)[0] for m in ACCEPTANCE_M_VALUES}
        assert names == {"A", "B", "C", "D"}

    def test_run_violations_judge_cap_and_once_only_rule(self):
        # at m = 1 moving a 1/2 job for a 1/2 arrival keeps the budget m * p
        # but not B's cap of 3/4; a second rebalance breaks the once-only rule
        def rebalancer(state, job):
            if job.index == 1:
                return AssignmentDecision(M2)
            if job.index == 2:
                return AssignmentDecision(M1, ((1, M1),), step=4)
            return AssignmentDecision(M2, ((1, M2),), step=5)

        jobs = stream(("1/2", 2), ("1/2", 2), ("1/2", 2))
        result = run_stream(jobs, rebalancer, Fraction(1))
        assert result.violations == []
        tight = ratio_bound(Fraction(1))
        cap = "migration ratio 1 exceeds 3/4"
        assert run_violations(result, "B", tight) == [
            cap, "rebalancing fired 2 times"
        ]
        assert run_violations(result, "baseline", tight) == [cap]


class TestGuaranteeSuite:
    @pytest.mark.parametrize("suite", [guarantee_suite, oracle_suite])
    @pytest.mark.parametrize("count", [2.5, "3", None, True, -1])
    def test_count_must_be_an_int(self, suite, count):
        with pytest.raises(ParseError, match="suite count must be >= 0"):
            suite(1, count)

    def test_sees_a_rebound_scheduler(self, monkeypatch):
        # a wrapper put into SCHEDULERS is the one that runs
        calls = []
        original = algorithms.SCHEDULERS["B"]

        def counting(state, job):
            calls.append(job.index)
            return original(state, job)

        monkeypatch.setitem(algorithms.SCHEDULERS, "B", counting)
        summary = guarantee_suite(1, 3)
        assert summary.ok
        assert calls

    def test_sees_a_rebound_regime_lookup(self, monkeypatch):
        # the benchmark's self-test swaps in a scheduler this way; piling
        # everything onto machine 1 must break the bound
        monkeypatch.setattr(
            harness, "scheduler_for_regime", lambda m: ("all-m1", SCHEDULERS["all-m1"])
        )
        summary = guarantee_suite(1, 3)
        assert not summary.ok
        assert any("> bound" in violation for violation in summary.violations)

    def test_oracle_suite_reports_a_wrong_optimum(self, monkeypatch, capsys):
        # the planted instances' prefix optima come from oracle.brute_opt:
        # a constant 2 never drops, so only the planted optimum is wrong
        monkeypatch.setattr(oracle, "brute_opt", lambda jobs: Fraction(2))
        summary = oracle_suite(1, 2)
        assert len(summary.violations) == 2
        for i, violation in enumerate(summary.violations):
            assert re.fullmatch(
                rf"instance#{i}\(seed=\d+\): planted optimum is 2, not 1", violation
            )
        assert main(["suite", "oracle", "--seed", "1", "--count", "2"]) == 1
        assert f"  - {summary.violations[0]}\n" in capsys.readouterr().out

    def test_oracle_suite_reports_a_bad_prefix_check(self, monkeypatch):
        # the planted instances are checked through harness.prefix_opt_monotone_check
        report = PrefixMonotoneReport([Fraction(1), Fraction(3, 2)], ["dropped"])
        monkeypatch.setattr(harness, "prefix_opt_monotone_check", lambda jobs: report)
        summary = oracle_suite(1, 2)
        assert summary.runs == 2
        assert len(summary.violations) == 4
        for i in range(2):
            optimum, failure = summary.violations[2 * i : 2 * i + 2]
            assert re.fullmatch(
                rf"instance#{i}\(seed=\d+\): planted optimum is 3/2, not 1", optimum
            )
            assert failure == optimum.split(": ")[0] + ": dropped"

    def test_adversary_suite_reports_a_broken_scheduler(self, monkeypatch):
        # piling everything onto machine 1 lets the high games go above 1 + mu
        monkeypatch.setitem(SCHEDULERS, "A", SCHEDULERS["all-m1"])
        summary = adversary_suite()
        assert not summary.ok
        assert summary.violations[0].startswith("high vs A @ m=5/2: ratio ")
        assert all(v.startswith("high vs A @ ") for v in summary.violations)

    @pytest.mark.parametrize("seed, count", [(3, 30), (17, 40), (2024, 50)])
    def test_margin_matches_a_fraction_recount(self, seed, count):
        smallest = min(
            ratio_bound(m).bound
            - run_stream(instance.jobs, resolve_algorithm("auto", m)[1], m).makespan
            for _, instance in iter_suite_instances(seed, count)
            for m in ACCEPTANCE_M_VALUES
        )
        notes = guarantee_suite(seed, count).notes
        assert notes["smallest bound margin"].split()[0] == fraction_str(smallest)


def test_package_root_binds_only_its_modules():
    # each public name has one import path: the module that defines it
    public = {name for name in vars(hierstretch) if not name.startswith("__")}
    assert public == {
        "adversary", "algorithms", "core", "errors", "generators", "harness",
        "oracle",
    }


class TestCurve:
    def test_rows(self):
        grid = ("1/4", "1/2", "3/5", "7/10", "3/4", "1", "5/2", "3", "10")
        assert [ratio_bound(Fraction(v)).bound for v in grid] == [
            Fraction(3, 2),
            Fraction(3, 2),
            Fraction(7, 5),
            Fraction(13, 10),
            Fraction(5, 4),
            Fraction(5, 4),
            Fraction(5, 4),
            Fraction(11, 9),
            Fraction(25, 23),
        ]


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    inst = Instance(
        jobs=jobs_from_pairs([("1/2", 2), ("1", 2), ("1/2", 1)]),
        declared_opt=Fraction(1),
    )
    path.write_text(inst.to_json())
    return str(path)


class TestCli:
    def test_curve_csv(self, capsys):
        assert main(["curve", "1/2", "3", "--csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["m", "regime", "bound_num", "bound_den", "bound_decimal"]
        assert rows[1][:4] == ["1/2", "lowC", "3", "2"]
        assert rows[2][:4] == ["3/1", "high", "11", "9"]

    def test_curve_table(self, capsys):
        assert main(["curve", "1/2", "3"]) == 0
        assert capsys.readouterr().out == (
            "           m  regime       bound       decimal\n"
            "         1/2  lowC           3/2    1.50000000\n"
            "         3/1  high          11/9    1.22222222\n"
        )

    def test_run_baseline_lower_bound_instance(self, capsys, instance_file):
        code = main(
            ["run", instance_file, "--algorithm", "baseline", "--m", "0",
             "--oracle", "--json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["ratio"] == "3/2"
        assert data["makespan"] == "3/2"
        assert data["violations"] == []

    def test_run_auto_picks_regime(self, capsys, instance_file):
        assert main(["run", instance_file, "--m", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["algorithm"] == "A"

    def test_run_regime_mismatch_errors(self, capsys, instance_file):
        code = main(["run", instance_file, "--algorithm", "B", "--m", "3/5"])
        assert code == 2
        assert "RegimeMismatch" in capsys.readouterr().err

    def test_duel_high(self, capsys):
        code = main(
            ["duel", "high", "A", "--m", "5/2", "--gamma", "1/5", "--json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["achieved_ratio"] == "6/5"
        assert data["claimed_min_ratio"] == "6/5"
        assert data["oracle_checked"] is True

    def test_duel_low_defaults(self, capsys):
        assert main(["duel", "low", "baseline", "--m", "1/4"]) == 0
        out = capsys.readouterr().out
        assert "3/2" in out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["mid", "C", "--m", "3/5", "--gamma", "1/5"], "gamma"),
            (["low", "baseline", "--m", "1/4", "--eps", "1/3"], "eps"),
            (["low", "baseline", "--m", "1/4", "--gamma", "1/5"], "gamma"),
            (["high", "A", "--m", "3", "--gamma", "1/9", "--theta", "3/5"], "theta"),
            (["totalsize", "A", "--m", "1", "--eps", "1/100"], "eps"),
        ],
        ids=["mid-gamma", "low-eps", "low-gamma", "high-theta", "totalsize-eps"],
    )
    def test_duel_refuses_options_of_other_adversaries(self, argv, flag, capsys):
        assert main(["duel", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: ParseError: the {argv[0]} adversary takes no --{flag}\n"

    def test_duel_mid_takes_its_eps(self, capsys):
        assert main(["duel", "mid", "C", "--m", "3/5", "--eps", "1/20", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["adversary_params"] == {"eps": "1/20"}
        assert data["claimed_min_ratio"] == "27/20"

    def test_duel_high_outside_regime(self, capsys):
        assert main(["duel", "high", "A", "--m", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: RegimeMismatch: high adversary needs m >= 5/2, got 1\n"
        )

    @pytest.mark.parametrize("adversary", ["high", "mid", "low", "totalsize"])
    def test_duel_negative_m(self, adversary, capsys):
        assert main(["duel", adversary, "baseline", "--m", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: NegativeM: migration factor must be >= 0, got -1\n"
        )

    def test_duel_totalsize_default_theta(self, capsys):
        assert main(["duel", "totalsize", "greedy-m2", "--m", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["certified_opt"] == "1/1"

    def test_gen_verify_run_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "gen.json")
        assert main(
            ["gen", "--seed", "11", "--gos2", "5", "--gos1", "2", "-o", out]
        ) == 0
        capsys.readouterr()
        assert main(["verify", out, "--oracle", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["valid"] is True
        assert data["oracle_opt"] == "1/1"
        assert main(["run", out, "--m", "3/4", "--oracle"]) == 0

    def test_gen_is_seed_deterministic(self, capsys):
        assert main(["gen", "--gos2", "4", "--gos1", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--gos2", "4", "--gos1", "1"]) == 0
        second = capsys.readouterr().out
        assert first == second
        seeded = ["gen", "--seed", str(DEFAULT_SEED), "--gos2", "4", "--gos1", "1"]
        assert main(seeded) == 0
        assert capsys.readouterr().out == first

    def test_verify_oracle_text(self, capsys, instance_file):
        assert main(["verify", instance_file, "--oracle"]) == 0
        assert capsys.readouterr().out == (
            f"instance : {instance_file}\n"
            "valid    : True\n"
            "oracle   : optimum 1/1 (~1.000000)\n"
        )

    def test_verify_invalid_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"declared_opt": "1/1", "jobs": [{"p": "3/2", "g": 1}]}
            )
        )
        assert main(["verify", str(path)]) == 1

    def test_gen_infeasible_slack_exit_code(self, capsys):
        code = main(
            ["gen", "--seed", "1", "--fill", "slack", "--gos2", "9", "--gos1",
             "2", "--denominator-bound", "8"]
        )
        assert code == 2
        assert "InfeasibleConfig" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        broken, binary = tmp_path / "broken.json", tmp_path / "binary"
        deep = tmp_path / "deep.json"
        broken.write_text("{not json")
        binary.write_bytes(b"\x7fELF\xff\xfe\x00")
        deep.write_text("[" * 100_000)
        for path in (broken, binary, deep):
            for argv in (["run", str(path), "--m", "1"], ["verify", str(path)]):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: ParseError: ") and err.count("\n") == 1

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert main(["gen", "--seed", "1", "-o", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: HierStretchError: cannot write instance")

    def test_suite_oracle_smoke(self, capsys):
        assert main(["suite", "oracle", "--seed", "7", "--count", "20"]) == 0
        out = capsys.readouterr().out
        assert "violations : none" in out

    @pytest.mark.parametrize("suite", ["adversaries", "guarantees", "oracle"])
    def test_suite_negative_count_exit_code(self, capsys, suite):
        assert main(["suite", suite, "--seed", "7", "--count", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ParseError: " + (
            "the adversaries suite takes no --seed\n"
            if suite == "adversaries"
            else "suite count must be >= 0, got -5\n"
        )

    @pytest.mark.parametrize("flag", ["seed", "count"])
    def test_suite_adversaries_refuses_seed_and_count(self, capsys, flag):
        # its duels are fixed: an option it would ignore is refused
        assert main(["suite", "adversaries", f"--{flag}", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ParseError: the adversaries suite takes no --{flag}\n"

    def test_suite_options_default_in_the_suite(self, capsys):
        # an option left out takes the suite function's own default
        assert main(["suite", "oracle", "--json"]) == 0
        first = capsys.readouterr().out
        assert json.loads(first)["runs"] == 200
        assert main(["suite", "oracle", "--seed", str(DEFAULT_SEED), "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_suite_guarantees_smoke(self, capsys):
        assert main(
            ["suite", "guarantees", "--seed", "7", "--count", "25", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["runs"] == 25 * len(ACCEPTANCE_M_VALUES)

    def test_suite_adversaries_smoke(self, capsys):
        assert main(["suite", "adversaries", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["runs"] == len(tightness_duels()) + len(
            FOREIGN_SCHEDULERS
        ) * len(soundness_adversaries())
        # totalsize against greedy-m2 at m = 10 and 100 issues 30 and 278
        # grade-2 jobs, past the oracle's limit
        runs = data["runs"]
        assert data["notes"]["oracle-checked certificates"] == f"{runs - 2} of {runs}"


def test_closed_pipe_exits_quietly():
    # about 150 KB of output: more than a pipe buffer holds
    argv = ["gen", "--seed", "1", "--gos2", "3000", "--gos1", "2",
            "--denominator-bound", "100000"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen(
        [sys.executable, "-m", "hierstretch", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0,
    ) as proc:
        assert proc.stdout.read(16)
        proc.stdout.close()
        err = proc.stderr.read().decode()  # returns once the command exits
    assert proc.returncode == 1
    assert err == ""  # no traceback


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, seed, argv",
    [
        ("run_oracle.json", 11, ["run", "inst.json", "--m", "3", "--oracle", "--json"]),
        ("run.json", 11, ["run", "inst.json", "--m", "3", "--json"]),
        ("run_migrating.json", 4, ["run", "inst4.json", "--m", "1", "--oracle", "--json"]),
        ("verify_oracle.json", 11, ["verify", "inst.json", "--oracle", "--json"]),
        ("duel_high.json", None, ["duel", "high", "A", "--m", "5/2", "--gamma", "1/5", "--json"]),
        ("duel_high.txt", None, ["duel", "high", "A", "--m", "5/2", "--gamma", "1/5"]),
        ("suite_adversaries.txt", None, ["suite", "adversaries"]),
        ("suite_guarantees.txt", None, ["suite", "guarantees", "--seed", "7", "--count", "25"]),
    ],
)
def test_cli_output_is_pinned(golden, seed, argv, tmp_path, monkeypatch, capsys):
    # the full stdout, byte for byte, on an instance from `gen --seed`
    monkeypatch.chdir(tmp_path)
    if seed is not None:
        assert main(["gen", "--seed", str(seed), "-o", argv[1]]) == 0
        capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


class TwoHalves(Adversary):
    """Issues two grade-2 jobs of size 1/2 at m = 1, then stops with
    optimum 1/2."""

    name = "two-halves"
    m = Fraction(1)

    def next(self, state):
        if len(state.jobs) < 2:
            return Job(len(state.jobs) + 1, Fraction(1, 2), 2)
        return Stop(Fraction(1, 2), Fraction(1))


class TestTranscriptText:
    # no built-in scheduler migrates or plays illegally against the
    # built-in games, so a scripted one drives these lines
    def test_moved_line(self, capsys):
        transcript = play_duel(TwoHalves(), "mover", emitting(((1, M1),)), 1)
        harness._print_transcript(transcript, as_json=False)
        assert capsys.readouterr().out == (
            "duel       : two-halves adversary vs mover (m = 1/1)\n"
            "jobs issued: 2\n"
            "  job1   p=1/2          g=2 -> m2\n"
            "  job2   p=1/2          g=2 -> m1  moved job1->m1\n"
            "loads      : machine1 1/1 (~1.000000), machine2 0/1 (~0.000000)\n"
            "certified  : optimum 1/2 (~0.500000)  [oracle-checked]\n"
            "achieved   : ratio 2/1 (~2.000000)\n"
            "claimed    : at least 1/1 (~1.000000)\n"
            "tight bound: 5/4 (~1.250000)\n"
        )

    def test_illegal_play_ends_the_text(self, capsys):
        transcript = play_duel(TwoHalves(), "stayer", emitting(((1, M2),)), 1)
        harness._print_transcript(transcript, as_json=False)
        assert capsys.readouterr().out == (
            "duel       : two-halves adversary vs stayer (m = 1/1)\n"
            "jobs issued: 2\n"
            "  job1   p=1/2          g=2 -> m2\n"
            "scheduler played illegally: IllegalDecision: migration of job 1 "
            "does not change machines\n"
        )
