"""Harness machinery and the command-line interface."""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import pytest

from hierstretch import (
    Instance,
    Job,
    MachineId,
    ParseError,
    SCHEDULERS,
    curve_rows,
    jobs_from_pairs,
    main,
    run_instance,
    run_stream,
)
from hierstretch.harness import (
    ACCEPTANCE_M_VALUES,
    FOREIGN_SCHEDULERS,
    default_seed,
    resolve_algorithm,
    soundness_adversaries,
    tightness_duels,
)
from helpers import emitting, stream

M1, M2 = MachineId.M1, MachineId.M2


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
        ],
    )
    def test_run_stream_records_illegal_decisions(self, jobs, migrations, reason):
        result = run_stream(jobs, emitting(migrations), Fraction(10))
        assert len(result.decisions) == 1
        assert len(result.violations) == 1
        assert "IllegalDecision" in result.violations[0]
        assert reason in result.violations[0]

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

    def test_acceptance_m_values_cover_all_regimes(self):
        names = {resolve_algorithm("auto", m)[0] for m in ACCEPTANCE_M_VALUES}
        assert names == {"A", "B", "C", "D"}


class TestCurve:
    def test_rows(self):
        rows = curve_rows(
            [Fraction(v) for v in ("1/4", "1/2", "3/5", "7/10", "3/4", "1", "5/2", "3", "10")]
        )
        assert [row.bound for row in rows] == [
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

    def test_duel_ignores_options_of_other_adversaries(self, capsys):
        assert main(["duel", "low", "baseline", "--m", "1/4"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["duel", "low", "baseline", "--m", "1/4", "--gamma", "1/5"]
        ) == 0
        assert capsys.readouterr().out == plain

    def test_duel_high_outside_regime(self, capsys):
        assert main(["duel", "high", "A", "--m", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: RegimeMismatch: high adversary needs m >= 5/2, got 1\n"
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

    def test_gen_is_seed_deterministic(self, capsys, monkeypatch):
        monkeypatch.setenv("HIERSTRETCH_SEED", "424242")
        assert default_seed() == 424242
        assert main(["gen", "--gos2", "4", "--gos1", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--gos2", "4", "--gos1", "1"]) == 0
        second = capsys.readouterr().out
        assert first == second

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
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--m", "1"]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_suite_oracle_smoke(self, capsys):
        assert main(["suite", "oracle", "--seed", "7", "--count", "20"]) == 0
        out = capsys.readouterr().out
        assert "violations : none" in out

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
