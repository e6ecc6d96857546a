"""Adversary games: parameter gates, duel traces, certification, soundness."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest

from hierstretch import (
    AdvHigh,
    AdvLow,
    AdvMid,
    AdvTotalSize,
    AssignmentDecision,
    BadEps,
    BadGamma,
    BadTheta,
    Job,
    MachineId,
    RegimeMismatch,
    SCHEDULERS,
    Stop,
    brute_opt,
    play_duel,
    ratio_bound,
    refine_theta,
)
from helpers import emitting

M1, M2 = MachineId.M1, MachineId.M2

THETA = refine_theta()


def duel(adv, scheduler_name):
    return play_duel(adv, scheduler_name, SCHEDULERS[scheduler_name], adv.m)


class TestHighAdversary:
    def test_parameter_gates(self):
        with pytest.raises(BadGamma):
            AdvHigh(Fraction(3), Fraction(2, 9))  # gamma must be strictly below mu
        with pytest.raises(BadGamma):
            AdvHigh(Fraction(3), Fraction(0))
        with pytest.raises(RegimeMismatch):
            AdvHigh(Fraction(2), Fraction(1, 10))

    def test_beats_matching_algorithm_by_gamma(self):
        transcript = duel(AdvHigh(Fraction(5, 2), Fraction(1, 5)), "A")
        assert transcript.achieved_ratio == Fraction(6, 5)
        assert transcript.claimed_min_ratio == Fraction(6, 5)
        assert transcript.certified_opt == 1
        assert transcript.oracle_checked
        # observed script: opener to machine 2, the rest to machine 1
        targets = [dec.target for dec in transcript.decisions]
        assert targets == [M2, M1, M1, M1]

    def test_same_machine_branch_plays_sand(self):
        transcript = duel(AdvHigh(Fraction(5, 2), Fraction(1, 5)), "greedy-m2")
        sizes = [job.size for job in transcript.jobs]
        assert sizes[2:] == [Fraction(1, 10)] * 6
        assert transcript.makespan >= Fraction(7, 5)  # 2 - 3*gamma
        assert transcript.achieved_ratio >= transcript.claimed_min_ratio
        assert transcript.oracle_checked

    def test_first_on_m1_branch(self):
        transcript = duel(AdvHigh(Fraction(5, 2), Fraction(1, 5)), "all-m1")
        # both larges pile on machine 1, so the sand branch fires
        assert len(transcript.jobs) == 8
        assert transcript.achieved_ratio >= transcript.claimed_min_ratio

    def test_split_first_to_m1_branch(self):
        # opener on machine 1, second on machine 2: one grade-1 closer
        def contrarian(state, job, m):
            if not state.jobs and job.gos == 2:
                return AssignmentDecision(M1)
            return AssignmentDecision(M2 if job.gos == 2 else M1)

        gamma = Fraction(1, 5)
        transcript = play_duel(
            AdvHigh(Fraction(5, 2), gamma), "contrarian", contrarian, Fraction(5, 2)
        )
        assert len(transcript.jobs) == 3
        assert transcript.jobs[2].gos == 1
        assert transcript.final_loads[0] == 1 + gamma
        assert transcript.achieved_ratio == 1 + gamma
        assert transcript.oracle_checked

    def test_migration_proof_checks(self):
        transcript = duel(AdvHigh(Fraction(3), Fraction(1, 9)), "A")
        assert all(holds for _, holds in transcript.proof_checks)


class TestMidAdversary:
    def test_parameter_gates(self):
        with pytest.raises(BadEps):
            AdvMid(Fraction(3, 5), Fraction(1, 5))
        with pytest.raises(BadEps):
            AdvMid(Fraction(3, 5), Fraction(2, 15))  # 1/eps not integral
        with pytest.raises(RegimeMismatch):
            AdvMid(Fraction(3, 4), Fraction(1, 100))

    def test_forces_gap_of_eps_against_c(self):
        transcript = duel(AdvMid(Fraction(3, 5), Fraction(1, 100)), "C")
        assert transcript.achieved_ratio == Fraction(139, 100)
        assert transcript.claimed_min_ratio == Fraction(139, 100)
        assert transcript.oracle_checked

    def test_against_baseline(self):
        transcript = duel(AdvMid(Fraction(1, 2), Fraction(1, 100)), "baseline")
        assert transcript.achieved_ratio == Fraction(149, 100)

    def test_both_on_m2_branch(self):
        transcript = duel(AdvMid(Fraction(1, 2), Fraction(1, 100)), "greedy-m2")
        assert len(transcript.jobs) == 2
        assert transcript.final_loads[1] == Fraction(151, 100)
        assert transcript.achieved_ratio >= transcript.claimed_min_ratio


class TestLowAdversary:
    def test_regime_gate(self):
        with pytest.raises(RegimeMismatch):
            AdvLow(Fraction(1, 2))
        with pytest.raises(RegimeMismatch):
            AdvLow(Fraction(-1))

    def test_baseline_hits_three_halves(self):
        transcript = duel(AdvLow(Fraction(1, 4)), "baseline")
        assert transcript.achieved_ratio == Fraction(3, 2)
        assert transcript.certified_opt == 1
        assert transcript.oracle_checked

    def test_all_m1_branch(self):
        transcript = duel(AdvLow(Fraction(0)), "all-m1")
        assert len(transcript.jobs) == 2
        assert transcript.jobs[1].gos == 1
        assert transcript.achieved_ratio == Fraction(3, 2)

    def test_near_half_budget_still_locked(self):
        for name in ("baseline", "greedy-m2", "least-loaded", "all-m1"):
            transcript = duel(AdvLow(Fraction(49, 100)), name)
            assert transcript.achieved_ratio >= Fraction(3, 2)
            assert all(holds for _, holds in transcript.proof_checks)


class TestTotalSizeAdversary:
    def test_theta_gate(self):
        with pytest.raises(BadTheta):
            AdvTotalSize(Fraction(1), Fraction(59307, 100000))
        with pytest.raises(BadTheta):
            AdvTotalSize(Fraction(1), Fraction(3, 5) + Fraction(1, 10))
        with pytest.raises(RegimeMismatch):
            AdvTotalSize(Fraction(0), THETA)

    def test_refined_theta_is_close(self):
        residual = 4 * THETA * THETA + THETA - 2
        assert abs(residual) < Fraction(1, 10**8)
        assert Fraction(1, 2) < THETA < Fraction(2, 3)

    def test_split_branch_forces_ratio(self):
        transcript = duel(AdvTotalSize(Fraction(1), THETA), "baseline")
        assert transcript.jobs[2].gos == 1  # larges split, sand is grade 1
        assert transcript.certified_opt == 2 * THETA
        assert transcript.achieved_ratio >= transcript.claimed_min_ratio
        assert transcript.makespan == 2 - THETA

    def test_collocated_branch_forces_ratio(self):
        transcript = duel(AdvTotalSize(Fraction(1), THETA), "greedy-m2")
        assert transcript.jobs[2].gos == 2
        assert transcript.certified_opt == 1
        assert transcript.oracle_checked
        assert transcript.achieved_ratio >= 2 * THETA

    def test_sand_is_too_fine_to_move_larges(self):
        for m in (Fraction(1), Fraction(10), Fraction(100)):
            adv = AdvTotalSize(m, THETA)
            assert m * adv.sand_size < THETA
            assert adv.sand_count % 2 == 0
            assert adv.sand_count * adv.sand_size == 2 - 2 * THETA

    def test_claimed_value(self):
        adv = AdvTotalSize(Fraction(1), THETA)
        assert adv.claimed == min(2 * THETA, (2 - THETA) / (2 * THETA))
        assert abs(float(adv.claimed) - 1.18614) < 1e-4


class TestDefaults:
    def test_parameters_default_inside_their_ranges(self):
        m = Fraction(3)
        assert AdvHigh(m).gamma == ratio_bound(m).mu * Fraction(999, 1000)
        assert AdvMid(Fraction(3, 5)).eps == Fraction(1, 1000)
        assert AdvTotalSize(Fraction(1)).theta == THETA

    def test_high_checks_regime_before_defaulting(self):
        with pytest.raises(RegimeMismatch):
            AdvHigh(Fraction(1))

    def test_explicit_parameter_overrides_default(self):
        assert AdvHigh(Fraction(5, 2), "1/5").gamma == Fraction(1, 5)
        assert AdvMid(Fraction(3, 5), "1/100").eps == Fraction(1, 100)


class TestDuelMechanics:
    def test_certificates_match_oracle(self):
        pairs = [
            (AdvHigh(Fraction(5, 2), Fraction(1, 5)), "A"),
            (AdvMid(Fraction(3, 5), Fraction(1, 100)), "C"),
            (AdvMid(Fraction(7, 10), Fraction(1, 100)), "D"),
            (AdvLow(Fraction(1, 4)), "baseline"),
        ]
        for adv, name in pairs:
            transcript = duel(adv, name)
            assert transcript.oracle_checked
            assert brute_opt(transcript.jobs) == transcript.certified_opt

    def test_replay_is_deterministic(self):
        first = duel(AdvHigh(Fraction(3), Fraction(1, 5)), "least-loaded")
        second = duel(AdvHigh(Fraction(3), Fraction(1, 5)), "least-loaded")
        assert first.to_json() == second.to_json()

    def test_transcript_serializes(self):
        transcript = duel(AdvMid(Fraction(3, 5), Fraction(1, 100)), "C")
        data = json.loads(transcript.to_json())
        assert data["adversary"] == "mid"
        assert data["scheduler"] == "C"
        assert data["m"] == "3/5"
        assert data["achieved_ratio"] == "139/100"
        assert data["oracle_checked"] is True
        assert len(data["jobs"]) == len(data["decisions"]) == 3

    def test_illegal_scheduler_recorded_as_loss(self):
        def cheat(state, job, m):
            if state.jobs:
                # try to drag the opener along: over budget for m < 1/2
                return AssignmentDecision(M1, migrations=((1, M1),))
            return AssignmentDecision(M2)

        transcript = play_duel(AdvLow(Fraction(1, 4)), "cheat", cheat, Fraction(1, 4))
        assert transcript.illegal is not None
        assert "BudgetExceeded" in transcript.illegal
        assert transcript.achieved_ratio is None

    @pytest.mark.parametrize(
        "migrations, reason",
        [
            (((1, M1), (1, M1)), "listed twice"),
            (((1, M2),), "does not change machines"),
            (((1,),), "not an (int, machine) pair"),
            (((1, M1, M2),), "not an (int, machine) pair"),
        ],
    )
    def test_illegal_migrations_recorded_as_loss(self, migrations, reason):
        scheduler = emitting(migrations)
        transcript = play_duel(AdvLow(Fraction(1, 4)), "bad", scheduler, Fraction(1, 4))
        assert transcript.illegal.startswith("IllegalDecision: ")
        assert reason in transcript.illegal
        assert transcript.achieved_ratio is None

    def test_reused_job_index_recorded_as_loss(self):
        class Repeater:
            name = "repeater"
            m = Fraction(1)

            def params(self):
                return {}

            def next(self, state, issued):
                if len(issued) < 2:
                    return Job(1, Fraction(1, 2), 2)
                return Stop(Fraction(1), Fraction(1))

            def migration_proof_checks(self):
                return []

        transcript = play_duel(
            Repeater(), "greedy-m2", SCHEDULERS["greedy-m2"], Fraction(1)
        )
        assert transcript.illegal == "IllegalDecision: job 1 already scheduled"

    def test_soundness_against_naive_schedulers(self):
        adversaries = [
            AdvHigh(Fraction(5, 2), ratio_bound(Fraction(5, 2)).mu * Fraction(999, 1000)),
            AdvHigh(Fraction(4), Fraction(1, 11)),
            AdvMid(Fraction(11, 20), Fraction(1, 50)),
            AdvLow(Fraction(1, 3)),
            AdvTotalSize(Fraction(2), THETA),
        ]
        for adv in adversaries:
            for name in ("greedy-m2", "least-loaded", "all-m1"):
                transcript = duel(adv, name)
                assert transcript.illegal is None
                assert transcript.achieved_ratio >= transcript.claimed_min_ratio
