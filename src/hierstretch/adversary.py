"""Adaptive lower-bound opponents and the duel harness.

Each adversary watches the scheduler's placements (after migrations have
settled) and either emits the next job or stops with a certified optimal
makespan and the ratio it claims to force against any scheduler that
respects the migration budget.  Adversaries are pure functions of the
observed schedule, which holds every job issued so far, so duels replay
exactly; each parses its m with :func:`core.as_migration_factor`, so a
negative m raises :class:`NegativeM` in every game.  The low (m < 1/2)
and mid (1/2 <= m < 3/4) games are one opener game played with opener
size 1/2 or m + eps.  A duel transcript keeps the issued jobs and the
ledger, whose entries record each applied arrival's decision, migrated
volume and budget.

Only the known-total-size game carries a hand-written migration-proof
check.  The high and opener games are checked in the tests by walking
every legal reply, which is stronger: a check that follows from the
constructor's gate held while the high game was unsound.  The walk
cannot reach the known-total-size game's long sand streams at m >= 10,
so its check stays.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Protocol, Union

from .core import (
    EXACT_SEARCH_LIMIT,
    M1,
    M2,
    Job,
    MigrationLedger,
    ONE,
    Regime,
    ScheduleState,
    ZERO,
    apply_decision,
    as_fraction,
    as_migration_factor,
    json_ready,
    ratio_bound,
)
from .errors import (
    BadCertificate, BadEps, BadGamma, BadTheta, IllegalDecision, ParseError,
    RegimeMismatch,
)
from .oracle import brute_opt


@dataclass(frozen=True)
class Stop:
    """End of the input, with the adversary's certificate.

    Both fields are coerced with :func:`core.as_fraction`; a field that is
    not rational, or a certified optimum that is not positive, raises
    :class:`ParseError`.
    """

    certified_opt: Fraction
    claimed_min_ratio: Fraction

    def __post_init__(self) -> None:
        opt = as_fraction(self.certified_opt)
        if opt <= 0:
            raise ParseError(f"certified optimum must be positive, got {opt}")
        object.__setattr__(self, "certified_opt", opt)
        object.__setattr__(self, "claimed_min_ratio", as_fraction(self.claimed_min_ratio))


NextMove = Union[Job, Stop]


class Adversary(Protocol):
    """What :func:`play_duel` reads from a game.

    The built-in games subclass it and inherit its defaults: no
    parameters and no migration-proof checks.  Only
    :class:`AdvTotalSize` overrides the checks (see the module
    docstring).
    """

    name: str
    m: Fraction

    def params(self) -> dict:
        return {}

    def next(self, state: ScheduleState) -> NextMove: ...

    def migration_proof_checks(self) -> list[tuple[str, bool]]:
        return []


class AdvHigh(Adversary):
    """Forces ratio 1 + gamma for m >= 5/2 and any 0 < gamma < mu; gamma
    defaults to mu * (1 - 1/1000).

    Opens with two large jobs 1-gamma and 1-2*gamma.  If they end up on
    the same machine, six grains of sand of size gamma/2 make the optimum
    1 while the co-located pair already weighs 2-3*gamma.  Otherwise one
    or two closing jobs of grade chosen by the observed split leave some
    machine at 1+gamma; the game stops after the first of them when the
    reply to it already reaches 1+gamma, for instance by migrating one
    large job onto the other.
    """

    name = "high"

    def __init__(self, m, gamma=None) -> None:
        self.m = as_migration_factor(m)
        tight = ratio_bound(self.m)
        if tight.regime is not Regime.HIGH:
            raise RegimeMismatch(f"high adversary needs m >= 5/2, got {self.m}")
        mu = tight.mu
        self.gamma = (
            mu * (1 - Fraction(1, 1000)) if gamma is None else as_fraction(gamma)
        )
        if not 0 < self.gamma < mu:
            raise BadGamma(
                f"gamma must satisfy 0 < gamma < mu = {mu}, got {self.gamma}"
            )

    def params(self) -> dict:
        return {"gamma": self.gamma}

    def next(self, state: ScheduleState) -> NextMove:
        g = self.gamma
        n = len(state.jobs)
        if n == 0:
            return Job(1, 1 - g, 2)
        if n == 1:
            return Job(2, 1 - 2 * g, 2)
        claimed = 1 + g
        if n == 2:
            first, second = state.assignment[1], state.assignment[2]
            if first == second:
                return Job(3, g / 2, 2)  # sand branch
            if first is M1:
                return Job(3, 2 * g, 1)
            return Job(3, 2 * g, 2)
        # the third job's shape encodes which branch was taken
        third = state.jobs[3]
        if third.size == g / 2:
            if n < 8:
                return Job(n + 1, g / 2, 2)
            return Stop(Fraction(1), claimed)
        if n > 3 or third.gos == 1 or state.makespan >= claimed:
            return Stop(Fraction(1), claimed)
        return Job(4, g, 1)


class OpenerGame(Adversary):
    """Forces ratio 2 - s with a grade-2 opener of size s, 1/2 <= s < 1,
    that no later arrival can migrate (m < s).

    A unit job follows: grade 1 if the opener sits on machine 1, which
    then holds 1 + s >= 2 - s; grade 2 otherwise.  If the unit job joins
    the opener on machine 2, that machine holds 1 + s; if it takes machine
    1, a grade-1 filler of size 1 - s leaves machine 1 at 2 - s.  The
    optimum is 1 throughout.  Subclasses set ``m`` and ``opener``.
    """

    opener: Fraction

    def next(self, state: ScheduleState) -> NextMove:
        s = self.opener
        n = len(state.jobs)
        if n == 0:
            return Job(1, s, 2)
        if n == 1:
            return Job(2, ONE, 1 if state.assignment[1] is M1 else 2)
        if n == 2 and state.jobs[2].gos == 2 and state.assignment[2] is M1:
            return Job(3, 1 - s, 1)
        return Stop(ONE, 2 - s)


class AdvMid(OpenerGame):
    """Forces ratio 2 - m - eps for 1/2 <= m < 3/4 (eps 1/1000 by default):
    the opener game with s = m + eps."""

    name = "mid"

    def __init__(self, m, eps=Fraction(1, 1000)) -> None:
        self.m = as_migration_factor(m)
        self.eps = as_fraction(eps)
        if ratio_bound(self.m).regime not in (Regime.LOW_C, Regime.LOW_D):
            raise RegimeMismatch(
                f"mid adversary needs 1/2 <= m < 3/4, got {self.m}"
            )
        if not 0 < self.eps < Fraction(1, 10):
            raise BadEps(f"eps must be in (0, 1/10), got {self.eps}")
        if self.eps.numerator != 1:
            raise BadEps(f"1/eps must be an integer, got {self.eps}")
        self.opener = self.m + self.eps

    def params(self) -> dict:
        return {"eps": self.eps}


class AdvLow(OpenerGame):
    """Forces ratio 3/2 for m < 1/2: the opener game with s = 1/2, so
    migration never helps here."""

    name = "low"
    opener = Fraction(1, 2)

    def __init__(self, m) -> None:
        self.m = as_migration_factor(m)
        if ratio_bound(self.m).regime is not Regime.NO_MIG:
            raise RegimeMismatch(f"low adversary needs m < 1/2, got {self.m}")


THETA_TOLERANCE = Fraction(1, 10**8)


def refine_theta() -> Fraction:
    """One exact Newton step on 4*t^2 + t - 2 from 0.59307.

    It lands within 1e-8 of the positive root (sqrt(33) - 1) / 8, close
    enough for the known-total-size adversary.
    """
    t = Fraction(59307, 100000)
    return t - (4 * t * t + t - 2) / (8 * t + 1)


class AdvTotalSize(Adversary):
    """Known-total-size opponent: ratio stays near 1.186 for every m > 0.

    Declares total size 2, then issues two jobs of size theta (the root of
    4*t^2 + t - 2, so 2*theta = (2 - theta) / (2*theta)) followed by sand
    too fine for any arrival's budget to move a large job.  Sand grade
    depends on whether both large jobs sit on machine 2.  ``theta_hat``
    defaults to :func:`refine_theta`.
    """

    name = "totalsize"

    def __init__(self, m, theta_hat=None) -> None:
        self.m = as_migration_factor(m)
        self.theta = refine_theta() if theta_hat is None else as_fraction(theta_hat)
        if self.m <= 0:
            raise RegimeMismatch(
                f"total-size adversary needs m > 0, got {self.m}"
            )
        residual = 4 * self.theta * self.theta + self.theta - 2
        if abs(residual) >= THETA_TOLERANCE:
            raise BadTheta(
                f"|4*t^2 + t - 2| = {float(abs(residual)):.3e} is not below 1e-8"
            )
        if not Fraction(1, 2) < self.theta < Fraction(2, 3):
            raise BadTheta(f"theta must lie in (1/2, 2/3), got {self.theta}")

        sand_total = 2 - 2 * self.theta
        step = min(self.theta / (2 * self.m), sand_total / 10)
        count = -((-sand_total) // step)  # ceil division on Fractions: an int
        if count % 2:
            count += 1  # an even count lets the optimum split the sand evenly
        self.sand_count = count
        self.sand_size = sand_total / count

    def params(self) -> dict:
        return {"theta": self.theta}

    @property
    def claimed(self) -> Fraction:
        return min(2 * self.theta, (2 - self.theta) / (2 * self.theta))

    def next(self, state: ScheduleState) -> NextMove:
        n = len(state.jobs)
        if n == 0:
            return Job(1, self.theta, 2)
        if n == 1:
            return Job(2, self.theta, 2)
        if n == 2:
            both_on_m2 = state.assignment[1] is M2 and state.assignment[2] is M2
            sand_gos = 2 if both_on_m2 else 1
            return Job(3, self.sand_size, sand_gos)
        if n < 2 + self.sand_count:
            return Job(n + 1, self.sand_size, state.jobs[3].gos)
        if state.jobs[3].gos == 2:
            certified = Fraction(1)  # split one large job plus half the sand
        else:
            certified = 2 * self.theta  # grade-1 sand pins machine 1
        return Stop(certified, self.claimed)

    def migration_proof_checks(self) -> list[tuple[str, bool]]:
        return [
            (
                "no sand arrival can move a large job",
                self.m * self.sand_size < self.theta,
            ),
        ]


ADVERSARIES = {
    "high": AdvHigh,
    "mid": AdvMid,
    "low": AdvLow,
    "totalsize": AdvTotalSize,
}


@dataclass
class DuelTranscript:
    """Complete record of one adversary-versus-scheduler game, and its
    verdict: :meth:`failures` lists every reason the duel fails.
    ``proof_checks`` holds the game's hand-written migration-proof checks,
    which only the known-total-size game has; it is empty for the rest."""

    adversary: str
    adversary_params: dict
    scheduler: str
    m: Fraction
    jobs: list[Job] = field(default_factory=list)
    ledger: MigrationLedger = field(default_factory=MigrationLedger)
    final_loads: tuple[Fraction, Fraction] = (ZERO, ZERO)
    certified_opt: Fraction | None = None
    claimed_min_ratio: Fraction | None = None
    achieved_ratio: Fraction | None = None
    bound: Fraction | None = None
    oracle_checked: bool = False
    proof_checks: list[tuple[str, bool]] = field(default_factory=list)
    illegal: str | None = None

    @property
    def makespan(self) -> Fraction:
        return max(self.final_loads)

    def failures(self, tightness: bool = False) -> list[str]:
        """Why the duel fails, empty if it holds: an illegal play (alone),
        each failing proof check, an unchecked certificate (with
        ``tightness``), a ratio below the claim, and a ratio above the
        tight bound (with ``tightness``)."""
        if self.illegal is not None:
            return [f"scheduler played illegally: {self.illegal}"]
        failures = [
            f"migration-proof check failed: {text}"
            for text, holds in self.proof_checks
            if not holds
        ]
        if tightness and not self.oracle_checked:
            failures.append("certificate not oracle-checked")
        achieved, claimed = self.achieved_ratio, self.claimed_min_ratio
        if achieved is not None and claimed is not None and achieved < claimed:
            failures.append(f"achieved {achieved} below claimed {claimed}")
        if tightness and achieved is not None and achieved > self.bound:
            failures.append(f"ratio {achieved} above bound {self.bound}")
        return failures

    def to_json_dict(self) -> dict:
        entries = self.ledger.entries
        return json_ready({
            "adversary": self.adversary,
            "adversary_params": self.adversary_params,
            "scheduler": self.scheduler,
            "m": self.m,
            "jobs": [{"p": job.size, "g": job.gos} for job in self.jobs],
            "decisions": [
                {
                    "target": entry.decision.target,
                    "migrations": entry.decision.migrations,
                    "step": entry.decision.step,
                }
                for entry in entries
            ],
            "ledger": [
                {
                    "job": entry.job.index,
                    "p": entry.job.size,
                    "migrated": entry.migrated_total,
                    "budget": entry.budget,
                }
                for entry in entries
            ],
            "final_loads": self.final_loads,
            "makespan": self.makespan,
            "certified_opt": self.certified_opt,
            "claimed_min_ratio": self.claimed_min_ratio,
            "achieved_ratio": self.achieved_ratio,
            "bound": self.bound,
            "oracle_checked": self.oracle_checked,
            "proof_checks": [
                {"check": text, "holds": holds} for text, holds in self.proof_checks
            ],
            "illegal": self.illegal,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def play_duel(adversary, scheduler_name: str, scheduler_fn, m) -> DuelTranscript:
    """Run the interactive game to completion.

    The adversary observes the post-migration schedule before every move.
    An illegal scheduler decision (any :class:`IllegalDecision`) ends the
    duel as a scheduler loss, recorded on the transcript.  When the
    emitted stream has at most ``EXACT_SEARCH_LIMIT`` grade-2 jobs, the
    certificate is confirmed against the oracle; a certificate the oracle
    contradicts raises :class:`BadCertificate`.  An m other than the
    adversary's own raises :class:`RegimeMismatch` before any move, and a
    move that is neither a :class:`Job` nor a :class:`Stop` raises
    :class:`ParseError`.
    """
    state = ScheduleState(m)
    if state.m != adversary.m:
        raise RegimeMismatch(
            f"adversary {adversary.name} plays m = {adversary.m}, "
            f"but the duel was given m = {state.m}"
        )
    transcript = DuelTranscript(
        adversary=adversary.name,
        adversary_params=adversary.params(),
        scheduler=scheduler_name,
        m=state.m,
        bound=state.tight.bound,
    )
    while True:
        move = adversary.next(state)
        if isinstance(move, Stop):
            transcript.certified_opt = move.certified_opt
            transcript.claimed_min_ratio = move.claimed_min_ratio
            break
        if not isinstance(move, Job):
            raise ParseError(
                f"adversary {adversary.name} moved {move!r}, not a Job or a Stop"
            )
        job = move
        transcript.jobs.append(job)
        try:
            decision = scheduler_fn(state, job)
            state = apply_decision(state, job, decision, transcript.ledger)
        except IllegalDecision as exc:
            transcript.illegal = f"{type(exc).__name__}: {exc}"
            break

    transcript.final_loads = (state.load1, state.load2)
    transcript.proof_checks = adversary.migration_proof_checks()
    if transcript.illegal is None and transcript.certified_opt is not None:
        transcript.achieved_ratio = transcript.makespan / transcript.certified_opt
        gos2_count = sum(1 for job in transcript.jobs if job.gos == 2)
        if gos2_count <= EXACT_SEARCH_LIMIT:
            opt = brute_opt(transcript.jobs)
            if opt != transcript.certified_opt:
                raise BadCertificate(
                    f"adversary {adversary.name} certified optimum "
                    f"{transcript.certified_opt} but the oracle found {opt}"
                )
            transcript.oracle_checked = True
    return transcript
