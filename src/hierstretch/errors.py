"""Exception types shared across the package."""


class HierStretchError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HierStretchError):
    """Malformed instance file, job field or rational literal."""


class IllegalDecision(HierStretchError):
    """A scheduler decision that cannot be applied to the schedule: a job
    arriving twice, a malformed decision, or a migration listed twice or
    not changing machines."""


class BudgetExceeded(IllegalDecision):
    """A decision migrated more total size than the arrival's budget allows."""


class HierarchyViolation(IllegalDecision):
    """A grade-1 job was placed or moved onto machine 2."""


class UnknownJob(IllegalDecision):
    """A migration referenced a job index that is not in the schedule."""


class NegativeM(HierStretchError):
    """Migration factor below zero."""


class RegimeMismatch(HierStretchError):
    """Scheduler or adversary invoked outside its migration-factor interval."""


class SizeLimit(HierStretchError):
    """Exhaustive search refused: too many candidates for exact enumeration."""


class BadGamma(HierStretchError):
    """Gap parameter for the high-migration adversary out of range."""


class BadEps(HierStretchError):
    """Epsilon for the mid-migration adversary out of range."""


class BadTheta(HierStretchError):
    """Large-job size for the known-total-size adversary is not close enough
    to the root of 4*t^2 + t - 2."""


class BadCertificate(HierStretchError):
    """An adversary certified an optimum that the oracle contradicts."""


class InfeasibleConfig(HierStretchError):
    """Generator configuration cannot produce a valid instance."""
