"""Semi-online bin stretching with migration on two hierarchical machines.

Exact-rational schedulers for every migration factor, the matching
adversarial lower-bound games, a brute-force offline oracle, planted
instance generators, and a verification harness.
"""

from .adversary import (
    ADVERSARIES,
    AdvHigh,
    AdvLow,
    AdvMid,
    AdvTotalSize,
    Stop,
    play_duel,
    refine_theta,
)
from .algorithms import (
    SCHEDULERS,
    alg_a,
    alg_b,
    alg_c,
    alg_d,
    scheduler_for_regime,
    select_max_subset,
    select_prefix_max,
    select_prefix_min,
)
from .core import (
    AssignmentDecision,
    Instance,
    Job,
    MachineId,
    MigrationLedger,
    Regime,
    ScheduleState,
    apply_decision,
    as_fraction,
    fraction_str,
    instance_from_json_dict,
    jobs_from_pairs,
    ratio_bound,
    validate_instance,
)
from .errors import (
    BadEps,
    BadGamma,
    BadTheta,
    BudgetExceeded,
    HierStretchError,
    HierarchyViolation,
    IllegalDecision,
    InfeasibleConfig,
    NegativeM,
    ParseError,
    RegimeMismatch,
    SizeLimit,
    UnknownJob,
)
from .generators import FillMode, GenConfig, generate, random_config
from .harness import (
    curve_rows,
    main,
    run_instance,
    run_stream,
)
from .oracle import (
    brute_opt,
    opt_prefix_loads,
    prefix_opt_monotone_check,
)

__version__ = "0.1.0"
