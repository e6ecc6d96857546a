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
    DuelTranscript,
    Stop,
    play_duel,
    refine_theta,
)
from .algorithms import (
    SCHEDULERS,
    WSelection,
    alg_a,
    alg_b,
    alg_c,
    alg_d,
    all_to_m1,
    baseline_nomig,
    greedy_least_loaded,
    greedy_to_m2,
    scheduler_for_regime,
    select_max_subset,
    select_prefix_max,
    select_prefix_min,
)
from .core import (
    EXACT_SEARCH_LIMIT,
    AssignmentDecision,
    Instance,
    Job,
    LedgerEntry,
    MachineId,
    MigrationLedger,
    Regime,
    RegimeBound,
    ScheduleState,
    ValidationReport,
    apply_decision,
    as_fraction,
    dump_instance,
    fraction_str,
    instance_from_json_dict,
    jobs_from_pairs,
    load_instance,
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
    RunReport,
    RunResult,
    adversary_suite,
    curve_rows,
    guarantee_suite,
    main,
    oracle_suite,
    run_instance,
    run_stream,
)
from .oracle import (
    OptimalPrefixLoads,
    brute_opt,
    opt_prefix_loads,
    prefix_opt_monotone_check,
)

__version__ = "0.1.0"
