"""Black-box configuration tuning with meta multi-objectivized search models."""

from .harness import (
    ALL_MODELS,
    DEFAULT_WEIGHTS,
    PRESETS,
    ExperimentPlan,
    build_oracle,
    build_report,
    data_driven_weight_selection,
    derive_seed,
    emit_trace,
    execute_run,
    preliminary_weight_selection,
    recompute_report,
    run_campaign,
    write_campaign,
)
from .measurement import (
    BudgetExhausted,
    CommandOracle,
    MeasurementRecord,
    SyntheticOracle,
    TabularOracle,
    load_table,
)
from .models import (
    PMO,
    MmoInstance,
    NormalizationBounds,
    fast_nondominated_sort,
    meta_objectives,
    pmo_objectives,
    to_minimization,
)
from .optimizers import (
    OptimizerConfig,
    boundary_mutation,
    crowding_distance,
    run_nsga2,
    run_rs,
    run_sa,
    run_shc_restart,
    run_soga,
    uniform_crossover,
)
from .space import Configuration, OptionSpace, OptionSpec, load_space, parse_space
from .stats import (
    StatResult,
    a12,
    a12_magnitude,
    compare_results,
    efficiency_ratio,
    normalized_gain,
    pick_best_counterpart,
    scott_knott,
    utopian,
    wilcoxon_signed_rank,
)
from .trace import RunTrace

__all__ = [name for name in dir() if not name.startswith("_")]
