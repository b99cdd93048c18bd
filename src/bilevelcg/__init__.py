"""Projection-free solvers for simple bilevel optimization: minimize a
smooth upper-level objective over the solution set of a convex lower-level
problem on a compact convex region, using only linear minimization oracles."""

from .core import (
    Answer,
    BallProduct,
    BilevelInstance,
    ConfigurationError,
    ConstantStep,
    Halfspace,
    Harmonic,
    InvSqrt,
    L1Ball,
    OracleError,
    Polytope,
    ProductRegion,
    QuadraticForm,
    ReferenceData,
    SmoothOracle,
    SolveOutcome,
    SolverConfig,
    TraceRow,
    cutting_plane,
)
from .harness import (
    HoelderParams,
    RunRecord,
    fairness_metrics,
    hoelder_estimate,
    value_transfer_check,
    recovery_rate,
    reference_bilevel,
    reference_lower,
    run_experiment,
    true_fw_gap,
)
from .oracles import halfspace_lmo, lmo, project
from .problems import (
    DatasetSplit,
    DictLearnSpec,
    dictionary_problem,
    fair_classification_problem,
    load_csv,
    regression_problem,
    toy_problem,
)
from .solvers import (
    AIrgConfig,
    BigSamConfig,
    DbgdConfig,
    MngConfig,
    a_irg,
    big_sam,
    cg_bio,
    dbgd,
    initialize_lower,
    mng,
    standard_cg,
)

__all__ = [name for name in dir() if not name.startswith("_")]
