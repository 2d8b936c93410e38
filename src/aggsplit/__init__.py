"""Equilibrium seeking in average aggregative games with coupled constraints.

A solver library built around a preconditioned reflected-resolvent
splitting: per-agent proximal updates, a closed-form central update, and
an aggregate-only communication pattern between agents and coordinator,
together with a projected pseudo-gradient baseline and a randomized
resource-allocation benchmark.
"""

from .benchmark import (
    BenchmarkParams,
    ExperimentReport,
    benchmark_steps,
    epsilon_nash_gap,
    gae_vi_residual,
    generate_benchmark,
    ground_truth,
    ground_truth_point,
    run_comparison,
)
from .engine import (
    AgentState,
    AggregateMessage,
    BroadcastMessage,
    CoordinatorState,
    DrEngine,
    RunConfig,
    RunTrace,
    agent_update,
    coordinator_update,
    dr_init,
    raw_dr_step,
    raw_initial_tilde,
    run_dr,
    run_pfb,
)
from .errors import (
    AggsplitError,
    DimensionMismatch,
    EmptyLocalSet,
    EmptySet,
    GenerationFailed,
    Infeasible,
    InvalidStepSizes,
    MaxItersExceeded,
    NoConvergence,
    NonSmoothCost,
    NotCertified,
)
from .game import (
    AgentSpec,
    BoxSimplex,
    CostModel,
    Dimensions,
    GameSpec,
    GenericSmooth,
    QuadraticAgg,
    ValidationReport,
    average,
    coupling_violation,
    find_feasible_point,
    validate_game,
)
from .operators import (
    ExtendedPoint,
    KktResidual,
    ProbeReport,
    apply_S,
    extended_subdifferential,
    kkt_residual,
    monotonicity_probe,
    stationarity_residual,
)
from .projections import fista_minimize, project_box_simplex, project_box_simplex_batch
from .resolvents import StepSizes, local_prox, resolvent_A, resolvent_B

__version__ = "0.1.0"
