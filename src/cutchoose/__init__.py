"""Cut-and-choose verified delegation on desk-scale instances.

A client hides one real computation among trap rounds and accepts only if
the traps pass. This package simulates that protocol family exactly and by
seeded sampling, implements the single-qubit phase-rotation cheating
strategy, computes correctness and security errors under a fidelity-based
and a trace-distance-based definition, and certifies the resulting
efficiency/security trade-off bounds — including the general variant with
entangled tests wired through channel networks.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContractViolationError,
    DimensionCapError,
    LayoutError,
    NotPsdError,
    OutOfDomainError,
    UnsupportedStrategyError,
)
from .linalg import (
    DIM_CAP,
    DensityOperator,
    PureState,
    fidelity,
    fidelity_psd,
    hermitian_eig,
    psd_sqrt,
    pure_trace_distance,
    trace_norm,
)
from .states import (
    AbortExtendedState,
    PovmElement,
    attack_operator,
    bell_pair,
    computational_basis_state,
    phase_gate,
    plus_state,
)
from .strategies import (
    HONEST,
    Honest,
    PhaseAttack,
    Placement,
    ProtocolVariant,
    SecurityModel,
    ServerStrategy,
    attack_sine,
    optimal_alpha,
    transform_round,
)
from .protocol import (
    PerRoundAcceptance,
    ProtocolSpec,
    RoundDistribution,
    RoundOutcomeTable,
    TrapGenerator,
    client_output_state,
    monte_carlo_run,
    overall_acceptance,
    round_outcome_table,
)
from .families import (
    ComputationalTraps,
    PlusTraps,
    RandomTraps,
    computational_acceptance,
    matched_acceptance,
    plus_acceptance,
)
from .bounds import (
    ProofStep,
    TradeoffReport,
    epsilon_d_composable,
    epsilon_d_standalone,
    epsilon_h,
    run_tradeoff_check,
    theorem_bound,
)
from .combs import (
    Channel,
    Comb,
    GeneralSetup,
    GeneralTest,
    bell_test_setup,
    general_tradeoff_check,
    plug,
    general_test_acceptance,
    trivial_parallel_comb,
)
from .config import ScenarioConfig, parse_config
from .report import ReportBundle, emit, emit_bytes, run_scenario
