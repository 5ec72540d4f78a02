"""Exact-arithmetic toolkit for congestion games.

Submodules: `core` (game model), `dynamics` (best-response oracles and
baseline dynamics), `solver` (phased approximate-equilibrium schedule),
`verify` (exact verification and brute-force oracles), `hardness` (Flip
local search and the circuit-to-game builders), `generators` (seeded random
instances), `cli` (command line front end).
"""

from .core import (
    CongestionGame,
    LatencyFunction,
    State,
    SubgameView,
    aggregate_metrics,
    deviation_cost,
    load_profile,
    player_cost,
    rosenthal_potential,
    to_fraction,
)
from .dynamics import (
    MoveRecord,
    RunTrace,
    best_response,
    epsilon_br_dynamics,
    find_threshold_move,
    optimistic_cost,
)
from .errors import (
    BudgetExceededError,
    CongestionGameError,
    ContractViolationError,
    GenerationError,
    ParameterError,
    ValidationError,
)
from .generators import GenSpec, generate
from .hardness import (
    Bundle,
    FlipInstance,
    GadgetParams,
    build_flip_game,
    derive_subcircuits,
    flip_is_local_min,
    flip_objective,
    pair_to_linear,
    positivize,
    structural_check,
)
from .solver import (
    BlockPartition,
    SolverConfig,
    approximation_bound,
    move_bound,
    parameters,
    partition_blocks,
    solve,
    theta,
)
from .verify import (
    ApproxReport,
    AuditReport,
    approximation_factor,
    audit_identities,
    brute_min_potential,
    enumerate_equilibria,
)

__all__ = [
    "ApproxReport",
    "AuditReport",
    "BlockPartition",
    "BudgetExceededError",
    "Bundle",
    "CongestionGame",
    "CongestionGameError",
    "ContractViolationError",
    "FlipInstance",
    "GadgetParams",
    "GenSpec",
    "GenerationError",
    "LatencyFunction",
    "MoveRecord",
    "ParameterError",
    "RunTrace",
    "SolverConfig",
    "State",
    "SubgameView",
    "ValidationError",
    "aggregate_metrics",
    "approximation_bound",
    "approximation_factor",
    "audit_identities",
    "best_response",
    "brute_min_potential",
    "build_flip_game",
    "derive_subcircuits",
    "deviation_cost",
    "enumerate_equilibria",
    "epsilon_br_dynamics",
    "find_threshold_move",
    "flip_is_local_min",
    "flip_objective",
    "generate",
    "load_profile",
    "move_bound",
    "optimistic_cost",
    "pair_to_linear",
    "parameters",
    "partition_blocks",
    "player_cost",
    "positivize",
    "rosenthal_potential",
    "solve",
    "structural_check",
    "theta",
    "to_fraction",
]
