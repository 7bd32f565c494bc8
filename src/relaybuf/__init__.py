"""Throughput-optimal link selection for a two-hop relay with a finite buffer.

Four mutually cross-checking solution paths:

* :mod:`relaybuf.mdp` -- average-reward solvers (relative value iteration
  and policy iteration) over the queue state space;
* :mod:`relaybuf.chain` -- per-threshold Markov chains over the recurrent
  class, all solved at once by banded GTH state reduction, with the paper's
  rank-one-update sweep kept for its complexity comparison;
* :mod:`relaybuf.symmetric` -- closed forms for the symmetric system;
* :mod:`relaybuf.sim` -- seeded Monte Carlo simulation of any policy.
"""

__version__ = "0.1.0"

from .model import (
    ChannelState,
    ControlAction,
    CsiOnlyPolicy,
    PolicySpec,
    SystemConfig,
    TabularPolicy,
    ThresholdPolicy,
    optimal_rates,
    select_action,
    step_queue,
    validate_config,
)
from .mdp import (
    SolverSettings,
    StructureReport,
    ValueFunction,
    check_value_properties,
    extract_threshold,
    policy_iteration_solve,
    relay_activation_state,
    rvia_solve,
    state_action_reward,
)
from .chain import (
    ChainModel,
    PartitionedSystem,
    RecurrentStructure,
    SteadyState,
    SweepResult,
    build_transition_matrix,
    departure_rates,
    map_threshold_set,
    optimal_threshold_search,
    rank_one_inverse_update,
    rank_one_search,
    recurrent_class,
    steady_state_direct,
    sweep_flop_counts,
    threshold_throughput,
    tie_maximizers,
)
from .symmetric import (
    SymmetricConfig,
    symmetric_config_of,
    symmetric_objective,
    symmetric_optimal_threshold,
    symmetric_steady_state,
    symmetric_throughput,
)
from .sim import (
    SimResult,
    SimSettings,
    baseline_policy,
    compare,
    dominance_check,
    sample_channel,
    simulate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
