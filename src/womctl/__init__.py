"""Finite decentralized control with word-of-mouth information sharing."""

from .topology import DelayMatrix, InfoPath, Link, Topology, information_path, min_delay_matrix, validate_topology
from .infostruct import (
    InfoSet,
    Kind,
    Realization,
    VarLabel,
    accessible_labels,
    enumerate_realizations,
    inaccessible_labels,
    memory_labels,
    new_info_labels,
)
from .scenario import (
    Distribution,
    FiniteSpace,
    Policy,
    Scenario,
    Trajectory,
    joint_distribution,
    simulate,
)
from .scenario_io import load_scenario, loads_scenario
from .prescription import (
    CompletePrescription,
    FullStrategy,
    PrescriptionFunction,
    act,
    policy_to_strategy,
    positional_transfer,
    prescription_domain,
    strategy_to_policy,
)
from .belief import (
    BeliefState,
    belief_from_scratch,
    belief_update,
    expected_cost,
    stage_cost_hat,
    state_step,
    sufficient_state_space,
)
from .solver import (
    DomainReport,
    SolveResult,
    brute_force_optimal,
    common_info_dp,
    domain_comparison,
    evaluate_policy,
    evaluate_strategy,
    structural_search,
)

__version__ = "0.1.0"
