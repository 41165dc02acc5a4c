"""Simulator and stability-certificate toolkit for uncertain traffic networks.

Discrete-time cell networks with supply-limited flow exchange: build or load
a network and its uncertain demand/supply curves, solve the uncongested
equilibrium, certify robust exponential stability (weights, invariant box,
drain constants, comparison matrix, trapping bound), synthesize the metering
law, and simulate open- or closed-loop scenarios.
"""

from .control import (ControllerConfig, control_law, h_map, load_controller,
                      save_controller, synthesize)
from .diagrams import (DemandAudit, DemandFunction, DiagramSet, Piece,
                       SupplyFunction, SupplyMarginAudit, audit_demand_curve,
                       audit_supply_margin, eval_demand, eval_supply,
                       load_diagrams, save_diagrams)
from .dynamics import FlowBreakdown, compute_flows, is_uncongested, step
from .equilibrium import (EquilibriumPair, equilibrium_flows,
                          equilibrium_residual, fit_supply_scale, solve_uep)
from .errors import (DimensionError, DomainError, InfeasibleInflow,
                     MisuseError, NonUniformEquilibrium, NumericalError,
                     StructuralError, ThrottleBoundViolation,
                     TrappingInfeasible)
from .harness import (ControlSpec, DecayFit, DisturbanceSpec, GridlockReport,
                      ScenarioConfig, TrajectoryRecord, estimate_decay,
                      export_csv, gridlock_demo, mass_balance_residuals,
                      reproduce_suite, run_scenario)
from .network import (AcyclicityError, NetworkSpec, TopologicalOrder,
                      Violation, find_cycle, load_network, save_network,
                      topological_sort, validate_spec)
from .stability import (ContractionReport, DrainConstants, DrainProblem,
                        StabilityCertificate, ThrottleBound, build_gamma,
                        certify, contraction_check, drain_constants,
                        invariant_region, lyapunov_eval, spectral_radius,
                        trapping_bound, weights_r, weights_xi)

__version__ = "0.1.0"

__all__ = [
    "AcyclicityError", "ContractionReport", "ControlSpec", "ControllerConfig",
    "DecayFit", "DemandAudit", "DemandFunction", "DiagramSet",
    "DimensionError", "DisturbanceSpec", "DomainError", "DrainConstants",
    "DrainProblem", "EquilibriumPair", "FlowBreakdown", "GridlockReport",
    "InfeasibleInflow", "MisuseError", "NetworkSpec", "NonUniformEquilibrium",
    "NumericalError", "Piece", "ScenarioConfig", "StabilityCertificate",
    "StructuralError", "SupplyFunction", "SupplyMarginAudit", "ThrottleBound",
    "ThrottleBoundViolation", "TopologicalOrder", "TrajectoryRecord",
    "TrappingInfeasible", "Violation", "audit_demand_curve",
    "audit_supply_margin", "build_gamma", "certify", "compute_flows",
    "contraction_check", "control_law", "drain_constants", "equilibrium_flows",
    "equilibrium_residual", "estimate_decay", "eval_demand", "eval_supply",
    "export_csv", "find_cycle", "fit_supply_scale", "gridlock_demo", "h_map",
    "invariant_region", "is_uncongested", "load_controller", "load_diagrams",
    "load_network", "lyapunov_eval", "mass_balance_residuals",
    "reproduce_suite", "run_scenario", "save_controller", "save_diagrams",
    "save_network", "solve_uep", "spectral_radius", "step", "synthesize",
    "topological_sort", "trapping_bound", "validate_spec", "weights_r",
    "weights_xi",
]
