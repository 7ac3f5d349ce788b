"""Stationary analysis of production-inventory networks with a shared supplier.

Several make-to-order production sites each hold a local base-stock
inventory; one shared supplier rebuilds the stocks item by item, always
routing to the site(s) with the largest deficit (ties split evenly).  The
joint stationary law factorizes into independent geometric-tailed queue
marginals and a finite inventory measure, which this package computes by
four mutually cross-validating routes: a direct linear-algebra solve (or,
for large boxes, an iterative aggregation-disaggregation solve), a closed
form for unit base stocks, a recursive balance-equation elimination for
two locations, and event-driven simulation.
"""

from .analysis import (
    ErgodicityReport,
    HeterogeneousCutReport,
    LocationDiagnostic,
    QueueMarginal,
    check_cut_heterogeneous,
    check_cut_homogeneous,
    check_symmetry,
    ergodicity_check,
    inventory_marginal,
    queue_marginal,
    total_variation,
)
from .closed_form import theta_unit_base_stock, unit_base_stock_weights
from .errors import (
    ConfigError,
    DegenerateEliminationError,
    ErgodicityError,
    PreconditionError,
    QinetError,
    SequencingError,
    SolverError,
)
from .exact import solve_theta_exact, solve_theta_iad
from .generator import ReducedGenerator, build_reduced_generator
from .model import (
    NetworkConfig,
    ServiceRateProfile,
    ThetaMeasure,
    enumerate_inventory_states,
    method_inapplicable,
)
from .recursive import solve_theta_recursive
from .simulate import SimulationResult, decoupling_test, merge_results, simulate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateEliminationError",
    "ErgodicityError",
    "ErgodicityReport",
    "HeterogeneousCutReport",
    "LocationDiagnostic",
    "NetworkConfig",
    "PreconditionError",
    "QinetError",
    "QueueMarginal",
    "ReducedGenerator",
    "SequencingError",
    "ServiceRateProfile",
    "SimulationResult",
    "SolverError",
    "ThetaMeasure",
    "build_reduced_generator",
    "check_cut_heterogeneous",
    "check_cut_homogeneous",
    "check_symmetry",
    "decoupling_test",
    "enumerate_inventory_states",
    "ergodicity_check",
    "inventory_marginal",
    "merge_results",
    "queue_marginal",
    "method_inapplicable",
    "simulate",
    "solve_theta_exact",
    "solve_theta_iad",
    "solve_theta_recursive",
    "theta_unit_base_stock",
    "total_variation",
    "unit_base_stock_weights",
]
