"""toruslab: a numerical laboratory for systems with a unique or isolated
invariant torus carrying linear (Kronecker) flow.

The package ships four analytic families (Hamiltonian and reversible, each in
a non-compact and a compactified variant), exact first integrals and
involutions for them, structure-aware integrators, and the verification
machinery (Kronecker checks, Poincare return maps, monodromy, frequency
measurement, uniqueness surveys) used to interrogate them.
"""

__version__ = "0.1.0"

from . import errors
from .phase import (
    CoordinateLayout,
    MixedPoint,
    ModularDomain,
    in_modular_domain,
    torus_distance,
    wrap_angle,
)
from .systems import (
    CONTROL,
    FAMILIES,
    HAM_COMPACT,
    HAM_UNIQUE,
    REV_COMPACT,
    REV_UNIQUE,
    NearbyTorusSpec,
    System,
    SystemParams,
    TorusSpec,
    apply_involution,
    build_control_system,
    build_system,
    canonical_torus,
    delta_tori,
    isolation_domain,
    lyapunov_rate,
    nearby_torus,
    torus_point,
)
from .integrators import (
    IntegratorConfig,
    Trajectory,
    integrate,
    integrate_batch,
    integrate_variational,
)
from .analysis import (
    Section,
    bracket_matrix,
    circulation_period,
    find_fixed_point,
    integral_jacobian_rank,
    measure_frequencies,
    monodromy,
    poincare_linearization,
    poincare_map,
    reversibility_deviations,
    survey_uniqueness,
    verify_kronecker,
)
from .dsl import (
    cross_check_fields,
    differentiate,
    eval_expr,
    format_hamiltonian_file,
    free_variables,
    hamiltonian_vector_field,
    parse_hamiltonian_file,
    prove_reversibility,
    shipped_hamiltonians,
)
from .svgplot import PlotStyle, plot_svg, trajectory_series

__all__ = [
    "__version__",
    "errors",
    "CoordinateLayout",
    "MixedPoint",
    "ModularDomain",
    "in_modular_domain",
    "torus_distance",
    "wrap_angle",
    "CONTROL",
    "FAMILIES",
    "HAM_COMPACT",
    "HAM_UNIQUE",
    "REV_COMPACT",
    "REV_UNIQUE",
    "NearbyTorusSpec",
    "System",
    "SystemParams",
    "TorusSpec",
    "apply_involution",
    "build_control_system",
    "build_system",
    "canonical_torus",
    "delta_tori",
    "isolation_domain",
    "lyapunov_rate",
    "nearby_torus",
    "torus_point",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "integrate_batch",
    "integrate_variational",
    "Section",
    "bracket_matrix",
    "circulation_period",
    "find_fixed_point",
    "integral_jacobian_rank",
    "measure_frequencies",
    "monodromy",
    "poincare_linearization",
    "poincare_map",
    "reversibility_deviations",
    "survey_uniqueness",
    "verify_kronecker",
    "cross_check_fields",
    "differentiate",
    "eval_expr",
    "format_hamiltonian_file",
    "free_variables",
    "hamiltonian_vector_field",
    "parse_hamiltonian_file",
    "prove_reversibility",
    "shipped_hamiltonians",
    "PlotStyle",
    "plot_svg",
    "trajectory_series",
]
