"""Exact invariant-curve machinery for traveling-wave reductions of nonlinear PDEs."""

from .qfield import (
    QuadExt,
    RadicandMismatchError,
    Rat,
    field_sqrt,
    parse_quadext,
    pochhammer,
)
from .poly import MultiPoly, VarRegistry, sylvester_resultant, trial_divide
from .exprparse import ExprSyntaxError
from .pde import DerivSymbol, PDESpec, PDESyntaxError, bind_params, parse_pde
from .reduction import (
    DegenerateSpeedError,
    Equilibrium,
    EquilibriumContinuumError,
    ODESystemSpec,
    PlanarSystem,
    ReductionError,
    equilibria,
    jacobian_eigen,
    to_planar,
    travelling_wave_reduce,
)
from .darboux import (
    CurveSearch,
    DarbouxResult,
    cofactor_residual,
    search_constant_cofactor,
    solve_fixed_cofactor,
)
from .fisher import (
    FRONT_SPEED,
    FRONT_SPEED_SQUARED,
    CurveCertificate,
    certify,
    enumerate_speeds,
    exact_front_curve,
    front_system,
)
from .closedform import (
    ExpRational,
    PRelation,
    exp_rational_membership,
    p_from_exp_rational,
    solve_logistic,
    solve_power_logistic,
)
from .numerics import (
    Orbit,
    curve_residual_along_orbit,
    integrate_rk4,
    integrate_rkf45,
    jacobi_elliptic,
    shoot_unstable_manifold,
)
from .waves import (
    CatalogEntry,
    catalog,
    family_curve,
    family_identity_symbolic,
    fisher_front_reconstruct,
    make_entry,
    pde_residual_along_profile,
    verify_entry,
)

__all__ = [
    "QuadExt", "RadicandMismatchError", "Rat", "field_sqrt", "parse_quadext",
    "pochhammer",
    "MultiPoly", "VarRegistry", "sylvester_resultant", "trial_divide",
    "ExprSyntaxError",
    "DerivSymbol", "PDESpec", "PDESyntaxError", "bind_params", "parse_pde",
    "DegenerateSpeedError", "Equilibrium", "EquilibriumContinuumError",
    "ODESystemSpec", "PlanarSystem", "ReductionError", "equilibria",
    "jacobian_eigen", "to_planar", "travelling_wave_reduce",
    "CurveSearch", "DarbouxResult", "cofactor_residual", "search_constant_cofactor",
    "solve_fixed_cofactor",
    "FRONT_SPEED", "FRONT_SPEED_SQUARED", "CurveCertificate", "certify",
    "enumerate_speeds", "exact_front_curve", "front_system",
    "ExpRational", "PRelation", "exp_rational_membership",
    "p_from_exp_rational", "solve_logistic", "solve_power_logistic",
    "Orbit", "curve_residual_along_orbit", "integrate_rk4", "integrate_rkf45",
    "jacobi_elliptic", "shoot_unstable_manifold",
    "CatalogEntry", "catalog", "family_curve", "family_identity_symbolic",
    "fisher_front_reconstruct", "make_entry", "pde_residual_along_profile",
    "verify_entry",
]
