"""Solver and verification suite for convex capillary bodies with prescribed
dual curvature data on a spherical cap."""

from .cap_chart import (
    CapSpec,
    FrameSymMatrix,
    FrameVector,
    PolarGrid,
    grad,
    hessian,
    integrate,
    l_field,
    normal_derivative,
    resample,
)
from .capillary_body import (
    BodyMesh,
    ExponentPair,
    SupportField,
    boundary_identity_check,
    capillary_support,
    contact_angle,
    convexity_margin,
    embed,
    export_obj,
    gauss_curvature,
    measure_density,
    second_fundamental_form,
)
from .ma_system import ProblemSpec, ResidualVector, jacobian, residual, residual_h_form
from .continuation import (
    HomotopySchedule,
    SolveReport,
    SolverConfig,
    continuation_solve,
    homotopy_density,
    newton_solve,
    start_density,
    uniqueness_probe,
)
from .apriori import BoundSet, VerificationReport, c0_bounds, verify
from .axisym import RadialProblem, oracle_compare, radial_residual, radial_solve
from . import errors

__version__ = "0.1.0"

__all__ = [
    "CapSpec",
    "PolarGrid",
    "FrameVector",
    "FrameSymMatrix",
    "l_field",
    "grad",
    "hessian",
    "normal_derivative",
    "integrate",
    "resample",
    "SupportField",
    "ExponentPair",
    "BodyMesh",
    "second_fundamental_form",
    "convexity_margin",
    "capillary_support",
    "gauss_curvature",
    "measure_density",
    "embed",
    "contact_angle",
    "boundary_identity_check",
    "export_obj",
    "ProblemSpec",
    "ResidualVector",
    "residual",
    "residual_h_form",
    "jacobian",
    "SolverConfig",
    "HomotopySchedule",
    "SolveReport",
    "start_density",
    "homotopy_density",
    "newton_solve",
    "continuation_solve",
    "uniqueness_probe",
    "BoundSet",
    "VerificationReport",
    "c0_bounds",
    "verify",
    "RadialProblem",
    "radial_residual",
    "radial_solve",
    "oracle_compare",
    "errors",
]
