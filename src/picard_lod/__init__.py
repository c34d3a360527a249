"""Certified Picard iteration for smooth normal PDE Cauchy problems.

A Banach fixed-point engine for contractions with loss of derivatives in
graded spaces, applied as a constructive Picard solver and convergence
certifier for normal Cauchy problems, with closed-form series solutions
for the linear class.
"""

from .expr import Arity, Expr, parse_expression, print_expression, eval_expr
from .funcspace import (
    Domain,
    Radii,
    SepFunc,
    ball_check,
    graded_norm,
    interpolate,
    iterated_time_integral,
    joint_norm,
    partial_derivative,
)
from .graded_core import (
    GradedSpaceHandle,
    IterationStop,
    LodCertificate,
    LodConstants,
    a_posteriori_bound,
    invert_locally,
    iterate_to_fixed_point,
    weissinger_sum,
)
from .linear_series import (
    GrowthClass,
    LinearProblem,
    burgers_demo,
    classify_convergence,
    example_catalog,
    mu_eta_recursions,
    picard_closed_form,
    series_solution,
)
from .picard_pde import (
    CauchyProblem,
    LipschitzFactors,
    SolveConfig,
    apply_P,
    certify_weissinger,
    estimate_lipschitz,
    eval_G,
    initial_polynomial,
    lambda_bar,
    log_lambda_bar,
    residual,
    solve,
)

__version__ = "0.1.0"
