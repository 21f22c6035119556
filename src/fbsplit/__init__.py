"""Splitting methods with momentum and correction terms, plus a rate benchmark.

Modules
-------
linalg       dense vectors, linear maps with adjoints, spectral norm
operators    resolvents, cocoercive maps, smooth terms, prox catalog
ffb          the fast forward-backward iteration in two equivalent forms
diagnostics  discrete energies and decay certificates along a run
baselines    classical and inertial comparison schemes
primal_dual  the derived splitting for min f+h s.t. Ax=b, and FLAG
bench        experiment configs, records, rate fits, reference solutions
cli          the ``fbsplit`` command
"""

from .errors import ConfigurationError, DivergenceError
from .linalg import LinearMap, identity, inner, operator_norm
from .operators import (
    AffineConstraint,
    CocoerciveMap,
    GradientMap,
    InclusionProblem,
    L1Subdifferential,
    QuadraticTerm,
    ResolventOperator,
    SmoothTerm,
    ZeroMap,
    ZeroOperator,
    prox_l1,
    quadratic_term,
)
from .ffb import (
    FfbParams,
    FfbState,
    ffb_init,
    ffb_step_xi,
    ffb_step_y,
    fixed_point_residual,
    max_step_size,
    tangent_residual,
)
from .diagnostics import (
    NuConstants,
    admissible_eta_interval,
    default_epsilon,
    energy_E,
    energy_F,
    energy_trajectory,
    nu_constants,
    perturbed_decrease_check,
)
from .baselines import BaselineMethod, BaselineState, baseline_init, baseline_step
from .primal_dual import (
    FlagParams,
    FlagState,
    PdParams,
    PdProblem,
    PdState,
    flag_default_params,
    flag_init,
    flag_step,
    lagrangian_gap,
    pd_default_steps,
    pd_init,
    pd_step,
    pd_step_alternative,
)
from .bench import (
    ExperimentConfig,
    IterationRecord,
    RateFit,
    as_inclusion,
    emit,
    fit_rate_slope,
    generate_problem,
    inclusion_reference,
    reference_solution,
    run_experiment,
)

__version__ = "0.1.0"
