"""flowlab: simulation and Monte Carlo diagnostics for stochastic flows of
SDEs with irregular (non-Lipschitz, non-uniformly-elliptic) coefficients.

The package covers coefficient systems with their spectral/growth
diagnostics, the truncate-then-mollify smoothing pipeline, a deterministic
Euler-Maruyama engine for the coupled state/derivative system, and the
estimator suite (gradient formulas, moment bounds, convergence and
integration-by-parts checks).
"""

from .coefficients import (
    AssumptionConstants,
    CheckSpec,
    CoefficientSystem,
    OriginPolicy,
    SpectralReport,
    ThetaBound,
    builtin,
    check_assumptions,
    diffusion_matrix,
    kp_max,
    make_system,
    theta_g,
)
from .approximation import (
    LpDistance,
    Mollifier,
    MollifiedFamily,
    TruncatedSystem,
    lp_distance,
    mollified_family,
    mollifier,
    radial_tangential_derivative_check,
    select_lambda0,
    truncate,
)
from .engine import BatchEuler, IntegratorConfig, increments_block
from .estimators import (
    EstimateReport,
    MomentWindow,
    PAYOFFS,
    SmoothBump,
    bel_gradient,
    derivative_moment,
    family_convergence,
    fd_gradient,
    flow_moment_bound_check,
    holder_modulus,
    ibp_residual,
    krylov_check,
)
from .errors import (
    ConfigError,
    FlowlabError,
    IntegrationError,
    ParameterConstraintError,
    RadiusTooSmallError,
    SingularPointError,
    ZeroDerivativeStateError,
)

__version__ = "0.1.0"
