"""One- and two-particle fringe visibility for bipartite Gaussian double-slit states."""

from .corrected import (
    CorrectedReport,
    corrected_density,
    corrected_f,
    corrected_slice_spm,
)
from .correlation import (
    CorrelationReport,
    MomentSet,
    complementarity_sums,
    marginal_k1_mixed,
    moments_k,
    moments_x,
)
from .density import (
    Density2D,
    Grid2D,
    QuadratureError,
    default_domain,
    default_grid,
    density_at,
    normalization_mass,
    quadrature_2d,
)
from .radon import (
    Marginal1D,
    RadonAngle,
    marginal_at,
    marginal_k1,
    marginal_k2,
    marginal_kpm,
    marginal_spm,
    radon_numeric,
)
from .state import (
    KK,
    KX,
    XK,
    XX,
    Axis,
    BasisPair,
    ParameterDomainError,
    SetupParams,
    UnsupportedBasisError,
    decomposition_residual,
    normalization_b2,
    psi,
)
from .visibility import (
    VisibilityReport,
    envelope_pin_check,
    epsilon_and_bound,
    numeric_visibility,
    visibility_report,
)

__version__ = "0.1.0"
