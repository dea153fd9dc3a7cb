"""Size distributions interpolating between power laws and cut-off laws.

The family is controlled by five parameters (p, b, c, q, x0): p = 0 gives
pure power laws, p = inf power laws with exponential cut-off, and the
interpolation parameter p sweeps continuously between them.  Dozens of
classical size distributions (Pareto I-IV, Lomax, Burr XII, Dagum, Fisk,
Weibull, Frechet, Rayleigh, Exponential, Stoppa, ...) are exact members;
see `ifdist.catalog`.
"""

from .errors import BracketError, DomainError, NumericFailure
from .kernels import (
    Bracket,
    QuadratureResult,
    UniformStream,
    beta,
    find_root,
    integrate,
    ln_gamma,
    maximize_scalar,
)
from .core import (
    IFDistribution,
    IFParams,
    Subfamily,
    classify,
    g_big,
    p_exponential,
)
from .moments import MomentResult, mean, moment_exists, raw_moment, variance
from .modes import (
    BoundaryBehavior,
    BoundaryKind,
    ModeKind,
    ModeResult,
    boundary_behavior,
    mode,
    mode_grid,
    solve_mode_equation,
)
from .catalog import CatalogEntry, catalog_names, named, resolve, table1_mean

__all__ = [
    "BracketError",
    "DomainError",
    "NumericFailure",
    "Bracket",
    "QuadratureResult",
    "UniformStream",
    "beta",
    "find_root",
    "integrate",
    "ln_gamma",
    "maximize_scalar",
    "IFDistribution",
    "IFParams",
    "Subfamily",
    "classify",
    "g_big",
    "p_exponential",
    "MomentResult",
    "mean",
    "moment_exists",
    "raw_moment",
    "variance",
    "BoundaryBehavior",
    "BoundaryKind",
    "ModeKind",
    "ModeResult",
    "boundary_behavior",
    "mode",
    "mode_grid",
    "solve_mode_equation",
    "CatalogEntry",
    "catalog_names",
    "named",
    "resolve",
    "table1_mean",
]

__version__ = "0.1.0"
