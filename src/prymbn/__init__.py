"""Exact numerical invariants of Prym-Brill-Noether loci for double covers.

Everything is computed with arbitrary-precision integers and exact reduced
rationals; there is no floating point anywhere in the package.
"""

from .bn_numerics import (
    DimReport,
    VanishingSequence,
    expected_dim_V,
    expected_dim_V_divisor,
    expected_dim_V_eta,
    expected_dim_V_eta_divisor,
    expected_dim_V_eta_pointed,
    rho,
    rho_pointed,
)
from .formulas import (
    ChernSeries,
    chern_series_W,
    count_points,
    twisted_class,
    twisted_pointed_class,
    unramified_class,
)
from .lagrangian import (
    StrictPartition,
    eval_identity,
    lagrangian_class_pointed,
    p_tilde,
    q_tilde,
    q_two,
    staircase,
)
from .limit_series import (
    AdditivityReport,
    LimitProblem,
    additivity_report,
    complementary_vanishing,
    enumerate_candidates,
    prym_limit_vanishing,
    prym_limit_vanishing_dual,
    prym_limit_vanishing_ramified,
    solve_unique,
    w_locus_expected_dim,
)
from .theta_ring import (
    PrymSpace,
    ThetaClass,
    degree,
    make_space,
    multiply,
    substitute_theta_prime_as_2xi,
)

__version__ = "0.1.0"

# The public names are exactly the package's own classes and functions
# imported above.
__all__ = sorted(
    name
    for name, obj in globals().items()
    if getattr(obj, "__module__", "").startswith("prymbn.")
)
