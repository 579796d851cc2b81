"""czorb: exact Conley-Zehnder indices of Reeb orbits over weighted
projective spaces, weighted complete intersections, and Brieskorn orbifolds,
with independent numeric oracles for every closed form."""

from .cz_indices import (
    Branch,
    CZReport,
    OrbitSpec,
    b_constant,
    mu_orbit_brieskorn,
    mu_orbit_wps,
    mu_principal,
    mu_principal_brieskorn,
    orbit_spec,
)
from .cz_paths import (
    WindingResult,
    crossing_oracle_scalar,
    det_winding,
    scalar_cz,
)
from .errors import (
    ConvergenceError,
    CzorbError,
    DomainError,
    NonCoprimeError,
    UncoveredCaseError,
)
from .exact_arith import Factorization, factorize, ord_p
from .numeric_verify import QuadratureResult, area_chain, chart_integral
from .orbifold_topology import (
    AbelianGroupDescriptor,
    p_star_factor,
    teardrop_cohomology,
    teardrop_homology,
    teardrop_orbifold_chern,
)
from .spaces import (
    BrieskornExponents,
    TheoremCheck,
    WCISpace,
    WPSpace,
    brieskorn_to_wci,
    check_theorem_hypotheses,
    compute_l2,
    make_brieskorn_exponents,
    make_wci_space,
)
from .weights import (
    WeightInvariants,
    WeightVector,
    invariants,
    make_weight_vector,
    symplectic_area,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupDescriptor",
    "Branch",
    "BrieskornExponents",
    "CZReport",
    "ConvergenceError",
    "CzorbError",
    "DomainError",
    "Factorization",
    "NonCoprimeError",
    "OrbitSpec",
    "QuadratureResult",
    "TheoremCheck",
    "UncoveredCaseError",
    "WCISpace",
    "WPSpace",
    "WeightInvariants",
    "WeightVector",
    "WindingResult",
    "area_chain",
    "b_constant",
    "brieskorn_to_wci",
    "chart_integral",
    "check_theorem_hypotheses",
    "compute_l2",
    "crossing_oracle_scalar",
    "det_winding",
    "factorize",
    "invariants",
    "make_brieskorn_exponents",
    "make_wci_space",
    "make_weight_vector",
    "mu_orbit_brieskorn",
    "mu_orbit_wps",
    "mu_principal",
    "mu_principal_brieskorn",
    "orbit_spec",
    "ord_p",
    "p_star_factor",
    "scalar_cz",
    "symplectic_area",
    "teardrop_cohomology",
    "teardrop_homology",
    "teardrop_orbifold_chern",
]
