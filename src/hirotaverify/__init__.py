"""Exact symbolic verification of bilinear Toda-molecule identities.

The package constructs tau functions as two-directional Wronskians over
exact rational Laurent polynomials and mechanically checks, as
zero-residual polynomial identities, the bilinear lattice equations, the
Ernst-system decomposition equations for Tomimatsu-Sato pairs, their
symmetry properties, closed-form cross-checks and the order-by-order
Laurent-coefficient systems.
"""

__version__ = "0.1.0"

from .gaussian import GaussianRational
from .laurent import LaurentPoly, Monomial, parse, serialize
from .operators import apply_F, apply_F_weyl, hirota, hirota_dst, operand
from .wronskian import TauFamily, build_psi, wronskian_matrix

__all__ = [
    "__version__",
    "GaussianRational",
    "LaurentPoly",
    "Monomial",
    "parse",
    "serialize",
    "apply_F",
    "apply_F_weyl",
    "hirota",
    "hirota_dst",
    "operand",
    "TauFamily",
    "build_psi",
    "wronskian_matrix",
]
