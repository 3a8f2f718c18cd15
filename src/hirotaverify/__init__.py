"""Exact symbolic verification of bilinear Toda-molecule identities.

The package constructs tau functions as two-directional Wronskians over
exact rational Laurent polynomials and mechanically checks, as
zero-residual polynomial identities, the bilinear lattice equations, the
Ernst-system decomposition equations for Tomimatsu-Sato pairs, their
symmetry properties, closed-form cross-checks and the order-by-order
Laurent-coefficient systems.
"""

__version__ = "0.1.0"
