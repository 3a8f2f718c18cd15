import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from hirotaverify.gaussian import GaussianRational
from hirotaverify.laurent import ZERO, LaurentPoly, Monomial, differentiate, monomial
from hirotaverify.operators import (
    X2_MINUS_1,
    Y2_MINUS_1,
    FOperator,
    apply_F,
    hirota,
    hirota_dst,
    l_minus,
    l_plus,
)
from hirotaverify import verifier as V
from hirotaverify.report import CheckReport
from hirotaverify.verifier import star
from hirotaverify.wronskian import TauFamily

settings.register_profile(
    "exact",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def built5() -> TauFamily:
    """The tau family up to site 5, built once; building it dominates suite startup."""
    return TauFamily.build(5)


# Each test gets its own family object over the built polynomials, so that
# no test reads a site table another test filled.
@pytest.fixture
def fam5(built5: TauFamily) -> TauFamily:
    return TauFamily(n_max=5, tau=built5.tau, f=built5.f)


@pytest.fixture
def fam4(built5: TauFamily) -> TauFamily:
    return TauFamily(n_max=4, tau=built5.tau[:5], f=built5.f[:5])


# -- the order-by-order systems written out by hand ----------------------------

def orderwise_oracle(
    fam: TauFamily, n: int, I: int, system: str
) -> tuple[LaurentPoly, LaurentPoly]:
    """Left and right side of the order-I equation of one orderwise system at site n.

    The paper's convolution sums over the coefficient polynomials, written
    independently of the whole identities the verifier expands.  Out-of-range
    Laurent coefficients enter as zero, so one formula covers the low-order,
    middle and mirrored cases alike.  Only the coefficients that the parity
    of g_n (t^n, t^(n-2), ...) and f_n (t^(n-1), ...) allows are read.
    """
    gt = lambda k, m: fam.g[k].coeff_of_t(m)
    ft = lambda k, m: fam.f[k].coeff_of_t(m)
    lhs, rhs = ZERO, ZERO
    fop = FOperator(n)
    for J in range(I + 1):
        if system == "g":
            lhs = lhs + hirota_dst(gt(n, n - 2 * J), gt(n, n - 2 * I + 2 * J))
            rhs = rhs + 2 * (gt(n + 1, n - 2 * J + 1) * gt(n - 1, n - 2 * I + 2 * J - 1))
        elif system == "f":
            lhs = lhs + hirota_dst(ft(n, n - 2 * J - 1), ft(n, n - 2 * I + 2 * J - 1))
            rhs = rhs + 2 * (ft(n + 1, n - 2 * J) * ft(n - 1, n - 2 * I + 2 * J - 2))
        elif system == "mixed":
            lhs = lhs + hirota_dst(ft(n, n - 2 * J - 1), gt(n, n - 2 * I + 2 * J))
            rhs = (
                rhs
                + ft(n + 1, n - 2 * J) * gt(n - 1, n - 2 * I + 2 * J - 1)
                + ft(n - 1, n - 2 * J - 2) * gt(n + 1, n - 2 * I + 2 * J + 1)
            )
        elif system == "B1":
            lhs = lhs + hirota("x", gt(n, n - 2 * J), ft(n, n - 2 * I + 2 * J - 1))
            lhs = lhs - hirota("x", gt(n, -n + 2 * J), ft(n, -n + 2 * I - 2 * J + 1))
        elif system == "B2":
            lhs = lhs + hirota("y", gt(n, n - 2 * J), ft(n, n - 2 * I + 2 * J - 1))
            lhs = lhs + hirota("y", gt(n, -n + 2 * J), ft(n, -n + 2 * I - 2 * J + 1))
        elif system == "B3":
            lhs = lhs + apply_F(fop, gt(n, -n + 2 * J), ft(n, n - 2 * I + 2 * J - 1))
        elif system == "B4":
            lhs = lhs + apply_F(fop, gt(n, -n + 2 * J), gt(n, n - 2 * I + 2 * J))
            lhs = lhs + apply_F(fop, ft(n, -n + 2 * J + 1), ft(n, n - 2 * I + 2 * J + 1))
        else:
            raise ValueError(f"unknown orderwise system {system!r}")
    return lhs, rhs


# -- the operators and the Ernst residual in their textbook product forms -------

def hirota_second(var: str, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Second-order Hirota derivative (D^2 f) g - 2 (D f)(D g) + f (D^2 g)."""
    df, dg = differentiate(f, var), differentiate(g, var)
    return differentiate(df, var) * g - 2 * (df * dg) + f * differentiate(dg, var)


def hirota_dst_oracle(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """D_S D_T on (f, g) from its definition: four products, no symmetry used."""
    pf, mf = l_plus(f), l_minus(f)
    pg, mg = l_plus(g), l_minus(g)
    return l_minus(pf) * g - pf * mg - mf * pg + f * l_minus(pg)


def apply_F_oracle(fop: FOperator, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """F on (a, b) as written: second-order brackets plus derivatives of ab."""
    ab = a * b
    return (
        X2_MINUS_1 * hirota_second("x", a, b)
        + monomial(2, ex=1) * differentiate(ab, "x")
        + Y2_MINUS_1 * hirota_second("y", a, b)
        + monomial(2, ey=1) * differentiate(ab, "y")
        + fop.c_n * ab
    )


def ernst_oracle(g: LaurentPoly, f: LaurentPoly, point: tuple) -> tuple[str, str | None]:
    """(status, witness) of the Ernst residual of g/f at one point, by polynomial products.

    p = g_x f - g f_x and q = g_y f - g f_y are built as polynomials and
    differentiated, then every factor is evaluated at the point.
    """
    x0, y0, t0 = point
    if t0.abs2() != 1:
        return "error", "sample point violates |t| = 1"
    gs, fs = star(g), star(f)
    fx, fy = differentiate(f, "x"), differentiate(f, "y")
    p = differentiate(g, "x") * f - g * fx
    q = differentiate(g, "y") * f - g * fy
    px, qy = differentiate(p, "x"), differentiate(q, "y")
    fv, fsv = f.evaluate(x0, y0, t0), fs.evaluate(x0, y0, t0)
    if fv.is_zero or fsv.is_zero:
        return "error", "denominator vanishes at sample point"
    gv, gsv, pv, qv, pxv, qyv, fxv, fyv = (
        poly.evaluate(x0, y0, t0) for poly in (g, gs, p, q, px, qy, fx, fy))
    x2m1, one_m_y2 = x0 * x0 - 1, 1 - y0 * y0
    n_b = ((2 * x0 * pv + x2m1 * pxv) * fv - 2 * x2m1 * pv * fxv
           + (-2 * y0 * qv + one_m_y2 * qyv) * fv - 2 * one_m_y2 * qv * fyv)
    n_g = x2m1 * pv * pv + one_m_y2 * qv * qv
    residual = ((gv * gsv - fv * fsv) * n_b - 2 * gsv * n_g) / (fsv * fv ** 4)
    return ("pass", None) if residual.is_zero else ("fail", str(residual))


# -- the SU(1,1) rows by transforming the family ---------------------------------

def su11_direct(fam: TauFamily, n: int, params: V.Su11Params,
                pair_index: int = 0) -> list[CheckReport]:
    """check_su11's rows by the direct route: every identity on the transformed pair.

    Sites n-1, n and n+1 are transformed to g' = alpha g + beta* f and
    f' = beta g + alpha* f, and each IDENTITIES entry is evaluated on them
    with non-real operands, independently of the family's site table.
    """
    V._require_site(n, fam.n_max - 1)
    site = V._Site(n, *zip(*(V.su11_transform(fam, k, params) for k in (n - 1, n, n + 1))))
    note = f"alpha={params.alpha}, beta={params.beta}"
    reports = []
    for name, identity in V.IDENTITIES.items():
        started = time.perf_counter()
        lhs, rhs = identity(site)
        reports.append(V._report(f"su11.{name}", n, lhs - rhs, started, order_index=pair_index,
                                 term_count=site.g.term_count, note=note))
    return reports


# -- hypothesis strategies ----------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussians = st.builds(GaussianRational, rationals, rationals)
nonzero_gaussians = gaussians.filter(lambda g: not g.is_zero)

monomials = st.builds(
    Monomial,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
laurent_monomials = st.builds(
    Monomial,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-2, max_value=4),
    st.integers(min_value=-2, max_value=4),
)

polys = st.dictionaries(monomials, gaussians, max_size=5).map(LaurentPoly)
laurent_polys = st.dictionaries(laurent_monomials, gaussians, max_size=5).map(LaurentPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)

xy_monomials = st.builds(
    Monomial,
    st.just(0),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
xy_polys = st.dictionaries(xy_monomials, gaussians, max_size=5).map(LaurentPoly)

x_monomials = st.builds(
    Monomial, st.just(0), st.integers(min_value=0, max_value=6), st.just(0)
)
x_polys = st.dictionaries(
    x_monomials, st.builds(GaussianRational, rationals), max_size=5
).map(LaurentPoly)
