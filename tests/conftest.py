import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import NamedTuple, Sequence

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import hirotaverify
from hirotaverify.closedform import a_coeff, half_gamma_ratio
from hirotaverify.gaussian import GaussianRational
from hirotaverify.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    Monomial,
    differentiate,
    from_uv,
    monomial,
    parse,
    serialize,
    subst_t_inverse,
    subst_t_negate,
    subst_y_negate,
    swap_xy,
    to_uv,
)
from hirotaverify.operators import X2_MINUS_1, l_x
from hirotaverify import verifier as V
from hirotaverify.verifier import star
from hirotaverify.wronskian import Matrix, TauFamily, _leading_minors, sylvester_minors

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
    return TauFamily(n_max=5, tau_uv=built5.tau_uv, f_uv=built5.f_uv)


@pytest.fixture
def fam4(built5: TauFamily) -> TauFamily:
    return TauFamily(n_max=4, tau_uv=built5.tau_uv[:5], f_uv=built5.f_uv[:5])


def with_stray_term(fam: TauFamily, seq: str, k: int, extra: str) -> TauFamily:
    """A copy of fam with the x,y term extra added to tau_k or f_k, as its u,v image."""
    add = lambda name: [p + to_uv(parse(extra)) if (name, i) == (seq, k) else p
                        for i, p in enumerate(getattr(fam, name + "_uv"))]
    return TauFamily(n_max=fam.n_max, tau_uv=add("tau"), f_uv=add("f"))


def run_fresh(args: list[str], cwd: Path, **env: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter in cwd, with its output captured as text.

    PYTHONPATH leads with the directory of the hirotaverify under test, and
    HV_CACHE_DIR is dropped unless env sets it.
    """
    base = {k: v for k, v in os.environ.items() if k != "HV_CACHE_DIR"}
    src = str(Path(hirotaverify.__file__).parents[1])
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=base | env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


# -- the order-by-order systems written out by hand ----------------------------

def orderwise_oracle(
    fam: TauFamily, n: int, I: int, system: str
) -> tuple[LaurentPoly, LaurentPoly]:
    """Left and right side of the order-I equation of one orderwise system at site n.

    The paper's convolution sums over the coefficient polynomials, written
    independently of the whole identities the verifier expands, with the
    x,y product forms of the operators below.  Out-of-range
    Laurent coefficients enter as zero, so one formula covers the low-order,
    middle and mirrored cases alike.  Only the coefficients that the parity
    of g_n (t^n, t^(n-2), ...) and f_n (t^(n-1), ...) allows are read.
    """
    gt = lambda k, m: fam.g[k].t_coefficients().get(m, ZERO)
    ft = lambda k, m: fam.f[k].t_coefficients().get(m, ZERO)
    lhs, rhs = ZERO, ZERO
    for J in range(I + 1):
        if system == "g":
            lhs = lhs + hirota_dst_oracle(gt(n, n - 2 * J), gt(n, n - 2 * I + 2 * J))
            rhs = rhs + 2 * (gt(n + 1, n - 2 * J + 1) * gt(n - 1, n - 2 * I + 2 * J - 1))
        elif system == "f":
            lhs = lhs + hirota_dst_oracle(ft(n, n - 2 * J - 1), ft(n, n - 2 * I + 2 * J - 1))
            rhs = rhs + 2 * (ft(n + 1, n - 2 * J) * ft(n - 1, n - 2 * I + 2 * J - 2))
        elif system == "mixed":
            lhs = lhs + hirota_dst_oracle(ft(n, n - 2 * J - 1), gt(n, n - 2 * I + 2 * J))
            rhs = (
                rhs
                + ft(n + 1, n - 2 * J) * gt(n - 1, n - 2 * I + 2 * J - 1)
                + ft(n - 1, n - 2 * J - 2) * gt(n + 1, n - 2 * I + 2 * J + 1)
            )
        elif system == "B1":
            lhs = lhs + hirota_xy("x", gt(n, n - 2 * J), ft(n, n - 2 * I + 2 * J - 1))
            lhs = lhs - hirota_xy("x", gt(n, -n + 2 * J), ft(n, -n + 2 * I - 2 * J + 1))
        elif system == "B2":
            lhs = lhs + hirota_xy("y", gt(n, n - 2 * J), ft(n, n - 2 * I + 2 * J - 1))
            lhs = lhs + hirota_xy("y", gt(n, -n + 2 * J), ft(n, -n + 2 * I - 2 * J + 1))
        elif system == "B3":
            lhs = lhs + apply_F_oracle(n, gt(n, -n + 2 * J), ft(n, n - 2 * I + 2 * J - 1))
        elif system == "B4":
            lhs = lhs + apply_F_oracle(n, gt(n, -n + 2 * J), gt(n, n - 2 * I + 2 * J))
            lhs = lhs + apply_F_oracle(n, ft(n, -n + 2 * J + 1), ft(n, n - 2 * I + 2 * J + 1))
        else:
            raise ValueError(f"unknown orderwise system {system!r}")
    return lhs, rhs


# -- the mirror residual order by order -------------------------------------------

def mirror_oracle(p: LaurentPoly) -> LaurentPoly:
    """The mirror residual as a sum over p's t-orders m of (c_{-m} - (y -> -y) c_m) t^m.

    Only the orders in p's t-support get a slot.  Where p has a t^m term and
    no t^-m term, subst_t_inverse(p) - subst_y_negate(p) also holds c_m at
    t^-m, which this sum lacks; the two are zero together.
    """
    total, split = ZERO, p.t_coefficients()
    for m, coeff_poly in split.items():
        total = total + (split.get(-m, ZERO) - subst_y_negate(coeff_poly)) * monomial(1, et=m)
    return total


# -- the jacobi row and Sylvester's identity by their direct formulas ----------------

def sylvester_oracle(fam: TauFamily, n: int) -> LaurentPoly:
    """D[n;n] tau_n - D[n+1;n] D[n;n+1] - tau_{n+1} tau_{n-1}, as three products of the minors in x, y."""
    *_, (_, *minors) = sylvester_minors(n)  # the last tuple is site n's
    d_nn, d_sr, d_rs = map(from_uv, minors)
    return d_nn * fam.tau[n] - d_sr * d_rs - fam.tau[n + 1] * fam.tau[n - 1]


def deleting(m: Matrix, row: int, col: int) -> Matrix:
    """m with one 0-based row and column deleted."""
    return tuple(tuple(e for j, e in enumerate(entries) if j != col)
                 for i, entries in enumerate(m) if i != row)


def jacobi_oracle(fam: TauFamily, n: int) -> LaurentPoly:
    """The jacobi row's residual at site n, in x, y: the first nonzero of tau_n, L-L+ tau_n,
    L- tau_n and L+ tau_n less the cofactor determinants of the (n+1)-dim seed Wronskian's
    leading n-block, D[n;n], D[n+1;n] and D[n;n+1]."""
    m, tau = wronskian_matrix_xy(psi_xy(), n + 1), fam.tau[n]
    pairs = ((tau, deleting(m, n, n)), (l_minus_xy(l_plus_xy(tau)), deleting(m, n - 1, n - 1)),
             (l_minus_xy(tau), deleting(m, n, n - 1)), (l_plus_xy(tau), deleting(m, n - 1, n)))
    return next((d for d in (p - det_cofactor(minor) for p, minor in pairs) if not d.is_zero), ZERO)


# -- the lowest t-orders of g_n and f_n by the u <-> v swap ------------------------

def low_extremes_uv_swap(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Coefficients of t^-n in g_n and of t^(-n+1) in f_n, built in u, v.

    The u,v monomials of the highest orders with their exponents swapped:
    2^(n(n-1)) A_n u^(n(n+1)/2) v^(n(n-1)/2) for g, and that times the Gamma
    sum with its inverse powers on u for f, each converted once by from_uv.
    """
    g_uv = monomial(2 ** (n * (n - 1)) * a_coeff(n), ex=n * (n + 1) // 2, ey=n * (n - 1) // 2)
    gamma_sum = ZERO
    for m in range(n):
        for l in range(m + 1):
            weight = (-1) ** (m - l) * half_gamma_ratio(m, l, n)
            gamma_sum = gamma_sum + monomial(weight, ex=-2 * m - 1, ey=2 * l)
    return from_uv(g_uv), from_uv(g_uv * gamma_sum) if n else ZERO


# -- the Wronskian family by elimination in x, y ----------------------------------
#
# The library eliminates in the light-cone basis u, v and keeps each minor
# there.  This route keeps everything in x, y: the seed, the light-cone pair
# as L_X +- L_Y, and a basis change by multiplied powers.

def psi_xy() -> LaurentPoly:
    """The seed t*(x-y)/2 + (1/t)*(x+y)/2 in x, y."""
    half = Fraction(1, 2)
    return LaurentPoly({Monomial(1, 1, 0): half, Monomial(1, 0, 1): -half,
                        Monomial(-1, 1, 0): half, Monomial(-1, 0, 1): half})


Y2_MINUS_1 = LaurentPoly({(0, 0, 2): 1, (0, 0, 0): -1})


def l_y(p: LaurentPoly) -> LaurentPoly:
    return Y2_MINUS_1 * differentiate(p, "y")


def l_plus_xy(p: LaurentPoly) -> LaurentPoly:
    return l_x(p) + l_y(p)


def l_minus_xy(p: LaurentPoly) -> LaurentPoly:
    return l_x(p) - l_y(p)


def wronskian_matrix_xy(seed: LaurentPoly, n: int) -> Matrix:
    """n x n matrix as rows, with m[i][j] = L_plus^i L_minus^j seed, every entry in x, y."""
    rows = [[seed]]
    for j in range(1, n):
        rows[0].append(l_minus_xy(rows[0][j - 1]))
    for i in range(1, n):
        rows.append([l_plus_xy(e) for e in rows[i - 1]])
    return tuple(map(tuple, rows))


def build_xy(n_max: int) -> TauFamily:
    """TauFamily.build(n_max) with each Wronskian's leading minors eliminated in x, y,
    then taken to u, v by to_uv."""
    psi = psi_xy()
    shifted = l_plus_xy(l_minus_xy(psi))
    tau = _leading_minors(wronskian_matrix_xy(psi, n_max))
    f = _leading_minors(wronskian_matrix_xy(shifted, n_max - 1)) if n_max > 1 else ()
    return TauFamily(n_max, tau_uv=map(to_uv, [ONE, *tau]), f_uv=map(to_uv, [ZERO, ONE, *f]))


def det_cofactor(m: Matrix) -> LaurentPoly:
    """Cofactor expansion of the square matrix m with memoized minors; the reference determinant."""
    if len(m) == 0:
        return ONE
    cache: dict[tuple[int, ...], LaurentPoly] = {(): ONE}

    def rec(row: int, cols: tuple[int, ...]) -> LaurentPoly:
        got = cache.get(cols)
        if got is not None:
            return got
        total = ZERO
        for pos, col in enumerate(cols):
            entry = m[row][col]
            if entry.is_zero:
                continue
            sub = rec(row + 1, cols[:pos] + cols[pos + 1 :])
            piece = entry * sub
            total = total + piece if pos % 2 == 0 else total - piece
        cache[cols] = total
        return total

    return rec(0, tuple(range(len(m))))


def subst_linear(p: LaurentPoly, x_image: LaurentPoly, y_image: LaurentPoly) -> LaurentPoly:
    """p with x -> x_image and y -> y_image, term by term through powers of the images."""
    if p.has_negative_xy():
        raise ValueError("basis change requires non-negative x,y exponents")
    total = ZERO
    for mono, coeff in p.terms():
        total = total + monomial(coeff, et=mono.et) * x_image ** mono.ex * y_image ** mono.ey
    return total


def from_uv_oracle(p: LaurentPoly) -> LaurentPoly:
    """from_uv by substitution: u -> (x+y)/2, v -> (x-y)/2."""
    x, y = monomial(1, ex=1), monomial(1, ey=1)
    return subst_linear(p, Fraction(1, 2) * (x + y), Fraction(1, 2) * (x - y))


# -- the text form, term by term -------------------------------------------------

def serialize_oracle(p: LaurentPoly) -> str:
    """serialize through one Monomial and one GaussianRational per term, in the documented order."""
    if p.is_zero:
        return "0"
    order = lambda term: (-term[0].et, -(term[0].ex + term[0].ey), -term[0].ex)
    parts = []
    for mono, coeff in sorted(p.terms(), key=order):
        factors = [f"({coeff})"]
        for name, e in (("t", mono.et), ("x", mono.ex), ("y", mono.ey)):
            if e:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


# -- the operators and the Ernst residual in their textbook product forms -------
#
# Every form here works in x, y; the library's operators work in u, v.

def hirota_xy(var: str, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """First-order Hirota derivative (D f) g - f (D g), D = d/dx or d/dy."""
    return differentiate(f, var) * g - f * differentiate(g, var)


def hirota_second(var: str, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Second-order Hirota derivative (D^2 f) g - 2 (D f)(D g) + f (D^2 g)."""
    df, dg = differentiate(f, var), differentiate(g, var)
    return differentiate(df, var) * g - 2 * (df * dg) + f * differentiate(dg, var)


def hirota_dst_oracle(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """D_S D_T on (f, g) from its definition: four products, no symmetry used."""
    pf, mf = l_plus_xy(f), l_minus_xy(f)
    pg, mg = l_plus_xy(g), l_minus_xy(g)
    return l_minus_xy(pf) * g - pf * mg - mf * pg + f * l_minus_xy(pg)


def apply_F_oracle(n: int, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """F_n on (a, b) as written: second-order brackets plus derivatives of ab, c_n = -2 n^2."""
    ab = a * b
    return (
        X2_MINUS_1 * hirota_second("x", a, b)
        + monomial(2, ex=1) * differentiate(ab, "x")
        + Y2_MINUS_1 * hirota_second("y", a, b)
        + monomial(2, ey=1) * differentiate(ab, "y")
        - 2 * n * n * ab
    )


def evaluate_oracle(p: LaurentPoly, x0, y0, t0) -> GaussianRational:
    """The value of p at (x0, y0, t0), term by term in Gaussian-rational arithmetic."""
    power = lambda base, e: base ** e if e else GaussianRational(1)
    total = GaussianRational(0)
    for mono, coeff in p.terms():
        total = total + coeff * power(t0, mono.et) * power(x0, mono.ex) * power(y0, mono.ey)
    return total


def ernst_oracle(g: LaurentPoly, f: LaurentPoly, point: tuple) -> tuple[str, str | None]:
    """(status, witness) of the Ernst residual of g/f at one point, by polynomial products.

    p = g_x f - g f_x and q = g_y f - g f_y are built as polynomials and
    differentiated, then every factor is evaluated at the point, term by term.
    """
    x0, y0, t0 = point
    if t0.abs2() != 1:
        return "error", "sample point violates |t| = 1"
    gs, fs = star(g), star(f)
    fx, fy = differentiate(f, "x"), differentiate(f, "y")
    p = differentiate(g, "x") * f - g * fx
    q = differentiate(g, "y") * f - g * fy
    px, qy = differentiate(p, "x"), differentiate(q, "y")
    fv, fsv = evaluate_oracle(f, *point), evaluate_oracle(fs, *point)
    if fv.is_zero or fsv.is_zero:
        return "error", "denominator vanishes at sample point"
    gv, gsv, pv, qv, pxv, qyv, fxv, fyv = (
        evaluate_oracle(poly, *point) for poly in (g, gs, p, q, px, qy, fx, fy))
    x2m1, one_m_y2 = x0 * x0 - 1, 1 - y0 * y0
    n_b = ((2 * x0 * pv + x2m1 * pxv) * fv - 2 * x2m1 * pv * fxv
           + (-2 * y0 * qv + one_m_y2 * qyv) * fv - 2 * one_m_y2 * qv * fyv)
    n_g = x2m1 * pv * pv + one_m_y2 * qv * qv
    residual = ((gv * gsv - fv * fsv) * n_b - 2 * gsv * n_g) / (fsv * fv ** 4)
    return ("pass", None) if residual.is_zero else ("fail", str(residual))


# -- polynomials with non-real coefficients, outside the library ---------------

class Pair(NamedTuple):
    """The polynomial re + i*im, for real polynomials re and im.

    +, - and * act as on complex values, * also with a Gaussian or rational
    scalar on either side; a real polynomial operand has im = 0.  bilinear
    applies a real bilinear form part by part, and star is antilinear.
    """

    re: LaurentPoly
    im: LaurentPoly = ZERO

    def __add__(a, b):
        b = _as_pair(b)
        return Pair(a.re + b.re, a.im + b.im)

    def __sub__(a, b):
        b = _as_pair(b)
        return Pair(a.re - b.re, a.im - b.im)

    def __mul__(a, b):
        if isinstance(b, (Pair, LaurentPoly)):
            return a.bilinear(operator.mul, _as_pair(b))
        k = b if isinstance(b, GaussianRational) else GaussianRational(b)
        return Pair(k.re * a.re - k.im * a.im, k.re * a.im + k.im * a.re)

    __rmul__ = __mul__

    def bilinear(a, form, b: "Pair") -> "Pair":
        return Pair(form(a.re, b.re) - form(a.im, b.im), form(a.re, b.im) + form(a.im, b.re))

    def star(a) -> "Pair":
        return Pair(star(a.re), -star(a.im))


def _as_pair(p) -> Pair:
    return p if isinstance(p, Pair) else Pair(p)


def quarter_turn_oracle(p: LaurentPoly) -> Pair:
    """p(i t): each t^m term of p times i^m."""
    i = GaussianRational(0, 1)
    return sum((i ** m.et * Pair(LaurentPoly({m: c})) for m, c in p.terms()), Pair(ZERO))


# -- the SU(1,1) rows by transforming the family ---------------------------------

def su11_transform(fam: TauFamily, n: int, params: V.Su11Params) -> tuple[Pair, Pair]:
    """Transformed pair (alpha g + beta* f, beta g + alpha* f) at site n, in x, y."""
    if not 0 <= n <= fam.n_max:
        raise ValueError(f"need 0 <= n <= {fam.n_max}, got {n}")
    g, f = Pair(fam.g[n]), Pair(fam.f[n])
    gp = params.alpha * g + params.beta.conjugate() * f
    fp = params.beta * g + params.alpha.conjugate() * f
    return gp, fp


def random_su11_params(count: int, seed: int = 1789) -> list[V.Su11Params]:
    """Deterministic admissible parameter pairs with small Gaussian-rational parts."""
    rng = random.Random(seed)

    def scalar() -> GaussianRational:
        return GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )

    params: list[V.Su11Params] = []
    while len(params) < count:
        alpha, beta = scalar(), scalar()
        if alpha.abs2() == beta.abs2():
            continue
        params.append(V.Su11Params(alpha, beta))
    return params


# -- the identities and the rows of the site table, all in x, y ---------------------

def identity_oracle(g: Sequence, f: Sequence, n: int) -> dict[str, tuple]:
    """(lhs, rhs) of each verifier.IDENTITIES entry at site n, in x, y, for the sequences
    g and f, read at n-1..n+1: real polynomials, or Pairs, on which each form acts part
    by part.

    Built with the x,y product forms above, not with the library's operators.
    """
    on_pairs = isinstance(g[n], Pair)
    form = lambda bracket, a, b: a.bilinear(bracket, b) if on_pairs else bracket(a, b)
    conj = lambda p: p.star() if on_pairs else star(p)
    dst = partial(form, hirota_dst_oracle)
    bracket = lambda var, a, b: form(partial(hirota_xy, var), a, b)
    F = partial(form, partial(apply_F_oracle, n))
    (g_lo, g, g_hi), (f_lo, f, f_hi) = g[n - 1:n + 2], f[n - 1:n + 2]
    gs, fs = conj(g), conj(f)
    return {
        "toda.g": (dst(g, g), 2 * (g_hi * g_lo)),
        "toda.f": (dst(f, f), 2 * (f_hi * f_lo)),
        "mixed": (dst(f, g), f_hi * g_lo + f_lo * g_hi),
        "tsdec1": (bracket("x", g, f) - bracket("x", gs, fs), ZERO),
        "tsdec2": (bracket("y", g, f) + bracket("y", gs, fs), ZERO),
        "tsdec3": (F(gs, f), ZERO),
        "tsdec4": (F(gs, g) + F(fs, f), ZERO),
    }


def row_outcome(residual: LaurentPoly) -> tuple[str, str | None, int]:
    """(status, witness, term_count) of a row whose residual is the given x,y-polynomial."""
    if residual.is_zero:
        return "pass", None, 0
    mono, coeff = residual.leading_term()
    return "fail", serialize(LaurentPoly({mono: coeff})), residual.term_count


def site_rows_oracle(fam: TauFamily, n_max: int) -> list[tuple]:
    """(equation_id, n, order_index, status, witness, term_count, note) of every row of
    the suites that read the site table, at sites 1..n_max < fam.n_max, in report order.

    Every residual is formed in x, y: the identities by identity_oracle, the
    jacobi rows by jacobi_oracle, the symmetry rows with y -> -y and x <-> y
    as written, the orderwise rows from the t-coefficients of the identity
    residuals with the y -> -y mirror, and the Ernst rows, whose term_count is
    0, by ernst_oracle.
    """
    rows = []
    row = lambda eq, n, residual, index=None, note=None: rows.append(
        (eq, n, index, *row_outcome(residual), note))
    for n in range(1, n_max + 1):
        res = {name: lhs - rhs for name, (lhs, rhs) in identity_oracle(fam.g, fam.f, n).items()}
        row("toda.tau", n, res["toda.g"])
        row("toda.g", n, res["toda.g"], note="g_n = tau_n")
        row("toda.f", n, res["toda.f"])
        row("mixed", n, res["mixed"])
        row("jacobi", n, jacobi_oracle(fam, n))
        for name in ("tsdec1", "tsdec2", "tsdec3", "tsdec4"):
            row(name, n, res[name])
        for k, (name, p) in enumerate((("g", fam.g[n]), ("f", fam.f[n]))):
            # p(i t) = (-i)^N swap(p) is swap(p) = i^N p(i t), whose real part is the row's.
            i_power = GaussianRational(0, 1) ** (n * n - k)
            quarter = Pair(swap_xy(p)) - i_power * quarter_turn_oracle(p)
            assert quarter.re or not quarter.im  # a zero real part leaves nothing
            props = {"prop1": star(p) - subst_t_inverse(p), "prop2": star(p) - subst_y_negate(p),
                     "prop3": subst_t_negate(p) - (-1) ** (n - k) * p, "prop4": quarter.re}
            props["mirror"] = props["prop2"] - props["prop1"]
            for prop, residual in props.items():
                row(f"{prop}.{name}", n, residual)
        for system, spec in V.ORDERWISE_SYSTEMS.items():
            top, direct_end = V.orderwise_span(n, system)
            low, middle_id, mirror_id = spec.case_ids
            middle = 0 if system == "B4" else direct_end
            by_order = res[spec.identity].t_coefficients()
            for I in range(top + 1):
                residual, eq, note = by_order.get(top - 2 * I, ZERO), low, None
                if I == middle:
                    eq = middle_id
                if I > direct_end:
                    eq, mirrored = mirror_id, subst_y_negate(by_order.get(2 * I - top, ZERO))
                    if residual != mirrored:
                        residual, note = residual - mirrored, "route mismatch"
                row(eq, n, residual, I, note)
            off_pattern = by_order.keys() - set(range(-top, top + 1, 2))
            if off_pattern:
                m = max(off_pattern)  # the row's residual is the whole t^m slice
                row(low, n, monomial(1, et=m) * by_order[m], note="off the t^(K-2I) pattern")
        for index, (x0, y0, t0) in enumerate(V.ERNST_POINTS):
            rows.append(("ernst", n, index, *ernst_oracle(fam.g[n], fam.f[n], (x0, y0, t0)), 0,
                         f"x={x0}, y={y0}, t={t0}"))
    return sorted(rows, key=lambda r: (r[0], r[1], -1 if r[2] is None else r[2]))


def su11_rows_oracle(fam: TauFamily, n: int, params: V.Su11Params,
                     pair_index: int = 0) -> list[tuple]:
    """check_su11's (equation_id, n, order_index, status, witness, term_count, note) rows,
    in x, y: every identity of the transformed family by identity_oracle, on Pairs.  A row
    reads the residual's real part, or else its imaginary part."""
    g, f = zip(*(su11_transform(fam, k, params) for k in range(fam.n_max + 1)))
    note = f"alpha={params.alpha}, beta={params.beta}"
    rows = []
    for name, (lhs, rhs) in identity_oracle(g, f, n).items():
        res = lhs - rhs
        read, part = (res.im, "; imaginary part") if res.im and not res.re else (res.re, "")
        rows.append((f"su11.{name}", n, pair_index, *row_outcome(read), note + part))
    return rows


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

polys = st.dictionaries(monomials, rationals, max_size=5).map(LaurentPoly)
laurent_polys = st.dictionaries(laurent_monomials, rationals, max_size=5).map(LaurentPoly)

xy_monomials = st.builds(
    Monomial,
    st.just(0),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
xy_polys = st.dictionaries(xy_monomials, rationals, max_size=5).map(LaurentPoly)

x_monomials = st.builds(
    Monomial, st.just(0), st.integers(min_value=0, max_value=6), st.just(0)
)
x_polys = st.dictionaries(x_monomials, rationals, max_size=5).map(LaurentPoly)
