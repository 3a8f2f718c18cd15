"""Identity-checking harness.

Every check reduces a claimed identity to a residual Laurent polynomial and
passes exactly when that residual is identically zero; failures carry the
leading residual term as a witness.  Identities in t are verified as full
Laurent-polynomial statements, which is stronger than the physical unit
circle slice where the rotation parameters are real.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Literal, Sequence

from . import closedform
from .gaussian import GaussianRational, minus_i_power
from .laurent import (
    LaurentPoly,
    ZERO,
    conjugate_coeffs,
    monomial,
    serialize,
    subst_t_inverse,
    subst_t_negate,
    subst_t_times_i,
    subst_y_negate,
    swap_xy,
)
from .operators import (
    FOperator,
    apply_F,
    apply_F_weyl,
    d_x,
    d_y,
    hirota,
    hirota_dst,
)
from .report import CheckReport, sort_key
from .wronskian import TauFamily, jacobi_identity_check

__all__ = [
    "star",
    "check_toda",
    "check_mixed",
    "check_conjecture",
    "check_symmetries",
    "check_orderwise_toda",
    "check_orderwise_nakamura",
    "orderwise_toda_sides",
    "orderwise_nakamura_sides",
    "Su11Params",
    "su11_transform",
    "check_su11",
    "random_su11_params",
    "ernst_residual_numeric",
    "DEFAULT_ERNST_POINTS",
    "SUITE_NAMES",
    "suite_tasks",
    "run_checks",
    "family_depth_needed",
]


def star(p: LaurentPoly) -> LaurentPoly:
    """Conjugate of a solution: coefficient conjugation composed with t -> 1/t."""
    return subst_t_inverse(conjugate_coeffs(p))


def _report(
    equation_id: str,
    n: int,
    residual: LaurentPoly,
    started: float,
    order_index: int | None = None,
    term_count: int = 0,
    note: str | None = None,
) -> CheckReport:
    elapsed = time.perf_counter() - started
    if residual.is_zero:
        return CheckReport(
            equation_id, n, order_index=order_index, term_count=term_count,
            elapsed=elapsed, note=note,
        )
    mono, coeff = residual.leading_term()
    return CheckReport(
        equation_id,
        n,
        order_index=order_index,
        status="fail",
        witness=serialize(LaurentPoly({mono: coeff})),
        term_count=term_count,
        elapsed=elapsed,
        note=note,
    )


# -- bilinear lattice identities ---------------------------------------------

Which = Literal["tau", "g", "f"]


def check_toda(fam: TauFamily, n: int, which: Which = "tau") -> CheckReport:
    """Residual of D_S D_T a_n . a_n - 2 a_{n+1} a_{n-1} for a in {tau, g, f}."""
    if not 1 <= n <= fam.n_max - 1:
        raise ValueError(f"need 1 <= n <= {fam.n_max - 1}, got {n}")
    seq = {"tau": fam.tau, "g": fam.g, "f": fam.f}[which]
    started = time.perf_counter()
    residual = hirota_dst(seq[n], seq[n]) - 2 * (seq[n + 1] * seq[n - 1])
    return _report(
        f"toda.{which}", n, residual, started, term_count=seq[n].term_count
    )


def check_mixed(fam: TauFamily, n: int) -> CheckReport:
    """Residual of D_S D_T f_n . g_n - f_{n+1} g_{n-1} - f_{n-1} g_{n+1}."""
    if not 1 <= n <= fam.n_max - 1:
        raise ValueError(f"need 1 <= n <= {fam.n_max - 1}, got {n}")
    started = time.perf_counter()
    residual = (
        hirota_dst(fam.f[n], fam.g[n])
        - fam.f[n + 1] * fam.g[n - 1]
        - fam.f[n - 1] * fam.g[n + 1]
    )
    return _report("mixed", n, residual, started, term_count=fam.g[n].term_count)


def check_conjecture(fam: TauFamily, n: int) -> list[CheckReport]:
    """The four decomposition equations for the pair (g_n, f_n)."""
    if not 1 <= n <= fam.n_max:
        raise ValueError(f"need 1 <= n <= {fam.n_max}, got {n}")
    reports = []
    for eq_id, residual_fn in _conjecture_checks(fam.g[n], fam.f[n], n):
        started = time.perf_counter()
        residual = residual_fn()
        reports.append(
            _report(eq_id, n, residual, started, term_count=fam.g[n].term_count)
        )
    return reports


def _conjecture_checks(g, f, n):
    gs, fs = star(g), star(f)
    fop = FOperator(n)
    return [
        ("tsdec1", lambda: hirota("x", g, f, 1) - hirota("x", gs, fs, 1)),
        ("tsdec2", lambda: hirota("y", g, f, 1) + hirota("y", gs, fs, 1)),
        ("tsdec3", lambda: apply_F(fop, gs, f)),
        ("tsdec4", lambda: apply_F(fop, gs, g) + apply_F(fop, fs, f)),
    ]


def check_symmetries(fam: TauFamily, n: int) -> list[CheckReport]:
    """Structural symmetries of g_n and f_n in the t parametrization.

    prop1: star equals plain t -> 1/t (coefficients are real).
    prop2: star equals y -> -y.
    prop3: t -> -t scales by (-1)^n on g and (-1)^{n-1} on f.
    prop4: t -> i t equals (-i)^{n^2} (swap x,y) on g and (-i)^{n^2-1} on f.
    mirror: the t^-m coefficient is the y-reflection of the t^m coefficient.
    """
    if not 1 <= n <= fam.n_max:
        raise ValueError(f"need 1 <= n <= {fam.n_max}, got {n}")
    g, f = fam.g[n], fam.f[n]
    reports = []

    def run(eq_id: str, residual_fn: Callable[[], LaurentPoly], subject: LaurentPoly):
        started = time.perf_counter()
        reports.append(
            _report(eq_id, n, residual_fn(), started, term_count=subject.term_count)
        )

    run("prop1.g", lambda: star(g) - subst_t_inverse(g), g)
    run("prop1.f", lambda: star(f) - subst_t_inverse(f), f)
    run("prop2.g", lambda: star(g) - subst_y_negate(g), g)
    run("prop2.f", lambda: star(f) - subst_y_negate(f), f)
    run("prop3.g", lambda: subst_t_negate(g) - (-1) ** n * g, g)
    run("prop3.f", lambda: subst_t_negate(f) - (-1) ** (n - 1) * f, f)
    run("prop4.g", lambda: subst_t_times_i(g) - minus_i_power(n * n) * swap_xy(g), g)
    run("prop4.f", lambda: subst_t_times_i(f) - minus_i_power(n * n - 1) * swap_xy(f), f)

    def mirror_residual(p: LaurentPoly) -> LaurentPoly:
        # Each order m keeps its own t-slot so distinct failures cannot cancel.
        total = ZERO
        for m, coeff_poly in p.t_coefficients().items():
            diff = p.coeff_of_t(-m) - subst_y_negate(coeff_poly)
            total = total + diff * monomial(1, et=m)
        return total

    run("mirror.g", lambda: mirror_residual(g), g)
    run("mirror.f", lambda: mirror_residual(f), f)
    return reports


# -- SU(1,1) transformations --------------------------------------------------

@dataclass(frozen=True)
class Su11Params:
    """Transformation scalars; rejected when |alpha|^2 equals |beta|^2."""

    alpha: GaussianRational
    beta: GaussianRational

    def __post_init__(self):
        if self.alpha.abs2() == self.beta.abs2():
            raise ValueError("degenerate parameters: |alpha|^2 == |beta|^2")


def su11_transform(
    fam: TauFamily, n: int, params: Su11Params
) -> tuple[LaurentPoly, LaurentPoly]:
    """Transformed pair (alpha g + beta* f, beta g + alpha* f) at site n."""
    if not 0 <= n <= fam.n_max:
        raise ValueError(f"need 0 <= n <= {fam.n_max}, got {n}")
    g, f = fam.g[n], fam.f[n]
    gp = params.alpha * g + params.beta.conjugate() * f
    fp = params.beta * g + params.alpha.conjugate() * f
    return gp, fp


def random_su11_params(count: int, seed: int = 1789) -> list[Su11Params]:
    """Deterministic admissible parameter pairs with small Gaussian-rational parts."""
    rng = random.Random(seed)

    def scalar() -> GaussianRational:
        return GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )

    params: list[Su11Params] = []
    while len(params) < count:
        alpha, beta = scalar(), scalar()
        if alpha.abs2() == beta.abs2():
            continue
        params.append(Su11Params(alpha, beta))
    return params


def check_su11(
    fam: TauFamily, n: int, params: Su11Params, pair_index: int = 0
) -> list[CheckReport]:
    """Toda, mixed and decomposition checks for one transformed pair at site n.

    The Toda and mixed identities need the transformed neighbours n-1, n+1,
    so n must stay below fam.n_max.
    """
    if not 1 <= n <= fam.n_max - 1:
        raise ValueError(f"need 1 <= n <= {fam.n_max - 1}, got {n}")
    note = f"alpha={params.alpha}, beta={params.beta}"
    (g_lo, f_lo), (g, f), (g_hi, f_hi) = (
        su11_transform(fam, k, params) for k in (n - 1, n, n + 1)
    )
    reports = []

    def run(eq_id: str, residual_fn: Callable[[], LaurentPoly]):
        started = time.perf_counter()
        reports.append(
            _report(
                eq_id, n, residual_fn(), started,
                order_index=pair_index, term_count=g.term_count, note=note,
            )
        )

    run("su11.toda.g", lambda: hirota_dst(g, g) - 2 * (g_hi * g_lo))
    run("su11.toda.f", lambda: hirota_dst(f, f) - 2 * (f_hi * f_lo))
    run("su11.mixed", lambda: hirota_dst(f, g) - f_hi * g_lo - f_lo * g_hi)
    for eq_id, residual_fn in _conjecture_checks(g, f, n):
        run(f"su11.{eq_id}", residual_fn)
    return reports


# -- order-by-order systems ---------------------------------------------------

TodaFamily = Literal["g", "f", "mixed"]

# (top t-order K, direct-case boundary) per family; the Laurent order at
# index I is K - 2I and the mirror partner of I is K_index - I.
def _toda_spans(n: int) -> dict[str, tuple[int, int]]:
    return {"g": (2 * n, n), "f": (2 * n - 2, n - 1), "mixed": (2 * n - 1, n - 1)}


def orderwise_toda_sides(
    fam: TauFamily, n: int, I: int, family: TodaFamily
) -> tuple[LaurentPoly, LaurentPoly]:
    """Left and right side of the order-I lattice equation, any valid I.

    Out-of-range Laurent coefficients enter as zero, so one convolution
    formula covers the low-order, middle and mirrored cases alike.
    """
    if not 1 <= n <= fam.n_max - 1:
        raise ValueError(f"need 1 <= n <= {fam.n_max - 1}, got {n}")
    spans = _toda_spans(n)
    if family not in spans:
        raise ValueError(f"unknown family {family!r}")
    top, _ = spans[family]
    if not 0 <= I <= top:
        raise ValueError(f"order index {I} out of range 0..{top} for family {family!r}")

    gt = lambda k, m: fam.g[k].coeff_of_t(m)
    ft = lambda k, m: fam.f[k].coeff_of_t(m)
    lhs, rhs = ZERO, ZERO
    if family == "g":
        for J in range(I + 1):
            lhs = lhs + hirota_dst(gt(n, n - 2 * J), gt(n, n - 2 * I + 2 * J))
            rhs = rhs + gt(n + 1, n - 2 * J + 1) * gt(n - 1, n - 2 * I + 2 * J - 1)
        rhs = 2 * rhs
    elif family == "f":
        for J in range(I + 1):
            lhs = lhs + hirota_dst(ft(n, n - 2 * J - 1), ft(n, n - 2 * I + 2 * J - 1))
            rhs = rhs + ft(n + 1, n - 2 * J) * ft(n - 1, n - 2 * I + 2 * J - 2)
        rhs = 2 * rhs
    else:
        for J in range(I + 1):
            lhs = lhs + hirota_dst(ft(n, n - 2 * J - 1), gt(n, n - 2 * I + 2 * J))
            rhs = (
                rhs
                + ft(n + 1, n - 2 * J) * gt(n - 1, n - 2 * I + 2 * J - 1)
                + ft(n - 1, n - 2 * J - 2) * gt(n + 1, n - 2 * I + 2 * J + 1)
            )
    return lhs, rhs


_TODA_CASE_IDS = {
    "g": ("TD1", "TD2", "TD3"),
    "f": ("TD4", "TD5", "TD6"),
    "mixed": ("TD7", "TD8", "TD9"),
}


def check_orderwise_toda(
    fam: TauFamily, n: int, I: int, family: TodaFamily
) -> CheckReport:
    """Order-I coefficient identity of the lattice equations.

    Above the middle order the identity is generated from its low-order
    partner by y -> -y; the check then also demands that this mirrored
    residual agree with the one derived directly at order I.
    """
    if family not in _TODA_CASE_IDS:
        raise ValueError(f"unknown family {family!r}")
    started = time.perf_counter()
    top, direct_end = _toda_spans(n)[family]
    low_id, mid_id, mirror_id = _TODA_CASE_IDS[family]
    lhs, rhs = orderwise_toda_sides(fam, n, I, family)
    if I <= direct_end:
        eq_id = low_id if I < direct_end else mid_id
        return _report(eq_id, n, lhs - rhs, started, order_index=I,
                       term_count=lhs.term_count)
    partner_lhs, partner_rhs = orderwise_toda_sides(fam, n, top - I, family)
    mirrored = subst_y_negate(partner_lhs - partner_rhs)
    direct = lhs - rhs
    if direct != mirrored:
        return _report(mirror_id, n, direct - mirrored, started, order_index=I,
                       term_count=lhs.term_count, note="route mismatch")
    return _report(mirror_id, n, mirrored, started, order_index=I,
                   term_count=lhs.term_count)


NakWhich = Literal["B1", "B2", "B3", "B4"]

_NAK_CASE_IDS = {
    "B1": ("B.1", "B.2", "B.3"),
    "B2": ("B.4", "B.5", "B.6"),
    "B3": ("B.7", "B.8", "B.9"),
    "B4": ("B.10", "B.11", "B.12"),
}


def _nak_span(n: int, which: NakWhich) -> int:
    return 2 * n if which == "B4" else 2 * n - 1


def orderwise_nakamura_sides(
    fam: TauFamily, n: int, I: int, which: NakWhich
) -> tuple[LaurentPoly, LaurentPoly]:
    """Order-I decomposition-equation sides (the right side is always zero)."""
    if not 1 <= n <= fam.n_max:
        raise ValueError(f"need 1 <= n <= {fam.n_max}, got {n}")
    if which not in _NAK_CASE_IDS:
        raise ValueError(f"unknown equation selector {which!r}")
    top = _nak_span(n, which)
    if not 0 <= I <= top:
        raise ValueError(f"order index {I} out of range 0..{top} for {which}")

    gt = lambda m: fam.g[n].coeff_of_t(m)
    ft = lambda m: fam.f[n].coeff_of_t(m)
    fop = FOperator(n)
    lhs = ZERO
    for J in range(I + 1):
        if which == "B1":
            lhs = lhs + hirota("x", gt(n - 2 * J), ft(n - 2 * I + 2 * J - 1), 1)
            lhs = lhs - hirota("x", gt(-n + 2 * J), ft(-n + 2 * I - 2 * J + 1), 1)
        elif which == "B2":
            lhs = lhs + hirota("y", gt(n - 2 * J), ft(n - 2 * I + 2 * J - 1), 1)
            lhs = lhs + hirota("y", gt(-n + 2 * J), ft(-n + 2 * I - 2 * J + 1), 1)
        elif which == "B3":
            lhs = lhs + apply_F(fop, gt(-n + 2 * J), ft(n - 2 * I + 2 * J - 1))
        else:
            lhs = lhs + apply_F(fop, gt(-n + 2 * J), gt(n - 2 * I + 2 * J))
            lhs = lhs + apply_F(fop, ft(-n + 2 * J + 1), ft(n - 2 * I + 2 * J + 1))
    return lhs, ZERO


def check_orderwise_nakamura(
    fam: TauFamily, n: int, I: int, which: NakWhich
) -> CheckReport:
    """Order-I coefficient identity of one decomposition equation."""
    if which not in _NAK_CASE_IDS:
        raise ValueError(f"unknown equation selector {which!r}")
    started = time.perf_counter()
    top = _nak_span(n, which)
    low_id, mid_id, mirror_id = _NAK_CASE_IDS[which]
    if I <= n:
        lhs, _ = orderwise_nakamura_sides(fam, n, I, which)
        if which == "B4":
            # The I = 0 instance is the highest-order equation, labelled last.
            eq_id = mid_id if I == 0 else low_id
        else:
            eq_id = low_id if I < n else mid_id
        return _report(eq_id, n, lhs, started, order_index=I,
                       term_count=lhs.term_count)
    lhs, _ = orderwise_nakamura_sides(fam, n, I, which)
    partner_lhs, _ = orderwise_nakamura_sides(fam, n, top - I, which)
    mirrored = subst_y_negate(partner_lhs)
    if not (lhs - mirrored).is_zero:
        return _report(mirror_id, n, lhs - mirrored, started, order_index=I,
                       term_count=lhs.term_count, note="route mismatch")
    return _report(mirror_id, n, mirrored, started, order_index=I,
                   term_count=lhs.term_count)


# -- numeric spot-check of the complex-potential equation ----------------------

# Points are (x, y, t) with |t| = 1 exactly so that t -> 1/t matches complex
# conjugation; rational unit-circle values come from Pythagorean triples.
DEFAULT_ERNST_POINTS: tuple[tuple, ...] = (
    (GaussianRational(2), GaussianRational(Fraction(1, 2)), GaussianRational(1)),
    (
        GaussianRational(Fraction(3, 2)),
        GaussianRational(Fraction(1, 3)),
        GaussianRational(Fraction(3, 5), Fraction(4, 5)),
    ),
    (
        GaussianRational(Fraction(5, 4)),
        GaussianRational(Fraction(-2, 5)),
        GaussianRational(Fraction(5, 13), Fraction(12, 13)),
    ),
)


def ernst_residual_numeric(
    fam: TauFamily, n: int, samples: Sequence[tuple] = DEFAULT_ERNST_POINTS
) -> list[CheckReport]:
    """Evaluate the complex-potential residual of xi = g_n/f_n at sample points.

    Uses the standard axisymmetric prolate-spheroidal form: with
    B = ((x^2-1) xi_x)_x + ((1-y^2) xi_y)_y and
    G = (x^2-1) xi_x^2 + (1-y^2) xi_y^2, the residual is
    (xi xi* - 1) B - 2 xi* G, cleared of denominators.  Evaluation is exact
    rational arithmetic; a passing point yields exactly zero.
    """
    if not 1 <= n <= fam.n_max:
        raise ValueError(f"need 1 <= n <= {fam.n_max}, got {n}")
    g, f = fam.g[n], fam.f[n]
    gs, fs = star(g), star(f)
    gx, gy = d_x(g), d_y(g)
    fx, fy = d_x(f), d_y(f)
    p = gx * f - g * fx
    q = gy * f - g * fy
    px, qy = d_x(p), d_y(q)

    reports = []
    for idx, (x0, y0, t0) in enumerate(samples):
        started = time.perf_counter()
        note = f"x={x0}, y={y0}, t={t0}"
        if t0.abs2() != 1:
            reports.append(
                CheckReport("ernst", n, order_index=idx, status="fail",
                            witness="sample point violates |t| = 1",
                            elapsed=time.perf_counter() - started, note=note)
            )
            continue
        fv = f.evaluate(x0, y0, t0)
        fsv = fs.evaluate(x0, y0, t0)
        if fv.is_zero or fsv.is_zero:
            reports.append(
                CheckReport("ernst", n, order_index=idx, status="fail",
                            witness="denominator vanishes at sample point",
                            elapsed=time.perf_counter() - started, note=note)
            )
            continue
        gv = g.evaluate(x0, y0, t0)
        gsv = gs.evaluate(x0, y0, t0)
        pv = p.evaluate(x0, y0, t0)
        qv = q.evaluate(x0, y0, t0)
        pxv = px.evaluate(x0, y0, t0)
        qyv = qy.evaluate(x0, y0, t0)
        fxv = fx.evaluate(x0, y0, t0)
        fyv = fy.evaluate(x0, y0, t0)
        x2m1 = x0 * x0 - 1
        one_m_y2 = GaussianRational(1) - y0 * y0
        n_b = (
            (2 * x0 * pv + x2m1 * pxv) * fv
            - 2 * x2m1 * pv * fxv
            + (GaussianRational(-2) * y0 * qv + one_m_y2 * qyv) * fv
            - 2 * one_m_y2 * qv * fyv
        )
        n_g = x2m1 * pv * pv + one_m_y2 * qv * qv
        numerator = (gv * gsv - fv * fsv) * n_b - 2 * gsv * n_g
        residual = numerator / (fsv * fv ** 4)
        elapsed = time.perf_counter() - started
        if residual.is_zero:
            reports.append(
                CheckReport("ernst", n, order_index=idx, elapsed=elapsed, note=note)
            )
        else:
            reports.append(
                CheckReport("ernst", n, order_index=idx, status="fail",
                            witness=str(residual), elapsed=elapsed, note=note)
            )
    return reports


# -- suites --------------------------------------------------------------------

@dataclass
class CheckTask:
    equation_id: str
    n: int
    order_index: int | None
    run: Callable[[], CheckReport | list[CheckReport]]


SUITE_NAMES = (
    "toda",
    "mixed",
    "jacobi",
    "conjecture",
    "symmetries",
    "closedforms",
    "weyl",
    "orderwise-A",
    "orderwise-B",
    "ernst-numeric",
    "all",
)

# Family depth each suite needs to check sites 1..n_max.
_DEPTH_EXTRA = {
    "toda": 1,
    "mixed": 1,
    "jacobi": 0,
    "conjecture": 0,
    "symmetries": 0,
    "closedforms": 0,
    "weyl": 0,
    "orderwise-A": 1,
    "orderwise-B": 0,
    "ernst-numeric": 0,
}


def family_depth_needed(suites: Iterable[str], n_max: int) -> int:
    names = set(suites)
    if "all" in names:
        names = set(SUITE_NAMES) - {"all"}
    extra = max((_DEPTH_EXTRA[s] for s in names), default=0)
    return n_max + extra


def suite_tasks(name: str, fam: TauFamily, n_max: int) -> list[CheckTask]:
    if name == "all":
        tasks: list[CheckTask] = []
        for sub in SUITE_NAMES:
            if sub != "all":
                tasks.extend(suite_tasks(sub, fam, n_max))
        return tasks
    builder = _SUITE_BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"unknown suite {name!r}")
    return builder(fam, n_max)


def _toda_suite(fam, n_max):
    def tau_and_g(n: int) -> list[CheckReport]:
        # g_n is tau_n: one residual gives both rows, and the g row costs nothing.
        tau = check_toda(fam, n, "tau")
        return [tau, replace(tau, equation_id="toda.g", elapsed=0.0, note="g_n = tau_n")]

    return [
        CheckTask("toda.tau", n, None, lambda n=n: tau_and_g(n))
        for n in range(1, n_max + 1)
    ] + [
        CheckTask("toda.f", n, None, lambda n=n: check_toda(fam, n, "f"))
        for n in range(1, n_max + 1)
    ]


def _mixed_suite(fam, n_max):
    return [
        CheckTask("mixed", n, None, lambda n=n: check_mixed(fam, n))
        for n in range(1, n_max + 1)
    ]


def _jacobi_suite(fam, n_max):
    return [
        CheckTask("jacobi", n, None, lambda n=n: jacobi_identity_check(n))
        for n in range(1, n_max + 1)
    ]


def _conjecture_suite(fam, n_max):
    return [
        CheckTask("tsdec", n, None, lambda n=n: check_conjecture(fam, n))
        for n in range(1, n_max + 1)
    ]


def _symmetries_suite(fam, n_max):
    return [
        CheckTask("symmetry", n, None, lambda n=n: check_symmetries(fam, n))
        for n in range(1, n_max + 1)
    ]


def _closedforms_suite(fam, n_max):
    tasks = [
        CheckTask("closed.W", 0, None, lambda: _check_w_forms(max(12, 2 * n_max + 1))),
        CheckTask("closed.A", 0, None, _check_a_facts),
    ]
    for n in range(1, max(6, n_max) + 1):
        tasks.append(CheckTask("closed.q0", n, None, lambda n=n: _check_q0(n)))
    for n in range(1, n_max + 1):
        tasks.append(
            CheckTask("closed.extreme", n, None, lambda n=n: _check_extremes(fam, n))
        )
    return tasks


def _weyl_suite(fam, n_max):
    tasks = [CheckTask("weyl.lock", 0, None, lambda: _check_weyl_lock(50, seed=421))]
    for n in range(1, max(3, n_max) + 1):
        tasks.append(CheckTask("weyl.pair", n, None, lambda n=n: _check_weyl_pair(n)))
    return tasks


def _orderwise_a_suite(fam, n_max):
    tasks = []
    for n in range(1, n_max + 1):
        for family, (top, _) in _toda_spans(n).items():
            for I in range(top + 1):
                tasks.append(
                    CheckTask(
                        f"orderA.{family}", n, I,
                        lambda n=n, I=I, family=family: check_orderwise_toda(
                            fam, n, I, family
                        ),
                    )
                )
    return tasks


def _orderwise_b_suite(fam, n_max):
    tasks = []
    for n in range(1, n_max + 1):
        for which in ("B1", "B2", "B3", "B4"):
            for I in range(_nak_span(n, which) + 1):
                tasks.append(
                    CheckTask(
                        f"orderB.{which}", n, I,
                        lambda n=n, I=I, which=which: check_orderwise_nakamura(
                            fam, n, I, which
                        ),
                    )
                )
    return tasks


def _ernst_suite(fam, n_max):
    return [
        CheckTask("ernst", n, None, lambda n=n: ernst_residual_numeric(fam, n))
        for n in range(1, n_max + 1)
    ]


_SUITE_BUILDERS = {
    "toda": _toda_suite,
    "mixed": _mixed_suite,
    "jacobi": _jacobi_suite,
    "conjecture": _conjecture_suite,
    "symmetries": _symmetries_suite,
    "closedforms": _closedforms_suite,
    "weyl": _weyl_suite,
    "orderwise-A": _orderwise_a_suite,
    "orderwise-B": _orderwise_b_suite,
    "ernst-numeric": _ernst_suite,
}


# -- closed-form and Weyl-branch checks used by the suites ---------------------

def _check_w_forms(w_max: int) -> CheckReport:
    started = time.perf_counter()
    for k in range(2, w_max + 1):
        if closedform.w_formula(k) != closedform.w_recursive(k):
            diff = closedform.w_formula(k) - closedform.w_recursive(k)
            return _report("closed.W", k, diff, started)
    return CheckReport("closed.W", 0, elapsed=time.perf_counter() - started,
                       note=f"formula matches recursion for n=2..{w_max}")


def _check_a_facts() -> CheckReport:
    started = time.perf_counter()
    expected = {1: 1, 2: 1, 3: 4, 4: 144}
    for k, value in expected.items():
        if closedform.a_coeff(k) != value:
            return CheckReport("closed.A", k, status="fail",
                               witness=f"A_{k} = {closedform.a_coeff(k)}",
                               elapsed=time.perf_counter() - started)
    printed_holds = []
    for k in range(2, 6):
        a_prev, a_k, a_next = (closedform.a_coeff(k - 1), closedform.a_coeff(k),
                               closedform.a_coeff(k + 1))
        if a_prev * a_next != k * k * a_k * a_k:
            return CheckReport("closed.A", k, status="fail",
                               witness="squared recursion fails",
                               elapsed=time.perf_counter() - started)
        printed_holds.append("holds" if a_prev * a_next == k * k * a_k else "fails")
    note = ("squared recursion A(n-1)A(n+1) = n^2 A(n)^2 holds for n=2..5; "
            "unsquared variant " +
            ", ".join(f"{state} at n={k}" for k, state in zip(range(2, 6), printed_holds)))
    return CheckReport("closed.A", 0, elapsed=time.perf_counter() - started, note=note)


def _check_q0(n: int) -> CheckReport:
    started = time.perf_counter()
    g_closed = closedform.g_q0_closed(n)
    residual = g_closed - closedform.g_q0_wronskian(n)
    if residual.is_zero:
        residual = closedform.f_q0_closed(n) - closedform.f_q0_wronskian(n)
    return _report("closed.q0", n, residual, started, term_count=g_closed.term_count)


def _check_extremes(fam: TauFamily, n: int) -> CheckReport:
    started = time.perf_counter()
    checks = [
        (closedform.g_high(n), fam.g[n].coeff_of_t(n)),
        (closedform.g_low(n), fam.g[n].coeff_of_t(-n)),
        (closedform.f_high(n), fam.f[n].coeff_of_t(n - 1)),
        (closedform.f_low(n), fam.f[n].coeff_of_t(-n + 1)),
    ]
    for closed, extracted in checks:
        if closed != extracted:
            return _report("closed.extreme", n, closed - extracted, started,
                           term_count=fam.g[n].term_count)
    return CheckReport("closed.extreme", n, term_count=fam.g[n].term_count,
                       elapsed=time.perf_counter() - started)


def _random_x_poly(rng: random.Random, max_degree: int = 6) -> LaurentPoly:
    terms = {}
    for e in range(max_degree + 1):
        if rng.random() < 0.5:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            if c:
                terms[(0, e, 0)] = c
    return LaurentPoly(terms)


def _check_weyl_lock(count: int, seed: int) -> CheckReport:
    """apply_F and apply_F_weyl must agree exactly on x-only inputs."""
    started = time.perf_counter()
    rng = random.Random(seed)
    done = 0
    while done < count:
        a, b = _random_x_poly(rng), _random_x_poly(rng)
        if a.is_zero or b.is_zero:
            continue
        n = rng.randint(1, 4)
        diff = apply_F(FOperator(n), a, b) - apply_F_weyl(n, a, b)
        if not diff.is_zero:
            return _report("weyl.lock", n, diff, started, order_index=done)
        done += 1
    return CheckReport("weyl.lock", 0, elapsed=time.perf_counter() - started,
                       note=f"{count} random x-only pairs agree")


def _check_weyl_pair(n: int) -> CheckReport:
    started = time.perf_counter()
    g = closedform.g_q0_closed(n)
    f = closedform.f_q0_closed(n)
    residual = apply_F_weyl(n, g, f)
    if residual.is_zero:
        residual = apply_F_weyl(n, g, g) + apply_F_weyl(n, f, f)
    return _report("weyl.pair", n, residual, started, term_count=g.term_count)


# -- execution -----------------------------------------------------------------

def run_checks(tasks: Sequence[CheckTask], fail_fast: bool = False) -> list[CheckReport]:
    """Execute tasks in order, flatten grouped results and sort them deterministically."""
    reports: list[CheckReport] = []
    for task in tasks:
        result = task.run()
        batch = result if isinstance(result, list) else [result]
        reports.extend(batch)
        if fail_fast and any(not r.passed for r in batch):
            break
    reports.sort(key=sort_key)
    return reports
