"""Identity-checking harness.

Every check reduces a claimed identity to a residual Laurent polynomial and
passes exactly when that residual is identically zero; a failure carries the
residual's leading term, read in x, y, as a witness, and its x,y term count.
The site table and the operators work in u = (x+y)/2, v = (x-y)/2.
Identities in t are verified as full Laurent-polynomial statements, which is
stronger than the physical unit circle slice where the rotation parameters
are real.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .gaussian import GaussianRational
from .laurent import (
    LaurentPoly,
    ZERO,
    differentiate,
    evaluate,
    from_uv,
    monomial,
    serialize,
    subst_t_inverse,
    subst_t_negate,
    subst_y_negate,
    swap_xy,
    to_uv,
)
from .operators import apply_F, apply_F_weyl, hirota, hirota_dst, operand
from .wronskian import TauFamily, sylvester_minors

__all__ = [
    "CheckReport",
    "star",
    "check_identity",
    "jacobi_residuals",
    "check_jacobi",
    "check_symmetries",
    "IDENTITIES",
    "ORDERWISE_SYSTEMS",
    "orderwise_span",
    "check_orderwise",
    "Su11Params",
    "check_su11",
    "ernst_residual_numeric",
    "ERNST_POINTS",
    "SUITES",
    "suite_tasks",
    "run_checks",
]


class CheckReport(NamedTuple):
    """Outcome of one identity check, immutable; _replace makes a changed copy.

    status is "pass" exactly when the residual polynomial was identically
    zero (or, for pointwise checks, every evaluated residual vanished),
    "fail" when it was not, and "error" when the check could not be carried
    out (a harness exception or an unusable sample point).  witness holds
    the leading residual term in canonical text form when a check fails, and
    the cause of an error.  term_count is the x,y term count of a failing
    residual polynomial, and 0 on every other row.  order_index carries the
    Laurent order I where one applies.  elapsed is written by run_checks: a
    task's whole time on its first row, and 0.0 on every other row.
    """

    equation_id: str
    n: int
    order_index: int | None = None
    status: str = "pass"
    witness: str | None = None
    term_count: int = 0
    elapsed: float = 0.0
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return self._asdict()


def sort_key(report: CheckReport):
    """Deterministic report order: (equation_id, n, order_index)."""
    idx = -1 if report.order_index is None else report.order_index
    return (report.equation_id, report.n, idx)


def star(p: LaurentPoly) -> LaurentPoly:
    """Conjugate of a solution: t -> 1/t, the coefficients being real."""
    return subst_t_inverse(p)


def _report(
    equation_id: str,
    n: int,
    residual: LaurentPoly,
    order_index: int | None = None,
    note: str | None = None,
) -> CheckReport:
    """The row of a residual in u, v: a pass when it is zero, else read once in x, y."""
    status, witness, term_count = "pass", None, 0
    if not residual.is_zero:
        xy = from_uv(residual)
        mono, coeff = xy.leading_term()
        status, witness, term_count = "fail", serialize(LaurentPoly({mono: coeff})), xy.term_count
    return CheckReport(equation_id, n, order_index, status, witness, term_count, note=note)


# -- bilinear identities --------------------------------------------------------

class _Site:
    """A sequence pair g, f read around site n in u, v, and the identities there.

    The sequences are given at sites n-1, n and n+1.  Only the Toda and mixed
    identities read the neighbours g_lo, g_hi, f_lo and f_hi, so they may be
    None where the sequence ends.
    The stars g_star and f_star of g_n and f_n, the records g, f, gs and fs
    of g_n, f_n, g_star and f_star, the pair (D_x g.f, D_y g.f) and each
    IDENTITIES entry are computed on first use, once each; a row that reads
    only a polynomial reads it, not its record.
    """

    def __init__(self, n: int, g: Sequence, f: Sequence):
        self.n = n
        self.g_lo, self.g_n, self.g_hi = g
        self.f_lo, self.f_n, self.f_hi = f
        self._residuals: dict[str, LaurentPoly] = {}

    g_star = cached_property(lambda self: star(self.g_n))
    f_star = cached_property(lambda self: star(self.f_n))
    g = cached_property(lambda self: operand(self.g_n))
    f = cached_property(lambda self: operand(self.f_n))
    gs = cached_property(lambda self: operand(self.g_star))
    fs = cached_property(lambda self: operand(self.f_star))
    hirota_gf = cached_property(lambda self: hirota(self.g, self.f))

    def identity(self, name: str) -> LaurentPoly:
        """Residual lhs - rhs of one identity."""
        if name not in self._residuals:
            self._residuals[name] = IDENTITIES[name](self)
        return self._residuals[name]


def _family_site(fam: TauFamily, n: int, reach: int = 0) -> _Site:
    """Site n of the family, made on first use and kept in its site table.

    A check at site n reads the family up to site n + reach, so n must lie
    in 1..fam.n_max - reach; ValueError otherwise, before anything is made.
    """
    if not 1 <= n <= fam.n_max - reach:
        raise ValueError(f"need 1 <= n <= {fam.n_max - reach}, got {n}")
    if n not in fam.sites:  # sites n-1..n+1 of the family's u,v sequences, None past n_max
        around = lambda seq: (*seq[n - 1:n + 2], None)[:3]
        fam.sites[n] = _Site(n, around(fam.tau_uv), around(fam.f_uv))
    return fam.sites[n]


def _with_star(h: LaurentPoly, sign: int) -> LaurentPoly:
    # star is a ring homomorphism that commutes with d/dx and d/dy, so a
    # bracket of starred operands is the star of the bracket: D(g*, f*) = D(g, f)*.
    return h + sign * star(h)


# Each bilinear identity once, as its residual lhs - rhs at one site.  An
# orderwise system reads one t-coefficient of it.
IDENTITIES: dict[str, Callable[[_Site], LaurentPoly]] = {
    "toda.g": lambda s: hirota_dst(s.g, s.g) - 2 * (s.g_hi * s.g_lo),
    "toda.f": lambda s: hirota_dst(s.f, s.f) - 2 * (s.f_hi * s.f_lo),
    "mixed": lambda s: hirota_dst(s.f, s.g) - (s.f_hi * s.g_lo + s.f_lo * s.g_hi),
    "tsdec1": lambda s: _with_star(s.hirota_gf[0], -1),
    "tsdec2": lambda s: _with_star(s.hirota_gf[1], 1),
    "tsdec3": lambda s: apply_F(s.n, s.gs, s.f),
    "tsdec4": lambda s: apply_F(s.n, s.gs, s.g) + apply_F(s.n, s.fs, s.f),
}


def _reach(name: str) -> int:
    """How many sites past n an identity reads: the Toda and mixed ones read n + 1."""
    return 1 if name in ("toda.g", "toda.f", "mixed") else 0


def check_identity(fam: TauFamily, n: int, name: str) -> CheckReport:
    """The row of the IDENTITIES entry name at site n, under that name."""
    return _report(name, n, _family_site(fam, n, _reach(name)).identity(name))


def jacobi_residuals(fam: TauFamily, n_max: int) -> Iterator[LaurentPoly]:
    """Site n's tau_n, L-L+ tau_n, L- tau_n and L+ tau_n less the seed Wronskian's tau_n,
    D[n;n], D[n+1;n] and D[n;n+1] (sylvester_minors, one elimination), at n = 1..n_max in u, v:
    the first nonzero difference, so a stray term on tau_n is its own witness.  Given this
    derivative rule, half the toda.g residual is exactly Sylvester's D[n;n] tau_n - D[n+1;n]
    D[n;n+1] - tau_{n+1} tau_{n-1}, since hirota_dst(g, g) = 2 (g L-L+ g - L+ g L- g).
    """
    _family_site(fam, n_max)  # the range check, before any elimination
    for n, minors in enumerate(sylvester_minors(n_max), start=1):
        g = _family_site(fam, n).g
        yield next((p - d for p, d in zip((g.p, g.minus_plus, g.minus, g.plus), minors)
                    if p != d), ZERO)


def check_jacobi(fam: TauFamily, n_max: int) -> list[CheckReport]:
    """The jacobi rows at n = 1..n_max."""
    return [_report("jacobi", n, residual)
            for n, residual in enumerate(jacobi_residuals(fam, n_max), start=1)]


def check_symmetries(fam: TauFamily, n: int) -> list[CheckReport]:
    """Structural symmetries of g_n and f_n in the t parametrization.

    prop1: star equals plain t -> 1/t (coefficients are real).
    prop2: star equals y -> -y, which swaps u and v.
    prop3: t -> -t scales by (-1)^n on g and (-1)^{n-1} on f.
    prop4: t -> i t equals (-i)^N (swap x,y, which is v -> -v), N = n^2 on g and n^2-1 on f;
        read in real terms, v -> -v gives the real part of i^N p(i t) (see _quarter_turn).
    mirror: the t^-m coefficient is the y-reflection of the t^m one (prop2 - prop1).
    """
    site, reports = _family_site(fam, n), []
    for k, name in enumerate("gf"):  # f_n's matrix is one dimension smaller
        p, res = getattr(site, name + "_n"), {}
        for prop, residual_fn in (
            ("prop1", lambda: getattr(site, name + "_star") - subst_t_inverse(p)),
            ("prop2", lambda: getattr(site, name + "_star") - swap_xy(p)),
            ("prop3", lambda: subst_t_negate(p) - (-1) ** (n - k) * p),
            ("prop4", lambda: subst_y_negate(p) - _quarter_turn(p, n * n - k)),
            # prop2 - prop1 is p(1/t) - p(-y), whose t^m coefficient is c_{-m} - (y -> -y)(c_m):
            # each order keeps its own t-slot, so distinct failures cannot cancel.
            ("mirror", lambda: res["prop2"] - res["prop1"]),
        ):
            res[prop] = residual_fn()
            reports.append(_report(f"{prop}.{name}", n, res[prop]))
    return reports


def _quarter_turn(p: LaurentPoly, N: int) -> LaurentPoly:
    """The real part of i^N p(i t): each t^m term with m + N even, times (-1)^((m+N)/2)."""
    return LaurentPoly((m, c if (m.et + N) % 4 == 0 else -c)
                       for m, c in p.terms() if (m.et + N) % 2 == 0)


# -- SU(1,1) transformations --------------------------------------------------

class Su11Params(NamedTuple("Su11Params", [("alpha", GaussianRational),
                                            ("beta", GaussianRational)])):
    """Transformation scalars; rejected when |alpha|^2 equals |beta|^2."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, alpha: GaussianRational, beta: GaussianRational):
        if alpha.abs2() == beta.abs2():
            raise ValueError("degenerate parameters: |alpha|^2 == |beta|^2")
        return super().__new__(cls, alpha, beta)


def check_su11(
    fam: TauFamily, n: int, params: Su11Params, pair_index: int = 0
) -> list[CheckReport]:
    """Toda, mixed and decomposition checks for one transformed pair at site n.

    Every identity is bilinear in (g, f): D_S D_T and F are symmetric, D_x
    and D_y antisymmetric, and star is antilinear and commutes with d/dx,
    d/dy and F.  So the residual of the pair (alpha g + beta* f,
    beta g + alpha* f) is a sum of Gaussian scalars c_k times the family's
    own real residuals r_k at site n, which its site table evaluates once
    for every pair and suite.  The row passes when both sum Re(c_k) r_k and
    sum Im(c_k) r_k vanish; it reports the real part, or else the imaginary
    part with "; imaginary part" added to its note.  The Toda and mixed
    identities read sites n-1 and n+1, so n stays below fam.n_max.
    """
    site = _family_site(fam, n, max(map(_reach, IDENTITIES)))
    r = {name: site.identity(name) for name in IDENTITIES}
    r3s = star(r["tsdec3"])
    a, b = params
    ac, bc = a.conjugate(), b.conjugate()
    s, d = GaussianRational(a.abs2() + b.abs2()), GaussianRational(a.abs2() - b.abs2())
    combinations = {
        "toda.g": ((a * a, r["toda.g"]), (2 * a * bc, r["mixed"]), (bc * bc, r["toda.f"])),
        "toda.f": ((b * b, r["toda.g"]), (2 * ac * b, r["mixed"]), (ac * ac, r["toda.f"])),
        "mixed": ((a * b, r["toda.g"]), (s, r["mixed"]), (ac * bc, r["toda.f"])),
        "tsdec1": ((d, r["tsdec1"]),),
        "tsdec2": ((d, r["tsdec2"]),),
        "tsdec3": ((ac * ac, r["tsdec3"]), (b * b, r3s), (ac * b, r["tsdec4"])),
        "tsdec4": ((s, r["tsdec4"]), (2 * ac * bc, r["tsdec3"]), (2 * a * b, r3s)),
    }
    reports = []
    for name, terms in combinations.items():
        real = sum((c.re * r_k for c, r_k in terms), ZERO)
        imag = sum((c.im * r_k for c, r_k in terms), ZERO)
        residual, part = (imag, "; imaginary part") if real.is_zero and imag else (real, "")
        reports.append(_report(f"su11.{name}", n, residual, order_index=pair_index,
                               note=f"alpha={a}, beta={b}{part}"))
    return reports


# -- order-by-order systems ---------------------------------------------------

class OrderwiseSystem(NamedTuple):
    suite: str
    identity: str  # the IDENTITIES entry this system expands in t
    top_offset: int  # top order K(n) = 2n + top_offset
    direct_offset: int  # last direct order D(n) = n + direct_offset
    case_ids: tuple[str, str, str]  # (low, middle, mirror)


# Each identity expanded in t.  The order-I equation is the coefficient of
# t^(K-2I) on both sides, and an order I above D is generated from its
# partner K - I by y -> -y, which swaps u and v.
ORDERWISE_SYSTEMS = {
    "g": OrderwiseSystem("orderwise-A", "toda.g", 0, 0, ("TD1", "TD2", "TD3")),
    "f": OrderwiseSystem("orderwise-A", "toda.f", -2, -1, ("TD4", "TD5", "TD6")),
    "mixed": OrderwiseSystem("orderwise-A", "mixed", -1, -1, ("TD7", "TD8", "TD9")),
    "B1": OrderwiseSystem("orderwise-B", "tsdec1", -1, 0, ("B.1", "B.2", "B.3")),
    "B2": OrderwiseSystem("orderwise-B", "tsdec2", -1, 0, ("B.4", "B.5", "B.6")),
    "B3": OrderwiseSystem("orderwise-B", "tsdec3", -1, 0, ("B.7", "B.8", "B.9")),
    # The I = 0 instance is the highest-order equation and takes the middle
    # id B.11; the other direct orders I = 1..n take the low id B.10.
    "B4": OrderwiseSystem("orderwise-B", "tsdec4", 0, 0, ("B.10", "B.11", "B.12")),
}


def orderwise_span(n: int, system: str) -> tuple[int, int]:
    """Top order K(n) and last direct order D(n) of one orderwise system."""
    if system not in ORDERWISE_SYSTEMS:
        raise ValueError(f"unknown orderwise system {system!r}")
    spec = ORDERWISE_SYSTEMS[system]
    return 2 * n + spec.top_offset, n + spec.direct_offset


def check_orderwise(fam: TauFamily, n: int, system: str) -> list[CheckReport]:
    """Every order-I coefficient identity of one orderwise system at site n.

    Order I reads the coefficient of t^(K-2I) of the identity's residual,
    taken from the family's site table.  Orders up to D(n) are reported
    directly.  Above D(n) the identity is generated from its low-order
    partner K(n) - I by y -> -y; the check then also demands that this
    mirrored residual agree with the one read directly at order I.  A
    residual at a t-exponent no order reads makes one more failing row,
    under the low case id and without an order, whose witness is the
    leading such term.
    """
    top, direct_end = orderwise_span(n, system)
    spec = ORDERWISE_SYSTEMS[system]
    low_id, mid_id, mirror_id = spec.case_ids
    middle = 0 if system == "B4" else direct_end
    site = _family_site(fam, n, _reach(spec.identity))
    by_order = site.identity(spec.identity).t_coefficients()
    reports = []
    for I in range(top + 1):
        residual = by_order.get(top - 2 * I, ZERO)
        eq_id, note = mid_id if I == middle else low_id, None
        if I > direct_end:  # the partner K - I sits at t^(2I-K)
            eq_id, mirrored = mirror_id, swap_xy(by_order.get(2 * I - top, ZERO))
            if residual != mirrored:
                residual, note = residual - mirrored, "route mismatch"
        reports.append(_report(eq_id, n, residual, order_index=I, note=note))
    off_pattern = by_order.keys() - set(range(-top, top + 1, 2))
    if off_pattern:
        m = max(off_pattern)  # every term of this residual sits at t^m
        reports.append(_report(low_id, n, monomial(1, m) * by_order[m],
                               note="off the t^(K-2I) pattern"))
    return reports


# -- numeric spot-check of the complex-potential equation ----------------------

# Points are (x, y, t) with real x, y and |t| = 1 exactly, so that t -> 1/t
# matches complex conjugation; rational unit-circle values come from
# Pythagorean triples.
ERNST_POINTS: tuple[tuple, ...] = (
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


class _GaussInt(NamedTuple):
    """Gaussian integer re + i*im, with the ring operations of the Ernst numerator."""

    re: int
    im: int

    __add__ = lambda a, b: _GaussInt(a.re + b.re, a.im + b.im)
    __sub__ = lambda a, b: _GaussInt(a.re - b.re, a.im - b.im)
    __mul__ = lambda a, b: _GaussInt(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def ernst_residual_numeric(fam: TauFamily, n: int) -> list[CheckReport]:
    """Evaluate the complex-potential residual of xi = g_n/f_n at ERNST_POINTS, read at call time.

    Uses the standard axisymmetric prolate-spheroidal form (xi xi* - 1) E - 2 xi* G, with
    E = ((x^2-1) xi_x)_x + ((1-y^2) xi_y)_y = (d/du L-xi + d/dv L+xi) / 2, the partner of F's M,
    and G = (x^2-1) xi_x^2 + (1-y^2) xi_y^2 = (xi_u L-xi + xi_v L+xi) / 2.  With f = f_n and
    g = g_n, L-+xi = (f L-+g - g L-+f) / f^2, so the row reads g, f, their stars, the fields
    of their records and lp = d/du L-p + d/dv L+p of each, and the residual is N / (2 f* f^4).
    Evaluation is exact: N and f* f^4 are homogeneous of degree 5 in the values read, which
    are Gaussian integers over one denominator, so it cancels and N is tested for zero in
    integers.  A point where f or f* vanishes is an "error".
    """
    site, half = _family_site(fam, n), Fraction(1, 2)
    ell = lambda r: differentiate(r.minus, "x") + differentiate(r.plus, "y")  # the x slot is u
    g, f = site.g, site.f
    polys = (f.p, site.f_star, g.p, site.g_star, g.pu, g.pv, g.plus, g.minus,
             f.pu, f.pv, f.plus, f.minus, ell(g), ell(f))

    at_points = evaluate(polys, [((x0 + y0) * half, (x0 - y0) * half, t0)
                                 for x0, y0, t0 in ERNST_POINTS])

    def outcome(values) -> tuple[str, str | None]:
        f, fs, g, gs, gu, gv, gp, gm, fu, fv, fp, fm, lg, lf = (_GaussInt(*v) for v in values)
        if f == (0, 0) or fs == (0, 0):
            return "error", "denominator vanishes at sample point"
        # a, b are f^2 L-xi and f^2 L+xi; n_e is 2 f^3 E and n_g is 2 f^4 G
        a, b = f * gm - g * fm, f * gp - g * fp
        cross = a * fu + b * fv
        n_e = (f * lg - g * lf + fu * gm - gu * fm + fv * gp - gv * fp) * f - (cross + cross)
        n_g = (gu * f - g * fu) * a + (gv * f - g * fv) * b
        numerator = (g * gs - f * fs) * n_e - (gs + gs) * n_g
        if numerator == (0, 0):
            return "pass", None
        return "fail", str(GaussianRational(*numerator)
                           / (2 * GaussianRational(*fs) * GaussianRational(*f) ** 4))

    return [CheckReport("ernst", n, idx, *outcome(values), note=f"x={x0}, y={y0}, t={t0}")
            for idx, ((x0, y0, t0), (values, _)) in enumerate(zip(ERNST_POINTS, at_points))]


# -- suites --------------------------------------------------------------------

class CheckTask(NamedTuple):
    equation_id: str
    n: int
    reads: int  # the deepest family site the task reads; 0 when it reads none
    run: Callable[[TauFamily | None], CheckReport | list[CheckReport]]


def _per_site(equation_id: str, last: int, check: Callable[[TauFamily, int], object],
              reach: int | None = 0) -> list[CheckTask]:
    """One task per site n = 1..last, each running check(fam, n) and reading the family
    to site n + reach; with reach None it reads no family."""
    return [CheckTask(equation_id, n, 0 if reach is None else n + reach,
                      lambda fam, n=n: check(fam, n)) for n in range(1, last + 1)]


def _with_g_row(row: CheckReport) -> list[CheckReport]:
    # g_n is tau_n: the toda.g residual gives the toda.tau row and a copy for g.
    return [row._replace(equation_id="toda.tau"), row._replace(note="g_n = tau_n")]


def _orderwise_tasks(suite: str, n_max: int) -> list[CheckTask]:
    return [
        CheckTask(f"{suite}.{system}", n, n + _reach(spec.identity),
                  lambda fam, n=n, system=system: check_orderwise(fam, n, system))
        for n in range(1, n_max + 1)
        for system, spec in ORDERWISE_SYSTEMS.items()
        if spec.suite == suite
    ]


# Every suite in run order, as the tasks it makes for sites 1..n_max.  The
# tasks call checks by their module-level names, so rebinding a name reaches
# the suite's calls.
SUITES: dict[str, Callable[[int], list[CheckTask]]] = {
    "toda": lambda n_max: (
        _per_site("toda.tau", n_max, lambda fam, n: _with_g_row(check_identity(fam, n, "toda.g")),
                  _reach("toda.g"))
        + _per_site("toda.f", n_max, lambda fam, n: check_identity(fam, n, "toda.f"),
                    _reach("toda.f"))),
    "mixed": lambda n_max: _per_site(
        "mixed", n_max, lambda fam, n: check_identity(fam, n, "mixed"), _reach("mixed")),
    "jacobi": lambda n_max: [CheckTask("jacobi", 0, n_max, lambda fam: check_jacobi(fam, n_max))],
    "conjecture": lambda n_max: [  # site by site, one task per identity
        CheckTask(name, n, n + _reach(name), lambda fam, n=n, name=name: check_identity(fam, n, name))
        for n in range(1, n_max + 1) for name in ("tsdec1", "tsdec2", "tsdec3", "tsdec4")],
    "symmetries": lambda n_max: _per_site(
        "symmetry", n_max, lambda fam, n: check_symmetries(fam, n)),
    "closedforms": lambda n_max: (
        [CheckTask("closed.W", 0, 0, lambda fam: _check_w_forms(max(12, 2 * n_max + 1))),
         CheckTask("closed.A", 0, 0, lambda fam: _check_a_facts())]
        + _per_site("closed.q0", max(6, n_max), lambda fam, n: _check_q0(n, max(6, n_max)), None)
        + _per_site("closed.extreme", n_max, lambda fam, n: _check_extremes(fam, n))),
    "weyl": lambda n_max: (
        [CheckTask("weyl.lock", 0, 0, lambda fam: _check_weyl_lock())]
        + _per_site("weyl.pair", max(3, n_max), lambda fam, n: _check_weyl_pair(n), None)),
    "orderwise-A": lambda n_max: _orderwise_tasks("orderwise-A", n_max),
    "orderwise-B": lambda n_max: _orderwise_tasks("orderwise-B", n_max),
    "ernst-numeric": lambda n_max: _per_site(
        "ernst", n_max, lambda fam, n: ernst_residual_numeric(fam, n)),
}


def suite_tasks(names: Iterable[str], n_max: int) -> list[CheckTask]:
    """The tasks of each suite once, where first named, "all" naming every suite.

    ValueError on an unknown suite, before any task is made.  A run reads the
    family to the largest reads of its tasks.
    """
    expanded: dict[str, None] = {}
    for name in names:
        if name not in SUITES and name != "all":
            raise ValueError(f"unknown suite {name!r}")
        expanded.update(dict.fromkeys(SUITES if name == "all" else [name]))
    return [task for suite in expanded for task in SUITES[suite](n_max)]


# -- closed-form and Weyl-branch checks used by the suites ---------------------
#
# Each body that reads closedform imports it, so a run of the other suites
# never loads that module.

def _check_w_forms(w_max: int) -> CheckReport:
    from . import closedform

    for k in range(2, w_max + 1):
        diff = closedform.w_formula(k) - closedform.w_recursive(k)
        if not diff.is_zero:
            return _report("closed.W", k, to_uv(diff))
    return _report("closed.W", 0, ZERO, note=f"formula matches recursion for n=2..{w_max}")


def _check_a_facts() -> CheckReport:
    from . import closedform

    a = [closedform.a_coeff(k) for k in range(7)]
    failed = lambda k, witness: CheckReport("closed.A", k, status="fail", witness=witness)
    for k, value in {1: 1, 2: 1, 3: 4, 4: 144}.items():
        if a[k] != value:
            return failed(k, f"A_{k} = {a[k]}")
    for k in range(2, 6):
        if a[k - 1] * a[k + 1] != k * k * a[k] * a[k]:
            return failed(k, "squared recursion fails")
    unsquared = (f"{'holds' if a[k - 1] * a[k + 1] == k * k * a[k] else 'fails'} at n={k}"
                 for k in range(2, 6))
    note = ("squared recursion A(n-1)A(n+1) = n^2 A(n)^2 holds for n=2..5; "
            "unsquared variant " + ", ".join(unsquared))
    return CheckReport("closed.A", 0, note=note)


def _check_q0(n: int, last: int) -> CheckReport:
    from . import closedform

    (g_det, f_det), (g, f) = closedform.q0_wronskians(last), closedform.q0_closed(n)
    residual = g - g_det[n - 1]
    if residual.is_zero:
        residual = f - f_det[n - 1]
    return _report("closed.q0", n, to_uv(residual))


def _check_extremes(fam: TauFamily, n: int) -> CheckReport:
    from . import closedform

    site = _family_site(fam, n)  # g_n and f_n in u, v, as the closed forms are
    g, f = site.g_n.t_coefficients(), site.f_n.t_coefficients()
    g_high, f_high = closedform.g_high(n), closedform.f_high(n)  # the lowest: their u <-> v swap
    checks = [
        (g_high, g.get(n, ZERO)),
        (swap_xy(g_high), g.get(-n, ZERO)),
        (f_high, f.get(n - 1, ZERO)),
        (swap_xy(f_high), f.get(1 - n, ZERO)),
    ]
    residual = next((closed - extracted for closed, extracted in checks
                     if closed != extracted), ZERO)
    return _report("closed.extreme", n, residual)


def _check_weyl_lock() -> CheckReport:
    """apply_F and apply_F_weyl agree on every x-only pair at every n.

    On x-only input both forms are bilinear differential operators of order
    at most 2 in each argument, with polynomial coefficients, so their
    difference is sum_{k,l <= 2} c_kl(x) a^(k) b^(l).  On (x^i, x^j) that is
    sum_{k <= i, l <= j} c_kl (i)_k (j)_l x^(i+j-k-l), triangular in the
    falling factorials with c_ij weighted by i! j! != 0.  So its vanishing on
    the nine pairs with i, j <= 2 forces every c_kl = 0: the check holds for
    every x-only pair at each n it evaluates, not only for the pairs.  Both
    forms are affine in n^2 (c_n = -2n^2 ab in each), so their difference is
    D0 + n^2 D1 with D0, D1 free of n; vanishing at n = 1 and n = 2 forces
    D0 = D1 = 0, and so the forms agree at every n.  A failure reports n and
    order_index 3i + j.
    """
    powers = [monomial(1, ex=i) for i in range(3)]
    records = [operand(to_uv(p)) for p in powers]
    for n, i, j in ((n, i, j) for n in (1, 2) for i in range(3) for j in range(3)):
        diff = apply_F(n, records[i], records[j]) - to_uv(apply_F_weyl(n, powers[i], powers[j]))
        if not diff.is_zero:
            return _report("weyl.lock", n, diff, order_index=3 * i + j)
    return _report("weyl.lock", 0, ZERO, note="forms agree on every x-only pair at every n")


def _check_weyl_pair(n: int) -> CheckReport:
    from . import closedform

    g, f = closedform.q0_closed(n)
    residual = apply_F_weyl(n, g, f)
    if residual.is_zero:
        residual = apply_F_weyl(n, g, g) + apply_F_weyl(n, f, f)
    return _report("weyl.pair", n, to_uv(residual))


# -- execution -----------------------------------------------------------------

def run_checks(tasks: Sequence[CheckTask], fam: TauFamily | None,
               fail_fast: bool = False) -> list[CheckReport]:
    """Run each task on fam in order, flatten grouped results and sort them deterministically.

    The runner is the one clock: it times each task whole and writes that time
    on the task's first row, so a task's rows sum to its time.  An exception
    inside one task becomes a single status="error" report for that task, and
    the run goes on with the next one.
    """
    reports: list[CheckReport] = []
    for task in tasks:
        started = time.perf_counter()
        try:
            result = task.run(fam)
        except Exception as exc:
            result = CheckReport(task.equation_id, task.n, status="error",
                                 witness=f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - started
        batch = result if isinstance(result, list) else [result]
        batch[:1] = [r._replace(elapsed=elapsed) for r in batch[:1]]
        reports.extend(batch)
        if fail_fast and any(not r.passed for r in batch):
            break
    reports.sort(key=sort_key)
    return reports
