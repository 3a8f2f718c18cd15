import ast
import inspect
import textwrap
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirotaverify.gaussian import GaussianRational
from hirotaverify.laurent import (
    ONE,
    ZERO,
    LaurentPoly,
    differentiate,
    evaluate,
    from_uv,
    monomial,
    parse,
    serialize,
    subst_y_negate,
    swap_xy,
    to_uv,
)
from hirotaverify import operators
from hirotaverify.operators import apply_F, apply_F_weyl, hirota, hirota_dst, operand
from hirotaverify import verifier as V
from hirotaverify.wronskian import TauFamily

from conftest import (
    Pair,
    ernst_oracle,
    gaussians,
    identity_oracle,
    jacobi_oracle,
    mirror_oracle,
    orderwise_oracle,
    polys,
    quarter_turn_oracle,
    random_su11_params,
    rationals,
    row_outcome,
    site_rows_oracle,
    su11_rows_oracle,
    su11_transform,
    sylvester_oracle,
    with_stray_term,
)

# Damaged entries (sequence, site, added term) for the SU(1,1) rows; None is
# the family as built.
SU11_DAMAGE = [None, ("tau", 2, "t*x"), ("tau", 2, "1"), ("f", 3, "t^5*y"), ("f", 2, "x*y")]
# Six seeded pairs and one of the shape perfbench/workloads.py draws.
SU11_PAIRS = random_su11_params(6) + [V.Su11Params(
    GaussianRational(Fraction(11, 2), Fraction(1, 2)),
    GaussianRational(Fraction(-7, 3), Fraction(5, 3)))]


class TestStar:
    def test_on_real_family(self, fam5):
        from hirotaverify.laurent import subst_t_inverse

        for n in range(1, 4):
            assert V.star(fam5.g[n]) == subst_t_inverse(fam5.g[n])

    def test_involution(self, fam5):
        p = fam5.g[2] + parse("3*t")
        assert V.star(V.star(p)) == p

    # tsdec1 and tsdec2 read the bracket of starred operands as the star of
    # the bracket; these two properties are what that rests on.
    @given(a=polys, b=polys)
    def test_ring_homomorphism(self, a, b):
        assert V.star(a * b) == V.star(a) * V.star(b)

    @given(p=polys)
    def test_commutes_with_derivatives(self, p):
        for var in ("x", "y"):
            assert V.star(differentiate(p, var)) == differentiate(V.star(p), var)


class TestLatticeChecks:
    @pytest.mark.parametrize("which", ["tau", "g", "f"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_toda(self, fam5, which, n):
        # The suite reports toda.tau and its g_n = tau_n copy toda.g from one toda.g residual.
        tasks = [task for task in V.suite_tasks(["toda"], 4) if task.n == n]
        rows = {r.equation_id: r for r in V.run_checks(tasks, fam5)}
        assert rows[f"toda.{which}"].passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mixed(self, fam5, n):
        assert V.check_identity(fam5, n, "mixed").passed

    def test_site_bounds(self, fam5):
        with pytest.raises(ValueError):
            V.check_identity(fam5, 5, "toda.g")
        with pytest.raises(ValueError):
            V.check_identity(fam5, 0, "mixed")

    def test_failure_reports_witness(self, fam5):
        broken = TauFamily(
            n_max=2,
            tau_uv=[fam5.tau_uv[0], fam5.tau_uv[1], fam5.tau_uv[2] + parse("1")],
            f_uv=fam5.f_uv[:3],
        )
        report = V.check_identity(broken, 1, "toda.g")
        assert not report.passed
        assert report.witness

    def test_suite_computes_each_residual_once(self, fam4, monkeypatch):
        calls = []

        def counting(f, g):
            calls.append((f, g))
            return hirota_dst(f, g)

        monkeypatch.setattr(V, "hirota_dst", counting)
        reports = V.run_checks(V.suite_tasks(["toda"], 3), fam4)
        assert len(calls) == 6
        assert [(r.equation_id, r.n) for r in reports] == [
            (which, n) for which in ("toda.f", "toda.g", "toda.tau") for n in (1, 2, 3)
        ]
        assert all(r.passed for r in reports)


class TestConjecture:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_four_pass(self, fam5, n):
        tasks = [task for task in V.suite_tasks(["conjecture"], 4) if task.n == n]
        reports = V.run_checks(tasks, fam5)
        assert [r.equation_id for r in reports] == [
            "tsdec1", "tsdec2", "tsdec3", "tsdec4",
        ]
        assert all(r.passed for r in reports)


class TestSymmetries:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_pass(self, fam5, n):
        reports = V.check_symmetries(fam5, n)
        assert len(reports) == 10
        assert all(r.passed for r in reports)

    def test_each_star_computed_once(self, fam5, monkeypatch):
        stars = []

        def counting(p):
            stars.append(p)
            return star(p)

        star = V.star
        monkeypatch.setattr(V, "star", counting)
        assert all(r.passed for r in V.check_symmetries(fam5, 3))
        assert stars == [fam5.tau_uv[3], fam5.f_uv[3]]

    def test_quarter_turn_small_phases(self, fam5):
        # p(i t) = (-i)^N swap(p) on Pairs, and the real restatement the rows read, in u, v.
        minus_i = GaussianRational(0, -1)
        for p, p_uv, N in ((fam5.g[1], fam5.tau_uv[1], 1), (fam5.f[2], fam5.f_uv[2], 3)):
            assert quarter_turn_oracle(p) == minus_i ** N * Pair(swap_xy(p))
            assert V._quarter_turn(p_uv, N) == subst_y_negate(p_uv)

    def test_quarter_turn_below_order_minus_n(self):
        # Terms with m + N even and negative: t^-11 at N = 9 and t^-10 at N = 8.
        p = parse("t^-11*x + 2*t^-10*y - t^-7*x*y + 3*t^2")
        for N in (8, 9):
            i_power = GaussianRational(0, 1) ** N
            assert V._quarter_turn(p, N) == (i_power * quarter_turn_oracle(p)).re

    # Damage to one site: (sequence, site, added term).  t^-7 x gives g_2 an
    # order whose partner t^7 is absent, as do t^-11 x on g_3 and t^-10 x on f_3,
    # orders with m + N even and negative.
    UNPARTNERED = ("t^-7*x", "t^-11*x", "t^-10*x")
    MIRROR_DAMAGE = [("tau", 2, "t*x"), ("tau", 2, "t^-7*x"), ("f", 3, "t^5*y"),
                     ("f", 2, "x*y"), ("tau", 3, "t^-11*x"), ("f", 3, "t^-10*x")]

    @pytest.mark.parametrize("seq, k, extra", MIRROR_DAMAGE)
    def test_mirror_rows_match_the_orderwise_sum(self, fam4, seq, k, extra):
        damaged = with_stray_term(fam4, seq, k, extra)
        rows = {r.equation_id: r for r in V.check_symmetries(damaged, k)}
        for eq_id, p in (("mirror.g", damaged.g[k]), ("mirror.f", damaged.f[k])):
            expected = V._report(eq_id, k, to_uv(mirror_oracle(p)))
            assert rows[eq_id].status == expected.status
            if extra not in self.UNPARTNERED:
                assert rows[eq_id].witness == expected.witness
        assert {rows["mirror.g"].status, rows["mirror.f"].status} == {"pass", "fail"}

    def test_mirror_witness_of_an_unpartnered_order(self, fam4):
        # The difference holds x at t^7 and -x at t^-7; the t^7 term leads.
        damaged = with_stray_term(fam4, "tau", 2, "t^-7*x")
        rows = {r.equation_id: r for r in V.check_symmetries(damaged, 2)}
        assert rows["mirror.g"].witness == "(1)*t^7*x^1"
        assert serialize(mirror_oracle(damaged.g[2])) == "(-1)*t^-7*x^1"

    def test_each_substitution_made_once_per_polynomial(self, fam5, monkeypatch):
        # star(p) and prop1 substitute t -> 1/t, prop4 x <-> y (v -> -v in u, v), once per
        # polynomial; the mirror rows read the difference of the prop2 and prop1 residuals.
        calls = []
        for name in ("subst_t_inverse", "subst_y_negate"):
            subst = getattr(V, name)
            monkeypatch.setattr(V, name, lambda p, name=name, subst=subst:
                                calls.append(name) or subst(p))
        assert all(r.passed for r in V.check_symmetries(fam5, 3))
        assert (calls.count("subst_t_inverse"), calls.count("subst_y_negate")) == (4, 2)


# Stray terms on tau_1, tau_2 or tau_3; None is the family as built.
JACOBI_DAMAGE = [None] + [("tau", k, extra) for k in (1, 2, 3)
                          for extra in ("1", "t^2*x", "x*y", "t^2")]


class TestJacobiReadsTheSiteTable:
    @pytest.mark.parametrize("damage", JACOBI_DAMAGE,
                             ids=lambda d: "built" if d is None else f"{d[0]}_{d[1]}+{d[2]}")
    def test_residual_equals_the_direct_formula(self, fam5, damage):
        # The same polynomial, not only the same zero test, on damaged families too:
        # a stray term on tau_k fails site k alone, with the term itself as witness.
        fam = with_stray_term(fam5, *damage) if damage else fam5
        residuals = [from_uv(r) for r in V.jacobi_residuals(fam, 4)]  # from u, v
        assert residuals == [jacobi_oracle(fam, n) for n in (1, 2, 3, 4)]
        assert [n for n, r in enumerate(residuals, start=1) if not r.is_zero] == (
            [damage[1]] if damage else [])
        assert not damage or residuals[damage[1] - 1] == parse(damage[2])

    @pytest.mark.parametrize("damage", JACOBI_DAMAGE,
                             ids=lambda d: "built" if d is None else f"{d[0]}_{d[1]}+{d[2]}")
    def test_half_toda_is_sylvester_where_the_row_passes(self, fam5, damage):
        # Sylvester's identity for the family is the toda.g row given the derivative rule:
        # at each site whose jacobi row passes, half the toda.g residual is the Sylvester one.
        fam = with_stray_term(fam5, *damage) if damage else fam5
        for n, row in enumerate(V.check_jacobi(fam, 4), start=1):
            if row.passed:
                half_toda = from_uv(Fraction(1, 2) * V._family_site(fam, n, 1).identity("toda.g"))
                assert half_toda == sylvester_oracle(fam, n), n

    def test_suite_alone_reads_no_identity(self, fam5, monkeypatch):
        # No IDENTITIES entry and no Hirota bracket: each raises if the suite reads it.
        def refuse(*args):
            raise AssertionError("the jacobi rows read an identity")

        for name in list(V.IDENTITIES):
            monkeypatch.setitem(V.IDENTITIES, name, refuse)
        for module in (V, operators):
            monkeypatch.setattr(module, "hirota_dst", refuse)
        reports = V.run_checks(V.suite_tasks(["jacobi"], 4), fam5)
        assert [(r.equation_id, r.n, r.status) for r in reports] == [
            ("jacobi", n, "pass") for n in (1, 2, 3, 4)]
        assert all(r.passed for r in V.check_jacobi(fam5, 5))


class TestSu11:
    def test_identity_transform(self, fam5):
        params = V.Su11Params(GaussianRational(1), GaussianRational(0))
        gp, fp = su11_transform(fam5, 2, params)
        assert gp == (fam5.g[2], ZERO) and fp == (fam5.f[2], ZERO)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            V.Su11Params(GaussianRational(1), GaussianRational(0, 1))
        with pytest.raises(ValueError):
            V.Su11Params(GaussianRational(3, 4), GaussianRational(4, 3))

    def test_real_pair_linearity(self, fam4):
        params = V.Su11Params(GaussianRational(2), GaussianRational(3))
        reports = V.check_su11(fam4, 2, params)
        assert all(r.passed for r in reports)

    def test_transforms_only_neighbour_sites(self, fam4):
        # The rows read sites n-1, n and n+1 only: damage at site 4 leaves site 2
        # alone, and a passing row has no residual terms to count.
        far = TauFamily(4, tau_uv=[*fam4.tau_uv[:4], fam4.tau_uv[4] + ONE], f_uv=fam4.f_uv)
        params = V.Su11Params(GaussianRational(2), GaussianRational(3))
        reports = V.check_su11(far, 2, params)
        assert all(r.passed for r in reports)
        assert {r.term_count for r in reports} == {0}

    def test_one_dst_per_bilinear_residual(self, fam4, monkeypatch):
        calls = []

        def counting(f, g):
            calls.append((f, g))
            return hirota_dst(f, g)

        monkeypatch.setattr(V, "hirota_dst", counting)
        params = V.Su11Params(GaussianRational(2), GaussianRational(3))
        assert all(r.passed for r in V.check_su11(fam4, 1, params))
        assert len(calls) == 3

    def test_rows_need_no_t_split(self, fam4, monkeypatch):
        # The rows are the direct route's; the t-splits are the site table's, made once.
        broken = TauFamily(4, tau_uv=[p + ONE if k == 2 else p for k, p in enumerate(fam4.tau_uv)],
                           f_uv=fam4.f_uv)
        params = V.Su11Params(GaussianRational(1, 1), GaussianRational(0, 2))
        expected = su11_rows_oracle(broken, 2, params)
        splits = []
        split = LaurentPoly.t_coefficients
        monkeypatch.setattr(LaurentPoly, "t_coefficients", lambda p: splits.append(p) or split(p))
        rows = V.check_su11(broken, 2, params)
        one_pair = len(splits)
        for index, other in enumerate(random_su11_params(3), start=1):
            V.check_su11(broken, 2, other, pair_index=index)
        assert len(splits) == one_pair
        assert [(*r[:5], r.term_count, r.note) for r in rows] == expected
        assert {r.status for r in rows} == {"pass", "fail"}

    def test_pairs_share_one_real_evaluation(self, fam4, monkeypatch):
        # Two pairs at one site evaluate each identity once, all in real arithmetic.
        calls, operands = [], []
        for name, identity in V.IDENTITIES.items():
            monkeypatch.setitem(V.IDENTITIES, name,
                                lambda site, identity=identity: calls.append(1) or identity(site))
        make = V.operand
        monkeypatch.setattr(V, "operand", lambda p: operands.append(p) or make(p))
        for index, params in enumerate(random_su11_params(2)):
            assert all(r.passed for r in V.check_su11(fam4, 2, params, pair_index=index))
        assert len(calls) == 7
        assert operands and all(c.is_real for p in operands for _, c in p.terms())

    @pytest.mark.parametrize("damage", SU11_DAMAGE, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_match_direct_route(self, fam4, damage, n):
        fam = fam4
        if damage:
            which, k, text = damage
            seqs = {"tau": list(fam4.tau_uv), "f": list(fam4.f_uv)}
            seqs[which][k] = seqs[which][k] + to_uv(parse(text))
            fam = TauFamily(4, tau_uv=seqs["tau"], f_uv=seqs["f"])
        rows = [(*r[:5], r.term_count, r.note)
                for index, params in enumerate(SU11_PAIRS)
                for r in V.check_su11(fam, n, params, pair_index=index)]
        direct = [row for index, params in enumerate(SU11_PAIRS)
                  for row in su11_rows_oracle(fam, n, params, pair_index=index)]
        assert rows == direct
        if damage and n == 2:  # site 2 reads sites 1..3, so every damage shows there
            assert any(status != "pass" for _, _, _, status, *_ in rows)

    def test_complex_pair(self, fam4):
        params = V.Su11Params(GaussianRational(1, 1), GaussianRational(0, 2))
        reports = V.check_su11(fam4, 1, params)
        assert all(r.passed for r in reports)

    def test_degenerate_combination_still_decomposes(self, fam4):
        # g - i f paired with i(g - i f): the four equations survive even at
        # the excluded parameter boundary, checked here without the transform.
        # The operands are Pairs in u, v, so each bracket applies part by part.
        i, zero = GaussianRational(0, 1), Pair(ZERO)
        bracket = lambda k: lambda a, b: hirota(operand(a), operand(b))[k]
        for n in (1, 2):
            F = lambda a, b: apply_F(n, operand(a), operand(b))
            g = Pair(fam4.tau_uv[n]) + (-i) * Pair(fam4.f_uv[n])
            f = i * Pair(fam4.tau_uv[n]) + Pair(fam4.f_uv[n])
            gs, fs = g.star(), f.star()
            assert g.bilinear(bracket(0), f) - gs.bilinear(bracket(0), fs) == zero
            assert g.bilinear(bracket(1), f) + gs.bilinear(bracket(1), fs) == zero
            assert gs.bilinear(F, f) == zero
            assert gs.bilinear(F, g) + fs.bilinear(F, f) == zero

    def test_replace_and_make_check_degeneracy(self):
        params = V.Su11Params(GaussianRational(2), GaussianRational(1, 1))
        assert params._replace(beta=GaussianRational(1)).beta == GaussianRational(1)
        with pytest.raises(ValueError):
            params._replace(beta=params.alpha)
        with pytest.raises(ValueError):
            V.Su11Params._make([GaussianRational(1), GaussianRational(0, 1)])

    def test_random_admissible_generation(self):
        params = random_su11_params(5, seed=99)
        assert len(params) == 5
        assert params == random_su11_params(5, seed=99)
        for p in params:
            assert p.alpha.abs2() != p.beta.abs2()


class TestSu11Lemmas:
    """The facts check_su11's table of residual combinations rests on.

    The residuals are real and their coefficients in the table Gaussian.  The
    symmetries of hirota, hirota_dst and apply_F, and the bilinearity of
    apply_F, are checked in test_operators.py.
    """

    @given(a=polys, b=polys, c=polys, k=rationals)
    def test_hirota_brackets_bilinear(self, a, b, c, k):
        ka_b, a, b, c = operand(k * a + b), operand(a), operand(b), operand(c)
        assert hirota_dst(ka_b, c) == k * hirota_dst(a, c) + hirota_dst(b, c)
        for h, h_a, h_b in zip(hirota(ka_b, c), hirota(a, c), hirota(b, c)):
            assert h == k * h_a + h_b

    # A Gaussian multiple of a real residual, starred part by part, is the
    # conjugate multiple of the residual's star.
    @given(p=polys, q=polys, k=gaussians)
    def test_star_antilinear(self, p, q, k):
        assert (k * Pair(p, q)).star() == k.conjugate() * Pair(V.star(p), -V.star(q))

    @given(a=polys, b=polys, n=st.integers(min_value=0, max_value=4))
    def test_star_commutes_with_F(self, a, b, n):
        assert (V.star(apply_F(n, operand(a), operand(b)))
                == apply_F(n, operand(V.star(a)), operand(V.star(b))))


def _orderwise_reports(fam, n, suite):
    for system, spec in V.ORDERWISE_SYSTEMS.items():
        if spec.suite == suite:
            for report in V.check_orderwise(fam, n, system):
                yield system, report


def _label(fam, n, system, I):
    return V.check_orderwise(fam, n, system)[I].equation_id


class TestOrderwiseToda:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_order_passes(self, fam4, n):
        for family, report in _orderwise_reports(fam4, n, "orderwise-A"):
            assert report.passed, (family, report.order_index, report.witness, report.note)

    def test_case_labels(self, fam4):
        assert _label(fam4, 2, "g", 0) == "TD1"
        assert _label(fam4, 2, "g", 2) == "TD2"
        assert _label(fam4, 2, "g", 4) == "TD3"
        assert _label(fam4, 2, "f", 1) == "TD5"
        assert _label(fam4, 2, "mixed", 3) == "TD9"

    def test_top_order_matches_closed_forms(self, fam4):
        from hirotaverify.closedform import g_high

        lhs, rhs = orderwise_oracle(fam4, 2, 0, "g")
        assert lhs == from_uv(hirota_dst(operand(g_high(2)), operand(g_high(2))))
        assert rhs == 2 * from_uv(g_high(3)) * from_uv(g_high(1))

    @pytest.mark.parametrize("family", ["g", "f", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weighted_sum_reproduces_parents(self, fam4, family, n):
        seq_a = fam4.f if family in ("f", "mixed") else fam4.g
        seq_b = fam4.g if family in ("g", "mixed") else fam4.f
        top, _ = V.orderwise_span(n, family)
        shift = {"g": 2 * n, "f": 2 * n - 2, "mixed": 2 * n - 1}[family]
        lhs_sum, rhs_sum = ZERO, ZERO
        for I in range(top + 1):
            lhs, rhs = orderwise_oracle(fam4, n, I, family)
            weight = monomial(1, et=shift - 2 * I)
            lhs_sum = lhs_sum + lhs * weight
            rhs_sum = rhs_sum + rhs * weight
        assert lhs_sum == from_uv(hirota_dst(operand(to_uv(seq_a[n])), operand(to_uv(seq_b[n]))))
        if family == "mixed":
            expected = fam4.f[n + 1] * fam4.g[n - 1] + fam4.f[n - 1] * fam4.g[n + 1]
        else:
            seq = fam4.g if family == "g" else fam4.f
            expected = 2 * (seq[n + 1] * seq[n - 1])
        assert rhs_sum == expected

    def test_mirror_route_equality(self, fam4):
        for n in (2, 3):
            top, _ = V.orderwise_span(n, "g")
            for I in range(n + 1, top + 1):
                lhs, rhs = orderwise_oracle(fam4, n, I, "g")
                plhs, prhs = orderwise_oracle(fam4, n, top - I, "g")
                assert lhs - rhs == subst_y_negate(plhs - prhs)

    def test_broken_mirror_is_a_route_mismatch(self, fam4):
        # t^2 x in g_2 has no y-reflected t^-2 partner, so g_2 loses its mirror symmetry.
        broken = with_stray_term(fam4, "tau", 2, "t^2*x")
        reports = V.check_orderwise(broken, 2, "g")
        mirror_rows = [r for r in reports if r.equation_id == "TD3"]
        assert [r.order_index for r in mirror_rows] == [3, 4]
        assert all(r.status == "fail" and r.note == "route mismatch" for r in mirror_rows)
        assert all(r.note is None for r in reports if r.equation_id != "TD3")

    def test_invalid_arguments(self, fam4):
        with pytest.raises(ValueError):
            V.check_orderwise(fam4, 1, "h")
        with pytest.raises(ValueError):
            V.check_orderwise(fam4, 4, "g")


class TestOrderwiseNakamura:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_order_passes(self, fam4, n):
        for which, report in _orderwise_reports(fam4, n, "orderwise-B"):
            assert report.passed, (which, report.order_index, report.witness, report.note)

    def test_case_labels(self, fam4):
        assert _label(fam4, 2, "B1", 0) == "B.1"
        assert _label(fam4, 2, "B1", 2) == "B.2"
        assert _label(fam4, 2, "B2", 3) == "B.6"
        assert _label(fam4, 2, "B4", 0) == "B.11"
        assert _label(fam4, 2, "B4", 1) == "B.10"
        assert _label(fam4, 2, "B4", 4) == "B.12"

    def test_top_order_uses_extreme_forms(self, fam4):
        from hirotaverify.closedform import f_high, g_high

        lhs, _ = orderwise_oracle(fam4, 2, 0, "B3")
        assert lhs == from_uv(apply_F(2, operand(swap_xy(g_high(2))), operand(f_high(2))))
        lhs, _ = orderwise_oracle(fam4, 2, 0, "B4")
        assert lhs == from_uv(apply_F(2, operand(swap_xy(g_high(2))), operand(g_high(2))))

    @pytest.mark.parametrize("which", ["B1", "B2", "B3", "B4"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weighted_sum_reproduces_parents(self, fam4, which, n):
        g, f = fam4.tau_uv[n], fam4.f_uv[n]
        g, f, gs, fs = (operand(p) for p in (g, f, V.star(g), V.star(f)))
        (dx, dy), (dx_s, dy_s) = hirota(g, f), hirota(gs, fs)
        parents = {
            "B1": dx - dx_s,
            "B2": dy + dy_s,
            "B3": apply_F(n, gs, f),
            "B4": apply_F(n, gs, g) + apply_F(n, fs, f),
        }
        top, _ = V.orderwise_span(n, which)
        shift = 2 * n if which == "B4" else 2 * n - 1
        total = ZERO
        for I in range(top + 1):
            lhs, _ = orderwise_oracle(fam4, n, I, which)
            total = total + lhs * monomial(1, et=shift - 2 * I)
        assert total == from_uv(parents[which])

    def test_invalid_arguments(self, fam4):
        with pytest.raises(ValueError):
            V.check_orderwise(fam4, 2, "B9")
        with pytest.raises(ValueError):
            V.check_orderwise(fam4, 5, "B1")


class TestOrderwiseSystems:
    @pytest.mark.parametrize("system", list(V.ORDERWISE_SYSTEMS))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_match_oracle(self, fam5, n, system):
        top, direct_end = V.orderwise_span(n, system)
        residuals = [lhs - rhs for lhs, rhs in
                     (orderwise_oracle(fam5, n, I, system) for I in range(top + 1))]
        reports = V.check_orderwise(fam5, n, system)
        assert [r.order_index for r in reports] == list(range(top + 1))
        for I, report in enumerate(reports):
            expected = residuals[I]
            if I > direct_end:
                mirrored = subst_y_negate(residuals[top - I])
                if expected != mirrored:
                    expected = expected - mirrored
            assert ((report.status, report.witness, report.term_count)
                    == row_outcome(expected)), (system, n, I)

    @pytest.mark.parametrize("system", list(V.ORDERWISE_SYSTEMS))
    def test_sides_computed_once_per_order(self, fam4, monkeypatch, system):
        # Each (n, system) task evaluates its identity once and splits it by t-order.
        spec = V.ORDERWISE_SYSTEMS[system]
        calls = []
        identity = V.IDENTITIES[spec.identity]

        def counting(site):
            calls.append(site.n)
            return identity(site)

        monkeypatch.setitem(V.IDENTITIES, spec.identity, counting)
        tasks = [t for t in V.suite_tasks([spec.suite], 3)
                 if t.equation_id == f"{spec.suite}.{system}"]
        assert all(r.passed for r in V.run_checks(tasks, fam4))
        assert calls == [1, 2, 3]

    def test_suites_split_the_table(self, fam4):
        for suite in ("orderwise-A", "orderwise-B"):
            tasks = V.suite_tasks([suite], 2)
            systems = [s for s, spec in V.ORDERWISE_SYSTEMS.items() if spec.suite == suite]
            assert [(t.n, t.equation_id) for t in tasks] == [
                (n, f"{suite}.{s}") for n in (1, 2) for s in systems
            ]

    OFF = "off the t^(K-2I) pattern"

    @pytest.mark.parametrize("seq, k, extra, failing", [
        # Terms outside the parity pattern of g_n and f_n.  The t-coefficients
        # the order rows read catch some; every site whose whole identity
        # fails gains one row for the residual off the t^(K-2I) pattern.
        ("tau", 2, "t*x", [("B.1", 2, None, OFF), ("B.10", 2, None, OFF),
                           ("B.10", 2, 2, None), ("B.4", 2, None, OFF), ("B.7", 2, None, OFF),
                           ("TD1", 1, None, OFF), ("TD1", 2, None, OFF), ("TD1", 2, 1, None),
                           ("TD1", 3, None, OFF), ("TD3", 2, 3, "route mismatch"),
                           ("TD7", 2, None, OFF), ("TD7", 3, None, OFF)]),
        ("f", 3, "t^5*y", [("B.1", 3, None, OFF), ("B.10", 3, None, OFF),
                           ("B.10", 3, 3, None), ("B.4", 3, None, OFF), ("B.7", 3, None, OFF),
                           ("TD4", 2, None, OFF), ("TD4", 3, None, OFF),
                           ("TD7", 2, None, OFF), ("TD7", 3, None, OFF)]),
    ])
    def test_stray_terms_fail(self, fam5, seq, k, extra, failing):
        broken = with_stray_term(fam5, seq, k, extra)
        tasks = V.suite_tasks(["orderwise-A", "orderwise-B"], 3)
        reports = V.run_checks(tasks, broken)
        assert len(reports) == 87 + sum(note == self.OFF for *_, note in failing)
        assert [(r.equation_id, r.n, r.order_index, r.note)
                for r in reports if not r.passed] == failing
        assert all(r.status == "fail" for r in reports if not r.passed)

    def test_off_pattern_witness(self, fam5):
        # At n = 1 the rhs 2 tau_2 tau_0 carries 2*t*x, which no order reads.
        broken = with_stray_term(fam5, "tau", 2, "t*x")
        *_, row = V.check_orderwise(broken, 1, "g")
        assert (row.status, row.witness, row.note) == ("fail", "(-2)*t^1*x^1", self.OFF)

    @pytest.mark.parametrize("system", list(V.ORDERWISE_SYSTEMS))
    def test_row_times_are_disjoint(self, fam5, system):
        started = time.perf_counter()
        reports = V.check_orderwise(fam5, 4, system)
        wall = time.perf_counter() - started
        assert sum(r.elapsed for r in reports) <= wall


class TestSiteTable:
    def test_each_identity_evaluated_once(self, fam4, monkeypatch):
        calls = []
        for name, identity in V.IDENTITIES.items():
            def counting(site, name=name, identity=identity):
                calls.append((name, site.n))
                return identity(site)

            monkeypatch.setitem(V.IDENTITIES, name, counting)
        suites = ("toda", "mixed", "conjecture", "orderwise-A", "orderwise-B")
        tasks = V.suite_tasks(suites, 3)
        assert all(r.passed for r in V.run_checks(tasks, fam4))
        assert sorted(calls) == sorted((name, n) for name in V.IDENTITIES for n in (1, 2, 3))

    def test_each_star_computed_once_per_site(self, fam4, monkeypatch):
        stars = []

        def counting(p):
            stars.append(p)
            return star(p)

        star = V.star
        monkeypatch.setattr(V, "star", counting)
        suites = ("conjecture", "symmetries", "ernst-numeric", "orderwise-B")
        tasks = V.suite_tasks(suites, 3)
        assert all(r.passed for r in V.run_checks(tasks, fam4))
        # tsdec1 and tsdec2 also star their brackets; g_n and f_n go in once each, in u, v.
        assert ([stars.count(to_uv(p)) for n in (1, 2, 3) for p in (fam4.g[n], fam4.f[n])]
                == [1] * 6)

    def test_polynomial_rows_make_no_record(self, fam4, monkeypatch):
        # symmetries and closed.extreme read g_n, f_n and their stars, not their records.
        records = []
        operand = V.operand
        monkeypatch.setattr(V, "operand", lambda p: records.append(p) or operand(p))
        assert all(r.passed for r in V.check_symmetries(fam4, 3) + [V._check_extremes(fam4, 3)])
        assert records == []

    def test_F_operands_made_once_per_site(self, fam4, monkeypatch):
        # The seven identities read g, f, g* and f* through their records, made
        # once each: every record takes both partials of p and of L+p, and d/dv L-p.
        from hirotaverify import operators

        calls = []
        differentiate = operators.differentiate
        monkeypatch.setattr(operators, "differentiate",
                            lambda p, var: calls.append((p, var)) or differentiate(p, var))
        site = V._family_site(fam4, 3)
        assert all(site.identity(name).is_zero for name in V.IDENTITIES)
        assert len(calls) == len(set(calls)) == 20

    def test_only_orderwise_rows_split_the_lhs(self, fam4, monkeypatch):
        splits = []
        split = LaurentPoly.t_coefficients
        monkeypatch.setattr(LaurentPoly, "t_coefficients", lambda p: splits.append(p) or split(p))
        tasks = V.suite_tasks(["toda", "mixed", "conjecture"], 3)
        assert all(r.passed for r in V.run_checks(tasks, fam4))
        assert splits == []
        assert all(r.passed for r in V.run_checks(V.suite_tasks(["orderwise-B"], 3), fam4))
        assert splits

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_extremes_split_g_and_f_once(self, fam4, n, monkeypatch):
        # closed.extreme reads orders ±n of g_n and ±(n-1) of f_n from one split of each.
        splits = []
        split = LaurentPoly.t_coefficients
        monkeypatch.setattr(LaurentPoly, "t_coefficients", lambda p: splits.append(p) or split(p))
        assert V._check_extremes(fam4, n).passed
        site = V._family_site(fam4, n)
        assert len(splits) == 2 and splits[0] is site.g_n and splits[1] is site.f_n

    @staticmethod
    def _rows(reports):
        return [r._replace(elapsed=0.0) for r in reports]

    @pytest.mark.parametrize("stray", [None, "t*x"])
    def test_all_equals_each_suite_alone(self, built5, stray):
        # A suite reads what an earlier suite left in the table; its rows must not change.
        fresh = lambda: TauFamily(5, tau_uv=[p + to_uv(parse(stray)) if stray and k == 2 else p
                                             for k, p in enumerate(built5.tau_uv)],
                                  f_uv=built5.f_uv)
        together = self._rows(V.run_checks(V.suite_tasks(["all"], 4), fresh()))
        alone = self._rows(sorted(
            (r for name in V.SUITES
             for r in V.run_checks(V.suite_tasks([name], 4), fresh())), key=V.sort_key))
        assert together == alone
        assert any(r.status == "fail" for r in together) == bool(stray)

    @pytest.mark.parametrize("n, reach", [(0, 0), (-2, 0), (5, 0), (4, 1)])
    def test_refuses_a_site_it_cannot_serve(self, fam4, n, reach):
        with pytest.raises(ValueError, match=rf"need 1 <= n <= {4 - reach}, got {n}$"):
            V._family_site(fam4, n, reach)
        assert fam4.sites == {}

    # Each public per-site check, with the last site it serves on a depth-4 family.
    CHECKS = {
        "toda.tau": (lambda fam, n: V.check_identity(fam, n, "toda.g"), 3),
        "toda.f": (lambda fam, n: V.check_identity(fam, n, "toda.f"), 3),
        "mixed": (lambda fam, n: V.check_identity(fam, n, "mixed"), 3),
        "jacobi": (lambda fam, n: V.check_jacobi(fam, n), 4),
        "conjecture": (lambda fam, n: [V.check_identity(fam, n, name)
                                       for name in ("tsdec1", "tsdec2", "tsdec3", "tsdec4")], 4),
        "symmetries": (lambda fam, n: V.check_symmetries(fam, n), 4),
        "su11": (lambda fam, n: V.check_su11(fam, n, SU11_PAIRS[0]), 3),
        "orderwise-A": (lambda fam, n: V.check_orderwise(fam, n, "g"), 3),
        "orderwise-B": (lambda fam, n: V.check_orderwise(fam, n, "B1"), 4),
        "ernst": (lambda fam, n: V.ernst_residual_numeric(fam, n), 4),
    }

    @pytest.mark.parametrize("past_last", [False, True])
    @pytest.mark.parametrize("check", CHECKS)
    def test_checks_refuse_sites_outside_the_family(self, fam4, check, past_last):
        run, last = self.CHECKS[check]
        n = last + 1 if past_last else 0
        with pytest.raises(ValueError, match=rf"need 1 <= n <= {last}, got {n}$"):
            run(fam4, n)
        assert fam4.sites == {}


# Damaged families for the row contract, as (sequence, site, added term): a
# constant on tau_3, a term on f_3 away from its extreme t-orders, a term off
# the parity pattern of tau_2, and one on tau_2's top t-order, which breaks its
# mirror symmetry (a route mismatch) and its closed extreme form.
CONTRACT_DAMAGE = [None, ("tau", 3, "1"), ("f", 3, "5*t^-1*y^2"), ("tau", 2, "t*x"),
                   ("tau", 2, "t^2*x")]


@pytest.fixture(scope="class")
def contract_families(built5):
    # One family per damage, shared by the checks: no row depends on what fills the table.
    fam4 = TauFamily(4, tau_uv=built5.tau_uv[:5], f_uv=built5.f_uv[:5])
    return {damage: with_stray_term(fam4, *damage) if damage else fam4
            for damage in CONTRACT_DAMAGE}


class TestRowContract:
    """A row reads its residual alone, in u, v, and once in x, y when it is not zero.

    A failing row's term_count is the x,y term count of that residual and its
    witness the x,y leading term; a passing row, and every ernst row, has
    term_count 0.
    """

    # Every residual-reading check, and the pointwise ernst check, on sites 1..3
    # of a depth-4 family.  A damage that reads no family damages the Weyl form.
    CHECKS = {
        "identities": lambda fam: [V.check_identity(fam, n, name)
                                   for n in (1, 2, 3) for name in V.IDENTITIES],
        "symmetries": lambda fam: [r for n in (1, 2, 3) for r in V.check_symmetries(fam, n)],
        "jacobi": lambda fam: V.check_jacobi(fam, 3),
        "orderwise": lambda fam: [r for n in (1, 2, 3) for system in V.ORDERWISE_SYSTEMS
                                  for r in V.check_orderwise(fam, n, system)],
        "su11": lambda fam: [r for n in (1, 2, 3)
                             for index, params in enumerate((SU11_PAIRS[0], SU11_PAIRS[-1]))
                             for r in V.check_su11(fam, n, params, pair_index=index)],
        "closed.extreme": lambda fam: [V._check_extremes(fam, n) for n in (1, 2, 3)],
        "weyl.lock": lambda fam: [V._check_weyl_lock()],
        "ernst": lambda fam: [r for n in (1, 2, 3) for r in V.ernst_residual_numeric(fam, n)],
    }
    # Failing rows per damage, in the order of CHECKS.  The orderwise rows of
    # the last three damages include route mismatches, and those of the middle
    # three off-pattern rows.
    # A jacobi row reads tau_n alone, so a damaged tau_k fails one, at site k.
    FAILING = dict(zip(CONTRACT_DAMAGE, [(0, 0, 0, 0, 0, 0, 0, 0), (8, 2, 1, 9, 20, 0, 1, 3),
                                         (8, 4, 0, 10, 20, 0, 1, 3), (9, 4, 1, 12, 26, 0, 1, 3),
                                         (9, 3, 1, 39, 26, 1, 1, 3)]))

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("damage", CONTRACT_DAMAGE,
                             ids=lambda d: "built" if d is None else f"{d[0]}_{d[1]}+{d[2]}")
    def test_rows_read_their_residual(self, contract_families, monkeypatch, damage, check):
        if damage and check == "weyl.lock":
            weyl = V.apply_F_weyl
            monkeypatch.setattr(V, "apply_F_weyl", lambda n, a, b: weyl(n, a, b)
                                + differentiate(a, "x") * differentiate(b, "x"))
        residuals, report = [], V._report

        def recording(eq_id, n, residual, *args, **kwargs):
            residuals.append(residual)
            return report(eq_id, n, residual, *args, **kwargs)

        monkeypatch.setattr(V, "_report", recording)
        rows = self.CHECKS[check](contract_families[damage])
        failing = sum(r.status == "fail" for r in rows)
        assert failing == self.FAILING[damage][list(self.CHECKS).index(check)]
        if check == "orderwise" and damage:
            k, notes = CONTRACT_DAMAGE.index(damage), {r.note for r in rows}
            assert ("route mismatch" in notes, TestOrderwiseSystems.OFF in notes) == (k > 1, k < 4)
        if check == "ernst":  # no residual polynomial
            assert residuals == [] and {r.term_count for r in rows} == {0}
            return
        assert len(residuals) == len(rows)
        for row, residual in zip(rows, residuals):
            expected = ("pass", None, 0)
            if not residual.is_zero:
                xy = from_uv(residual)
                mono, coeff = xy.leading_term()
                expected = ("fail", serialize(LaurentPoly({mono: coeff})), xy.term_count)
            assert (row.status, row.witness, row.term_count) == expected, row


class TestCrossBasis:
    """The site table works in u, v; its rows are the rows of an x,y route."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identities_match_the_xy_oracle(self, fam5, n):
        site = V._family_site(fam5, n, 1)
        for name, (lhs, rhs) in identity_oracle(fam5.g, fam5.f, n).items():
            assert from_uv(V.IDENTITIES[name](site)) == lhs - rhs, name

    # Site-table suites read sites 1..3 of a depth-4 family.
    SUITES = ("toda", "mixed", "jacobi", "conjecture", "symmetries", "orderwise-A",
              "orderwise-B", "ernst-numeric")

    @staticmethod
    def _fields(reports):
        return [(r.equation_id, r.n, r.order_index, r.status, r.witness, r.term_count, r.note)
                for r in reports]

    # t^2 y^3 lies off the parity pattern of tau_3, so its rows include off-pattern ones.
    @pytest.mark.parametrize("seq, k, extra", [("tau", 3, "2*t^-1*x^2*y + t^2*y^3"),
                                               ("f", 2, "5*t^-1*y^2")])
    def test_damaged_rows_match_the_xy_oracle(self, fam4, seq, k, extra):
        fam = with_stray_term(fam4, seq, k, extra)
        rows = sorted((r for suite in self.SUITES
                       for r in V.run_checks(V.suite_tasks([suite], 3), fam)), key=V.sort_key)
        assert self._fields(rows) == site_rows_oracle(fam, 3)
        assert any(r.status == "fail" for r in rows)
        for index, params in enumerate((SU11_PAIRS[0], SU11_PAIRS[-1])):
            for n in (1, 2, 3):
                reports = V.check_su11(fam, n, params, pair_index=index)
                assert self._fields(reports) == su11_rows_oracle(fam, n, params, index)


class TestCheckBodies:
    # A function named check_* or _check_* is timed and counted as one check
    # body by perfbench/tracer.py, so a helper must not carry either prefix.
    CHECK_BODIES = {
        "check_identity", "check_jacobi", "check_symmetries",
        "check_su11", "check_orderwise", "_check_w_forms", "_check_a_facts",
        "_check_q0", "_check_extremes", "_check_weyl_lock", "_check_weyl_pair",
    }

    @staticmethod
    def _named_checks():
        return {
            name: fn for name, fn in vars(V).items()
            if inspect.isfunction(fn) and fn.__module__ == V.__name__
            and name.startswith(("check_", "_check_"))
        }

    def test_only_check_bodies_carry_the_prefix(self):
        assert set(self._named_checks()) == self.CHECK_BODIES

    def test_no_check_body_calls_another(self):
        bodies = set(self._named_checks()) | {"ernst_residual_numeric"}
        for name in bodies:
            tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(V, name))))
            called = {node.func.id for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            assert not called & (bodies - {name}), name


class TestWeylLock:
    def test_passes_for_every_x_only_pair(self):
        report = V._check_weyl_lock()
        assert report.passed
        assert report.note == "forms agree on every x-only pair at every n"

    # Each damage adds one bilinear term to the single-variable form.  The lock
    # reports the first n and 3i + j where it shows, with its leading term.
    @pytest.mark.parametrize("extra, failure", [
        (lambda n, a, b: differentiate(a, "x") * differentiate(b, "x"), (1, 4, "(-1)")),
        (lambda n, a, b: monomial(1, ex=3) * differentiate(differentiate(a, "x"), "x")
         * differentiate(differentiate(b, "x"), "x"), (1, 8, "(-4)*x^3")),
        (lambda n, a, b: n * n * (a * b), (1, 0, "(-1)")),
        # Zero at n = 1: the lock's second value of n finds it.
        (lambda n, a, b: (n * n - 1) * (a * b), (2, 0, "(-3)")),
    ], ids=["a'b'", "x^3 a''b''", "n^2 ab", "(n^2-1) ab"])
    def test_catches_a_damaged_weyl_form(self, monkeypatch, extra, failure):
        weyl = V.apply_F_weyl
        monkeypatch.setattr(V, "apply_F_weyl", lambda n, a, b: weyl(n, a, b) + extra(n, a, b))
        report = V._check_weyl_lock()
        assert report.status == "fail"
        assert (report.n, report.order_index, report.witness) == failure

    def test_one_record_per_monomial(self, monkeypatch):
        records = []
        operand = V.operand
        monkeypatch.setattr(V, "operand", lambda p: records.append(p) or operand(p))
        assert V._check_weyl_lock().passed
        assert len(records) == 3

    def test_forms_agree_on_every_pair_to_degree_6(self):
        # The x-only polynomials of degree <= 6 are the span of these monomials,
        # so by bilinearity the 49 ordered pairs cover every pair among them.
        xs = [monomial(1, ex=k) for k in range(7)]
        for n in range(1, 5):
            for a in xs:
                for b in xs:
                    uv = apply_F(n, operand(to_uv(a)), operand(to_uv(b)))
                    assert from_uv(uv) == apply_F_weyl(n, a, b), (n, a, b)


class TestClosedFormRows:
    def test_w_forms_report_the_first_wrong_n(self, monkeypatch):
        from hirotaverify import closedform

        w_formula = closedform.w_formula
        monkeypatch.setattr(closedform, "w_formula",
                            lambda k: w_formula(k) + (monomial(3, ex=2) if k >= 5 else ZERO))
        report = V._check_w_forms(12)
        assert (report.status, report.n, report.witness, report.term_count) == (
            "fail", 5, "(3)*x^2", 1)

    # A wrong A_3 breaks a stated value; a wrong A_6 only the squared recursion at n = 5.
    @pytest.mark.parametrize("k, row", [(3, (3, "A_3 = 5")), (6, (5, "squared recursion fails"))])
    def test_a_facts_fail_at_a_wrong_coefficient(self, monkeypatch, k, row):
        from hirotaverify import closedform

        a_coeff = closedform.a_coeff
        monkeypatch.setattr(closedform, "a_coeff", lambda j: a_coeff(j) + (j == k))
        report = V._check_a_facts()
        assert (report.status, report.n, report.witness) == ("fail", *row)

    # A stray x,y term at each of the four orders the closed.extreme row at n = 3
    # compares, in the row's order: g_3 at t^3 and t^-3, then f_3 at t^2 and t^-2.
    EXTREME_DAMAGE = [("tau", "2*t^3*x^2", "(-2)*x^2"), ("tau", "3*t^-3*y", "(-3)*y^1"),
                      ("f", "5*t^2*x*y", "(-5)*x^1*y^1"), ("f", "7*t^-2*y^3", "(-7)*y^3")]

    @pytest.mark.parametrize("broken", [(0,), (1,), (2,), (3,), (0, 1), (0, 3), (1, 2), (2, 3)],
                             ids=str)
    def test_extremes_report_the_first_failing_comparison(self, fam4, broken):
        fam = fam4
        for k in broken:
            seq, extra, _ = self.EXTREME_DAMAGE[k]
            fam = with_stray_term(fam, seq, 3, extra)
        report = V._check_extremes(fam, 3)
        assert (report.status, report.n, report.witness, report.term_count) == (
            "fail", 3, self.EXTREME_DAMAGE[broken[0]][2], 1)

    def test_extremes_make_each_closed_form_once(self, fam4, monkeypatch):
        from hirotaverify import closedform

        calls = []
        for name in ("g_high", "f_high"):
            form = getattr(closedform, name)
            monkeypatch.setattr(closedform, name,
                                lambda n, form=form, name=name: calls.append(name) or form(n))
        assert V._check_extremes(fam4, 3).passed
        # g_high once for the row and once inside f_high.
        assert sorted(calls) == ["f_high", "g_high", "g_high"]

    @pytest.mark.parametrize("damage, witness", [
        ((monomial(2, ex=3), ZERO), "(-2)*x^3"),
        ((ZERO, monomial(5, ex=1)), "(-5)*x^1"),
        ((monomial(2, ex=3), monomial(5, ex=1)), "(-2)*x^3"),
    ], ids=["g", "f", "g and f"])
    def test_q0_reports_g_before_f(self, monkeypatch, damage, witness):
        from hirotaverify import closedform

        q0 = closedform.q0_wronskians
        monkeypatch.setattr(closedform, "q0_wronskians", lambda last: tuple(
            tuple(p + extra for p in dets) for dets, extra in zip(q0(last), damage)))
        report = V._check_q0(2, 6)
        assert (report.status, report.n, report.witness, report.term_count) == (
            "fail", 2, witness, 1)

    # F(g, f) is the one call with two different operands; F(g, g) and F(f, f)
    # each gain the extra, so their sum gains it twice.
    @pytest.mark.parametrize("pair, same, witness", [
        (monomial(3, ex=2), ZERO, "(3)*x^2"),
        (ZERO, monomial(7, ex=4), "(14)*x^4"),
        (monomial(3, ex=2), monomial(7, ex=4), "(3)*x^2"),
    ], ids=["F(g, f)", "F(g, g) + F(f, f)", "both"])
    def test_weyl_pair_reports_the_first_failing_bracket(self, monkeypatch, pair, same, witness):
        weyl = V.apply_F_weyl
        monkeypatch.setattr(V, "apply_F_weyl",
                            lambda n, a, b: weyl(n, a, b) + (same if a == b else pair))
        report = V._check_weyl_pair(2)
        assert (report.status, report.n, report.witness, report.term_count) == (
            "fail", 2, witness, 1)


class TestErnstNumeric:
    @pytest.mark.parametrize("n", [1, 2])
    def test_default_points_vanish(self, fam4, n):
        reports = V.ernst_residual_numeric(fam4, n)
        assert len(reports) == 3
        assert all(r.passed for r in reports)

    def test_unit_circle_enforced(self):
        # t -> 1/t is complex conjugation only where |t| = 1, with x and y real.
        assert len(V.ERNST_POINTS) == 3
        for x0, y0, t0 in V.ERNST_POINTS:
            assert t0.abs2() == 1 and x0.im == 0 and y0.im == 0, (x0, y0, t0)

    def test_denominator_zero_reported_per_point(self, fam4, monkeypatch):
        good = V.ERNST_POINTS[0]
        # f_2(x, y, 1) = 2(x^3 - x) + 2(y^3 - y) vanishes at x = 1, y = 1.
        zero_point = (GaussianRational(1), GaussianRational(1), GaussianRational(1))
        monkeypatch.setattr(V, "ERNST_POINTS", (zero_point, good))
        reports = V.ernst_residual_numeric(fam4, 2)
        assert [r.passed for r in reports] == [False, True]
        assert reports[0].status == "error"
        assert "denominator" in reports[0].witness

    @given(g=polys, f=polys)
    def test_matches_product_route(self, g, f):
        # Arbitrary operands fail at most points; status and witness must agree.
        fam = TauFamily(n_max=1, tau_uv=[ONE, to_uv(g)], f_uv=[ONE, to_uv(f)])
        reports = V.ernst_residual_numeric(fam, 1)
        assert [(r.status, r.witness) for r in reports] == [
            ernst_oracle(g, f, point) for point in V.ERNST_POINTS]

    def test_family_matches_product_route(self, fam4):
        for n in (1, 2, 3):
            reports = V.ernst_residual_numeric(fam4, n)
            g, f = fam4.g[n], fam4.f[n]
            assert [(r.status, r.witness) for r in reports] == [
                ernst_oracle(g, f, point) for point in V.ERNST_POINTS]

    # A point with non-real x and y, beside the default ones.
    COMPLEX_POINT = (GaussianRational(Fraction(3, 2), Fraction(-1, 3)),
                     GaussianRational(Fraction(1, 4), Fraction(2, 5)),
                     GaussianRational(Fraction(-8, 17), Fraction(15, 17)))

    @pytest.mark.parametrize("damage", [None, ("tau", "t*y"), ("f", "x^2")], ids=str)
    def test_damaged_family_matches_product_route(self, fam4, monkeypatch, damage):
        seqs = {"tau": list(fam4.tau_uv), "f": list(fam4.f_uv)}
        if damage:
            which, text = damage
            seqs[which][3] = seqs[which][3] + to_uv(parse(text))
        fam = TauFamily(4, tau_uv=seqs["tau"], f_uv=seqs["f"])
        points = (*V.ERNST_POINTS, self.COMPLEX_POINT)
        monkeypatch.setattr(V, "ERNST_POINTS", points)
        reports = V.ernst_residual_numeric(fam, 3)
        expected = [ernst_oracle(fam.g[3], fam.f[3], point) for point in points]
        assert [(r.status, r.witness) for r in reports] == expected
        assert {status for status, _ in expected} == {"fail" if damage else "pass"}

    # The conjugate lemma: at real x, y and |t| = 1, 1/t is the conjugate of t, so
    # star(p) takes the conjugate of p's value.  Each point is read in u, v as the check reads it.
    @staticmethod
    def _star_is_conjugate(p, point):
        x0, y0, t0 = point
        half = Fraction(1, 2)
        [([(re, im), star_value], _)] = evaluate(
            [p, V.star(p)], [((x0 + y0) * half, (x0 - y0) * half, t0)])
        return star_value == (re, -im)

    def test_star_is_the_conjugate_on_the_family(self, fam4):
        for p in (*fam4.tau_uv[1:4], *fam4.f_uv[1:4]):
            assert all(self._star_is_conjugate(p, point) for point in V.ERNST_POINTS), p

    @given(p=polys, q=polys)
    def test_star_is_the_conjugate_with_gaussian_coefficients(self, p, q):
        # p + i q, whose star is star(p) - i star(q): its value at the point is
        # (p_re - q_im) + i (p_im + q_re), and its star's the conjugate.
        assert all(self._star_is_conjugate(p, point) for point in V.ERNST_POINTS)
        half = Fraction(1, 2)
        for x0, y0, t0 in V.ERNST_POINTS:
            [(values, _)] = evaluate([p, q, V.star(p), V.star(q)],
                                     [((x0 + y0) * half, (x0 - y0) * half, t0)])
            (pr, pi), (qr, qi), (spr, spi), (sqr, sqi) = values
            assert (spr + sqi, spi - sqr) == (pr - qi, -(pi + qr))

    def test_star_is_not_the_conjugate_at_non_real_x_y(self, fam4):
        family = (*fam4.tau_uv[1:4], *fam4.f_uv[1:4])
        assert not all(self._star_is_conjugate(p, self.COMPLEX_POINT) for p in family)


class TestRunner:
    def test_reports_sorted_and_deterministic(self, fam4):
        tasks = V.suite_tasks(["conjecture"], 2)
        serial = V.run_checks(tasks, fam4)
        strip = lambda rs: [(r.equation_id, r.n, r.order_index, r.status) for r in rs]
        assert strip(serial) == sorted(strip(serial), key=lambda x: (x[0], x[1]))

    def test_fail_fast_stops_early(self, fam4):
        broken = TauFamily(
            n_max=4,
            tau_uv=[p + parse("1") if k == 2 else p for k, p in enumerate(fam4.tau_uv)],
            f_uv=fam4.f_uv,
        )
        tasks = V.suite_tasks(["toda"], 3)
        reports = V.run_checks(tasks, broken, fail_fast=True)
        assert any(not r.passed for r in reports)
        assert len(reports) < len(tasks)

    def test_first_row_carries_the_time_no_row_measured(self, fam4, monkeypatch):
        # The site's stars are made inside the first task, so its first row carries their time.
        star = V.star
        monkeypatch.setattr(V, "star", lambda p: time.sleep(0.05) or star(p))
        fresh = TauFamily(fam4.n_max, tau_uv=fam4.tau_uv, f_uv=fam4.f_uv)  # an empty site table
        started = time.perf_counter()
        reports = V.run_checks(V.suite_tasks(["symmetries"], 1), fresh)
        wall = time.perf_counter() - started
        first = next(r for r in reports if r.equation_id == "prop1.g")
        assert first.elapsed >= 0.05
        assert wall - 0.01 <= sum(r.elapsed for r in reports) <= wall

    def test_error_row_carries_the_whole_task_time(self):
        def slow_failure():
            time.sleep(0.05)
            raise RuntimeError("late")

        [row] = V.run_checks([V.CheckTask("late", 0, 0, lambda fam: slow_failure())], None)
        assert row.status == "error" and row.elapsed >= 0.05

    def test_every_task_times_its_first_row_alone(self, fam4):
        # The runner is the only clock: no check body writes elapsed.
        for task in V.suite_tasks(["all"], 3):
            started = time.perf_counter()
            rows = V.run_checks([task], fam4)
            wall = time.perf_counter() - started
            assert sum(r.elapsed > 0 for r in rows) == 1, task
            assert wall - 0.01 <= sum(r.elapsed for r in rows) <= wall, task

    def test_each_decomposition_keeps_its_own_time(self, fam4, monkeypatch):
        tsdec4 = V.IDENTITIES["tsdec4"]
        monkeypatch.setitem(V.IDENTITIES, "tsdec4", lambda site: time.sleep(0.05) or tsdec4(site))
        rows = {r.equation_id: r for r in V.run_checks(V.suite_tasks(["conjecture"], 1), fam4)}
        assert rows["tsdec4"].passed and rows["tsdec4"].elapsed >= 0.05
        assert all(rows[f"tsdec{k}"].elapsed < 0.05 for k in (1, 2, 3))

    def test_each_suite_reads_exactly_its_depth(self, built5):
        # A run's depth is the largest reads of its tasks: on a family of that depth
        # every row passes, and one site shorter some task meets the range guard.
        family = lambda d: TauFamily(d, tau_uv=built5.tau_uv[:d + 1], f_uv=built5.f_uv[:d + 1])
        for suite, n_max in ((suite, n_max) for suite in V.SUITES for n_max in (1, 2, 3)):
            tasks = V.suite_tasks([suite], n_max)
            depth = max(task.reads for task in tasks)
            rows = V.run_checks(tasks, family(depth) if depth else None)
            assert rows and all(r.passed for r in rows), (suite, n_max)
            if depth:
                errors = [r.witness for r in V.run_checks(tasks, family(depth - 1))
                          if r.status == "error"]
                assert errors, (suite, n_max)
                assert all(w.startswith("ValueError: need 1 <= n <= ") for w in errors), errors

    # How far past n_max each suite reads: the Toda and mixed rows read site n + 1.
    READS_PAST_N_MAX = {"toda": 1, "mixed": 1, "jacobi": 0, "conjecture": 0, "symmetries": 0,
                        "closedforms": 0, "orderwise-A": 1, "orderwise-B": 0, "ernst-numeric": 0}

    def test_family_depth(self):
        from hirotaverify.cli import _BENCH_SUITES

        depth = lambda names, n_max: max(task.reads for task in V.suite_tasks(names, n_max))
        assert set(self.READS_PAST_N_MAX) == set(V.SUITES) - {"weyl"}
        for n_max in range(1, 6):
            for suite, extra in self.READS_PAST_N_MAX.items():
                assert depth([suite], n_max) == n_max + extra, (suite, n_max)
            assert depth(["weyl"], n_max) == 0  # the weyl rows read no family site
            assert depth(["all"], n_max) == depth(_BENCH_SUITES, n_max) == n_max + 1

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            V.suite_tasks(["nope"], 2)

    def test_each_suite_listed_once_where_first_named(self):
        ids = lambda names: [(t.equation_id, t.n) for t in V.suite_tasks(names, 2)]
        rest = [name for name in V.SUITES if name != "toda"]
        assert ids(["toda", "all", "toda"]) == ids(["toda"]) + ids(rest)

    def test_family_depth_rejects_unknown_suite(self):
        with pytest.raises(ValueError, match="nope"):
            V.suite_tasks(["toda", "nope"], 3)

    def test_all_runs_every_task_in_suite_order(self):
        # --fail-fast stops at the first failing task, so the order is part of the contract.
        sites = lambda eq_id, first, last: [(eq_id, n) for n in range(first, last + 1)]
        expected = (
            sites("toda.tau", 1, 2) + sites("toda.f", 1, 2) + sites("mixed", 1, 2)
            + [("jacobi", 0)] + [(f"tsdec{k}", n) for n in (1, 2) for k in (1, 2, 3, 4)]
            + sites("symmetry", 1, 2)
            + [("closed.W", 0), ("closed.A", 0)] + sites("closed.q0", 1, 6)
            + sites("closed.extreme", 1, 2) + [("weyl.lock", 0)] + sites("weyl.pair", 1, 3)
            + [(f"orderwise-A.{s}", n) for n in (1, 2) for s in ("g", "f", "mixed")]
            + [(f"orderwise-B.{s}", n) for n in (1, 2) for s in ("B1", "B2", "B3", "B4")]
            + sites("ernst", 1, 2)
        )
        tasks = V.suite_tasks(["all"], 2)
        assert [(t.equation_id, t.n) for t in tasks] == expected
        assert [t.equation_id for name in V.SUITES
                for t in V.suite_tasks([name], 2)] == [e for e, _ in expected]

    def test_sort_key_shape(self, fam4):
        report = V.check_identity(fam4, 1, "mixed")
        assert V.sort_key(report) == ("mixed", 1, -1)
