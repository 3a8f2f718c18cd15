from fractions import Fraction

import pytest

from hirotaverify.gaussian import GaussianRational
from hirotaverify.laurent import ZERO, monomial, parse, subst_y_negate
from hirotaverify.operators import FOperator, apply_F, hirota, hirota_dst
from hirotaverify.report import sort_key
from hirotaverify import verifier as V
from hirotaverify.wronskian import TauFamily


class TestStar:
    def test_on_real_family(self, fam5):
        from hirotaverify.laurent import subst_t_inverse

        for n in range(1, 4):
            assert V.star(fam5.g[n]) == subst_t_inverse(fam5.g[n])

    def test_conjugates_coefficients(self):
        p = parse("(1+1*i)*t^2*x")
        assert V.star(p) == parse("(1-1*i)*t^-2*x")

    def test_involution(self, fam5):
        p = fam5.g[2] + parse("i*t")
        assert V.star(V.star(p)) == p


class TestLatticeChecks:
    @pytest.mark.parametrize("which", ["tau", "g", "f"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_toda(self, fam5, which, n):
        assert V.check_toda(fam5, n, which).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mixed(self, fam5, n):
        assert V.check_mixed(fam5, n).passed

    def test_site_bounds(self, fam5):
        with pytest.raises(ValueError):
            V.check_toda(fam5, 5, "g")
        with pytest.raises(ValueError):
            V.check_mixed(fam5, 0)

    def test_failure_reports_witness(self, fam5):
        broken = TauFamily(
            n_max=2,
            tau=[fam5.tau[0], fam5.tau[1], fam5.tau[2] + parse("1")],
            f=fam5.f[:3],
        )
        report = V.check_toda(broken, 1, "g")
        assert not report.passed
        assert report.witness

    def test_suite_computes_each_residual_once(self, fam4, monkeypatch):
        calls = []

        def counting(f, g):
            calls.append((f, g))
            return hirota_dst(f, g)

        monkeypatch.setattr(V, "hirota_dst", counting)
        reports = V.run_checks(V.suite_tasks("toda", fam4, 3))
        assert len(calls) == 6
        assert [(r.equation_id, r.n) for r in reports] == [
            (which, n) for which in ("toda.f", "toda.g", "toda.tau") for n in (1, 2, 3)
        ]
        assert all(r.passed for r in reports)


class TestConjecture:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_four_pass(self, fam5, n):
        reports = V.check_conjecture(fam5, n)
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

    def test_quarter_turn_small_phases(self, fam5):
        from hirotaverify.gaussian import minus_i_power
        from hirotaverify.laurent import subst_t_times_i, swap_xy

        g1 = fam5.g[1]
        assert subst_t_times_i(g1) == minus_i_power(1) * swap_xy(g1)
        f2 = fam5.f[2]
        assert subst_t_times_i(f2) == minus_i_power(3) * swap_xy(f2)


class TestSu11:
    def test_identity_transform(self, fam5):
        params = V.Su11Params(GaussianRational(1), GaussianRational(0))
        gp, fp = V.su11_transform(fam5, 2, params)
        assert gp == fam5.g[2] and fp == fam5.f[2]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            V.Su11Params(GaussianRational(1), GaussianRational(0, 1))
        with pytest.raises(ValueError):
            V.Su11Params(GaussianRational(3, 4), GaussianRational(4, 3))

    def test_real_pair_linearity(self, fam4):
        params = V.Su11Params(GaussianRational(2), GaussianRational(3))
        reports = V.check_su11(fam4, 2, params)
        assert all(r.passed for r in reports)

    def test_transforms_only_neighbour_sites(self, fam4, monkeypatch):
        sites = []

        def counting(fam, n, params):
            sites.append(n)
            return transform(fam, n, params)

        transform = V.su11_transform
        monkeypatch.setattr(V, "su11_transform", counting)
        params = V.Su11Params(GaussianRational(2), GaussianRational(3))
        assert all(r.passed for r in V.check_su11(fam4, 2, params))
        assert sites == [1, 2, 3]

    def test_complex_pair(self, fam4):
        params = V.Su11Params(GaussianRational(1, 1), GaussianRational(0, 2))
        reports = V.check_su11(fam4, 1, params)
        assert all(r.passed for r in reports)

    def test_degenerate_combination_still_decomposes(self, fam4):
        # g - i f paired with i(g - i f): the four equations survive even at
        # the excluded parameter boundary, checked here without the transform.
        i = GaussianRational(0, 1)
        for n in (1, 2):
            g = fam4.g[n] + (-i) * fam4.f[n]
            f = i * fam4.g[n] + fam4.f[n]
            gs, fs = V.star(g), V.star(f)
            fop = FOperator(n)
            assert (hirota("x", g, f, 1) - hirota("x", gs, fs, 1)).is_zero
            assert (hirota("y", g, f, 1) + hirota("y", gs, fs, 1)).is_zero
            assert apply_F(fop, gs, f).is_zero
            assert (apply_F(fop, gs, g) + apply_F(fop, fs, f)).is_zero

    def test_random_admissible_generation(self):
        params = V.random_su11_params(5, seed=99)
        assert len(params) == 5
        assert params == V.random_su11_params(5, seed=99)
        for p in params:
            assert p.alpha.abs2() != p.beta.abs2()


def _all_orderwise_toda(fam, n):
    for family, (top, _) in V._toda_spans(n).items():
        for I in range(top + 1):
            yield family, I, V.check_orderwise_toda(fam, n, I, family)


def _all_orderwise_nakamura(fam, n):
    for which in ("B1", "B2", "B3", "B4"):
        for I in range(V._nak_span(n, which) + 1):
            yield which, I, V.check_orderwise_nakamura(fam, n, I, which)


class TestOrderwiseToda:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_order_passes(self, fam4, n):
        for family, I, report in _all_orderwise_toda(fam4, n):
            assert report.passed, (family, I, report.witness, report.note)

    def test_case_labels(self, fam4):
        assert V.check_orderwise_toda(fam4, 2, 0, "g").equation_id == "TD1"
        assert V.check_orderwise_toda(fam4, 2, 2, "g").equation_id == "TD2"
        assert V.check_orderwise_toda(fam4, 2, 4, "g").equation_id == "TD3"
        assert V.check_orderwise_toda(fam4, 2, 1, "f").equation_id == "TD5"
        assert V.check_orderwise_toda(fam4, 2, 3, "mixed").equation_id == "TD9"

    def test_top_order_matches_closed_forms(self, fam4):
        from hirotaverify.closedform import g_high

        lhs, rhs = V.orderwise_toda_sides(fam4, 2, 0, "g")
        assert lhs == hirota_dst(g_high(2), g_high(2))
        assert rhs == 2 * g_high(3) * g_high(1)

    @pytest.mark.parametrize("family", ["g", "f", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weighted_sum_reproduces_parents(self, fam4, family, n):
        seq_a = fam4.f if family in ("f", "mixed") else fam4.g
        seq_b = fam4.g if family in ("g", "mixed") else fam4.f
        top, _ = V._toda_spans(n)[family]
        shift = {"g": 2 * n, "f": 2 * n - 2, "mixed": 2 * n - 1}[family]
        lhs_sum, rhs_sum = ZERO, ZERO
        for I in range(top + 1):
            lhs, rhs = V.orderwise_toda_sides(fam4, n, I, family)
            weight = monomial(1, et=shift - 2 * I)
            lhs_sum = lhs_sum + lhs * weight
            rhs_sum = rhs_sum + rhs * weight
        assert lhs_sum == hirota_dst(seq_a[n], seq_b[n])
        if family == "mixed":
            expected = fam4.f[n + 1] * fam4.g[n - 1] + fam4.f[n - 1] * fam4.g[n + 1]
        else:
            seq = fam4.g if family == "g" else fam4.f
            expected = 2 * (seq[n + 1] * seq[n - 1])
        assert rhs_sum == expected

    def test_mirror_route_equality(self, fam4):
        for n in (2, 3):
            top, _ = V._toda_spans(n)["g"]
            for I in range(n + 1, top + 1):
                lhs, rhs = V.orderwise_toda_sides(fam4, n, I, "g")
                plhs, prhs = V.orderwise_toda_sides(fam4, n, top - I, "g")
                assert lhs - rhs == subst_y_negate(plhs - prhs)

    def test_invalid_arguments(self, fam4):
        with pytest.raises(ValueError):
            V.check_orderwise_toda(fam4, 2, 5, "g")
        with pytest.raises(ValueError):
            V.check_orderwise_toda(fam4, 1, 0, "h")
        with pytest.raises(ValueError):
            V.check_orderwise_toda(fam4, 4, 0, "g")


class TestOrderwiseNakamura:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_order_passes(self, fam4, n):
        for which, I, report in _all_orderwise_nakamura(fam4, n):
            assert report.passed, (which, I, report.witness, report.note)

    def test_case_labels(self, fam4):
        assert V.check_orderwise_nakamura(fam4, 2, 0, "B1").equation_id == "B.1"
        assert V.check_orderwise_nakamura(fam4, 2, 2, "B1").equation_id == "B.2"
        assert V.check_orderwise_nakamura(fam4, 2, 3, "B2").equation_id == "B.6"
        assert V.check_orderwise_nakamura(fam4, 2, 0, "B4").equation_id == "B.11"
        assert V.check_orderwise_nakamura(fam4, 2, 1, "B4").equation_id == "B.10"
        assert V.check_orderwise_nakamura(fam4, 2, 4, "B4").equation_id == "B.12"

    def test_top_order_uses_extreme_forms(self, fam4):
        from hirotaverify.closedform import f_high, g_high, g_low

        lhs, _ = V.orderwise_nakamura_sides(fam4, 2, 0, "B3")
        assert lhs == apply_F(FOperator(2), g_low(2), f_high(2))
        lhs, _ = V.orderwise_nakamura_sides(fam4, 2, 0, "B4")
        assert lhs == apply_F(FOperator(2), g_low(2), g_high(2))

    @pytest.mark.parametrize("which", ["B1", "B2", "B3", "B4"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weighted_sum_reproduces_parents(self, fam4, which, n):
        g, f = fam4.g[n], fam4.f[n]
        gs, fs = V.star(g), V.star(f)
        fop = FOperator(n)
        parents = {
            "B1": hirota("x", g, f, 1) - hirota("x", gs, fs, 1),
            "B2": hirota("y", g, f, 1) + hirota("y", gs, fs, 1),
            "B3": apply_F(fop, gs, f),
            "B4": apply_F(fop, gs, g) + apply_F(fop, fs, f),
        }
        top = V._nak_span(n, which)
        shift = 2 * n if which == "B4" else 2 * n - 1
        total = ZERO
        for I in range(top + 1):
            lhs, _ = V.orderwise_nakamura_sides(fam4, n, I, which)
            total = total + lhs * monomial(1, et=shift - 2 * I)
        assert total == parents[which]

    def test_invalid_arguments(self, fam4):
        with pytest.raises(ValueError):
            V.check_orderwise_nakamura(fam4, 2, 5, "B1")
        with pytest.raises(ValueError):
            V.check_orderwise_nakamura(fam4, 2, 0, "B9")


class TestErnstNumeric:
    @pytest.mark.parametrize("n", [1, 2])
    def test_default_points_vanish(self, fam4, n):
        reports = V.ernst_residual_numeric(fam4, n)
        assert len(reports) == 3
        assert all(r.passed for r in reports)

    def test_unit_circle_enforced(self, fam4):
        bad = (GaussianRational(2), GaussianRational(1), GaussianRational(2))
        (report,) = V.ernst_residual_numeric(fam4, 1, [bad])
        assert not report.passed
        assert "|t|" in report.witness

    def test_denominator_zero_reported_per_point(self, fam4):
        good = V.DEFAULT_ERNST_POINTS[0]
        # f_2(x, y, 1) = 2(x^3 - x) + 2(y^3 - y) vanishes at x = 1, y = 1.
        zero_point = (GaussianRational(1), GaussianRational(1), GaussianRational(1))
        reports = V.ernst_residual_numeric(fam4, 2, [zero_point, good])
        assert [r.passed for r in reports] == [False, True]
        assert "denominator" in reports[0].witness


class TestRunner:
    def test_reports_sorted_and_deterministic(self, fam4):
        tasks = V.suite_tasks("conjecture", fam4, 2)
        serial = V.run_checks(tasks)
        strip = lambda rs: [(r.equation_id, r.n, r.order_index, r.status) for r in rs]
        assert strip(serial) == sorted(strip(serial), key=lambda x: (x[0], x[1]))

    def test_fail_fast_stops_early(self, fam4):
        broken = TauFamily(
            n_max=4,
            tau=[p + parse("1") if k == 2 else p for k, p in enumerate(fam4.tau)],
            f=fam4.f,
        )
        tasks = V.suite_tasks("toda", broken, 3)
        reports = V.run_checks(tasks, fail_fast=True)
        assert any(not r.passed for r in reports)
        assert len(reports) < len(tasks)

    def test_family_depth(self):
        assert V.family_depth_needed(["toda"], 3) == 4
        assert V.family_depth_needed(["conjecture"], 3) == 3
        assert V.family_depth_needed(["all"], 2) == 3

    def test_unknown_suite(self, fam4):
        with pytest.raises(ValueError):
            V.suite_tasks("nope", fam4, 2)

    def test_sort_key_shape(self, fam4):
        report = V.check_mixed(fam4, 1)
        assert sort_key(report) == ("mixed", 1, -1)
