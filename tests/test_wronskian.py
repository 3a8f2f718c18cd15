import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirotaverify.laurent import ONE, parse, subst_t_inverse, subst_y_negate
from hirotaverify.operators import hirota_dst, l_minus, l_plus
from hirotaverify.wronskian import (
    CACHE_MAGIC,
    CACHE_VERSION,
    DeterminantError,
    SymMatrix,
    TauFamily,
    build_psi,
    det_cofactor,
    determinant,
    jacobi_identity_check,
    jacobi_residual,
    leading_minor,
    leading_principal_minors,
    minor,
    wronskian_matrix,
)

PSI = build_psi()


class TestSeed:
    def test_coefficients(self):
        assert PSI.coeff_of_t(1) == parse("1/2*x - 1/2*y")
        assert PSI.coeff_of_t(-1) == parse("1/2*x + 1/2*y")

    def test_t_inversion_equals_y_reflection(self):
        assert subst_t_inverse(PSI) == subst_y_negate(PSI)


class TestMatrixConstruction:
    def test_dim_one(self):
        m = wronskian_matrix(PSI, 1)
        assert m.dim == 1 and m.entry(0, 0) == PSI

    def test_shift_structure(self):
        m = wronskian_matrix(PSI, 3)
        assert m.entry(1, 1) == l_plus(l_minus(PSI))
        assert m.entry(0, 2) == l_minus(m.entry(0, 1))
        assert m.entry(2, 1) == l_plus(m.entry(1, 1))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(((ONE, ONE),))
        with pytest.raises(ValueError):
            wronskian_matrix(PSI, 0)


class TestMinors:
    def test_single_deletion(self):
        m = wronskian_matrix(PSI, 2)
        sub = minor(m, {0}, {0})
        assert sub.dim == 1
        assert sub.entry(0, 0) == m.entry(1, 1)

    def test_double_deletion_size(self):
        m = wronskian_matrix(PSI, 4)
        assert minor(m, {2, 3}, {2, 3}).dim == 2

    def test_out_of_range_rejected(self):
        m = wronskian_matrix(PSI, 2)
        with pytest.raises(IndexError):
            minor(m, {5}, {0})
        with pytest.raises(ValueError):
            minor(m, {0, 1}, {0})

    def test_inner_block_gives_f3(self, fam5):
        # Deleting the first row and column of the 3x3 seed matrix leaves the
        # once-shifted 2x2 block whose determinant is f_3.
        m = wronskian_matrix(PSI, 3)
        assert determinant(minor(m, {0}, {0})) == fam5.f[3]


class TestDeterminants:
    def test_one_by_one(self):
        assert determinant(wronskian_matrix(PSI, 1)) == PSI

    def test_nonrotating_two_by_two(self):
        from hirotaverify.closedform import w_recursive

        w1, w2, w3 = (w_recursive(k) for k in (1, 2, 3))
        m = SymMatrix(((w1, w2), (w2, w3)))
        x = parse("x")
        assert determinant(m) == (x**2 - 1) * (x**2 + 1)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_algorithms_agree(self, dim):
        m = leading_minor(wronskian_matrix(PSI, 4), dim)
        assert determinant(m) == det_cofactor(m)

    def test_algorithms_agree_on_shifted_seed(self):
        m = wronskian_matrix(l_plus(l_minus(PSI)), 3)
        assert determinant(m) == det_cofactor(m)

    @given(scale=st.fractions(min_value=-3, max_value=3, max_denominator=4))
    def test_row_scaling(self, scale):
        m = wronskian_matrix(PSI, 3)
        scaled = SymMatrix((tuple(scale * e for e in m.entries[0]),) + m.entries[1:])
        assert determinant(scaled) == scale * determinant(m)

    def test_zero_pivot_with_row_swap(self):
        from hirotaverify.laurent import ZERO, variable

        x = variable("x")
        m = SymMatrix(((ZERO, x), (x, ONE)))
        assert determinant(m) == -(x * x)
        assert det_cofactor(m) == -(x * x)

    def test_singular_column(self):
        from hirotaverify.laurent import ZERO, variable

        x = variable("x")
        m = SymMatrix(((ZERO, x), (ZERO, ONE)))
        assert determinant(m).is_zero

    def test_minor_harvest_matches_cofactor(self):
        m = wronskian_matrix(PSI, 4)
        harvested = leading_principal_minors(m)
        assert len(harvested) == 4
        for k, value in enumerate(harvested, start=1):
            assert value == det_cofactor(leading_minor(m, k))

    def test_minor_harvest_refuses_zero_pivot(self):
        from hirotaverify.laurent import ZERO, variable

        x = variable("x")
        with pytest.raises(DeterminantError):
            leading_principal_minors(SymMatrix(((ZERO, x), (x, ONE))))
        # A zero last pivot is the full determinant, not a row swap.
        assert leading_principal_minors(SymMatrix(((x, x), (x, x))))[-1].is_zero


class TestTauFamily:
    def test_boundary_values(self, fam5):
        assert fam5.tau[0] == ONE
        assert fam5.g[1] == PSI
        assert fam5.f[0].is_zero
        assert fam5.f[1] == ONE

    def test_f2_is_shifted_seed(self, fam5):
        expected = parse(
            "t*x^3 + t*y^3 - t*x - t*y + t^-1*x^3 - t^-1*y^3 - t^-1*x + t^-1*y"
        )
        assert fam5.f[2] == expected
        assert fam5.f[2] == l_plus(l_minus(PSI))

    def test_degree_bounds_exact(self, fam5):
        for n in range(1, 6):
            assert fam5.g[n].t_span() == (-n, n)
            lo, hi = fam5.f[n].t_span()
            assert (lo, hi) == (-(n - 1), n - 1)
            assert not fam5.g[n].has_negative_xy()
            assert not fam5.f[n].has_negative_xy()

    def test_real_coefficients(self, fam5):
        for n in range(6):
            for poly in (fam5.g[n], fam5.f[n]):
                assert all(c.is_real for _, c in poly.terms())

    def test_parity_structure(self, fam5):
        for n in range(1, 6):
            for m in range(-n, n + 1):
                if (n - m) % 2:
                    assert fam5.g[n].coeff_of_t(m).is_zero
                if (n - m) % 2 == 0:
                    assert fam5.f[n].coeff_of_t(m).is_zero

    def test_toda_recurrence(self, fam5):
        for n in range(1, 5):
            residual = hirota_dst(fam5.tau[n], fam5.tau[n]) - 2 * (
                fam5.tau[n + 1] * fam5.tau[n - 1]
            )
            assert residual.is_zero

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            TauFamily.build(0)

    def test_cofactor_build_matches(self):
        small = TauFamily.build(3)
        seed = wronskian_matrix(PSI, 3)
        shifted = wronskian_matrix(l_plus(l_minus(PSI)), 2)
        assert small.tau[1:] == [det_cofactor(leading_minor(seed, k)) for k in (1, 2, 3)]
        assert small.f[2:] == [det_cofactor(leading_minor(shifted, k)) for k in (1, 2)]

    def test_g_is_tau(self, fam5):
        assert fam5.g is fam5.tau


def write_cache(path, body: str, version: int = CACHE_VERSION) -> None:
    """A cache file with a valid header for the given body."""
    path.write_text(f"{CACHE_MAGIC} v{version} crc32={zlib.crc32(body.encode()):08x}\n{body}")


class TestCacheFile:
    def test_round_trip(self, fam5, tmp_path):
        path = tmp_path / "family.tau"
        fam5.save(path)
        loaded = TauFamily.load(path)
        assert loaded.n_max == fam5.n_max
        assert loaded.tau == fam5.tau
        assert loaded.g == fam5.g
        assert loaded.f == fam5.f

    def test_save_is_deterministic(self, fam5, tmp_path):
        a, b = tmp_path / "a.tau", tmp_path / "b.tau"
        fam5.save(a)
        fam5.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_then_tau_and_f_lines_only(self, fam5, tmp_path):
        path = tmp_path / "family.tau"
        fam5.save(path)
        header, *lines = path.read_text().splitlines()
        assert header.startswith(f"{CACHE_MAGIC} v{CACHE_VERSION} crc32=")
        assert [line.split(" ", 1)[0] for line in lines] == ["tau"] * 6 + ["f"] * 6
        assert list(tmp_path.iterdir()) == [path]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tau"
        write_cache(path, "tau n=0: 1\nnot a record\n")
        with pytest.raises(ValueError, match="malformed"):
            TauFamily.load(path)

    def test_missing_entries(self, tmp_path):
        path = tmp_path / "gap.tau"
        write_cache(path, "tau n=0: 1\ntau n=1: x\nf n=1: 1\n")
        with pytest.raises(ValueError, match="missing f"):
            TauFamily.load(path)

    def test_refuses_missing_header(self, tmp_path):
        path = tmp_path / "old.tau"
        path.write_text("tau n=0: 1\ntau n=1: x\ng n=0: 1\ng n=1: x\nf n=0: 0\nf n=1: 1\n")
        with pytest.raises(ValueError, match="header"):
            TauFamily.load(path)

    def test_refuses_other_version(self, tmp_path):
        path = tmp_path / "future.tau"
        write_cache(path, "tau n=0: 1\ntau n=1: x\nf n=0: 0\nf n=1: 1\n",
                    version=CACHE_VERSION + 1)
        with pytest.raises(ValueError, match="format"):
            TauFamily.load(path)

    def test_refuses_body_that_differs_from_digest(self, fam5, tmp_path):
        path = tmp_path / "family.tau"
        fam5.save(path)
        text = path.read_text()
        path.write_text(text.replace("tau n=3: ", "tau n=3: 1 + ", 1))
        with pytest.raises(ValueError, match="CRC-32"):
            TauFamily.load(path)


class TestJacobiIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_vanishes(self, n):
        assert jacobi_residual(n).is_zero

    def test_residual_vanishes_at_four(self):
        # 5x5 seed matrix; the slowest single minor-identity instance kept.
        assert jacobi_residual(4).is_zero

    def test_check_report(self):
        report = jacobi_identity_check(2)
        assert report.passed and report.equation_id == "jacobi" and report.n == 2

    def test_invalid_site(self):
        with pytest.raises(ValueError):
            jacobi_residual(0)
