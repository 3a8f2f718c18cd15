import copy
import pickle
import re
import zlib
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirotaverify.laurent import (
    ONE, ZERO, from_uv, parse, subst_t_inverse, subst_y_negate, swap_xy,
)
from hirotaverify.operators import hirota_dst, l_minus, l_plus, operand
from hirotaverify.verifier import check_jacobi, jacobi_residuals
from hirotaverify.wronskian import (
    CACHE_MAGIC,
    CACHE_VERSION,
    DeterminantError,
    Matrix,
    TauFamily,
    _eliminate,
    _leading_minors,
    build_psi,
    site_steps,
    sylvester_minors,
    tau_f_minors,
    wronskian_matrix,
)
from hirotaverify.closedform import w_recursive

from conftest import (
    build_xy, deleting, det_cofactor, l_minus_xy, l_plus_xy, psi_xy, wronskian_matrix_xy,
)

PSI = build_psi()  # t v + u/t, u in the x slot and v in the y slot
PSI_XY = psi_xy()


def det(m: Matrix):
    """The last leading principal minor of m, its determinant."""
    return list(_leading_minors(m))[-1]


class TestSeed:
    def test_coefficients(self):
        assert PSI_XY.t_coefficients().get(1, ZERO) == parse("1/2*x - 1/2*y")
        assert PSI_XY.t_coefficients().get(-1, ZERO) == parse("1/2*x + 1/2*y")
        assert PSI == parse("t*y + t^-1*x") and from_uv(PSI) == PSI_XY

    def test_t_inversion_equals_y_reflection(self):
        assert subst_t_inverse(PSI_XY) == subst_y_negate(PSI_XY)
        # In u, v the reflection y -> -y swaps u and v.
        assert subst_t_inverse(PSI) == swap_xy(PSI)


class TestMatrixConstruction:
    def test_dim_one(self):
        m = wronskian_matrix(PSI, 1)
        assert m == ((PSI,),)

    def test_shift_structure(self):
        m = wronskian_matrix(PSI, 3)
        assert m[1][1] == l_plus(l_minus(PSI))
        assert m[0][2] == l_minus(m[0][1])
        assert m[2][1] == l_plus(m[1][1])

    def test_shifted_seed_matrix_is_lower_right_block(self):
        # L_plus and L_minus commute, so site_steps reads the f Wronskian off tau's.
        m = wronskian_matrix(PSI, 5)
        shifted = wronskian_matrix(l_plus(l_minus(PSI)), 4)
        assert shifted == tuple(row[1:] for row in m[1:])

    def test_rejects_non_square(self):
        # Every matrix is built square; only its dimension can be refused.
        with pytest.raises(ValueError):
            wronskian_matrix(PSI, 0)


class TestMinors:
    def test_inner_block_gives_f3(self, fam5):
        # Deleting the first row and column of the 3x3 seed matrix leaves the
        # once-shifted 2x2 block whose determinant is f_3.
        m = wronskian_matrix(PSI, 3)
        assert from_uv(det_cofactor(deleting(m, 0, 0))) == fam5.f[3]


class TestDeterminants:
    def test_one_by_one(self):
        assert det(wronskian_matrix(PSI, 1)) == PSI

    def test_nonrotating_two_by_two(self):
        from hirotaverify.closedform import w_recursive

        w1, w2, w3 = (w_recursive(k) for k in (1, 2, 3))
        m = ((w1, w2), (w2, w3))
        x = parse("x")
        assert det(m) == (x**2 - 1) * (x**2 + 1)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_algorithms_agree(self, dim):
        m = wronskian_matrix(PSI, dim)
        assert det(m) == det_cofactor(m)

    def test_algorithms_agree_on_shifted_seed(self):
        m = wronskian_matrix(l_plus(l_minus(PSI)), 3)
        assert det(m) == det_cofactor(m)

    @given(scale=st.fractions(min_value=-3, max_value=3, max_denominator=4))
    def test_row_scaling(self, scale):
        # The last row, so that scaling by zero leaves every earlier pivot nonzero.
        m = wronskian_matrix(PSI, 3)
        scaled = m[:-1] + (tuple(scale * e for e in m[-1]),)
        assert det(scaled) == scale * det(m)

    def test_first_step_divides_by_nothing(self, monkeypatch):
        import hirotaverify.wronskian as W

        divisors = []

        def counting(a, b):
            divisors.append(b)
            return exact_divide(a, b)

        exact_divide = W.exact_divide
        monkeypatch.setattr(W, "exact_divide", counting)
        m = wronskian_matrix(PSI, 3)
        assert det(m) == det_cofactor(m)
        # Only the second step divides, by the first pivot, and once: 3x3 leaves a 1x1 block.
        assert divisors == [m[0][0]]

    def test_singular_column(self):
        # Without row swaps a zero first pivot is refused, singular matrix or not.
        from hirotaverify.laurent import ZERO, monomial

        x = monomial(1, ex=1)
        m = ((ZERO, x), (ZERO, ONE))
        assert det_cofactor(m).is_zero
        with pytest.raises(DeterminantError, match="zero pivot at step 0"):
            det(m)

    def test_minor_harvest_matches_cofactor(self):
        harvested = [tau for tau, _ in site_steps(4)]
        assert len(harvested) == 5
        for k, value in enumerate(harvested[1:], start=1):  # in u, v, as eliminated
            assert value == det_cofactor(wronskian_matrix(PSI, k))

    def test_minor_harvest_refuses_zero_pivot(self):
        from hirotaverify.laurent import ZERO, monomial

        x = monomial(1, ex=1)
        minors = _leading_minors(((ZERO, x), (x, ONE)))
        assert next(minors).is_zero
        with pytest.raises(DeterminantError):
            next(minors)
        # A zero last pivot is the full determinant, not a row swap.
        assert list(_leading_minors(((x, x), (x, x))))[-1].is_zero


def leading(m: Matrix, k: int) -> Matrix:
    """The k x k leading block of m."""
    return tuple(row[:k] for row in m[:k])


class TestTauFMinors:
    @staticmethod
    def agree(m: Matrix):
        pairs, block = list(tau_f_minors(m)), deleting(m, 0, 0)
        tau, f = [p[0] for p in pairs], [p[1] for p in pairs]
        assert tau == list(_leading_minors(m))
        assert f == [ONE, *_leading_minors(block)]
        assert tau == [det_cofactor(leading(m, k)) for k in range(1, len(m) + 1)]
        assert f == [det_cofactor(leading(block, k)) for k in range(len(m))]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_seed_wronskian_in_xy(self, dim):
        self.agree(wronskian_matrix_xy(PSI_XY, dim))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_hankel_of_w(self, dim):
        self.agree(tuple(tuple(w_recursive(1 + i + j) for j in range(dim)) for i in range(dim)))

    def test_dim_one(self):
        assert list(tau_f_minors(((PSI,),))) == [(PSI, ONE)]


class TestTauFamily:
    def test_boundary_values(self, fam5):
        assert fam5.tau[0] == ONE
        assert fam5.g[1] == PSI_XY
        assert fam5.f[0].is_zero
        assert fam5.f[1] == ONE

    def test_f2_is_shifted_seed(self, fam5):
        expected = parse(
            "t*x^3 + t*y^3 - t*x - t*y + t^-1*x^3 - t^-1*y^3 - t^-1*x + t^-1*y"
        )
        assert fam5.f[2] == expected
        assert fam5.f[2] == l_plus_xy(l_minus_xy(PSI_XY))

    def test_degree_bounds_exact(self, fam5):
        for n in range(1, 6):
            g_orders, f_orders = fam5.g[n].t_coefficients(), fam5.f[n].t_coefficients()
            assert (min(g_orders), max(g_orders)) == (-n, n)
            assert (min(f_orders), max(f_orders)) == (-(n - 1), n - 1)
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
                    assert fam5.g[n].t_coefficients().get(m, ZERO).is_zero
                if (n - m) % 2 == 0:
                    assert fam5.f[n].t_coefficients().get(m, ZERO).is_zero

    def test_toda_recurrence(self, fam5):
        for n in range(1, 5):
            tau = operand(fam5.tau_uv[n])
            residual = from_uv(hirota_dst(tau, tau)) - 2 * (
                fam5.tau[n + 1] * fam5.tau[n - 1]
            )
            assert residual.is_zero

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            TauFamily.build(0)

    def test_entry_count_must_match_depth(self, fam5):
        tau, f = fam5.tau_uv, fam5.f_uv
        for tau, f in ((tau[:3], f), (tau, f[:5]), (tau, f + (ONE,))):
            with pytest.raises(ValueError, match="n_max=5 needs 6 entries"):
                TauFamily(5, tau_uv=tau, f_uv=f)

    def test_cofactor_build_matches(self):
        small = TauFamily.build(3)
        shifted = l_plus_xy(l_minus_xy(PSI_XY))
        assert small.tau[1:] == tuple(det_cofactor(wronskian_matrix_xy(PSI_XY, k))
                                      for k in (1, 2, 3))
        assert small.f[2:] == tuple(det_cofactor(wronskian_matrix_xy(shifted, k)) for k in (1, 2))

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5])
    def test_build_matches_xy_route(self, n_max):
        assert TauFamily.build(n_max) == build_xy(n_max)

    def test_g_is_tau(self, fam5):
        assert fam5.g is fam5.tau

    def test_entries_cannot_change(self, fam5):
        with pytest.raises(TypeError):
            fam5.tau[2] = fam5.tau[2] + 1
        with pytest.raises(TypeError):
            fam5.tau_uv[2] = fam5.tau_uv[2] + 1
        with pytest.raises(AttributeError):
            fam5.f = ()
        fam = TauFamily(2, tau_uv=[ONE, PSI, PSI], f_uv=[ONE] * 3)
        assert fam.tau_uv == (ONE, PSI, PSI) and fam.tau == (ONE, PSI_XY, PSI_XY)

    def test_site_table_is_no_field(self, fam5, built5):
        fresh = TauFamily(5, tau_uv=built5.tau_uv, f_uv=built5.f_uv)
        fam5.sites[2] = "filled"
        assert fam5 == fresh and hash(fam5) == hash(fresh) and fresh.sites == {}
        assert fam5 == (5, built5.tau_uv, built5.f_uv)

    @pytest.mark.parametrize("name", ["tau", "tau_uv", "sites", "extra"])
    def test_attributes_cannot_be_assigned_or_deleted(self, fam5, name):
        fam5.sites[1] = "filled"
        with pytest.raises(AttributeError):
            setattr(fam5, name, ())
        with pytest.raises(AttributeError):
            delattr(fam5, name)
        assert fam5.sites == {1: "filled"}

    def test_replace_checks_the_entry_count(self, fam5):
        with pytest.raises(ValueError, match="n_max=4 needs 5 entries"):
            fam5._replace(n_max=4)
        assert fam5._replace(n_max=5) == fam5

    def test_sequences_are_keyword_only(self, fam5):
        # Positional sequences could be the x,y readings tau and f, which read as u, v
        # would be another family.
        with pytest.raises(TypeError):
            TauFamily(5, fam5.tau, fam5.f)
        assert TauFamily._make(fam5) == fam5
        assert copy.copy(fam5) == pickle.loads(pickle.dumps(fam5)) == fam5


def write_cache(path, body: str, version: int = CACHE_VERSION) -> None:
    """A cache file with a valid header for the given body."""
    path.write_text(f"{CACHE_MAGIC} v{version} crc32={zlib.crc32(body.encode()):08x}\n{body}")


class TestCacheFile:
    def test_round_trip(self, fam5, tmp_path):
        path = tmp_path / "family.tau"
        fam5.save(path)
        loaded = TauFamily.load(path)
        assert loaded.n_max == fam5.n_max
        assert loaded == fam5
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
        with pytest.raises(ValueError, match=r"bad\.tau:3: "):
            TauFamily.load(path)

    def test_missing_entries(self, tmp_path):
        path = tmp_path / "gap.tau"
        write_cache(path, "tau n=0: 1\ntau n=1: x\nf n=1: 1\n")
        with pytest.raises(ValueError, match=r"gap\.tau:4: expected 'f n=0: '$"):
            TauFamily.load(path)

    def test_refusal_of_a_sparse_cache_is_bounded(self, tmp_path):
        path = tmp_path / "sparse.tau"
        write_cache(path, "tau n=0: 1\ntau n=1000000: 1\nf n=0: 0\n")
        with pytest.raises(ValueError, match=r"sparse\.tau:3: expected 'tau n=1: '$") as exc:
            TauFamily.load(path)
        assert len(str(exc.value)) < 1000

    # CRC-valid bodies that are not the sequence save writes, each refused at its first
    # wrong line; every one of them loaded as TauFamily.build(3) when lines were a bag.
    @pytest.mark.parametrize("change, refusal", [
        (lambda lines: lines[:4] + lines[3:], "6: expected 'f n=0: '"),
        (lambda lines: lines + ["f n=7: (1)*x^1"], "10: expected the end of the cache"),
        (lambda lines: lines[4:] + lines[:4], "2: expected 'tau n=0: '"),
        (lambda lines: lines[:2] + [""] + lines[2:], "4: expected 'tau n=2: '"),
    ], ids=["repeated tau n=3", "extra f n=7", "f before tau", "blank line"])
    def test_refuses_a_body_out_of_written_order(self, built5, tmp_path, change, refusal):
        path = tmp_path / "family.tau"
        TauFamily(3, tau_uv=built5.tau_uv[:4], f_uv=built5.f_uv[:4]).save(path)
        lines = path.read_text().splitlines()[1:]
        write_cache(path, "".join(f"{line}\n" for line in change(lines)))
        with pytest.raises(ValueError, match=rf"family\.tau:{refusal}$"):
            TauFamily.load(path)

    def test_refuses_missing_header(self, tmp_path):
        path = tmp_path / "old.tau"
        path.write_text("tau n=0: 1\ntau n=1: x\ng n=0: 1\ng n=1: x\nf n=0: 0\nf n=1: 1\n")
        with pytest.raises(ValueError, match=r"old\.tau: no tau-family cache header$"):
            TauFamily.load(path)

    def test_exponent_outside_its_field(self, tmp_path):
        path = tmp_path / "huge.tau"
        write_cache(path, "tau n=0: 1\ntau n=1: (1)*t^5000000\nf n=0: 0\nf n=1: 1\n")
        with pytest.raises(ValueError, match=r"huge\.tau:3: .*outside the exponent fields"):
            TauFamily.load(path)

    # CRC-valid lines that do not parse, each refused with the path and the line.
    @pytest.mark.parametrize("line, refusal", [
        (b"(1)*x +", "unexpected end of input"),
        ("(1)*x\u00e9".encode(), "unexpected character '\u00e9'"),
        (b"(1)*x\xff", "unexpected character '\ufffd'"),
        (b"(1+2*i)*x", "unexpected character 'i'"),
    ], ids=["unexpected end", "non-ASCII character", "not UTF-8", "non-real coefficient"])
    def test_refuses_a_line_that_does_not_parse(self, tmp_path, line, refusal):
        path = tmp_path / "bad.tau"
        body = b"tau n=0: 1\ntau n=1: " + line + b"\nf n=0: 0\nf n=1: 1\n"
        header = f"{CACHE_MAGIC} v{CACHE_VERSION} crc32={zlib.crc32(body):08x}\n"
        path.write_bytes(header.encode() + body)
        with pytest.raises(ValueError, match=rf"bad\.tau:3: {refusal}"):
            TauFamily.load(path)

    # Only "\n" ends a cache line.  A form feed or U+0085 at the end of the tau n=1
    # line is refused on that line, not read as a line break that shifts the rest.
    @pytest.mark.parametrize("line, character", [
        (b"(1)*x\x0c", r"'\x0c'"),
        ("(1)*x\u0085".encode(), r"'\x85'"),
    ], ids=["form feed", "next line"])
    def test_refuses_another_line_break_on_its_line(self, tmp_path, line, character):
        path = tmp_path / "bad.tau"
        body = b"tau n=0: 1\ntau n=1: " + line + b"\nf n=0: 0\nf n=1: 1\n"
        header = f"{CACHE_MAGIC} v{CACHE_VERSION} crc32={zlib.crc32(body):08x}\n"
        path.write_bytes(header.encode() + body)
        with pytest.raises(ValueError, match=rf"bad\.tau:3: unexpected character {re.escape(character)}"):
            TauFamily.load(path)

    # tau_3 and f_3 are not among the entries the load recomputes from the seed.
    @pytest.mark.parametrize("entry, term, line", [
        ("tau n=3", "(1)*x^-1", 5), ("f n=3", "(2)*t*y^-2", 11),
    ], ids=["x^-1 on tau n=3", "y^-2 on f n=3"])
    def test_refuses_a_negative_x_or_y_exponent(self, fam5, tmp_path, entry, term, line):
        path = tmp_path / "family.tau"
        fam5.save(path)
        body = path.read_text().split("\n", 1)[1].replace(f"{entry}: ", f"{entry}: {term} + ", 1)
        write_cache(path, body)
        with pytest.raises(ValueError, match=rf"family\.tau:{line}: negative u or v exponent$"):
            TauFamily.load(path)

    def test_refuses_other_version(self, tmp_path):
        path = tmp_path / "future.tau"
        write_cache(path, "tau n=0: 1\ntau n=1: x\nf n=0: 0\nf n=1: 1\n",
                    version=CACHE_VERSION + 1)
        with pytest.raises(ValueError, match="format"):
            TauFamily.load(path)

    @pytest.mark.parametrize("entry", ["tau n=2", "f n=2"])
    def test_refuses_damaged_entry_under_a_matching_crc(self, fam5, tmp_path, entry):
        # The load check recomputes sites 0..2 in u, v and compares them in u, v.
        # The stray is x = u + v.
        path = tmp_path / "family.tau"
        fam5.save(path)
        body = path.read_text().split("\n", 1)[1]
        body = body.replace(f"{entry}: ", f"{entry}: (1)*x + (1)*y + ", 1)
        write_cache(path, body)
        with pytest.raises(ValueError, match=f"{entry.replace(' n=', '_')} disagree"):
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
    def test_residual_vanishes(self, fam5, n):
        residuals = list(jacobi_residuals(fam5, n))
        assert len(residuals) == n and all(r.is_zero for r in residuals)

    def test_residual_vanishes_at_four(self, fam5):
        # 5x5 seed matrix; the slowest minor-identity instance kept.
        assert all(r.is_zero for r in jacobi_residuals(fam5, 4))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_minors_match_xy_route(self, n):
        # Before step n-1 the working rows hold D[n;n], D[n+1;n] and D[n;n+1] in
        # their last two rows and columns: the cofactor determinant of each
        # minor, and the same border read off an elimination in x, y.
        m, m_xy = wronskian_matrix(PSI, n + 1), wronskian_matrix_xy(PSI_XY, n + 1)
        a = next(islice(_eliminate(m), n - 1, None))
        a_xy = next(islice(_eliminate(m_xy), n - 1, None))
        for i, j in ((n - 1, n - 1), (n, n - 1), (n - 1, n)):  # deleted row and column
            r, c = 2 * n - 1 - i, 2 * n - 1 - j  # the bordering row and column kept
            assert a[r][c] == det_cofactor(deleting(m, i, j))
            assert from_uv(a[r][c]) == a_xy[r][c]

    def test_minors_from_one_elimination(self):
        # Site n's minors, read off one 5x5 elimination, are those of the (n+1)-dim matrix:
        # its leading n-block, tau_n, then D[n;n], D[n+1;n] and D[n;n+1].
        minors = list(sylvester_minors(4))
        assert len(minors) == 4
        for n, site in enumerate(minors, start=1):
            m = wronskian_matrix(PSI, n + 1)
            assert site == tuple(det_cofactor(deleting(m, i, j))
                                 for i, j in ((n, n), (n - 1, n - 1), (n, n - 1), (n - 1, n)))

    def test_check_report(self, fam5):
        reports = check_jacobi(fam5, 2)
        assert [(r.equation_id, r.n, r.status) for r in reports] == [
            ("jacobi", 1, "pass"), ("jacobi", 2, "pass")]

    def test_invalid_site(self, fam5):
        with pytest.raises(ValueError):
            list(jacobi_residuals(fam5, 0))
        with pytest.raises(ValueError):
            list(jacobi_residuals(fam5, 6))
        with pytest.raises(ValueError):
            sylvester_minors(0)

    def test_one_elimination_per_run(self, fam5, monkeypatch):
        # Every site's tau_n and its three border minors come from one elimination,
        # sized from the run's n_max, whose consumer takes n_max working-row
        # states and so never runs its last step.
        import hirotaverify.wronskian as W

        runs = []
        eliminate = W._eliminate

        def counting(m):
            runs.append([len(m), 0])
            for a in eliminate(m):
                runs[-1][1] += 1
                yield a

        monkeypatch.setattr(W, "_eliminate", counting)
        assert all(r.passed for r in check_jacobi(fam5, 3))
        assert runs == [[4, 3]]

    def test_damaged_tau_fails_at_its_site(self, fam5):
        # A row reads tau_n alone of the family, and the stray term is its witness.
        tau = list(fam5.tau_uv)
        tau[2] = tau[2] + 1  # 1 in x, y is 1 in u, v
        broken = TauFamily(fam5.n_max, tau_uv=tau, f_uv=fam5.f_uv)
        assert [(r.passed, r.witness) for r in check_jacobi(broken, 4)] == [
            (True, None), (False, "(1)"), (True, None), (True, None)]
