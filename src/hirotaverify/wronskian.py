"""Two-directional Wronskian determinants and the tau-function family.

The n-th tau function is the determinant of the n x n matrix whose (i, j)
entry is L_plus^i L_minus^j applied to the seed, built here with one operator
application per entry.  Determinants are evaluated by fraction-free one-step
elimination (divisions exact in the Laurent ring) with plain cofactor
expansion kept as an independent oracle.
"""

from __future__ import annotations

import os
import re
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .laurent import (
    LaurentPoly,
    Monomial,
    ONE,
    ZERO,
    ExactDivisionError,
    exact_divide,
    parse,
    serialize,
)
from .operators import l_minus, l_plus
from .report import CheckReport

_HALF = Fraction(1, 2)

CACHE_MAGIC = "hirotaverify tau-family"
CACHE_VERSION = 1
_HEADER = re.compile(rf"^{CACHE_MAGIC} v(\d+) crc32=([0-9a-f]{{8}})$")


def build_psi() -> LaurentPoly:
    """Seed t*(x-y)/2 + (1/t)*(x+y)/2, i.e. t*v + u/t."""
    return LaurentPoly(
        {
            Monomial(1, 1, 0): _HALF,
            Monomial(1, 0, 1): -_HALF,
            Monomial(-1, 1, 0): _HALF,
            Monomial(-1, 0, 1): _HALF,
        }
    )


@dataclass(frozen=True)
class SymMatrix:
    """Immutable square matrix of Laurent polynomials."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        for row in self.entries:
            if len(row) != len(self.entries):
                raise ValueError("matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.entries[i][j]


def wronskian_matrix(seed: LaurentPoly, n: int) -> SymMatrix:
    """n x n matrix with entry(i, j) = L_plus^i L_minus^j seed.

    Row 0 is built by repeated L_minus from the seed and each later row by
    one L_plus per entry, so construction costs O(n^2) operator applications.
    """
    if n < 1:
        raise ValueError("matrix dimension must be at least 1")
    rows = [[seed]]
    for j in range(1, n):
        rows[0].append(l_minus(rows[0][j - 1]))
    for i in range(1, n):
        rows.append([l_plus(e) for e in rows[i - 1]])
    return SymMatrix(tuple(tuple(row) for row in rows))


def minor(m: SymMatrix, rows: Iterable[int], cols: Iterable[int]) -> SymMatrix:
    """Submatrix with the given 0-based rows and columns deleted."""
    drop_rows = set(rows)
    drop_cols = set(cols)
    if len(drop_rows) != len(drop_cols):
        raise ValueError("must delete equally many rows and columns")
    for idx in drop_rows | drop_cols:
        if not 0 <= idx < m.dim:
            raise IndexError(f"index {idx} out of range for dim {m.dim}")
    kept = tuple(
        tuple(m.entries[i][j] for j in range(m.dim) if j not in drop_cols)
        for i in range(m.dim)
        if i not in drop_rows
    )
    return SymMatrix(kept)


def leading_minor(m: SymMatrix, k: int) -> SymMatrix:
    if not 0 < k <= m.dim:
        raise ValueError(f"leading minor size {k} out of range")
    return SymMatrix(tuple(row[:k] for row in m.entries[:k]))


class DeterminantError(RuntimeError):
    """Internal inconsistency: an elimination division that must be exact failed."""


def det_cofactor(m: SymMatrix) -> LaurentPoly:
    """Cofactor expansion with memoized minors; the reference algorithm."""
    if m.dim == 0:
        return ONE
    cache: dict[tuple[int, ...], LaurentPoly] = {(): ONE}

    def rec(row: int, cols: tuple[int, ...]) -> LaurentPoly:
        got = cache.get(cols)
        if got is not None:
            return got
        total = ZERO
        for pos, col in enumerate(cols):
            entry = m.entries[row][col]
            if entry.is_zero:
                continue
            sub = rec(row + 1, cols[:pos] + cols[pos + 1 :])
            piece = entry * sub
            total = total + piece if pos % 2 == 0 else total - piece
        cache[cols] = total
        return total

    return rec(0, tuple(range(m.dim)))


def _eliminate(m: SymMatrix) -> tuple[list[LaurentPoly], int]:
    """One-step fraction-free (Bareiss) elimination of m.

    Returns the pivots in order, the last one being the final diagonal entry,
    and the number of row swaps made.  Every division is by the previous
    pivot and is exact over an integral domain, so a failed one raises
    DeterminantError, a harness error, not a failed identity.  A zero pivot is
    swapped with the first lower row that is nonzero in its column; when
    there is none the matrix is singular and the pivots end with that zero.
    """
    n = m.dim
    a = [list(row) for row in m.entries]
    pivots: list[LaurentPoly] = []
    swaps = 0
    prev = ONE
    for k in range(n):
        if a[k][k].is_zero:
            below = next((r for r in range(k + 1, n) if not a[r][k].is_zero), None)
            if below is None:
                pivots.append(ZERO)
                return pivots, swaps
            a[k], a[below] = a[below], a[k]
            swaps += 1
        pivot = a[k][k]
        pivots.append(pivot)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * a[i][j] - a[i][k] * a[k][j]
                if num.is_zero:
                    a[i][j] = ZERO
                    continue
                try:
                    a[i][j] = exact_divide(num, prev)
                except ExactDivisionError as exc:
                    raise DeterminantError(
                        f"inexact pivot division at step {k}"
                    ) from exc
        prev = pivot
    return pivots, swaps


def determinant(m: SymMatrix) -> LaurentPoly:
    """Fraction-free determinant: the last pivot, signed by the row swaps."""
    if m.dim == 0:
        return ONE
    pivots, swaps = _eliminate(m)
    return -pivots[-1] if swaps % 2 else pivots[-1]


def leading_principal_minors(m: SymMatrix) -> list[LaurentPoly]:
    """All leading principal minor determinants from one elimination pass.

    Without row swaps the pivot entering step k of fraction-free elimination
    is exactly the (k+1)-dimensional leading principal minor, so a single
    pass yields the whole sequence.  A zero pivot before the last step would
    need a row swap, which invalidates the harvest: it raises
    DeterminantError.
    """
    pivots, swaps = _eliminate(m)
    if swaps or len(pivots) < m.dim:
        raise DeterminantError("zero pivot: leading principal minors need a row swap")
    return pivots


@dataclass
class TauFamily:
    """Cached tau and f sequences for lattice sites 0..n_max.

    g_n equals tau_n, and g is the same list as tau; f_n is the
    (n-1)-dimensional Wronskian determinant of the once-shifted seed
    L_plus L_minus psi, with f_1 = 1 (empty determinant) and f_0 = 0 (the
    semi-infinite lattice cuts the chain below site zero).
    """

    n_max: int
    tau: list[LaurentPoly]
    f: list[LaurentPoly]

    @property
    def g(self) -> list[LaurentPoly]:
        return self.tau

    @classmethod
    def build(cls, n_max: int) -> "TauFamily":
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        psi = build_psi()
        tau = [ONE] + leading_principal_minors(wronskian_matrix(psi, n_max))
        f: list[LaurentPoly] = [ZERO, ONE]
        if n_max >= 2:
            shifted = l_plus(l_minus(psi))
            f += leading_principal_minors(wronskian_matrix(shifted, n_max - 1))
        return cls(n_max=n_max, tau=tau, f=f)

    # -- cache file: a header holding the format version and the CRC-32 of the
    # body, then one '<tau|f> n=<k>: <polynomial>' line per entry.  A CRC finds
    # damage; hashlib would load OpenSSL, +3.6 MB resident in every run ------

    def save(self, path: str | Path) -> None:
        """Write the cache atomically: a temp file in the same directory, then a rename."""
        path = Path(path)
        body = "".join(
            f"{key} n={k}: {serialize(poly)}\n"
            for key, seq in (("tau", self.tau), ("f", self.f))
            for k, poly in enumerate(seq)
        ).encode()
        header = f"{CACHE_MAGIC} v{CACHE_VERSION} crc32={zlib.crc32(body):08x}\n"
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(header.encode() + body)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path) -> "TauFamily":
        """Read a cache written by save; ValueError when it is refused."""
        header, _, body = Path(path).read_bytes().partition(b"\n")
        match = _HEADER.match(header.decode("ascii", errors="replace"))
        if match is None:
            raise ValueError(f"{path}: no tau-family cache header")
        if int(match.group(1)) != CACHE_VERSION:
            raise ValueError(
                f"{path}: cache format v{match.group(1)}, expected v{CACHE_VERSION}"
            )
        if f"{zlib.crc32(body):08x}" != match.group(2):
            raise ValueError(f"{path}: cache body does not match its CRC-32")
        pattern = re.compile(r"^(tau|f) n=(\d+): (.*)$")
        found: dict[str, dict[int, LaurentPoly]] = {"tau": {}, "f": {}}
        for lineno, line in enumerate(body.decode().splitlines(), start=2):
            if not line.strip():
                continue
            match = pattern.match(line)
            if match is None:
                raise ValueError(f"{path}:{lineno}: malformed cache line")
            key, k, text = match.group(1), int(match.group(2)), match.group(3)
            found[key][k] = parse(text)
        n_max = max(found["tau"], default=-1)
        if n_max < 1:
            raise ValueError(f"{path}: cache holds no tau entries")
        for key in ("tau", "f"):
            missing = [k for k in range(n_max + 1) if k not in found[key]]
            if missing:
                raise ValueError(f"{path}: missing {key} entries for n={missing}")
        return cls(
            n_max=n_max,
            tau=[found["tau"][k] for k in range(n_max + 1)],
            f=[found["f"][k] for k in range(n_max + 1)],
        )


def jacobi_residual(n: int) -> LaurentPoly:
    """Sylvester minor identity residual on the (n+1) x (n+1) seed Wronskian.

    With 1-based minor notation D[i; j] deleting row i and column j, the
    residual is D[n;n] D[n+1;n+1] - D[n+1;n] D[n;n+1] - D * D[{n,n+1};{n,n+1}].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    m = wronskian_matrix(build_psi(), n + 1)
    r, s = n - 1, n  # 0-based positions of rows/cols n and n+1
    d = determinant(m)
    d_rr = determinant(minor(m, {r}, {r}))
    d_ss = determinant(minor(m, {s}, {s}))
    d_sr = determinant(minor(m, {s}, {r}))
    d_rs = determinant(minor(m, {r}, {s}))
    d_both = determinant(minor(m, {r, s}, {r, s}))
    return d_rr * d_ss - d_sr * d_rs - d * d_both


def jacobi_identity_check(n: int) -> CheckReport:
    started = time.perf_counter()
    residual = jacobi_residual(n)
    elapsed = time.perf_counter() - started
    if residual.is_zero:
        return CheckReport("jacobi", n, elapsed=elapsed)
    mono, coeff = residual.leading_term()
    return CheckReport(
        "jacobi",
        n,
        status="fail",
        witness=serialize(LaurentPoly({mono: coeff})),
        term_count=residual.term_count,
        elapsed=elapsed,
    )
