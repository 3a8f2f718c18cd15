"""Two-directional Wronskian determinants and the tau-function family.

The n-th tau function is the determinant of the n x n matrix whose (i, j)
entry is L_plus^i L_minus^j applied to the seed, built here with one operator
application per entry.  One fraction-free one-step elimination (divisions
exact in the Laurent ring) gives every minor: its pivots are the leading
principal minors, and its working rows the bordered minors of Sylvester's
identity.  The tests keep plain cofactor expansion as an independent oracle.

Every Wronskian is built and eliminated in the light-cone basis u = (x+y)/2,
v = (x-y)/2, where the seed is t v + u/t.  TauFamily and its cache file hold
the minors in u, v as the elimination makes them; the x,y readings tau, f and
g are made by from_uv on first read.
"""

from __future__ import annotations

import os
import re
import zlib
from functools import cached_property
from itertools import chain, islice, zip_longest
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .laurent import (
    LaurentPoly,
    Monomial,
    ONE,
    ZERO,
    ExactDivisionError,
    exact_divide,
    from_uv,
    parse,
    serialize,
)
from .operators import l_minus, l_plus

CACHE_MAGIC = "hirotaverify tau-family"
CACHE_VERSION = 2
_HEADER = re.compile(rf"^{CACHE_MAGIC} v(\d+) crc32=([0-9a-f]{{8}})$")
Matrix = Sequence[Sequence[LaurentPoly]]  # a square matrix, as its rows


def build_psi() -> LaurentPoly:
    """Seed t*v + u/t, i.e. t*(x-y)/2 + (1/t)*(x+y)/2, as a u,v-polynomial."""
    return LaurentPoly({Monomial(1, 0, 1): 1, Monomial(-1, 1, 0): 1})


def wronskian_matrix(seed: LaurentPoly, n: int) -> Matrix:
    """n x n matrix as a tuple of rows, with m[i][j] = L_plus^i L_minus^j seed.

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
    return tuple(map(tuple, rows))


class DeterminantError(RuntimeError):
    """Internal inconsistency: a zero pivot before the last step, or an inexact division."""


def _eliminate(m: Matrix) -> Iterator[list[list[LaurentPoly]]]:
    """One-step fraction-free (Bareiss) elimination of the square matrix m, one step at a time.

    Yields the live working rows a before each step k; step k runs only when
    the rows after it are asked for.  By Sylvester's identity, a[i][j] with
    i, j >= k is then the determinant of the k x k leading block bordered by
    row i and column j, so a[k][k] is the (k+1)-dimensional leading principal
    minor.  Every division is by the previous pivot and is exact over an
    integral domain, so a failed one raises DeterminantError, a harness
    error, not a failed identity.  There are no row swaps: a zero pivot
    before the last step raises DeterminantError too.
    """
    n = len(m)
    a = [list(row) for row in m]
    prev = None  # the first step would divide by 1
    for k in range(n):
        yield a
        pivot = a[k][k]
        if pivot.is_zero and k < n - 1:
            raise DeterminantError(f"zero pivot at step {k}: elimination needs a row swap")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * a[i][j] - a[i][k] * a[k][j]
                if num.is_zero or prev is None:
                    a[i][j] = num
                    continue
                try:
                    a[i][j] = exact_divide(num, prev)
                except ExactDivisionError as exc:
                    raise DeterminantError(
                        f"inexact pivot division at step {k}"
                    ) from exc
        prev = pivot


def _leading_minors(m: Matrix) -> Iterator[LaurentPoly]:
    """The leading principal minors of m, one elimination step each; the last is det m."""
    return (a[k][k] for k, a in enumerate(_eliminate(m)))


def tau_f_minors(m: Matrix) -> Iterator[tuple[LaurentPoly, LaurentPoly]]:
    """(tau_k, f_k) for k = 1..len(m): the leading principal minors of m and, after
    f_1 = 1, those of its lower-right block, one elimination step of each per k."""
    return zip(_leading_minors(m), chain([ONE], _leading_minors([row[1:] for row in m[1:]])))


def site_steps(n_max: int) -> Iterator[tuple[LaurentPoly, LaurentPoly]]:
    """(tau_n, f_n) in u, v for n = 0..n_max, the entries of TauFamily.build(n_max).

    L_plus and L_minus commute, so the f Wronskian is the tau Wronskian's
    lower-right block.  Each site is one elimination step of each, run only
    when asked for, so sites can be timed alone.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return chain([(ONE, ZERO)], tau_f_minors(wronskian_matrix(build_psi(), n_max)))


class TauFamily(NamedTuple("TauFamily", [("n_max", int), ("tau_uv", tuple), ("f_uv", tuple)])):
    """Tau and f sequences for lattice sites 0..n_max in u, v, immutable.

    g_n equals tau_n; f_n is the (n-1)-dimensional Wronskian determinant of
    the once-shifted seed L_plus L_minus psi, with f_1 = 1 (empty
    determinant) and f_0 = 0 (the semi-infinite lattice cuts the chain below
    site zero).  tau and f are the x,y readings of tau_uv and f_uv, and g is
    the same tuple as tau; sites holds the checks' _Site of each site n.  All
    are made on first use and none is a field, so equality, hashing and repr
    read n_max, tau_uv and f_uv only.
    """

    # tau_uv and f_uv are keyword-only, so _make (and through it _replace) and
    # __getnewargs_ex__ (copy and pickle) pass every field by name, through __new__'s check.
    _make = classmethod(lambda cls, fields: cls(**dict(zip(cls._fields, fields))))
    __getnewargs_ex__ = lambda self: ((), self._asdict())
    sites = cached_property(lambda self: {})
    tau = cached_property(lambda self: tuple(map(from_uv, self.tau_uv)))
    f = cached_property(lambda self: tuple(map(from_uv, self.f_uv)))
    g = property(lambda self: self.tau)

    def __new__(cls, n_max: int, *, tau_uv: Iterable[LaurentPoly], f_uv: Iterable[LaurentPoly]):
        tau_uv, f_uv = tuple(tau_uv), tuple(f_uv)
        if not len(tau_uv) == len(f_uv) == n_max + 1:
            raise ValueError(f"n_max={n_max} needs {n_max + 1} entries of tau and f, "
                             f"got {len(tau_uv)} and {len(f_uv)}")
        return super().__new__(cls, n_max, tau_uv, f_uv)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def build(cls, n_max: int) -> "TauFamily":
        tau, f = zip(*site_steps(n_max))
        return cls(n_max, tau_uv=tau, f_uv=f)

    # -- cache file: a header holding the format version and the CRC-32 of the
    # body, then one '<tau|f> n=<k>: <polynomial in u, v>' line per entry, u in
    # the x slot and v in the y slot; v1 held x,y text.  A CRC finds
    # damage; hashlib would load OpenSSL, +3.6 MB resident in every run ------

    def save(self, path: str | Path) -> None:
        """Write the cache atomically: a temp file in the same directory, then a rename."""
        path = Path(path)
        body = "".join(
            f"{key} n={k}: {serialize(poly)}\n"
            for key, seq in (("tau", self.tau_uv), ("f", self.f_uv))
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
        """Read a cache written by save; ValueError when it is refused.

        A cache is refused when its header, version or CRC is wrong, when its
        body is not the sequence save writes (tau n=0..N, then f n=0..N, one
        line each, N >= 1) or a line of it is not a polynomial in u, v, both
        named by line, and when tau_0..2 or f_0..2 differ from those the seed builds.
        A v1 cache, x,y text, is refused by its version, never read as u, v.
        """
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
        # Only "\n" ends a line; a byte that is not UTF-8 reads as U+FFFD, which no line admits.
        lines = body.decode(errors="replace").removesuffix("\n").split("\n")
        # N from the line count; a short, long or reordered body fails at its first wrong line.
        n_max = max(1, len(lines) // 2 - 1)
        prefixes = [f"{key} n={k}: " for key in ("tau", "f") for k in range(n_max + 1)]
        entries = []
        for lineno, (prefix, line) in enumerate(zip_longest(prefixes, lines), start=2):
            if prefix is None or line is None or not line.startswith(prefix):
                expected = "the end of the cache" if prefix is None else repr(prefix)
                raise ValueError(f"{path}:{lineno}: expected {expected}")
            try:
                entries.append(parse(line[len(prefix):]))
            except (OverflowError, ValueError) as exc:  # a ParseError is a ValueError
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if entries[-1].has_negative_xy():  # from_uv reads no negative u or v power
                raise ValueError(f"{path}:{lineno}: negative u or v exponent")
        fam = cls(n_max, tau_uv=entries[:n_max + 1], f_uv=entries[n_max + 1:])
        # The CRC finds damage, not a faulty build: recompute the first sites
        # from the seed and compare.
        tau, f = zip(*site_steps(2))
        wrong = [f"{key}_{k}" for key, built, read in (("tau", tau, fam.tau_uv), ("f", f, fam.f_uv))
                 for k, (poly, got) in enumerate(zip(built, read)) if poly != got]
        if wrong:
            raise ValueError(f"{path}: {', '.join(wrong)} disagree with the seed")
        return fam


def sylvester_minors(n_max: int) -> Iterator[tuple[LaurentPoly, ...]]:
    """tau_n, D[n;n], D[n+1;n], D[n;n+1] of the (n+1)-dim seed Wronskian, in u, v, for n = 1..n_max.

    D[i; j] deletes row i and column j (1-based).  Read before elimination step n-1, tau_n is the
    pivot and each D the (n-1)-dimensional leading block bordered by one of the last two rows and
    columns.  A leading block eliminates as the smaller matrix does, so one elimination of the
    (n_max+1)-dimensional matrix, read before each step, serves every n; its last step never runs.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    steps = islice(_eliminate(wronskian_matrix(build_psi(), n_max + 1)), n_max)
    return ((a[n - 1][n - 1], a[n][n], a[n - 1][n], a[n][n - 1]) for n, a in enumerate(steps, 1))
