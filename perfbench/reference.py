"""The benchmark's yardstick: a fixed computation that does not use hirotaverify.

    python3 perfbench/reference.py

Multiplies two fixed sparse bivariate polynomials with ``Fraction``
coefficients, held in dicts, the way the prover's inner loop works, and
exits 0 only when the product passes its own check: the sum of the product's
coefficients equals the product of the factors' sums.  It does the same work
on every run and on every commit, so the time of one run measures how fast
the machine runs interpreted rational arithmetic at that moment.  ``run.py``
runs it as a fresh child just before each program run and reports program
time as a multiple of it.
"""

from __future__ import annotations

import sys
from fractions import Fraction

ROUNDS = 6


def factors() -> tuple[dict, dict]:
    a = {(i, j): Fraction(7 * i + 3, j + 2) for i in range(24) for j in range(8)}
    b = {(i, j): Fraction(5 * j - 11, i + 3) for i in range(16) for j in range(9)}
    return a, b


def product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + x * y
    return out


def main() -> int:
    a, b = factors()
    expected = sum(a.values()) * sum(b.values())
    ok = True
    for _ in range(ROUNDS):
        ok &= sum(product(a, b).values()) == expected
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
