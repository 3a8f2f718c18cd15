"""The su11-n2 workload program: SU(1,1)-transformed identities on a cached family.

    python3 perfbench/su11_driver.py --cache FAMILY.tau --n-max 2 \
        --pair A_RE,A_IM,B_RE,B_IM [--pair ...]

Loads the family with ``TauFamily.load`` and calls ``verifier.check_su11``
for every site ``n = 1..n_max`` and every ``(alpha, beta)`` pair, in the
order given.  Prints the reports as ``{"checks": [...]}``, the shape of the
CLI's JSON report, and exits 0 when every check passes, 1 otherwise.  This is
the only workload whose polynomials carry non-real coefficients.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from hirotaverify import verifier
from hirotaverify.gaussian import GaussianRational
from hirotaverify.wronskian import TauFamily


def parse_pair(text: str) -> verifier.Su11Params:
    parts = [Fraction(p) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("a pair is four rationals: A_RE,A_IM,B_RE,B_IM")
    return verifier.Su11Params(
        GaussianRational(parts[0], parts[1]), GaussianRational(parts[2], parts[3])
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="su11_driver.py")
    parser.add_argument("--cache", required=True)
    parser.add_argument("--n-max", type=int, required=True)
    parser.add_argument("--pair", type=parse_pair, action="append", required=True)
    args = parser.parse_args(argv)

    family = TauFamily.load(args.cache)
    reports = []
    for index, params in enumerate(args.pair):
        for n in range(1, args.n_max + 1):
            reports.extend(verifier.check_su11(family, n, params, pair_index=index))
    json.dump({"checks": [r.as_dict() for r in reports]}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
