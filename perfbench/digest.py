"""Print SHA-256 digests of the polynomials in a tau-family cache.

    python3 perfbench/digest.py FAMILY.tau

The cache is read back through ``TauFamily.load``, not as file bytes, so the
digests stay comparable when the cache format changes.  Prints one JSON
object: ``n_max``, the hex digest of ``serialize(tau_k)`` and of
``serialize(f_k)`` for every ``k``, and whether ``g_k == tau_k``.
"""

from __future__ import annotations

import hashlib
import json
import sys

from hirotaverify.laurent import serialize
from hirotaverify.wronskian import TauFamily


def digest(poly) -> str:
    return hashlib.sha256(serialize(poly).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: digest.py FAMILY.tau", file=sys.stderr)
        return 2
    family = TauFamily.load(argv[0])
    json.dump(
        {
            "n_max": family.n_max,
            "tau": [digest(p) for p in family.tau],
            "f": [digest(p) for p in family.f],
            "g_is_tau": [g == t for g, t in zip(family.g, family.tau)],
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
