"""The three benchmark workloads: their inputs, commands and output checks.

Every workload's set-up builds the depth-``SETUP_DEPTH`` family, which is the
input cache the workload reads.  Each workload gives the argument list one
run of the program gets (after ``python3``) and the operations it expects:

* ``identities-n3``, ``orderwise-n3``: one operation per expected check
  ``(equation_id, n, order_index)`` in the golden list.
* ``su11-n2``: 7 checks per site ``n = 1..2`` per ``(alpha, beta)`` pair.

A missing, failing or duplicated-and-failing operation counts as failed, and
a nonzero exit fails every operation of that run, so a change cannot get
faster by dropping checks.  The set-up cache is checked polynomial by
polynomial against golden digests, read back through ``TauFamily.load``.
Only ``su11-n2`` uses the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

IDENTITY_SUITES = (
    "toda", "mixed", "jacobi", "conjecture", "symmetries", "closedforms", "weyl",
    "ernst-numeric",
)
ORDERWISE_SUITES = ("orderwise-A", "orderwise-B")
SU11_IDS = (
    "su11.toda.g", "su11.toda.f", "su11.mixed",
    "su11.tsdec1", "su11.tsdec2", "su11.tsdec3", "su11.tsdec4",
)
SU11_PAIRS = 2
SU11_N_MAX = 2
# The two verify workloads check sites n <= VERIFY_N_MAX.
VERIFY_N_MAX = 3
GOLDEN_N_MAX = 6
# The workloads check sites n <= 3, which read the family to depth 4.
SETUP_DEPTH = 4


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def su11_pairs(seed: int, count: int = SU11_PAIRS) -> list[str]:
    """Admissible (alpha, beta) pairs as 'A_RE,A_IM,B_RE,B_IM' strings.

    alpha has denominator 2 and beta denominator 3, with the odd numerators
    1, 5, 7, 11 shuffled and signed by the seed.  Every seed so gives pairs
    with operands of the same size, and so runs of the same cost; the
    numerators keep every part non-real.  |alpha|^2 = (a^2+b^2)/4 can never
    equal |beta|^2 = (c^2+d^2)/9, because 9 divides no sum of two of these
    squares, but admissibility is still checked.
    """
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a, b, c, d = (rng.choice((-1, 1)) * k for k in rng.sample((1, 5, 7, 11), 4))
        alpha_re, alpha_im = Fraction(a, 2), Fraction(b, 2)
        beta_re, beta_im = Fraction(c, 3), Fraction(d, 3)
        if alpha_re ** 2 + alpha_im ** 2 == beta_re ** 2 + beta_im ** 2:
            continue
        pairs.append(f"{alpha_re},{alpha_im},{beta_re},{beta_im}")
    return pairs


# -- output checks: each returns the number of failed operations ---------------

def failed_checks(report_path: Path, expected: list[tuple]) -> int:
    """Expected checks that are missing from a JSON report or did not pass."""
    try:
        checks = json.loads(report_path.read_text())["checks"]
        statuses: dict[tuple, set] = {}
        for c in checks:
            key = (c["equation_id"], c["n"], c["order_index"])
            statuses.setdefault(key, set()).add(c["status"])
    except (OSError, ValueError, KeyError, TypeError):
        return len(expected)
    return sum(1 for key in expected if statuses.get(key) != {"pass"})


def failed_polynomials(digests: dict | None, goldens: dict, n_max: int) -> int:
    """Expected tau_k and f_k, k = 0..n_max, whose digest differs or is missing."""
    if digests is None:
        return 2 * (n_max + 1)
    failed = 0
    for k in range(n_max + 1):
        tau = digests["tau"][k] if k < len(digests["tau"]) else None
        f = digests["f"][k] if k < len(digests["f"]) else None
        g_is_tau = k < len(digests["g_is_tau"]) and digests["g_is_tau"][k]
        failed += tau != goldens["tau"][k] or not g_is_tau
        failed += f != goldens["f"][k]
    return failed


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[Path, int], list[str]]  # (cache copy, seed)
    expected: Callable[[dict, int], list]  # (goldens, seed) -> operations


def _verify_argv(suites):
    def argv(cache: Path, seed: int) -> list[str]:
        args = ["-m", "hirotaverify", "verify"]
        for suite in suites:
            args += ["--suite", suite]
        return args + ["--n-max", str(VERIFY_N_MAX), "--cache", str(cache), "--format", "json"]

    return argv


def _su11_argv(cache: Path, seed: int) -> list[str]:
    args = [str(HERE / "su11_driver.py"), "--cache", str(cache),
            "--n-max", str(SU11_N_MAX)]
    # "--pair=" keeps argparse from reading a leading minus sign as an option.
    return args + [f"--pair={pair}" for pair in su11_pairs(seed)]


def _golden_checks(name: str):
    def expected(goldens: dict, seed: int) -> list[tuple]:
        return [tuple(t) for t in goldens["checks"][name]]

    return expected


def _su11_expected(goldens: dict, seed: int) -> list[tuple]:
    return [
        (eq, n, index)
        for index in range(SU11_PAIRS)
        for n in range(1, SU11_N_MAX + 1)
        for eq in SU11_IDS
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("identities-n3", _verify_argv(IDENTITY_SUITES),
                 _golden_checks("identities-n3")),
        Workload("orderwise-n3", _verify_argv(ORDERWISE_SUITES),
                 _golden_checks("orderwise-n3")),
        Workload("su11-n2", _su11_argv, _su11_expected),
    )
}
