"""Fault injection end to end: a damaged family never gives a false PASS or FAIL.

A row of FAULTS is (damage, commands, expected).  The damage, (sequence, site,
x,y term), goes on the built depth-5 family by with_stray_term, and
TauFamily.save writes it as f5.tau with a right CRC; the load check recomputes
sites 0..2 only.  Each command runs as `python <command>` in a fresh
interpreter in an empty directory, with HV_CACHE_DIR at hv/ inside it.  The
last one must give the row's exit code and leave only the row's files; its
JSON output must keep the term_count rule and match what the row pins.  Row
keys are (equation_id, n), or (equation_id, n, order_index) where the
expected keys have three parts.  To add a fault, add a row.
"""

import json
import re
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import run_fresh, with_stray_term

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text())["digests"]
V2_HEADER = re.compile(r"hirotaverify tau-family v2 crc32=[0-9a-f]{8}")

# tau_3 + 1: the rows that read tau_3.  A jacobi row reads tau_n alone of the
# family, so only site 3's fails, with the stray term as witness; the Toda rows
# read tau_{n-1..n+1}, and the Ernst rows g_n and f_n alone.
TAU3_ONE = ("tau", 3, "1")
# f_3 + xy: the rows that read f_3, at sites 2..4.  The term is real, even
# in t and at t^0, away from f_3's extreme orders t^2 and t^-2, so
# closed.extreme, prop1.f and prop3.f still pass at site 3.
F3_XY_FAILING = {
    *[(eq, n) for n in (2, 3, 4) for eq in ("toda.f", "mixed", "TD5", "TD8", "TD9")],
    *[(eq, n) for n in (3, 4) for eq in ("TD4", "TD6", "TD7")],
    *[(eq, 3) for eq in ("tsdec1", "tsdec2", "tsdec3", "tsdec4", "ernst", "mirror.f", "prop2.f")],
    *[(f"B.{k}", 3) for k in range(1, 13) if k != 11],
}
# f_4 + t x: the rows that read f_4, at sites 3 and 4.  The term is odd in t, as
# f_4's are, and away from its extreme orders t^3 and t^-3, so prop3.f and
# closed.extreme still pass at site 4.
F4_TX_FAILING = {
    *[(eq, n) for n in (3, 4) for eq in ("toda.f", "mixed", "TD4", "TD5", "TD6", "TD7", "TD8",
                                         "TD9")],
    *[(eq, 4) for eq in ("tsdec1", "tsdec2", "tsdec3", "tsdec4", "ernst", "mirror.f",
                         "prop2.f", "prop4.f")],
    *[(f"B.{k}", 4) for k in range(1, 13) if k != 11],
}


class Fault(NamedTuple):
    damage: tuple[str, int, str] | None
    commands: tuple[str, ...]
    exit_code: int
    failing: set | None = None  # the keys of the rows whose status is not "pass"
    witnesses: dict = {}  # key -> witness of that row
    rows: int | None = None
    printed: dict | None = None  # the whole JSON output
    leaves: tuple[str, ...] = ("f5.tau",)


FAULTS = {
    # 2 y^2/t on f_3, beyond the load check: the transformed pair's rows that read f_3.
    "f3-su11": Fault(("f", 3, "2*t^-1*y^2"), ("perfbench/su11_driver.py --n-max 4 "
                                              "--pair=1/2,-5/2,7/3,11/3 --cache f5.tau",), 1,
                     failing={*[(f"su11.{eq}", n) for n in (2, 3, 4)
                                for eq in ("toda.g", "toda.f", "mixed")],
                              *[(f"su11.tsdec{k}", 3) for k in (1, 2, 3, 4)]}),
    "tau3-jacobi": Fault(TAU3_ONE, ("-m hirotaverify verify --suite jacobi --n-max 4 "
                                    "--cache f5.tau --format json",), 1,
                         failing={("jacobi", 3)}, witnesses={("jacobi", 3): "(1)"}),
    # A pure power of t, which L+- annihilate, fails tau_3 against its minor.
    "tau3-t2-jacobi": Fault(("tau", 3, "t^2"), ("-m hirotaverify verify --suite jacobi "
                                                "--n-max 4 --cache f5.tau --format json",), 1,
                            failing={("jacobi", 3)}, witnesses={("jacobi", 3): "(1)*t^2"}),
    # With the toda suite, damaged sites 2, 3 and 4 still fail in the run.
    "tau3-toda-jacobi": Fault(TAU3_ONE, ("-m hirotaverify verify --suite toda --suite jacobi "
                                         "--n-max 4 --cache f5.tau --format json",), 1,
                              failing={("jacobi", 3), *[(eq, n) for n in (2, 3, 4)
                                                        for eq in ("toda.tau", "toda.g")]}),
    # The residual's value at the first point is pinned too, so a
    # reformulation that keeps the statuses but changes the value fails here.
    "tau3-ernst": Fault(TAU3_ONE, ("-m hirotaverify verify --suite ernst-numeric --n-max 4 "
                                   "--cache f5.tau --format json",), 1,
                        failing={("ernst", 3, 0), ("ernst", 3, 1), ("ernst", 3, 2)},
                        witnesses={("ernst", 3, 0): "12003611/749554884"}),
    # Each decomposition identity at each site is its own task, so --fail-fast
    # stops at tsdec1 at site 3: 9 rows, after the 8 passing ones of sites 1 and 2.
    "tau3-fail-fast": Fault(TAU3_ONE, ("-m hirotaverify verify --suite conjecture --n-max 4 "
                                       "--fail-fast --cache f5.tau --format json",), 1,
                            failing={("tsdec1", 3)}, rows=9),
    # x/t^3 changes only the lowest t-order of g_3: of the closed forms, only
    # closed.extreme at n = 3 fails.
    "tau3-low-closedforms": Fault(("tau", 3, "t^-3*x"), (
        "-m hirotaverify verify --suite closedforms --n-max 4 --cache f5.tau --format json",), 1,
        failing={("closed.extreme", 3)}, witnesses={("closed.extreme", 3): "(-1)*x^1"}),
    "f3-xy-all": Fault(("f", 3, "x*y"), ("-m hirotaverify verify --suite all --n-max 4 "
                                         "--cache f5.tau --format json",), 1,
                       failing=F3_XY_FAILING),
    "f4-all": Fault(("f", 4, "t*x"), ("-m hirotaverify verify --suite all --n-max 4 "
                                      "--cache f5.tau --format json",), 1,
                    failing=F4_TX_FAILING),
    # A stray term on f_3 under one suite each: t^2 y^2 on f_3's top t-order, t^-2 x y on
    # its lowest, which leaves the highest-order B.11 passing, and t x, odd in t where f_3
    # is even.
    "f3-conjecture": Fault(("f", 3, "t^2*y^2"), ("-m hirotaverify verify --suite conjecture "
                                                 "--n-max 4 --cache f5.tau --format json",), 1,
                           failing={(f"tsdec{k}", 3) for k in (1, 2, 3, 4)}),
    "f3-orderwise-B": Fault(("f", 3, "t^-2*x*y"), ("-m hirotaverify verify --suite orderwise-B "
                                                   "--n-max 4 --cache f5.tau --format json",), 1,
                            failing={(f"B.{k}", 3) for k in range(1, 13) if k != 11}),
    "f3-symmetries": Fault(("f", 3, "t*x"), ("-m hirotaverify verify --suite symmetries "
                                             "--n-max 4 --cache f5.tau --format json",), 1,
                           failing={(f"{prop}.f", 3) for prop in ("prop2", "prop3", "prop4",
                                                                  "mirror")},
                           witnesses={("prop3.f", 3): "(-2)*t^1*x^1"}),
    # Site 5, read at --n-max 4, enters only the rows at n = 4 that read site n + 1;
    # a jacobi row reads tau_n alone.
    "tau5-all": Fault(("tau", 5, "t*x"), ("-m hirotaverify verify --suite all --n-max 4 "
                                          "--cache f5.tau --format json",), 1,
                      failing={(eq, 4) for eq in ("toda.tau", "toda.g", "mixed", "TD1",
                                                  "TD2", "TD3", "TD7", "TD8", "TD9")}),
    "f6-golden": Fault(None, ("-m hirotaverify build --n-max 6 --cache f6.tau",
                              "perfbench/digest.py f6.tau"), 0,
                       printed={"n_max": 6, "tau": GOLDENS["tau"][:7], "f": GOLDENS["f"][:7],
                                "g_is_tau": [True] * 7},
                       leaves=("f6.tau",)),
    # Refusals exit 2 before any family, and a weyl-only run reads no family.
    "unknown-suite": Fault(None, ("-m hirotaverify verify --suite nope --n-max 2",), 2, leaves=()),
    "build-depth-0": Fault(None, ("-m hirotaverify build --n-max 0 --cache f0.tau",), 2,
                           leaves=()),
    "weyl-default-cache": Fault(None, ("-m hirotaverify verify --suite weyl --n-max 3",), 0,
                                leaves=()),
    "weyl-named-cache": Fault(None, ("-m hirotaverify verify --suite weyl --cache none.tau",), 0,
                              leaves=()),
}


def run(command: str, cwd: Path):
    """One command of a row, in cwd; a perfbench/ script is this checkout's own."""
    args = command.split()
    if args[0].startswith("perfbench/"):
        args[0] = str(ROOT / args[0])
    return run_fresh(args, cwd, HV_CACHE_DIR=str(cwd / "hv"))


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
def test_fault(fault, built5, tmp_path):
    if fault.damage:
        with_stray_term(built5, *fault.damage).save(tmp_path / "f5.tau")
    *setup, last = fault.commands
    for command in setup:
        assert run(command, tmp_path).returncode == 0, command
    done = run(last, tmp_path)
    assert done.returncode == fault.exit_code, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(fault.leaves)
    for cache in tmp_path.glob("*.tau"):
        assert V2_HEADER.fullmatch(cache.read_text().partition("\n")[0]), cache.name
    # The JSON report of --format json and of su11_driver.py; verify's text starts with a row.
    printed = json.loads(done.stdout) if done.stdout.startswith("{") else None
    if fault.printed is not None:
        assert printed == fault.printed
    checks = printed.get("checks", []) if printed else []
    for c in checks:  # a failing row counts its residual's terms; an Ernst row counts none
        counted = c["status"] == "fail" and c["equation_id"] != "ernst"
        assert c["term_count"] >= 1 if counted else c["term_count"] == 0, c
    if fault.rows is not None:
        assert len(checks) == fault.rows
    if fault.failing is not None:
        width = len(next(iter(fault.failing), ("", 0)))
        key = lambda c: (c["equation_id"], c["n"], c["order_index"])[:width]
        assert {key(c) for c in checks if c["status"] != "pass"} == fault.failing
        assert {key(c): c["witness"] for c in checks
                if key(c) in fault.witnesses} == fault.witnesses
