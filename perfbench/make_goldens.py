"""Record ``goldens.json`` from the checkout in the current directory.

    python3 perfbench/make_goldens.py

Run it only at a commit whose outputs are trusted: it builds the depth-6
family, records the SHA-256 of ``serialize(tau_k)`` and ``serialize(f_k)``
for ``k = 0..6`` (read back through ``TauFamily.load``), and records the
``(equation_id, n, order_index)`` of every check the two verify workloads
report.  It refuses to write when any check fails or ``g != tau``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import GOLDEN_N_MAX, GOLDENS, HERE, WORKLOADS


def python(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, check=True)


def one_triple_per_line(text: str) -> str:
    """Put each short innermost list of indented JSON on one line."""

    def join(match: re.Match) -> str:
        body = match.group(1)
        return "[" + " ".join(body.split()) + "]" if len(body) < 80 else match.group(0)

    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", join, text)


def main() -> int:
    root = Path.cwd()
    env = {k: v for k, v in os.environ.items() if k not in ("HV_CACHE_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = str(root / "src")
    work = root / ".bench_build" / "goldens"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        family = work / "family.tau"
        python(["-m", "hirotaverify", "build", "--n-max", str(GOLDEN_N_MAX),
                "--cache", str(family)], env)
        found = json.loads(python([str(HERE / "digest.py"), str(family)], env).stdout)
        if found["n_max"] != GOLDEN_N_MAX or not all(found["g_is_tau"]):
            raise SystemExit("refusing: unexpected depth or g != tau")
        checks = {}
        for name in ("identities-n3", "orderwise-n3"):
            report = json.loads(python(WORKLOADS[name].argv(family, 0), env).stdout)
            if any(c["status"] != "pass" for c in report["checks"]):
                raise SystemExit(f"refusing: {name} has failing checks")
            checks[name] = sorted(
                ([c["equation_id"], c["n"], c["order_index"]] for c in report["checks"]),
                key=lambda t: (t[0], t[1], -1 if t[2] is None else t[2]),
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    goldens = {"digests": {"tau": found["tau"], "f": found["f"]}, "checks": checks}
    GOLDENS.write_text(one_triple_per_line(json.dumps(goldens, indent=1)) + "\n")
    print(f"wrote {GOLDENS}: " + ", ".join(f"{k} {len(v)} checks" for k, v in checks.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
