"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--workload ...] --seeds 1-10 [--seconds 30]

For every workload and end-to-end metric it prints the median, the quartiles
from ``statistics.quantiles(values, n=4)``, the quartile distance as a share
of the median, the highest percentile with ten values beyond it, and the run
count.  Runs go one at a time, untraced, from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import tail_percentile

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    tail = tail_percentile(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "tail": tail,
        "runs": len(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(prog="spread.py")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {}
    for workload in args.workload:
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results.setdefault(workload, []).append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)

    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            tail = f"p{s['tail'][0]} {s['tail'][1]:.4g}" if s["tail"] else "no tail percentile"
            print(f"  {metric:<14} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}"
                  f"  spread {s['spread']:.3f}  {tail}  ({s['runs']} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
