"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--seconds 30]

Runs perfbench/run.py untraced once per seed (1..runs) and prints, for each
end-to-end metric, the median of the per-run values, the quartiles and the
spread: the distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    values: dict = {}
    correct = True
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        correct = correct and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.4g}"
                                           for n, m in result["metrics"].items()), flush=True)
    print(f"{args.workload}: all correct = {correct}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name}: median {med:.6g} quartiles {q1:.6g}..{q3:.6g} spread {spread:.4f}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
