"""Cold-process benchmark of relcor.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is fermat, arraysum_exact, mutate_large, or all (each in turn).  Every
unit of work runs in a fresh Python process (perfbench/unit.py), one at a
time, so relcor's module-level lru caches start empty each time.  Units are
repeated while another one fits in S seconds (at least twice) and each
metric is the median over the units.  Extra set-up-only processes give more samples of
``setup_s``.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced unit (see tracer.py), and untraced
units run beside the traced ones to measure the tracing overhead.  Every
unit checks its outputs, and the exact counts of all units (cache hits and
misses, execute outcomes, mutants, repair-tree sizes) must agree.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "relcor"

WORKLOADS = ("fermat", "arraysum_exact", "mutate_large")
SETUP_SAMPLES = 16  # set-up-only processes per run, besides each unit's own set-up
MIN_UNITS = 2  # of each kind, so that counts can be compared
UNIT_TIMEOUT_S = 150
LAUNCH_DEADLINE_S = 120  # no new unit starts after this, whatever --seconds says

sys.path.insert(0, str(HERE))
from tracer import metric_names  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "mutants_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
TREE_COUNTS = ("repair.nodes", "repair.aliases", "repair.dead_ends")
# per-layer metrics of the untraced units beside the traced ones: the wall
# time as measured, and the host-speed scale that turns it into wall_s
UNTRACED = {"untraced.wall_raw_s": "wall_raw", "untraced.work_scale": "work_scale"}
SLOC_MODULES = ("relcor", "cli", "errors", "mutate", "relations", "repair", "space",
                "specs", "suites", "lang", "ast_nodes", "interp", "parser", "semantics",
                "studies", "arraysum", "fermat", "lattice", "total")


def per_layer_names() -> list:
    return (metric_names() + list(TREE_COUNTS) + list(UNTRACED) + ["trace.overhead_s"]
            + [f"{m}.sloc" for m in SLOC_MODULES])


def unit_of(name: str) -> str:
    field = name.rpartition(".")[2]
    if field.endswith("_s"):
        return "s"
    if field.endswith("_ms"):
        return "ms"
    return {"hit_ratio": "ratio", "work_scale": "ratio", "sloc": "lines"}.get(field, "count")


def sloc() -> dict:
    """Non-blank, non-comment source lines of each relcor module."""
    out = dict.fromkeys(SLOC_MODULES, 0)
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        name = parts[-2] if parts[-1] == "__init__" else parts[-1]
        lines = sum(1 for line in path.read_text().splitlines()
                    if line.strip() and not line.strip().startswith("#"))
        if name in out:
            out[name] += lines
        out["total"] += lines
    return out


def launch(name: str, seed: int, trace: bool, setup_only: bool = False):
    """Run one cold unit; returns its JSON result, or None if it failed."""
    cmd = [sys.executable, str(HERE / "unit.py"), name, str(seed), "1" if trace else "0"]
    spawned = time.monotonic()
    cmd.append(repr(spawned))
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: unit timed out after {UNIT_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{name}: unit exited with {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Correctness checks attempted and failed across one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def measure(name: str, seed: int, seconds: int, trace: bool):
    start = time.monotonic()
    tally = Tally()
    setups, setups_raw = [], []
    for _ in range(SETUP_SAMPLES):
        r = launch(name, seed, False, setup_only=True)
        tally.check(r is not None, "set-up process ran")
        if r is not None:
            setups.append(r["setup_s"])
            setups_raw.append(r["setup_raw"])
    units = {False: [], True: []}
    kinds = itertools.chain([False, True, True], itertools.cycle([False, True])) if trace \
        else itertools.repeat(False)
    durations = []  # of whole unit processes, to decide whether another one fits
    for launched, traced in enumerate(kinds, 1):
        began = time.monotonic()
        r = launch(name, seed, traced)
        durations.append(time.monotonic() - began)
        tally.check(r is not None, "unit ran")
        if r is not None:
            units[traced].append(r)
            setups.append(r["setup_s"])
            setups_raw.append(r["setup_raw"])
            for check, ok in r["checks"].items():
                tally.check(ok, check)
        enough = all(len(units[k]) >= MIN_UNITS for k in ({False, True} if trace else {False}))
        elapsed = time.monotonic() - start
        if elapsed >= LAUNCH_DEADLINE_S:
            break
        if (enough or launched >= 6) and elapsed + statistics.median(durations) > seconds:
            break

    # exact counts must repeat: against the first unit of the same kind, and
    # between kinds on the counts both have
    for kind in units.values():
        for r in kind[1:]:
            tally.check(r["counts"] == kind[0]["counts"], "counts repeat")
    if units[False] and units[True]:
        a, b = units[False][0]["counts"], units[True][0]["counts"]
        tally.check(all(a[k] == b[k] for k in a.keys() & b.keys()), "counts repeat when traced")
    return units, setups, setups_raw, tally


def end_to_end(units, setups) -> dict:
    plain = units[False]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "mutants_per_s": statistics.median(r["mutants"] / r["wall_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(units) -> dict:
    traced = units[True]
    out = {}
    for n in metric_names():
        values = [r["layers"][n] for r in traced]
        # counts repeat exactly (checked), so only times take a median
        out[n] = values[0] if len(set(values)) == 1 else statistics.median(values)
    for n in TREE_COUNTS:
        out[n] = traced[0]["counts"].get(n, 0)
    for n, key in UNTRACED.items():
        out[n] = statistics.median(r[key] for r in units[False])
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in units[False]))
    out.update({f"{m}.sloc": v for m, v in sloc().items()})
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool):
    units, setups, setups_raw, tally = measure(name, seed, seconds, trace)
    if not units[False] or (trace and not units[True]) or not setups:
        print(f"{name}: no unit completed", file=sys.stderr)
        return None
    values = per_layer(units) if trace else end_to_end(units, setups)
    share = len(tally.failed) / tally.attempted
    print(f"{name} seed={seed} trace={int(trace)} units={len(units[False])}+{len(units[True])}"
          f" setups={len(setups)} fail_share={share} ({len(tally.failed)}/{tally.attempted})")
    for traced in (False, True):
        if units[traced]:
            walls = ", ".join(f"{r['wall_s']:.3f} ({r['wall_raw']:.3f})" for r in units[traced])
            print(f"  {'traced' if traced else 'untraced'} unit wall_s (as measured): {walls}")
    if not trace:
        print(f"  as measured: wall_s = {statistics.median(r['wall_raw'] for r in units[False])} s,"
              f" setup_s = {statistics.median(setups_raw)} s")
    for what in tally.failed:
        print(f"  FAILED: {what}")
    for n, v in values.items():
        print(f"  {n} = {v} {END_TO_END_UNITS.get(n) or unit_of(n)}")
    return {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {n: {"value": v, "unit": END_TO_END_UNITS.get(n) or unit_of(n)}
                    for n, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"relcor sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            status = 1
            continue
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
