"""The benchmark's tracer (`perfbench/tracer.py`) wraps relcor functions by
name and reads the hit counts of its lru caches.  A renamed or deleted
target would make its per-layer numbers read zero, so tier-1 checks that
every one still exists."""

import importlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_of_the_benchmark_tracer_exists():
    tracer = _load_tracer()
    missing, uncached = [], []
    for modname, owner, attr, prefix, _ in tracer.TARGETS:
        host = importlib.import_module(modname)
        if owner is not None:
            host = getattr(host, owner, None)
        target = getattr(host, attr, None)
        if target is None:
            missing.append(f"{modname}.{owner + '.' if owner else ''}{attr}")
        elif prefix in tracer.CACHED and not hasattr(target, "cache_info"):
            uncached.append(prefix)
    assert missing == [] and uncached == []
    assert tracer.CACHED == {"interp.compile_program", "suites.cached_execute"}
    import relcor.suites
    from relcor.lang.interp import execute

    assert relcor.suites.execute is execute  # read by perfbench/test_perfbench.py


def test_the_checks_of_a_mutate_large_unit_hold():
    """One cold, untraced unit of the benchmark's `mutate_large` workload.
    Its checks recompute the spec, the base's outputs and 24 sampled
    verdicts with the benchmark's tree-walker (`perfbench/refimpl.py`)."""
    unit = subprocess.run(
        [sys.executable, "perfbench/unit.py", "mutate_large", "1", "0", str(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    checks = json.loads(unit.stdout.splitlines()[-1])["checks"]
    assert set(checks) == {"mutant_count", "spec_is_reference_graph", "base_outputs",
                           "sampled_verdicts"}
    assert all(checks.values()), checks
