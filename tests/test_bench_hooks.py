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

import pytest

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


#: the checks of each workload's unit
UNIT_CHECKS = {
    # recompute the spec, the base's outputs and 24 sampled verdicts with the
    # benchmark's tree-walker (`perfbench/refimpl.py`)
    "mutate_large": {"mutant_count", "spec_is_reference_graph", "base_outputs",
                     "sampled_verdicts"},
    # the expected facts of the exact repair, the solution's sums and the
    # base's competence domain by the tree-walker
    "arraysum_exact": {"solutions", "fault_density", "fault_depth",
                       "solution_sums_a1_to_a3_everywhere",
                       "base_competence_domain_matches_relcor", "only_root_expanded"},
}


@pytest.mark.parametrize("workload", sorted(UNIT_CHECKS))
def test_the_checks_of_a_benchmark_unit_hold(workload):
    """One cold, untraced unit of a workload of the benchmark, whose checks
    do not trust the code they measure."""
    unit = subprocess.run(
        [sys.executable, "perfbench/unit.py", workload, "1", "0", str(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    checks = json.loads(unit.stdout.splitlines()[-1])["checks"]
    assert set(checks) == UNIT_CHECKS[workload]
    assert all(checks.values()), checks


def test_only_the_fermat_workload_forks_workers(monkeypatch):
    """A batch forks workers only once the pace of its rows shows at least
    `suites._FORK_AFTER_S` (0.1 s) of rows left: `mutate_large`'s one batch
    and `arraysum_exact`'s take about 30 and 12 ms in all on a 2-vCPU VM,
    and a fork there would cost more than it saves; Fermat's level-1 batch
    takes about 0.35 s.  Spare CPUs are pretended, so that the time alone
    decides."""
    import relcor.suites

    def forked(*args):
        raise AssertionError("forked")

    monkeypatch.setattr(relcor.suites, "_spare_cpus", lambda: 1)
    monkeypatch.setattr(relcor.suites, "_Workers", forked)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads").WORKLOADS
    for name in ("mutate_large", "arraysum_exact", "fermat"):
        setup, run, _ = workloads[name]
        relcor.suites.outcome_row.cache_clear()
        if name == "fermat":
            with pytest.raises(AssertionError, match="forked"):
                run(setup(1))
        else:
            run(setup(1))
    relcor.suites.outcome_row.cache_clear()
