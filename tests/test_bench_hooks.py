"""The benchmark's tracer (`perfbench/tracer.py`) wraps relcor functions by
name and reads the hit counts of its lru caches.  A renamed or deleted
target would make its per-layer numbers read zero, so tier-1 checks that
every one still exists."""

import importlib
import importlib.util
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

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
    `suites._FORK_AFTER_S` (0.1 s) of rows left.  A fake clock charges each
    job of a workload's first batch a fixed time, its pace on a 2-vCPU VM,
    so that the decision does not hang on the host's speed: Fermat's
    level-1 batch, 48 jobs of about 8 ms (0.37 s in all), forks after its
    second job; `mutate_large`'s, 456 jobs of about 0.07 ms, and
    `arraysum_exact`'s, about 12 ms in all, never fork, as a fork there
    would cost more than it saves.  Spare CPUs are pretended, so that the
    pace alone decides."""
    import relcor.suites as suites
    from relcor.lang.semantics import UNBOUNDED
    from relcor.mutate import generate

    class Forked(Exception):
        pass

    def fork(jobs, make, count):  # in place of `suites._Workers`
        raise Forked(len(jobs))

    monkeypatch.setattr(suites, "_spare_cpus", lambda: 1)
    monkeypatch.setattr(suites, "_Workers", fork)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")

    def jobs_left_at_the_fork(base, operators, suite, fuel, mode, jobs, seconds):
        """The jobs left when the batch of `base`'s mutants forks, each of
        its `jobs` charged `seconds / jobs`, or None if it never forks."""
        programs = [m.program for m in generate(base, operators)]
        assert len(programs) == jobs
        # the batch reads the clock as it starts, then before each job
        ticks = itertools.chain([0], itertools.count())
        monkeypatch.setattr(suites, "time",
                            SimpleNamespace(perf_counter=lambda: next(ticks) * seconds / jobs))
        suites.outcome_row.cache_clear()
        try:
            rows = list(suites._batch_rows(base, programs, suite, fuel, mode))
        except Forked as fork:
            return fork.args[0]
        finally:
            suites.outcome_row.cache_clear()
        assert len(rows) == jobs + 1
        return None

    fermat = workloads.setup_fermat(1)
    assert jobs_left_at_the_fork(fermat["base"], ("AORB",), fermat["suite"], workloads.FUEL,
                                 "wide", 48, 48 * 0.008) == 46
    large = workloads.setup_mutate_large(1)
    assert jobs_left_at_the_fork(large["base"], ("AORB", "literal+-1"), large["suite"],
                                 workloads.FUEL, "wide", 456, 456 * 0.00007) is None
    arraysum = workloads.setup_arraysum_exact(1)
    every_state = suites.TestSuite(tuple(arraysum["spec"].space.states()))
    assert jobs_left_at_the_fork(arraysum["program"], arraysum["operators"], every_state,
                                 UNBOUNDED, "exact", 10, 0.012) is None
