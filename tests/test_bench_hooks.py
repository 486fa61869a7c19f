"""The benchmark's tracer (`perfbench/tracer.py`) wraps relcor functions by
name and reads the hit counts of its lru caches.  A renamed or deleted
target would make its per-layer numbers read zero, so tier-1 checks that
every one still exists."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


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
