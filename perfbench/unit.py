"""One cold unit of a workload, run in a fresh process by run.py.

    python3 perfbench/unit.py WORKLOAD SEED TRACE SPAWNED [--setup-only]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, imports, fixture loading,
parsing and the spec and suite build.  Prints one JSON object on stdout.

Times are reported twice: as measured (``*_raw``) and scaled to a reference
host speed (see `SpeedProbe`).  In traced units the layers of set-up
(`SETUP_LAYERS`) are counted during set-up and all others during the timed
work only.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_LAYERS = ("parser.parse.", "suites.select_tests.")


class SpeedProbe:
    """Samples how fast this host runs Python while the unit works.

    Shared hosts change speed by up to 1.8x, both for minutes at a time and
    from one tenth of a second to the next, so samples taken only before and
    after a span miss much of it.  Every PERIOD_S a timer signal runs a fixed
    loop of interpreter work (integer arithmetic and stores into a 256-entry
    dict made once) and records its time, so the samples cover the same
    moments as the work.  The loop allocates no object that the garbage
    collector tracks, so it never starts a collection and does not scan
    relcor's heap.  A span's scale is REFERENCE_S over the mean of its
    fastest samples; multiplying the span's time by it gives the time at the
    reference speed.  The slowest fifth of the samples is dropped because it
    mostly measures caches the work has just flushed, not the host.  The
    samples cost about 3% of each span; `exclude`, if set, is given each
    sample's time, so that a tracer can leave it out of self times.
    """

    PERIOD_S = 0.02
    LOOPS = 3000
    MIN_SAMPLES = 10
    REFERENCE_S = 0.0003  # fastest-samples mean on an idle host of the baseline's kind

    def __init__(self):
        self.samples = []
        self.exclude = None
        self._table = dict.fromkeys(range(256), 0)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        acc, table = 0, self._table
        for i in range(self.LOOPS):
            acc = (acc * 31 + i) % 1000003
            table[i & 255] = acc
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        if self.exclude is not None:
            self.exclude(elapsed)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scale(self) -> float:
        """Scale of the span since the last call.  The span ends with samples
        taken back to back, at least one and enough for MIN_SAMPLES in all,
        so that short spans such as set-up get a usable estimate."""
        self._sample()
        while len(self.samples) < self.MIN_SAMPLES:
            self._sample()
        samples, self.samples = sorted(self.samples), []
        fastest = samples[:len(samples) - len(samples) // 5]
        return self.REFERENCE_S / statistics.fmean(fastest)


def main(argv) -> int:
    probe = SpeedProbe()
    probe.start()
    name, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    setup_only = "--setup-only" in argv
    src = ROOT / "src"
    if not (src / "relcor" / "__init__.py").is_file():
        print(f"no relcor sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import relcor.lang.interp
    import relcor.suites
    import tracer as tracing

    if Path(relcor.__file__).resolve().parent != src / "relcor":
        print(f"imported relcor from {relcor.__file__}, not {src}", file=sys.stderr)
        return 2
    caches = {"compile_program": relcor.lang.interp.compile_program,
              "cached_execute": relcor.suites.cached_execute}
    before = {k: c.cache_info() for k, c in caches.items()}
    tracer = None
    if trace:
        tracer = tracing.Tracer().install()
        probe.exclude = tracer.exclude
    # imported after install(), so that its relcor names bind to the wrappers
    from workloads import WORKLOADS

    setup, run, check = WORKLOADS[name]

    ctx = setup(seed)
    setup_raw = time.monotonic() - spawned
    setup_scale = probe.scale()
    if setup_only:
        probe.stop()
        print(json.dumps({"setup_raw": setup_raw, "setup_s": setup_raw * setup_scale}))
        return 0

    setup_layers = tracer.restart() if tracer is not None else None
    start = time.perf_counter()
    out = run(ctx)
    wall_raw = time.perf_counter() - start
    work_scale = probe.scale()
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    counts = {}
    for k, c in caches.items():
        info = c.cache_info()
        counts[f"{k}.hits"] = info.hits - before[k].hits
        counts[f"{k}.misses"] = info.misses - before[k].misses
    layers = None
    checks = {}
    if tracer is not None:
        layers = tracer.report()
        for n, v in setup_layers.items():
            if n.startswith(SETUP_LAYERS):
                layers[n] = v
        for n in layers:
            if n.endswith(("_s", "_ms")):
                layers[n] *= setup_scale if n.startswith(SETUP_LAYERS) else work_scale
        for tag in tracing.OUTCOMES.values():
            counts[f"execute.{tag}"] = layers[f"interp.execute.{tag}.calls"]
        checks["trace_rebinds_every_alias"] = not tracer.unwrapped()
        checks["trace_finds_every_target"] = not tracer.missing
        tracer.uninstall()

    found, exact, mutants = check(ctx, out)
    checks.update(found)
    counts.update(exact)
    counts["mutants"] = mutants
    print(json.dumps({
        "setup_raw": setup_raw,
        "setup_s": setup_raw * setup_scale,
        "wall_raw": wall_raw,
        "wall_s": wall_raw * work_scale,
        "work_scale": work_scale,
        "peak_rss_mb": peak_rss_mb,
        "mutants": mutants,
        "counts": counts,
        "checks": checks,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
