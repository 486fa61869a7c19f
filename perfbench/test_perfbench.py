"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import relcor.cli  # noqa: E402,F401  (loads every module that re-exports a traced name)
import relcor.studies.arraysum  # noqa: E402,F401
import relcor.studies.fermat  # noqa: E402,F401
import relcor.studies.lattice  # noqa: E402,F401
import refimpl  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from relcor.lang import ast_nodes, interp  # noqa: E402
from relcor.lang.parser import parse  # noqa: E402
from relcor.space import Interval, StateSpace  # noqa: E402


def test_install_rebinds_every_alias_and_uninstall_restores_them():
    originals = {
        "suites.execute": relcor.suites.execute,
        "repair.denote": relcor.repair.denote,
        "lang.execute": relcor.lang.execute,
        "relcor.competence_domain": relcor.competence_domain,
        "arraysum.competence_domain": relcor.studies.arraysum.competence_domain,
    }
    t = tracer.Tracer().install()
    try:
        assert t.missing == []
        assert t.unwrapped() == []
        assert relcor.suites.execute is not originals["suites.execute"]
        assert relcor.lang.execute is relcor.lang.interp.execute
        assert relcor.studies.arraysum.competence_domain is relcor.relations.competence_domain
        assert relcor.competence_domain is not originals["relcor.competence_domain"]
    finally:
        t.uninstall()
    assert relcor.suites.execute is originals["suites.execute"]
    assert relcor.repair.denote is originals["repair.denote"]
    assert relcor.studies.arraysum.competence_domain is originals["arraysum.competence_domain"]


def test_self_time_excludes_nested_wrapped_calls():
    space = StateSpace((("x", Interval(0, 3)),))
    t = tracer.Tracer().install()
    try:
        program = relcor.lang.parser.parse("x = x + 1;", space)
        relcor.suites.cached_execute(program, next(space.states()), 10, "wide")
    finally:
        t.uninstall()
    report = t.report()
    assert set(report) == set(tracer.metric_names())
    assert report["parser.parse.calls"] == 1
    assert report["interp.execute.final.calls"] == 1
    assert report["suites.cached_execute.misses"] == 1
    cached = t.stats["suites.cached_execute"]
    assert cached.own < cached.total


def test_restart_counts_afresh_and_exclude_leaves_time_out_of_self():
    space = StateSpace((("x", Interval(0, 3)),))
    state = next(space.states())
    relcor.suites.cached_execute.cache_clear()
    t = tracer.Tracer().install()
    try:
        program = relcor.lang.parser.parse("x = x + 1;", space)
        relcor.suites.cached_execute(program, state, 10, "wide")
        setup = t.restart()
        relcor.suites.cached_execute(program, state, 10, "wide")
    finally:
        t.uninstall()
    work = t.report()
    assert (setup["parser.parse.calls"], setup["suites.cached_execute.misses"]) == (1, 1)
    assert work["parser.parse.calls"] == 0
    assert (work["suites.cached_execute.hits"], work["suites.cached_execute.misses"]) == (1, 0)

    probed = t._wrap(lambda: t.exclude(5.0), "probed", None)
    probed()
    st = t.stats["probed"]
    assert abs(st.total - st.own - 5.0) < 1e-9


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_generated_program_has_the_counted_sites_and_evaluates_like_relcor():
    space = StateSpace(tuple((v, Interval(*refimpl.VALUE_RANGE)) for v in refimpl.VARS))
    for seed in range(5):
        rng = random.Random(seed)
        source, sites = refimpl.generate_program(rng, 12)
        program = parse(source, space)
        nodes = ast_nodes.preorder(program)
        assert sites["binops"] == sum(isinstance(n, ast_nodes.BinOp) for n in nodes)
        assert sites["literals"] == sum(isinstance(n, ast_nodes.IntLit) for n in nodes)
        for s in rng.sample(list(space.states()), 50):
            out = interp.execute(program, s, 10, "exact")
            assert refimpl.evaluate(program, space.names, s.values, 10) == ("final", out.state.values)


def test_run_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fermat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
