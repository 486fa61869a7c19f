"""Command-line front end: correctness checks, semantics dumps, mutant
generation, repair runs, bundled case studies, and report tabulation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import ParseError, RelcorError
from .lang.parser import parse
from .lang.semantics import denote
from .mutate import OPERATOR_FAMILIES, generate, mutant_manifest
from .relations import (
    competence_domain,
    is_correct,
    more_correct,
    refines,
    relation_from_json,
    relation_to_json,
)
from .repair import RepairConfig, export_tree, repair, tree_to_json
from .specs import spec_from_json
from .studies import arraysum, fermat, lattice
from .suites import select_tests

SEED_ENV = "RELCOR_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise RelcorError(f"{SEED_ENV} must be an integer, got {raw!r}")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_spec(path: str):
    return spec_from_json(_load_json(path))


def _load_program(path: str, space):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), space)


def _load_operand(path: str, spec):
    """A .imp file is parsed and denoted; anything else is a relation JSON."""
    if path.endswith(".imp"):
        return denote(_load_program(path, spec.space), spec.space)
    return relation_from_json(_load_json(path))


def _emit(doc, path: str | None) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_relcheck(args) -> int:
    spec = _load_spec(args.spec) if args.spec else None
    if args.refines:
        a = _load_operand(args.refines[0], spec) if spec else relation_from_json(
            _load_json(args.refines[0])
        )
        b = _load_operand(args.refines[1], spec) if spec else relation_from_json(
            _load_json(args.refines[1])
        )
        verdict = refines(a, b)
        query = {"refines": args.refines}
    elif args.correct:
        if spec is None:
            raise RelcorError("--correct requires --spec")
        verdict = is_correct(_load_operand(args.correct, spec), spec)
        query = {"correct": args.correct}
    elif args.competence_domain:
        if spec is None:
            raise RelcorError("--competence-domain requires --spec")
        cd = competence_domain(
            spec, _load_operand(args.competence_domain, spec),
            warn_nondeterministic=False,
        )
        _emit(
            {
                "competence_domain": [s.bindings() for s in cd.sorted_states()],
                "size": len(cd),
            },
            None,
        )
        return 0
    elif args.more_correct:
        if spec is None:
            raise RelcorError("--more-correct requires --spec")
        p1 = _load_operand(args.more_correct[0], spec)
        p2 = _load_operand(args.more_correct[1], spec)
        verdict = more_correct(p1, p2, spec, strict=args.strict)
        query = {"more_correct": args.more_correct, "strict": args.strict}
    else:
        raise RelcorError(
            "one of --refines/--correct/--competence-domain/--more-correct "
            "is required"
        )
    _emit({"query": query, "result": verdict}, None)
    if args.assert_ and not verdict:
        return 1
    return 0


def cmd_semantics(args) -> int:
    spec = _load_spec(args.spec)
    program = _load_program(args.program, spec.space)
    _emit(relation_to_json(denote(program, spec.space)), args.out)
    return 0


def cmd_mutate(args) -> int:
    spec = _load_spec(args.spec)
    program = _load_program(args.program, spec.space)
    mutants = generate(program, tuple(args.operators))
    _emit(mutant_manifest(program, mutants), args.out)
    return 0


def _build_suite(args, spec, base):
    strategy = args.tests
    count = 50
    path = None
    if strategy.startswith("random:"):
        strategy, _, raw = strategy.partition(":")
        if not raw.isdigit():
            raise RelcorError(f"--tests random:N needs a count, got {raw!r}")
        count = int(raw)
    elif strategy.startswith("file:"):
        strategy, _, path = strategy.partition(":")
    elif strategy == "cd":
        strategy = "competence_domain_of_base"
    return select_tests(
        spec, base, strategy=strategy, seed=args.seed, count=count, path=path
    )


def cmd_repair(args) -> int:
    spec = _load_spec(args.spec)
    base = _load_program(args.program, spec.space)
    suite = None
    if args.mode == "testing":
        suite = _build_suite(args, spec, base)
    cfg = RepairConfig(
        operators=tuple(args.operators),
        suite=suite,
        fuel=args.fuel,
        max_depth=args.max_depth,
        mode=args.mode,
    )
    tree, metrics = repair(base, spec, cfg)
    summary = {
        "solutions": tree.solutions,
        "dead_ends": tree.dead_ends,
        "fault_density_lb": metrics.fault_density_lb,
        "fault_depth_ub": metrics.fault_depth_ub,
        "nodes": len(tree.nodes),
    }
    if args.json_out:
        _emit(tree_to_json(tree, spec.space), args.json_out)
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(export_tree(tree, "dot"))
    _emit(summary, None)
    return 0


STUDIES = {"lattice": lattice, "arraysum": arraysum, "fermat": fermat}


def cmd_demo(args) -> int:
    study = STUDIES[args.study]
    started = time.monotonic()
    report = study.run()
    duration = time.monotonic() - started
    failures = study.check(report)

    artifacts = []
    out_dir = args.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        dot = report.pop("dot", None)
        report_path = os.path.join(out_dir, f"{args.study}_report.json")
        _emit(report, report_path)
        artifacts.append(report_path)
        if dot is not None:
            dot_path = os.path.join(out_dir, f"{args.study}_tree.dot")
            with open(dot_path, "w", encoding="utf-8") as fh:
                fh.write(dot)
            artifacts.append(dot_path)
        manifest = {
            "command": ["relcor"] + sys.argv[1:],
            "config": {"study": args.study},
            "seed": args.seed,
            "artifacts": artifacts,
            "version": __version__,
            "duration_seconds": round(duration, 3),
        }
        _emit(manifest, os.path.join(out_dir, f"{args.study}_manifest.json"))
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(f"{args.study}: all expected facts hold ({duration:.1f}s)")
    return 0


def cmd_report(args) -> int:
    rows = []
    for path in args.inputs:
        doc = _load_json(path)
        for entry in doc.get("level1", []):
            rows.append(
                (
                    entry.get("ordinal"),
                    entry.get("operator", ""),
                    entry.get("classification", ""),
                    entry.get("n0", ""),
                    entry.get("n1", ""),
                    entry.get("n2", ""),
                    entry.get("n3", ""),
                )
            )
    header = ("mutant", "operator", "classification", "n0", "n1", "n2", "n3")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcor",
        description="Relative-correctness analysis and mutation-based repair.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    rc = sub.add_parser("relcheck", help="decide refinement / correctness queries")
    rc.add_argument("--spec", help="specification JSON file")
    rc.add_argument("--refines", nargs=2, metavar=("A", "B"))
    rc.add_argument("--correct", metavar="P")
    rc.add_argument("--competence-domain", metavar="P")
    rc.add_argument("--more-correct", nargs=2, metavar=("P1", "P2"))
    rc.add_argument("--strict", action="store_true")
    rc.add_argument("--assert", dest="assert_", action="store_true",
                    help="exit 1 when the verdict is false")
    rc.set_defaults(func=cmd_relcheck)

    se = sub.add_parser("semantics", help="dump a program's function as JSON")
    se.add_argument("--spec", required=True)
    se.add_argument("--program", required=True)
    se.add_argument("--out")
    se.set_defaults(func=cmd_semantics)

    mu = sub.add_parser("mutate", help="emit a deterministic mutant manifest")
    mu.add_argument("--spec", required=True)
    mu.add_argument("--program", required=True)
    mu.add_argument("--operators", nargs="+", default=["AORB"],
                    choices=list(OPERATOR_FAMILIES))
    mu.add_argument("--out")
    mu.set_defaults(func=cmd_mutate)

    rp = sub.add_parser("repair", help="run the stepwise repair search")
    rp.add_argument("--spec", required=True)
    rp.add_argument("--program", required=True)
    rp.add_argument("--operators", nargs="+", default=["AORB"],
                    choices=list(OPERATOR_FAMILIES))
    rp.add_argument("--mode", choices=["testing", "exact"], default="testing")
    rp.add_argument("--seed", type=int, default=None)
    rp.add_argument("--tests", default="exhaustive",
                    help="exhaustive | random:N | cd | file:PATH")
    rp.add_argument("--fuel", type=int, default=10**4)
    rp.add_argument("--max-depth", type=int, default=5)
    rp.add_argument("--dot-out")
    rp.add_argument("--json-out")
    rp.set_defaults(func=cmd_repair)

    de = sub.add_parser("demo", help="run a bundled case study")
    de.add_argument("study", choices=sorted(STUDIES))
    de.add_argument("--seed", type=int, default=None)
    de.add_argument("--out-dir")
    de.set_defaults(func=cmd_demo)

    re_ = sub.add_parser("report", help="tabulate per-mutant classifications")
    re_.add_argument("inputs", nargs="*")
    re_.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RelcorError) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
