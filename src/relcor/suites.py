"""Relative-correctness testing: oracles, test selection, suite execution.

A suite run compares a candidate program against a base program on every
input, scoring each test with the absolute oracle and folding the results
into the cumulative verdicts:

    abscor  = candidate passes the absolute oracle
    relcor  = base passes  =>  candidate passes
    strict  = base fails  and  candidate passes

    cumulabs = all abscor;  cumulrel = all relcor;  cumulstrict = any strict

The coverage cells are n0 (both pass), n1 (base fails, candidate passes),
n2 (both fail) and n3 (base passes, candidate fails); relcor over the
whole suite is exactly n3 == 0.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import EmptySuiteError, RelcorError
from .lang.interp import FinalState, NonTermination, execute
from .lang.semantics import denote
from .relations import competence_domain
from .space import DEFAULT_CAP, ArrayDomain, State, StateSpace
from .specs import Spec, abs_oracle


@dataclass(frozen=True)
class TestSuite:
    inputs: tuple  # of State, in a deterministic order
    selection: dict = field(default_factory=dict, compare=False)

    def __len__(self):
        return len(self.inputs)


@dataclass
class SuiteReport:
    selection: dict
    rows: list
    cumulabs: bool
    cumulrel: bool
    cumulstrict: bool
    n0: int
    n1: int
    n2: int
    n3: int

    def to_json(self) -> dict:
        return {
            "selection": self.selection,
            "cumulabs": self.cumulabs,
            "cumulrel": self.cumulrel,
            "cumulstrict": self.cumulstrict,
            "n0": self.n0,
            "n1": self.n1,
            "n2": self.n2,
            "n3": self.n3,
            "tests": self.rows,
        }


# -- test data selection -----------------------------------------------------------


def _default_value(dom):
    if isinstance(dom, ArrayDomain):
        fill = 0 if 0 in dom.elem else dom.elem.lo
        return (fill,) * dom.length
    return 0 if 0 in dom else dom.lo


def _predicate_names(spec: Spec) -> set:
    if hasattr(spec, "dom_src"):
        return set(re.findall(r"[A-Za-z_]\w*", spec.dom_src))
    return set(spec.space.names)


def select_tests(
    spec: Spec,
    base=None,
    strategy: str = "exhaustive",
    seed: int = 0,
    count: int = 50,
    path: str | None = None,
    cap: int = DEFAULT_CAP,
) -> TestSuite:
    """Build a deterministic test suite for `spec`.

    Strategies: exhaustive (all in-domain states), random (seeded rejection
    sampling over in-domain states; variables the domain predicate does not
    mention default to zero), competence_domain_of_base (inputs drawn from
    the base program's competence domain, exact mode), file (one state per
    line as name=value pairs).
    """
    space = spec.space
    if strategy == "exhaustive":
        inputs = tuple(s for s in space.states(cap) if spec.in_dom(s))
        descriptor = {"strategy": "exhaustive"}
    elif strategy == "random":
        rng = random.Random(seed)
        sampled = _predicate_names(spec)
        chosen = []
        attempts = 0
        while len(chosen) < count:
            attempts += 1
            if attempts > 10000 * count:
                raise EmptySuiteError(
                    f"rejection sampling found only {len(chosen)} of {count} inputs"
                )
            bindings = {}
            for name, dom in space.vars:
                if name in sampled:
                    if isinstance(dom, ArrayDomain):
                        bindings[name] = tuple(
                            rng.randint(dom.elem.lo, dom.elem.hi)
                            for _ in range(dom.length)
                        )
                    else:
                        bindings[name] = rng.randint(dom.lo, dom.hi)
                else:
                    bindings[name] = _default_value(dom)
            s = space.state(bindings)
            if spec.in_dom(s):
                chosen.append(s)
        inputs = tuple(chosen)
        descriptor = {"strategy": "random", "seed": seed, "count": count}
    elif strategy == "competence_domain_of_base":
        if base is None:
            raise RelcorError("competence_domain_of_base requires a base program")
        cd = competence_domain(spec, denote(base, space, cap), warn_nondeterministic=False)
        inputs = tuple(cd.sorted_states())
        descriptor = {"strategy": "competence_domain_of_base"}
    elif strategy == "file":
        inputs = tuple(load_test_data(path, space))
        descriptor = {"strategy": "file", "path": path}
    else:
        raise RelcorError(f"unknown selection strategy {strategy!r}")
    if not inputs:
        raise EmptySuiteError(f"strategy {strategy!r} produced no inputs")
    return TestSuite(inputs, descriptor)


def load_test_data(path: str, space: StateSpace) -> list:
    """Parse a test-data file: one state per line as name=value pairs;
    variables missing from a line default to zero."""
    states = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            bindings = {n: _default_value(d) for n, d in space.vars}
            for part in line.replace(",", " ").split():
                if "=" not in part:
                    raise RelcorError(f"{path}:{lineno}: expected name=value, got {part!r}")
                name, _, value = part.partition("=")
                if name not in space.names:
                    raise RelcorError(f"{path}:{lineno}: unknown variable {name!r}")
                dom = space.domain_of(name)
                try:
                    if isinstance(dom, ArrayDomain):
                        bindings[name] = tuple(int(v) for v in value.strip("[]").split(";"))
                    else:
                        bindings[name] = int(value)
                except ValueError:
                    raise RelcorError(f"{path}:{lineno}: {value!r} is not a value of {name}")
            states.append(space.state(bindings))
    return states


# -- suite execution -----------------------------------------------------------------


@lru_cache(maxsize=200_000)
def cached_execute(program, s: State, fuel: int, mode: str):
    return execute(program, s, fuel, mode)


def _outcome_tag(outcome) -> str:
    if isinstance(outcome, FinalState):
        return "final"
    if isinstance(outcome, NonTermination):
        return "nontermination"
    return "undefined"


def _json_value(v):
    return list(v) if isinstance(v, tuple) else v


def run_suite(candidate, base, spec: Spec, suite: TestSuite, fuel: int,
              mode: str = "wide") -> SuiteReport:
    """Execute base and candidate on every suite input and score the run."""
    rows = []
    cumulabs = True
    cumulrel = True
    cumulstrict = False
    n0 = n1 = n2 = n3 = 0
    for s in suite.inputs:
        base_out = cached_execute(base, s, fuel, mode)
        cand_out = cached_execute(candidate, s, fuel, mode)
        base_pass = abs_oracle(spec, s, base_out).passed
        abscor = abs_oracle(spec, s, cand_out).passed
        relcor = (not base_pass) or abscor
        strict = (not base_pass) and abscor
        cumulabs = cumulabs and abscor
        cumulrel = cumulrel and relcor
        cumulstrict = cumulstrict or strict
        if base_pass and abscor:
            n0 += 1
        elif not base_pass and abscor:
            n1 += 1
        elif not base_pass and not abscor:
            n2 += 1
        else:
            n3 += 1
        rows.append(
            {
                "input": {n: _json_value(v) for n, v in zip(s.space.names, s.values)},
                "base_outcome": _outcome_tag(base_out),
                "candidate_outcome": _outcome_tag(cand_out),
                "base_pass": base_pass,
                "abscor": abscor,
                "relcor": relcor,
                "strict": strict,
            }
        )
    return SuiteReport(
        selection=dict(suite.selection),
        rows=rows,
        cumulabs=cumulabs,
        cumulrel=cumulrel,
        cumulstrict=cumulstrict,
        n0=n0,
        n1=n1,
        n2=n2,
        n3=n3,
    )


def classify(report: SuiteReport) -> str:
    """Suite-relative verdict for a candidate against its base."""
    if report.cumulabs:
        return "absolutely_correct"
    if report.cumulrel and report.cumulstrict:
        return "strictly_more_correct"
    if report.cumulrel:
        return "as_correct"
    return "not_more_correct"


def report_to_bytes(report: SuiteReport) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True, indent=1).encode()
