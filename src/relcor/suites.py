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

Every verdict of both modes is folded from rows.  `outcome_row(program,
suite, fuel, mode)` is the tuple of the program's raw outcomes on the
suite's inputs, in order: the final values tuple where the run ends,
`NONTERMINATION` where it does not, `Undefined(site)` where it is
undefined.  A wide row compiles the program once and runs it once per
input.  An exact row is `semantics.exact_row`: the same runs when one run
per state defines [p], and otherwise [p]'s image of each input, so that a
block local read before it is assigned ranges over all its values.  Exact
mode (`repair.classify_mutants`) is testing over every state of the space
at `conclusive_fuel`, which no terminating run exhausts, so its verdicts
are those of the competence domains.

Wide rows are cached, least recently used out, with one entry per program
and suite, so a program's runs are made once however many verdicts and
fingerprints read them; the suite hashes its inputs once
(`space.hash_once`), which keeps the key cheap.  Exact rows are not cached,
because each may span a whole space of up to `DEFAULT_CAP` states;
`outcome_row` is the one place that tells them apart.  A row covers every
input, also those outside dom(R); test selection puts none there except
from a file.  Fuel is a count of loop iterations, so it is never negative
(`repair.RepairConfig` rejects that); a run carries what is left of it from
one statement to the next.

`run_suite` builds the full n0-n3 report of one candidate from its row and
the base's; inputs outside dom(R) pass vacuously for both.  A mutant batch
needs only a label per mutant, and `suite_labels` gives it without the
per-input bookkeeping of the report.  When the batch's base has the latest
mutant schema (`interp.compile_schema`), `suite_labels` first fills the
wide rows of the base and of its covered mutants by split-stream execution
(Just, Ernst and Fraser, ISSTA 2014).  It runs the base once per input,
cut by cut, and keeps its chain of (values, fuel left) at each cut.  A
covered mutant changed at cut c runs only its own step, from the base's
state at c; where the base ended before c, so does the mutant, with the
base's outcome.  The rest of the run, from cut c + 1, is looked up in a
memo keyed by (cut, values, fuel left), which starts with the base's own
chain, and the base's suffix runs at most once per key.  Each row so
filled is cached, so a later `outcome_row` of the mutant, such as a kept
child's fingerprint, makes no run.  Other programs get their rows as
above.

The base's row splits the in-domain inputs into those where the base
passes and those where it fails, each with its oracle (`oracle_at`).  Each
candidate's row is then folded over them: a failure where the base passes
is an n3 cell (`not_more_correct`), a pass where the base fails an n1
cell, and a failure there an n2 cell.  The label is
`label_of(cumulabs, cumulrel, cumulstrict)` of the full report.  No
candidate is stopped once its label is settled.  The memo's savings depend
on the data, on how often the mutants' states meet again, but a batch never
costs more than one step plus one suffix run per covered mutant and input,
and one run per other program and input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .errors import EmptySuiteError, RelcorError
from .lang.ast_nodes import ArrayRead, Var, preorder
from .lang.interp import compile_program, execute, latest_schema, run_outcome
from .lang.semantics import denote, exact_row
from .relations import competence_domain
from .space import ArrayDomain, State, StateSpace, hash_once
from .specs import PredicateSpec, Spec


@hash_once
@dataclass(frozen=True)
class TestSuite:
    inputs: tuple  # of State, in a deterministic order
    selection: dict = field(default_factory=dict, compare=False)

    def __len__(self):
        return len(self.inputs)


@dataclass
class SuiteReport:
    selection: dict
    cumulabs: bool
    cumulrel: bool
    cumulstrict: bool
    n0: int
    n1: int
    n2: int
    n3: int


# -- test data selection -----------------------------------------------------------


def _default_value(dom):
    if isinstance(dom, ArrayDomain):
        fill = 0 if 0 in dom.elem else dom.elem.lo
        return (fill,) * dom.length
    return 0 if 0 in dom else dom.lo


def _sampled_names(spec: Spec) -> set:
    """The variables random selection samples: those the domain predicate
    reads, or every variable when it reads none or the spec is enumerated."""
    names = set()
    if isinstance(spec, PredicateSpec):
        names = {n.name for n in preorder(spec.dom_cond) if isinstance(n, (Var, ArrayRead))}
    return names or set(spec.space.names)


def select_tests(
    spec: Spec,
    base=None,
    strategy: str = "exhaustive",
    seed: int = 0,
    count: int = 50,
    path: str | None = None,
) -> TestSuite:
    """Build a deterministic test suite for `spec`.

    Strategies: exhaustive (all in-domain states), random (seeded rejection
    sampling over in-domain states; when the domain predicate reads some
    variables, the others default to zero), competence_domain_of_base
    (inputs drawn from the base program's competence domain, exact mode),
    file (one state per line as name=value pairs).
    """
    space = spec.space
    if strategy == "exhaustive":
        inputs = tuple(s for s in space.states() if spec.in_dom(s))
        descriptor = {"strategy": "exhaustive"}
    elif strategy == "random":
        rng = random.Random(seed)
        sampled = _sampled_names(spec)
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
        cd = competence_domain(spec, denote(base, space), warn_nondeterministic=False)
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


#: wide rows by (program, suite, fuel, mode), least recently used first
_rows: dict = {}
_ROWS_MAX = 4096


def _store_row(key, row: tuple) -> tuple:
    """Cache `row` as the most recently used."""
    _rows[key] = row
    if len(_rows) > _ROWS_MAX:
        del _rows[next(iter(_rows))]
    return row


def outcome_row(program, suite: TestSuite, fuel: int, mode: str) -> tuple:
    """The raw outcome of `program` on each suite input, in order, cached in
    wide mode only (see the module docstring)."""
    if not suite.inputs:
        return ()
    space = suite.inputs[0].space
    if mode == "exact":
        return exact_row(program, space, suite.inputs, fuel)
    key = (program, suite, fuel, mode)
    row = _rows.pop(key, None)
    if row is None:
        run = compile_program(program, space, mode)
        row = tuple([run_outcome(run, s.values, fuel) for s in suite.inputs])
    return _store_row(key, row)


outcome_row.cache_clear = _rows.clear


def _base_chain(schema, chain: list, values: tuple, fuel: int) -> tuple:
    """Run a schema's base, appending its (values, fuel) at each cut that
    has a step and that the run reaches to `chain`; returns its final
    values."""
    for step in schema.steps:
        chain.append((values, fuel))
        values, fuel = step(0, values, fuel)
    return schema.suffix(len(schema.steps), values, fuel)


def _split_rows(schema, programs, suite: TestSuite, fuel: int) -> None:
    """Cache the wide rows of the schema's base and of its covered mutants
    among `programs` that are not cached yet, by split-stream execution (see
    the module docstring)."""
    base_key = (schema.base, suite, fuel, "wide")
    todo = [p for p in dict.fromkeys(programs)
            if p in schema.sites and (p, suite, fuel, "wide") not in _rows]
    base_row = _rows.get(base_key)
    if base_row is not None and all(schema.sites[p][0] == 0 for p in todo):
        chains = [[(s.values, fuel)] for s in suite.inputs]  # every mutant starts at cut 0
    else:
        chains = [[] for _ in suite.inputs]
        base_row = _store_row(base_key, tuple([
            run_outcome(partial(_base_chain, schema, chain), s.values, fuel)
            for chain, s in zip(chains, suite.inputs)]))
    memo = {}  # (cut, values, fuel) -> the outcome of the base's suffix from there
    for chain, out in zip(chains, base_row):
        memo.update(((c, *state), out) for c, state in enumerate(chain[1:], 1))
    for p in todo:
        cut, m = schema.sites[p]
        step, suffix = partial(schema.steps[cut], m), partial(schema.suffix, cut + 1)
        row = []
        for chain, base_out in zip(chains, base_row):
            if cut >= len(chain):  # the base ended before the mutant's cut, and so does the mutant
                row.append(base_out)
                continue
            out = run_outcome(step, *chain[cut])
            if type(out) is tuple:
                key = (cut + 1, *out)
                rest = memo.get(key)
                if rest is None:
                    rest = memo[key] = run_outcome(suffix, *out)
                out = rest
            row.append(out)
        _store_row((p, suite, fuel, "wide"), tuple(row))


def run_suite(candidate, base, spec: Spec, suite: TestSuite, fuel: int,
              mode: str = "wide") -> SuiteReport:
    """Score base and candidate on every suite input, from their rows."""
    n0 = n1 = n2 = n3 = 0
    rows = zip(suite.inputs, outcome_row(base, suite, fuel, mode),
               outcome_row(candidate, suite, fuel, mode))
    for s, b, c in rows:
        if spec.in_dom(s):
            passes = spec.oracle_at(s)
            base_pass, abscor = passes(b), passes(c)
        else:
            base_pass = abscor = True
        if base_pass and abscor:
            n0 += 1
        elif abscor:
            n1 += 1
        elif base_pass:
            n3 += 1
        else:
            n2 += 1
    return SuiteReport(
        selection=dict(suite.selection),
        cumulabs=n2 == n3 == 0,
        cumulrel=n3 == 0,
        cumulstrict=n1 > 0,
        n0=n0,
        n1=n1,
        n2=n2,
        n3=n3,
    )


def suite_labels(base, programs, spec: Spec, suite: TestSuite, fuel: int,
                 mode: str = "wide") -> list:
    """The label of each program against `base` on the suite, as
    `classify(run_suite(...))` gives it, folded from the rows of the base
    and of each program (see the module docstring); one label per program,
    in order."""
    if mode == "wide" and suite.inputs:
        schema = latest_schema(base, suite.inputs[0].space, mode)
        if schema is not None:
            _split_rows(schema, programs, suite, fuel)
    passing, failing = [], []
    for i, (s, out) in enumerate(zip(suite.inputs, outcome_row(base, suite, fuel, mode))):
        if spec.in_dom(s):
            passes = spec.oracle_at(s)
            (passing if passes(out) else failing).append((i, passes))
    labels = []
    for p in programs:
        row = outcome_row(p, suite, fuel, mode)
        kept = {passes(row[i]) for i, passes in passing}
        fixed = {passes(row[i]) for i, passes in failing}
        labels.append(label_of(False not in (kept | fixed), False not in kept, True in fixed))
    return labels


def label_of(absolute: bool, at_least: bool, strictly: bool) -> str:
    """The label of a candidate against its base, from the best that holds:
    absolutely correct, strictly more correct (at least as correct and
    strictly so somewhere), as correct (at least as correct), not more
    correct."""
    if absolute:
        return "absolutely_correct"
    if at_least and strictly:
        return "strictly_more_correct"
    if at_least:
        return "as_correct"
    return "not_more_correct"


def classify(report: SuiteReport) -> str:
    """Suite-relative verdict for a candidate against its base."""
    return label_of(report.cumulabs, report.cumulrel, report.cumulstrict)
