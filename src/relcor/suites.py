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
undefined.  A row of either mode compiles the program once and runs it
once per input.  Exact mode (`repair.classify_mutants`) is testing over
every state of the space at `semantics.UNBOUNDED` fuel, where every run
ends by itself.  It refuses a program whose block local may be read before
it is assigned (`interp.exposed`), so its runs are [p], and its verdicts
are those of the competence domains.

Wide rows are cached, least recently used out, with one entry per program
and suite, so a program's runs are made once however many verdicts and
fingerprints read them; the suite hashes its inputs once
(`space.hash_once`), which keeps the key cheap.  Exact rows are not cached,
because each may span a whole space of up to `DEFAULT_CAP` states.  A row
covers every input, also those outside dom(R); test selection puts none
there except from a file.  Fuel is a count of loop iterations, so it is
never negative (`repair.RepairConfig` rejects that); a run carries what is
left of it from one statement to the next.

`run_suite` builds the full n0-n3 report of one candidate from its row and
the base's; inputs outside dom(R) pass vacuously for both.  A mutant batch
needs only a label per mutant, and `suite_labels` folds it the same way
from rows that the batch shares.  It compiles the batch's mutant schema
(`interp.compile_schema`) over the programs whose rows it has to make,
those not cached yet: in exact mode every program.  It fills the rows of
the base and of the covered mutants by split-stream execution (Just, Ernst
and Fraser, ISSTA 2014), over one partition of the inputs per cut:
`levels[c]` maps each distinct (values, fuel left) of the base at cut c to
the inputs that reach cut c in it.  Level 0 groups the suite's inputs.  The
base's step for cut c runs once per entry of level c; an outcome that ends
the run is the base's on every input of the entry, and the others group
into level c + 1, whose entries after the last cut are the base's final
values (the 560 states of the arraysum space with elements narrowed to
0..1 reach the loop of `x = 0; i = 0; while ...` in 16 states).  The schema
covers every single-site mutant, also one changed within a loop, which has
its own step for its cut.  A covered mutant changed at cut c runs only that
step, once per entry of level c, its outcome copied to every input of the
entry; where the base ended before c, so does the mutant, with the base's
outcome.  The rest of its run, from cut c + 1, is looked up in a memo keyed
by (cut, values, fuel left), which starts with the base's states and
outcomes, and the base's suffix runs at most once per key; where c is the
base's last cut, the step's values are final.  When the base's wide row is
cached and every covered mutant sits at cut 0, only level 0 is built and
the base does not run.  A wide row so filled is cached, so a later
`outcome_row` of the mutant makes no run; an exact row is folded and
handed to the caller, which keeps it or drops it, one program at a time.
Other programs, those whose wide rows are cached, and all programs when
Python refuses the schema, get their rows from `outcome_row`.

The covered programs whose rows are not cached are the batch's jobs, each
made once.  The batch makes them in process and in order, timed from the
base's row on, and reads their pace before each, until its gate opens:
once the jobs made have taken a tenth of `_FORK_AFTER_S` (0.1 s), about
what a fork costs, and the jobs left would take `_FORK_AFTER_S` or more at
the mean time per job so far.  If two jobs or more are left then, it
forks a worker per CPU it may run on beyond its own, never more than one
fewer than the jobs left, as mutation analysis spreads independent
mutants over processors (Offutt, Pargas, Fichter and Khambekar, ICPP
1992).  It stays in process without `os.fork`, on one CPU, and while any
thread besides the main one is alive.  A fork costs a few milliseconds
plus copy-on-write faults in a large heap, more than the rows of a short
batch take (`mutate_large`'s take about 30 ms, `arraysum_exact`'s about
12 ms on a 2-vCPU VM), which is what the gate is for; the base's steps
are not timed, as they may be slow where the rows are fast.  Fermat's
level-1 batch forks after its first job.  This process and the workers
take the jobs left from one pipe of 4-byte tokens, all written before the
first fork, each the start of a chunk of jobs (one job per token up to
1,024 jobs), so that the uneven costs of rows balance at run time.  A
worker makes rows from its copy of the levels and the memo, sends them
back through a pipe of its own with `marshal` (NONTERMINATION as None,
Undefined as its site), and ends with `os._exit` when the tokens run out
or its parent is gone; what it adds to the memo or to the caches
of compiled code ends with it.  The batch decodes those rows, makes itself
any that no worker sent, and yields and caches every row in order, so
rows, labels, fingerprints and the cache's contents do not depend on the
split.  It reaps its workers when it ends, and kills them first when it
is left by an exception or closed before its last row.

The fold, one for both modes and both kinds of spec, reads the inputs as
value tuples: the spec splits them by the base's row (`spec.split`) into
the indices of the in-domain inputs where the base passes and those where
it fails, and each candidate's row is then counted over the two lists
(`spec.count`; a predicate spec compiles both, see `specs`).  Where the
base passes, a pass is an n0 cell and a failure an n3 cell
(`not_more_correct`); where it fails, a pass is an n1 cell and a failure
an n2 cell.  `classify` labels the report; the base's own report is those
two counts.  No candidate is stopped once its label is settled.  The
savings depend on the data, on how often the base's states at a cut and
the mutants' states after it meet again, but a batch never costs more than
one step of the base per cut and distinct state of the base there, one
step plus one suffix run per covered mutant and distinct state of the base
at its cut, and one run per other program and input.  That bound holds in
each process that makes rows; the memo is shared only within a process,
and a row that a worker did not send is made again here.
"""

from __future__ import annotations

import marshal
import os
import random
import threading
import time
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import EmptySuiteError, RelcorError
from .lang.ast_nodes import ArrayRead, Var, preorder
from .lang.interp import (NONTERMINATION, Undefined, compile_program, compile_schema, execute,
                          run_outcome)
from .lang.semantics import denote
from .relations import competence_domain
from .space import ArrayDomain, State, StateSpace, hash_once
from .specs import PredicateSpec, Spec


@hash_once
@dataclass(frozen=True)
class TestSuite:
    inputs: tuple  # of State, in a deterministic order

    def __len__(self):
        return len(self.inputs)


@dataclass
class SuiteReport:
    n0: int
    n1: int
    n2: int
    n3: int

    @property
    def cumulabs(self) -> bool:
        return self.n2 == self.n3 == 0

    @property
    def cumulrel(self) -> bool:
        return self.n3 == 0

    @property
    def cumulstrict(self) -> bool:
        return self.n1 > 0


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
    elif strategy == "competence_domain_of_base":
        if base is None:
            raise RelcorError("competence_domain_of_base requires a base program")
        cd = competence_domain(spec, denote(base, space), warn_nondeterministic=False)
        inputs = tuple(cd.sorted_states())
    elif strategy == "file":
        inputs = tuple(load_test_data(path, space))
    else:
        raise RelcorError(f"unknown selection strategy {strategy!r}")
    if not inputs:
        raise EmptySuiteError(f"strategy {strategy!r} produced no inputs")
    return TestSuite(inputs)


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
    """Cache `row`, of key (program, suite, fuel, mode), as the most
    recently used, unless it is exact."""
    if key[3] == "exact":
        return row
    _rows[key] = row
    if len(_rows) > _ROWS_MAX:
        del _rows[next(iter(_rows))]
    return row


def outcome_row(program, suite: TestSuite, fuel: int, mode: str) -> tuple:
    """The raw outcome of `program` on each suite input, in order, cached in
    wide mode only (see the module docstring)."""
    if not suite.inputs:
        return ()
    key = (program, suite, fuel, mode)
    row = _rows.pop(key, None)
    if row is None:
        run = compile_program(program, suite.inputs[0].space, mode)
        row = tuple([run_outcome(run, s.values, fuel) for s in suite.inputs])
    return _store_row(key, row)


outcome_row.cache_clear = _rows.clear


#: seconds of rows left, at the pace of those made so far, for which a batch
#: forks workers; the rows made must have taken a tenth of it, about what a
#: fork costs
_FORK_AFTER_S = 0.1
_TOKEN = 4  # bytes of a job token
_SIGKILL = 9  # signal.SIGKILL, without the millisecond that importing `signal` takes


def _encode(row: tuple) -> tuple:
    """`row` in types that `marshal` writes: None for NONTERMINATION, the
    site for Undefined."""
    return tuple(out if type(out) is tuple else None if out is NONTERMINATION else out.site
                 for out in row)


def _decode(row: tuple) -> tuple:
    return tuple(out if type(out) is tuple else NONTERMINATION if out is None else Undefined(out)
                 for out in row)


def _spare_cpus() -> int:
    """How many workers a batch may fork beside this process: none without
    `os.fork` or while a thread besides the main one is alive, else one
    fewer than the CPUs this process may run on."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) - 1
    return (os.cpu_count() or 1) - 1


class _Workers:
    """Forked processes that make the rows of `jobs` beside this one (see
    the module docstring).  This process and the workers take the jobs, in
    order, from one pipe of tokens, each the index of a chunk's first job,
    all written before the first fork; each worker sends the rows it makes
    back through a pipe of its own, marshalled, until the tokens run out."""

    def __init__(self, jobs: list, make, count: int):
        import select  # only a batch that forks needs it

        self.jobs, self.make, self.left, self.rows = jobs, make, set(jobs), {}
        self.poll = select.select
        # jobs per token, so that every token fits in one atomic write
        self.per = -(-len(jobs) * _TOKEN // select.PIPE_BUF)
        self.queue, tokens = os.pipe()
        os.write(tokens, b"".join(k.to_bytes(_TOKEN, "little")
                                  for k in range(0, len(jobs), self.per)))
        os.close(tokens)
        self.pids, self.out = [], {}  # result pipe -> what it has sent of a row
        parent = os.getpid()
        try:
            for _ in range(count):
                r, w = os.pipe()
                self.out[r] = bytearray()
                try:
                    pid = os.fork()
                    if pid == 0:
                        self._work(parent, r, w)
                    self.pids.append(pid)
                finally:
                    os.close(w)  # a worker never returns from `_work`
        except OSError:  # no more processes or pipes: fewer workers take the jobs
            pass
        except BaseException:
            self.close(kill=True)
            raise

    def _work(self, parent: int, r: int, w: int):
        """A worker's life: take tokens and send their rows until none is
        left or the parent is gone, then end without unwinding, so that no
        buffer or clean-up of the parent's runs twice."""
        try:
            os.close(r)
            while os.getppid() == parent and (token := os.read(self.queue, _TOKEN)):
                k = int.from_bytes(token, "little")
                for j in range(k, min(k + self.per, len(self.jobs))):
                    row = marshal.dumps((j, _encode(self.make(self.jobs[j]))))
                    data = memoryview(len(row).to_bytes(4, "little") + row)
                    while data:
                        data = data[os.write(w, data):]
        finally:
            os._exit(0)

    def _receive(self, timeout) -> None:
        """Decode what the workers have sent, waiting up to `timeout` seconds
        (None: until one sends or ends) for the first of it."""
        for fd in self.poll(list(self.out), [], [], timeout)[0]:
            data = os.read(fd, 1 << 16)
            if not data:  # the worker has ended
                os.close(fd)
                del self.out[fd]
                continue
            sent = self.out[fd]
            sent += data
            while len(sent) >= 4 and len(sent) >= 4 + (n := int.from_bytes(sent[:4], "little")):
                j, row = marshal.loads(sent[4:4 + n])
                del sent[:4 + n]
                self.rows[self.jobs[j]] = _decode(row)

    def take(self, p):
        """The row of job `p`, as a worker sent it or made here, where this
        process takes tokens while any are left; None if `p` is no job left."""
        if p not in self.left:
            return None
        self.left.remove(p)
        while True:
            self._receive(0)
            if p in self.rows:
                return self.rows.pop(p)
            token = os.read(self.queue, _TOKEN)
            if token:
                k = int.from_bytes(token, "little")
                self.rows.update((q, self.make(q)) for q in self.jobs[k:k + self.per])
            elif self.out:
                self._receive(None)
            else:  # no worker is left to send it
                return self.make(p)

    def close(self, kill: bool) -> None:
        """Close the pipes, so that a worker still writing ends, and reap
        every worker, killed first if `kill`."""
        for fd in (self.queue, *self.out):
            os.close(fd)
        self.out.clear()
        for pid in self.pids:
            try:
                if kill:
                    os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)
            except (ChildProcessError, ProcessLookupError):  # reaped already
                pass


def _batch_rows(base, programs, suite: TestSuite, fuel: int, mode: str):
    """Yield the row of `base`, then the row of each of `programs`, in order,
    by split-stream execution where the batch's schema covers them, on
    forked workers too once the pace of its rows shows `_FORK_AFTER_S` of
    them left (see the module docstring).  Wide rows are cached as
    `outcome_row` caches them."""
    schema = None
    if suite.inputs:
        todo = [p for p in programs if (p, suite, fuel, mode) not in _rows]
        if todo:
            schema = compile_schema(base, todo, suite.inputs[0].space, mode)
    if schema is None:
        for p in (base, *programs):
            yield outcome_row(p, suite, fuel, mode)
        return
    # levels[c]: each distinct (values, fuel left) of the base at cut c -> the
    # inputs that reach cut c in it
    level = {}
    for i, s in enumerate(suite.inputs):
        level.setdefault((s.values, fuel), []).append(i)
    levels = [level]
    base_row = _rows.pop((base, suite, fuel, mode), None)
    if base_row is None or any(cut for cut, _ in schema.sites.values()):
        base_row = [None] * len(suite)
        for step in schema.steps:
            run, level = partial(step, 0), {}
            for state, ins in levels[-1].items():
                out = run_outcome(run, *state)
                if type(out) is tuple:
                    level.setdefault(out, []).extend(ins)
                else:
                    for i in ins:
                        base_row[i] = out
            levels.append(level)
        for (values, _), ins in level.items():
            for i in ins:
                base_row[i] = values
        base_row = tuple(base_row)
    yield _store_row((base, suite, fuel, mode), base_row)
    # (cut, values, fuel) -> the outcome of the base's suffix from there
    memo = {(c, *state): base_row[ins[0]]
            for c, level in enumerate(levels[1:-1], 1) for state, ins in level.items()}
    last = len(schema.steps) - 1  # a step at the last cut ends the run

    def make(p) -> tuple:
        cut, step = schema.sites[p]
        suffix, row = partial(schema.suffix, cut + 1), list(base_row)
        for state, ins in levels[cut].items():  # the base ended before cut elsewhere
            out = run_outcome(step, *state)
            if type(out) is tuple:
                if cut == last:
                    out = out[0]
                else:
                    at = (cut + 1, *out)
                    rest = memo.get(at)
                    if rest is None:
                        rest = memo[at] = run_outcome(suffix, *out)
                    out = rest
            for i in ins:
                row[i] = out
        return tuple(row)

    # the covered programs whose rows are not cached, each once, in order
    jobs = [p for p in dict.fromkeys(programs)
            if p in schema.sites and (p, suite, fuel, mode) not in _rows]
    made, workers, ended, gate = 0, None, False, True
    start = time.perf_counter()
    try:
        for p in programs:
            key = (p, suite, fuel, mode)
            if p not in schema.sites or key in _rows:
                yield outcome_row(p, suite, fuel, mode)
                continue
            row = None
            if workers is not None:
                row = workers.take(p)
            elif made < len(jobs) and jobs[made] is p:
                spent, left = time.perf_counter() - start, len(jobs) - made  # p's row and on
                if (gate and left > 1 and spent >= _FORK_AFTER_S / 10
                        and spent * left >= _FORK_AFTER_S * made):  # the pace of `made` rows
                    gate = False
                    count = min(_spare_cpus(), left - 1)
                    if count > 0:
                        workers = _Workers(jobs[made:], make, count)
                        row = workers.take(p)
                made += 1
            if row is None:
                row = make(p)
            yield _store_row(key, row)
        ended = True
    finally:
        if workers is not None:  # killed if left by an exception or closed early
            workers.close(kill=not ended)


def _reports(spec: Spec, suite: TestSuite, rows):
    """Each row of `rows` with its report against the first, the base's (see
    the module docstring), as (report, row) pairs, the base's own first,
    from the counts its row splits the inputs into.  The others are made as
    the pairs are taken."""
    rows = iter(rows)
    base_row = next(rows)
    inputs = [s.values for s in suite.inputs]
    passing, failing = spec.split(inputs, base_row)
    outside = len(suite) - len(passing) - len(failing)  # inputs outside dom(R) pass vacuously

    def report(kept: int, fixed: int) -> SuiteReport:
        return SuiteReport(outside + kept, fixed, len(failing) - fixed, len(passing) - kept)

    yield report(len(passing), 0), base_row
    for row in rows:
        yield report(spec.count(inputs, row, passing), spec.count(inputs, row, failing)), row


def run_suite(candidate, base, spec: Spec, suite: TestSuite, fuel: int,
              mode: str = "wide") -> SuiteReport:
    """Score base and candidate on every suite input, from their rows."""
    rows = (outcome_row(p, suite, fuel, mode) for p in (base, candidate))
    return list(_reports(spec, suite, rows))[1][0]


def suite_labels(base, programs, spec: Spec, suite: TestSuite, fuel: int, mode: str = "wide"):
    """The label of `base` against itself ("absolutely_correct" or
    "as_correct"), then of each program against `base`, on the suite, as
    `classify(run_suite(...))` gives it, with the row it is folded from:
    (label, row) pairs, made as they are taken, so that the caller keeps
    only the rows it wants.  The labels are folded from the rows of the
    base and of each program (see the module docstring)."""
    pairs = _reports(spec, suite, _batch_rows(base, programs, suite, fuel, mode))
    return ((classify(report), row) for report, row in pairs)


def classify(report: SuiteReport) -> str:
    """Suite-relative verdict for a candidate against its base, from the best
    that holds: absolutely correct, strictly more correct (at least as
    correct and strictly so somewhere), as correct (at least as correct),
    not more correct."""
    if report.cumulabs:
        return "absolutely_correct"
    if report.cumulrel and report.cumulstrict:
        return "strictly_more_correct"
    if report.cumulrel:
        return "as_correct"
    return "not_more_correct"
