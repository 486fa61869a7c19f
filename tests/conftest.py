import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def fermat_report():
    from relcor.studies import fermat

    return fermat.run()


@pytest.fixture
def checks(monkeypatch):
    """The answer of every divergence check made while the test runs.  The
    checks are wrapped where `interp._recurrence` makes them, so the
    compiled programs are dropped before and after, lest one made without
    the wrapper run its checks uncounted.  Only this process's checks are
    seen, so no batch forks workers while the fixture counts."""
    from relcor import suites
    from relcor.lang import interp

    answers = []
    monkeypatch.setattr(suites, "_FORK_AFTER_S", math.inf)
    recurrence = interp._recurrence

    def counted(loop):
        names, check = recurrence(loop)
        return names, lambda *values: answers.append(check(*values)) or answers[-1]

    monkeypatch.setattr(interp, "_recurrence", counted)
    interp.compile_program.cache_clear()
    yield answers
    interp.compile_program.cache_clear()


@pytest.fixture
def no_acceleration(monkeypatch):
    """Wide-mode counting loops iterate, as other loops do, while the test
    runs, so that a test of the divergence check keeps checking them.  The
    compiled programs are dropped before and after, lest one made with
    acceleration run."""
    from relcor.lang import acceleration, interp

    monkeypatch.setattr(acceleration, "closed_form", lambda loop, prefix: None)
    interp.compile_program.cache_clear()
    yield
    interp.compile_program.cache_clear()
