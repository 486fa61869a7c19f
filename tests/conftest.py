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
    the wrapper run its checks uncounted."""
    from relcor.lang import interp

    answers = []
    recurrence = interp._recurrence

    def counted(loop):
        check = recurrence(loop)
        return lambda *values: answers.append(check(*values)) or answers[-1]

    monkeypatch.setattr(interp, "_recurrence", counted)
    interp.compile_program.cache_clear()
    yield answers
    interp.compile_program.cache_clear()
