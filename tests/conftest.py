import sys

import pytest

from rcdlab import solvers


@pytest.fixture
def exact_ot_calls(monkeypatch):
    """A list that gains one entry per exact_ot call of any rcdlab module."""
    real, calls = solvers.exact_ot, []

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in [mod for name, mod in sys.modules.items() if name.startswith("rcdlab") and hasattr(mod, "exact_ot")]:
        monkeypatch.setattr(module, "exact_ot", spy)
    return calls


@pytest.fixture
def linprog_calls(monkeypatch):
    """A list that gains one entry per solvers.linprog call: the number of the LP's columns."""
    real, calls = solvers.linprog, []

    def spy(model, c, *args, **kwargs):
        calls.append(len(c))
        return real(model, c, *args, **kwargs)

    monkeypatch.setattr(solvers, "linprog", spy)
    return calls
