import numpy as np
import pytest


@pytest.fixture
def eigensolves(monkeypatch):
    """Counter of numpy eigensolver calls (eigh and eigvalsh) in the test;
    reset it by assigning ``eigensolves["n"] = 0``."""
    calls = {"n": 0}
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)

        def counted(*args, _solve=solve, **kwargs):
            calls["n"] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
