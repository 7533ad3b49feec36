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


@pytest.fixture
def eigensolve_log(monkeypatch):
    """List of (name, matrices) for every numpy eigh and eigvalsh call in the
    test; a stacked call on an (R, d, d) array counts R matrices.  Clear it
    to restart the count."""
    log = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)

        def logged(a, *args, _solve=solve, _name=name, **kwargs):
            a = np.asarray(a)
            log.append((_name, int(np.prod(a.shape[:-2]))))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, logged)
    return log
