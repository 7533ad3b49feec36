import numpy as np
import pytest


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
