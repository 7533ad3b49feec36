"""Exact 1-D reference for the boxtimes cone at dims (2, 2).

With a one-dimensional kernel spanned by K, membership of M is the sign of
f* = max_t lambda_min(M + t K).  lambda_min(M + t K) is a minimum of linear
functions of t, hence concave, and golden-section maximization over a
bracket that contains the maximizer finds f* to roundoff.  The search shares
no code with the solver behind ``ltshadow.cones.in_boxtimes_cone``, so tests
use it as an independent judge of that oracle's verdicts.
"""

import math

from ltshadow.linalg import max_norm, min_eigenvalue
from ltshadow.blocks import grading_basis


def line_maximum(m):
    """f* = max over t of lambda_min(M + t K), for M on dims (2, 2)."""
    (k,) = grading_basis((2, 2)).block("aa")

    def f(t):
        return min_eigenvalue(m + t * k)

    span = 8.0 * m.shape[0] * (max_norm(m) + 1.0)
    a, b = -span, span
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    e = a + gr * (b - a)
    fc, fe = f(c), f(e)
    evals = 2
    while b - a > 1e-13 * span and evals < 400:
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + gr * (b - a)
            fe = f(e)
        evals += 1
    return f((a + b) / 2)
