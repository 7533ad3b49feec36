"""Serial reference for the per-representative work of ``ltshadow.fiber``.

One matrix at a time: each walk point is validated on its own (positive
within REP_PSD_TOL, trace within REP_TRACE_TOL of the shadow's, shadow
within REP_SHADOW_TOL in max-norm), and each representative is pushed,
tested for positivity and projected alone, with every pairwise trace-norm
distance eigensolved.  The sampler and the push run the same checks on
stacks, so tests require the same verdicts, the same counts and spreads
within 1e-12.
"""

import numpy as np

from ltshadow.fiber import REP_PSD_TOL, REP_SHADOW_TOL, REP_TRACE_TOL
from ltshadow.linalg import max_norm, min_eigenvalue, trace_norm
from ltshadow.shadow import local_shadow_matrix


def valid_representative(x, shadow):
    if min_eigenvalue(x) < -REP_PSD_TOL:
        return False
    if abs(float(np.trace(x)) - shadow.trace) > REP_TRACE_TOL:
        return False
    return max_norm(local_shadow_matrix(x, shadow.dims) - shadow.op) <= REP_SHADOW_TOL


def push_and_spread(representatives, proc):
    """(n, excluded, diameter, mean_pairwise): images that fail positivity
    are excluded, the rest are compared pairwise in trace norm."""
    shadows = []
    excluded = 0
    for rep in representatives:
        image = proc.apply(rep)
        if min_eigenvalue(image) < -REP_PSD_TOL:
            excluded += 1
            continue
        shadows.append(local_shadow_matrix(image, proc.out_dims))
    dists = [trace_norm(shadows[i] - shadows[j])
             for i in range(len(shadows)) for j in range(i)]
    mean = sum(dists) / len(dists) if dists else 0.0
    return len(shadows), excluded, max(dists, default=0.0), mean
