"""Serial reference for the stacked cross-checks of ``ltshadow.verify``.

One state at a time, with the same draws from one generator per dims: each
shadow is taken by ``lt_state`` and by ``defining_system_shadow`` alone,
each kernel-invariance pair is projected and read in ss coordinates alone,
and each fiber walk is one ``sample_fiber`` call.  The report's stacked checks project, solve,
eigensolve and walk whole stacks, so tests require the same values bit for
bit.
"""

import numpy as np

from ltshadow.blocks import grading_basis
from ltshadow.fiber import push_and_spread, sample_fiber
from ltshadow.linalg import eigvalsh, max_norm, min_eigenvalue, random_density, rng_from_seed
from ltshadow.processes import random_kernel_leaking_process, random_locally_positive_process
from ltshadow.shadow import defining_system_shadow, lt_state
from ltshadow.verify import nondeterminism_demo_state


def shadow_vs_defining_system(seed):
    worst = 0.0
    for idx, dims in enumerate(((2, 2), (2, 3), (3, 3))):
        d = dims[0] * dims[1]
        rng = rng_from_seed(seed, 100 + idx)
        for _ in range(20):
            rho = random_density(d, rng)
            worst = max(worst, max_norm(lt_state(rho, dims).op - defining_system_shadow(rho, dims)))
    return worst


def kernel_invariance_deviation(seed):
    worst = 0.0
    for idx, dims in enumerate(((2, 2), (2, 3))):
        d = dims[0] * dims[1]
        g = grading_basis(dims)
        kernel = g.block("aa")
        rng = rng_from_seed(seed, 300 + idx)
        for _ in range(10):
            rho = random_density(d, rng)
            kmat = sum(float(c) * kb for c, kb in
                       zip(rng.standard_normal(len(kernel)), kernel))
            t = 0.5 * min_eigenvalue(rho) / max(max_norm(kmat), 1e-12)
            lhs = g.rows("ss") @ lt_state(rho + t * kmat, dims).op.ravel()
            rhs = g.rows("ss") @ lt_state(rho, dims).op.ravel()
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def pure_state_fiber_rigidity(seed):
    worst_rigidity = 0.0
    for idx, dims in enumerate(((2, 2), (2, 3))):
        d = dims[0] * dims[1]
        for k in range(2):
            rng = rng_from_seed(seed, 200 + idx, k)
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            pure = np.outer(v, v)
            sample = sample_fiber(lt_state(pure, dims), n=10, seed=seed + k)
            deviations = np.abs(eigvalsh(sample.representatives - pure)).sum(axis=-1)
            worst_rigidity = max(worst_rigidity, float(deviations.max()))
    return {"max_trace_norm_deviation": worst_rigidity}


def nondeterministic_shadow_demo(seed):
    sample = sample_fiber(lt_state(nondeterminism_demo_state(), (2, 2)), n=40, seed=seed)
    leaky = random_kernel_leaking_process((2, 2), seed=seed)
    local = random_locally_positive_process((2, 2), seed=seed)
    return {"fiber_points": sample.n_accepted,
            "leaky_diameter": push_and_spread(sample, leaky).diameter,
            "local_diameter": push_and_spread(sample, local).diameter}
