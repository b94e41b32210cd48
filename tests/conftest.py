import numpy as np

from quadreg.generators import random_factor


def seeded_factors(p, n, count, lmax, qmax, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    guard = 0
    while len(out) < count and guard < 50 * count:
        out.append(random_factor(p, n, lmax, qmax, rng))
        guard += 1
    return out
