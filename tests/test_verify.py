from itertools import product

import numpy as np

from quadreg import gf
from quadreg.generators import random_factor
from quadreg.verify import count_bad_w_tuples
from reference import decode, mat_mul_vec


def direct_bad_w_tuples(B):
    """Tuples (w_1..w_4) whose rows L u {M w_i} have rank below their count."""
    g = B.grp
    images = [[mat_mul_vec(M, decode(g, w), B.p) for M in B.Q]
              for w in range(g.size)]
    bad = 0
    for ws in product(range(g.size), repeat=4):
        rows = list(B.L) + [v for w in ws for v in images[w]]
        bad += gf.mat_rank(rows, B.p) < len(rows)
    return bad


def test_count_bad_w_tuples_matches_direct_count():
    rng = np.random.default_rng(3)
    wanted = {(0, 0), (0, 1), (1, 1)}
    found = {}
    while wanted - set(found):
        B = random_factor(3, 2, 1, 1, rng)
        found.setdefault(B.complexity(), B)
    for lq in sorted(wanted):
        B = found[lq]
        assert count_bad_w_tuples(B) == direct_bad_w_tuples(B), lq
