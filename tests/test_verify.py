import math
from itertools import product

import numpy as np
import pytest

from quadreg import gf
from quadreg.factors import QuadraticFactor
from quadreg.generators import random_factor
from quadreg.verify import count_bad_w_tuples, count_bad_x
from reference import bad_x_count, decode, mat_mul_vec


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


def factor_with_q(p, n, q, rng):
    """A random factor with l <= 1 and exactly q matrices."""
    while (B := random_factor(p, n, 1, q, rng)).q != q:
        pass
    return B


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


def test_count_bad_w_tuples_invertible_matrix_n4():
    # with M invertible, M w_1..M w_4 are independent exactly when the w's
    # are, which |GL_4(F_p)| tuples are; at n = 4 nothing is pruned early
    p, n = 3, 4
    B = QuadraticFactor(p, n, [], [np.eye(n, dtype=int).tolist()])
    gl4 = math.prod(p ** n - p ** i for i in range(n))
    assert count_bad_w_tuples(B) == p ** (4 * n) - gl4


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("q", [1, 2])
def test_count_bad_x_matches_rank_per_x(p, q):
    rng = np.random.default_rng(10 * p + q)
    counts = []
    for _ in range(3):
        B = factor_with_q(p, 4, q, rng)
        for size in range(3):
            S = rng.integers(0, B.grp.size, size=size).tolist()
            counts.append(count_bad_x(B, S))
            assert counts[-1] == bad_x_count(B, S), (B, S)
    assert any(c not in (None, 0) for c in counts)
    # a base that holds the rows M_j w twice is dependent: nothing to count
    assert count_bad_x(B, [1, 1]) is None and bad_x_count(B, [1, 1]) is None
