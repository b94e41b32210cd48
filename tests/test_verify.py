import math
from itertools import product

import numpy as np
import pytest

from quadreg import gf, verify
from quadreg.chains import corollary_chain_bound, f_table
from quadreg.factors import QuadraticFactor
from quadreg.generators import random_factor
from quadreg.verify import CHAIN_RHOS, count_bad_w_tuples, count_bad_x
from reference import bad_x_count, chain_bounds_walk, decode, mat_mul_vec


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


@pytest.mark.parametrize("ri", range(4))
def test_chain_bounds_matches_the_walk_on_corrupted_tables(ri, monkeypatch):
    rho, C, d = CHAIN_RHOS[ri]
    table = f_table(rho, 7)
    strings = list(table)
    rng = np.random.default_rng(ri)
    details = []
    for trial in range(60):
        bad = dict(table)
        # one corrupted entry, two in every third trial (the first reported)
        for i in rng.choice(len(strings) - 1, 1 + (trial % 3 == 0)) + 1:
            s = strings[i]
            a, b = table[s]
            lbound = corollary_chain_bound(C, d, len(s), s.count(1))[0]
            bad[s] = [(a, b + 1), (a, b - 1), (-1, b), (a + 1, b),
                      (lbound + 1, b)][rng.integers(5)]
        monkeypatch.setattr(verify, "f_table", lambda rho, length: bad)
        details.append(verify.chain_bounds(rho, C, d, 7))
        assert details[-1] == chain_bounds_walk(rho, C, d, bad)
    assert None in details and len(set(details)) > 10


def test_chain_bounds_of_no_strings():
    assert all(verify.chain_bounds(*rcd, length) is None
               for rcd in CHAIN_RHOS for length in (0, -1))
