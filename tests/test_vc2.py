from itertools import combinations

import numpy as np
import pytest

from quadreg import verify, vc2
from quadreg.factors import QuadraticFactor
from quadreg.generators import generate_set
from quadreg.gf import group


def test_baselines_empty_and_full():
    g = group(3, 2)
    assert verify.vc2_baselines(g) is None
    assert vc2.vc_dim(np.zeros(g.size, dtype=bool), g) == 0
    assert vc2.vc_dim(np.ones(g.size, dtype=bool), g) == 0


@pytest.mark.parametrize("size", [8, 10])
def test_search_refuses_a_set_of_the_wrong_length(size):
    with pytest.raises(ValueError, match="dense over 9"):
        vc2.vc2_search(np.zeros(size, dtype=bool), group(3, 2))


def test_vc_at_least_monotone():
    g = group(3, 2)
    B = QuadraticFactor(3, 2, [], [np.eye(2, dtype=int).tolist()])
    A = B.atom_indicator(((), (1,)))
    k = vc2.vc_dim(A, g, 3)
    for j in range(1, k + 1):
        assert vc2.vc_dim_at_least(A, g, j)[0]
    assert k == 3 or vc2.vc_dim_at_least(A, g, k + 1) == (False, None)


def test_vc2_early_false_when_patterns_exceed_group():
    # 2^{k^2} > |G| makes shattering impossible: at p=3, n=2 no set has
    # vc2 >= 2 (16 patterns, 9 elements)
    g = group(3, 2)
    rng = np.random.default_rng(0)
    A = rng.random(g.size) < 0.5
    assert vc2.vc2_dim_at_least(A, g, 2) == (False, None)
    v, saturated, _ = vc2.vc2_search(A, g, 2)
    assert v <= 1 and saturated is False


def test_translation_invariance_small():
    g = group(3, 2)
    rng = np.random.default_rng(42)
    for _ in range(10):
        A = rng.random(g.size) < rng.uniform(0.2, 0.8)
        assert verify.vc2_translation(A, g, int(rng.integers(0, g.size))) is None


def test_witness_shape():
    g = group(3, 3)
    B = QuadraticFactor(3, 3, [], [np.eye(3, dtype=int).tolist()])
    A = B.atom_indicator(((), (2,)))
    ok, wit = vc2.vc2_dim_at_least(A, g, 1)
    assert ok
    a, b, c_by_pattern = wit
    assert len(a) == 1 and len(b) == 1
    assert len(c_by_pattern) == 2  # both patterns over a single (a,b) pair


def test_kmax_hard_cap():
    assert vc2.KMAX_HARD == 3


# -- reference: one candidate at a time, np.unique on each pattern vector ----

def vc_dim_at_least_ref(A, grp, k):
    if k == 0:
        return True, ()
    add, N, want = grp.add, grp.size, 2 ** k
    for a_tuple in combinations(range(N), k):
        pat = np.zeros(N, dtype=np.int64)
        for i, a in enumerate(a_tuple):
            pat |= A[add[a, :]].astype(np.int64) << i
        if len(np.unique(pat)) == want:
            bs = {int(s): int(np.nonzero(pat == s)[0][0]) for s in range(want)}
            return True, (a_tuple, bs)
    return False, None


def vc2_dim_at_least_ref(A, grp, k):
    if k == 0:
        return True, ()
    add, N, want = grp.add, grp.size, 2 ** (k * k)
    if want > N:
        return False, None
    for a_tuple in combinations(range(N), k):
        U = np.empty((k, N, N), dtype=bool)  # U[i, b, c]: a_i + b + c in A
        for i, a in enumerate(a_tuple):
            U[i] = A[add[add[a, :][:, None], np.arange(N)[None, :]]]
        for b_tuple in combinations(range(N), k):
            pat = np.zeros(N, dtype=np.int64)
            for i in range(k):
                for j, b in enumerate(b_tuple):
                    pat |= U[i, b, :].astype(np.int64) << (i * k + j)
            if len(np.unique(pat)) == want:
                cs = {int(s): int(np.nonzero(pat == s)[0][0])
                      for s in range(want)}
                return True, (a_tuple, b_tuple, cs)
    return False, None


def _sets(n):
    """(name, mask): seeded random sets, a hyperplane coset and an atom
    union.  At n = 3 the random sets leave the 2 x 2 grid search after 4,
    1,414 and 1,421 grids, deep in a batch, while the coset and the atom
    union (VC2 dimension 1) run it to the end; the 0.2 and 0.8 random sets
    would too, so they stay at n = 2, where every search is short."""
    zero = [0] * n
    params = ([(0.2, 1), (0.5, 1), (0.8, 1)] if n == 2
              else [(0.5, 1), (0.5, 4), (0.3, 0)])
    out = [(f"random-{d}-{seed}", generate_set("random", {"density": d}, seed, 3, n))
           for d, seed in params]
    out.append(("coset", generate_set(
        "coset", {"L": [[1] + zero[1:]], "a": [1]}, 0, 3, n)))
    out.append(("atom-union", generate_set(
        "atom-union", {"L": [[0, 1] + zero[2:]], "Q": [np.eye(n, dtype=int).tolist()],
                       "labels": [{"a": [0], "b": [0]}, {"a": [1], "b": [2]}]},
        0, 3, n)))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_batched_search_matches_reference(n):
    g = group(3, n)
    for name, A in _sets(n):
        for k in range(4):
            assert vc2.vc_dim_at_least(A, g, k) == \
                vc_dim_at_least_ref(A, g, k), (name, k)
            assert vc2.vc2_dim_at_least(A, g, k) == \
                vc2_dim_at_least_ref(A, g, k), (name, k)
