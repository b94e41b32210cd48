import numpy as np

from quadreg import vc2
from quadreg.factors import QuadraticFactor
from quadreg.gf import group


def translate(A, g, t):
    out = np.zeros(g.size, dtype=bool)
    out[g.add[np.nonzero(A)[0], t]] = True
    return out


def test_baselines_empty_and_full():
    g = group(3, 2)
    empty = np.zeros(g.size, dtype=bool)
    full = np.ones(g.size, dtype=bool)
    assert vc2.vc_dim(empty, g) == 0
    assert vc2.vc_dim(full, g) == 0
    assert vc2.vc2_dim(empty, g) == (0, False)
    assert vc2.vc2_dim(full, g) == (0, False)


def test_vc_at_least_monotone():
    g = group(3, 2)
    B = QuadraticFactor(3, 2, [], [np.eye(2, dtype=int).tolist()])
    A = B.atom_indicator(((), (1,)))
    k = vc2.vc_dim(A, g, 3)
    for j in range(1, k + 1):
        assert vc2.vc_dim_at_least(A, g, j)
    assert not vc2.vc_dim_at_least(A, g, k + 1) or k == 3


def test_vc2_early_false_when_patterns_exceed_group():
    # 2^{k^2} > |G| makes shattering impossible: at p=3, n=2 no set has
    # vc2 >= 2 (16 patterns, 9 elements)
    g = group(3, 2)
    rng = np.random.default_rng(0)
    A = rng.random(g.size) < 0.5
    assert not vc2.vc2_dim_at_least(A, g, 2)
    v, saturated = vc2.vc2_dim(A, g, 2)
    assert v <= 1 and saturated is False


def test_translation_invariance_small():
    g = group(3, 2)
    rng = np.random.default_rng(42)
    for _ in range(10):
        A = rng.random(g.size) < rng.uniform(0.2, 0.8)
        t = int(rng.integers(0, g.size))
        At = translate(A, g, t)
        assert vc2.vc_dim(A, g, 2) == vc2.vc_dim(At, g, 2)
        assert vc2.vc2_dim(A, g, 2) == vc2.vc2_dim(At, g, 2)


def test_witness_shape():
    g = group(3, 3)
    B = QuadraticFactor(3, 3, [], [np.eye(3, dtype=int).tolist()])
    A = B.atom_indicator(((), (2,)))
    ok, wit = vc2.vc2_dim_at_least(A, g, 1, witness=True)
    assert ok
    a, b, c_by_pattern = wit
    assert len(a) == 1 and len(b) == 1
    assert len(c_by_pattern) == 2  # both patterns over a single (a,b) pair


def test_kmax_hard_cap():
    assert vc2.KMAX_HARD == 3
