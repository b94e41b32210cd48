from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadreg import gowers, verify
from quadreg.gf import group
from reference import u2_fourth_naive


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cube_points_are_subset_sums(d):
    g = group(3, 2)
    rng = np.random.default_rng(d)
    x, *hs = rng.integers(0, g.size, size=(d + 1, 50))
    pts = gowers.cube_points(g, x, *hs)
    assert len(pts) == 2 ** d
    for S, pt in enumerate(pts):
        want = g.coords[x] + sum(g.coords[h] for i, h in enumerate(hs)
                                 if S >> i & 1)
        assert np.array_equal(g.coords[pt], want % g.p)


def literal_cube_sum(f, g, d):
    """The definition: sum over every (x, h_1..h_d) in G^(d+1) of the product
    of f over the 2^d vertices x + sum_{i in S} h_i, one scalar add at a time."""
    total = 0
    for x, *hs in product(range(g.size), repeat=d + 1):
        pts = [x]
        for h in hs:
            pts += [int(g.add[pt, h]) for pt in pts]
        term = 1
        for pt in pts:
            term *= f[pt]
        total += term
    return total


@pytest.mark.parametrize("kind", ["int", "float"])
@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_naive_sums_match_literal_loop(p, n, kind):
    g = group(p, n)
    rng = np.random.default_rng(p * 10 + n)
    for _ in range(3):
        if kind == "int":
            f = rng.integers(-2, 3, size=g.size)
        else:
            f = rng.uniform(-1, 1, size=g.size)
        for fn, d in [(u2_fourth_naive, 2), (gowers.u3_eighth_naive, 3)]:
            got, want = fn(f, g), literal_cube_sum(f.tolist(), g, d)
            if kind == "int":
                assert isinstance(got, int) and got == want
            else:
                assert abs(got - want) <= 1e-12 * abs(want)


@given(st.integers(0, 10 ** 9), st.sampled_from([(3, 1), (3, 2), (5, 1)]))
@settings(max_examples=40, deadline=None)
def test_u2_fourier_matches_naive(seed, pn):
    p, n = pn
    g = group(p, n)
    f = np.random.default_rng(seed).uniform(-1, 1, size=g.size)
    a = gowers.u2_fourth(f, g)
    b = u2_fourth_naive(f, g)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


@given(st.integers(0, 10 ** 9), st.sampled_from([(3, 1), (3, 2), (5, 1)]))
@example(None, (3, 2))
@example(None, (3, 3))
@settings(max_examples=25, deadline=None)
def test_u3_fast_matches_naive(seed, pn):
    p, n = pn
    g = group(p, n)
    if seed is None:  # 50 functions drawn in turn from one fixed stream
        fs = np.random.default_rng(101).uniform(-1, 1, size=(50, g.size))
    else:
        fs = [np.random.default_rng(seed).uniform(-1, 1, size=g.size)]
    for f in fs:
        a = gowers.u3_eighth_fast(f, g)
        b = gowers.u3_eighth_naive(f, g)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_u3_of_constant_one():
    for p, n in [(3, 1), (3, 2)]:
        g = group(p, n)
        assert abs(gowers.u3_eighth_fast(np.ones(g.size), g) - g.size ** 4) < 1e-6
        assert gowers.u3_eighth_naive(np.ones(g.size), g) == g.size ** 4


def test_u3_naive_exact_for_indicators():
    g = group(3, 2)
    rng = np.random.default_rng(0)
    A = rng.random(g.size) < 0.5
    val = gowers.u3_eighth_naive(A, g)
    assert isinstance(val, int)
    assert val >= 0


@given(st.integers(0, 10 ** 9))
@settings(max_examples=25, deadline=None)
def test_u3_shift_invariance(seed):
    g = group(3, 2)
    rng = np.random.default_rng(seed)
    f = rng.uniform(-1, 1, size=g.size)
    t = int(rng.integers(0, g.size))
    shifted = f[g.add[:, t]]
    a = gowers.u3_eighth_fast(f, g)
    b = gowers.u3_eighth_fast(shifted, g)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


@given(st.integers(0, 10 ** 9))
@settings(max_examples=25, deadline=None)
def test_u3_nonnegative_and_bounded(seed):
    g = group(3, 2)
    f = np.random.default_rng(seed).uniform(-1, 1, size=g.size)
    v = gowers.u3_eighth_fast(f, g)
    assert v >= -1e-9
    assert v <= g.size ** 4 + 1e-6  # |pi_f| <= 1 termwise


@given(st.integers(0, 10 ** 9), st.sampled_from([1, 2]))
@settings(max_examples=20, deadline=None)
def test_rewrite_sum_identity(seed, n):
    g = group(3, n)
    f = np.random.default_rng(seed).uniform(-1, 1, size=g.size)
    assert verify.rewrite_identity(f, g) is None


@pytest.mark.parametrize("fn,n", [(u2_fourth_naive, 5),
                                  (gowers.u3_eighth_naive, 4),
                                  (gowers.rewrite_sum_g6, 3)])
def test_naive_sums_refuse_large_groups(fn, n):
    g = group(3, n)
    with pytest.raises(ValueError, match="enumeration too large"):
        fn(np.ones(g.size), g)
