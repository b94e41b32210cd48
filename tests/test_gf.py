import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadreg import gf, verify
from quadreg.gf import group
from reference import bilinear, decode, encode

primes = st.sampled_from([3, 5, 7])


def small_matrix(p, rows, cols, rng):
    return [tuple(int(v) for v in rng.integers(0, p, size=cols))
            for _ in range(rows)]


def test_odd_prime_guard():
    for bad in (2, 4, 9, 1, 0):
        with pytest.raises(ValueError):
            gf.check_odd_prime(bad)
    for ok in (3, 5, 7, 11):
        gf.check_odd_prime(ok)


@given(primes, st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_encode_decode_roundtrip(p, n, data):
    g = group(p, n)
    idx = data.draw(st.integers(0, g.size - 1))
    assert encode(g, decode(g, idx)) == idx
    vec = tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
    assert decode(g, encode(g, vec)) == vec


def test_encoding_is_little_endian():
    g = group(3, 2)
    # coord[0] is the least significant digit
    assert decode(g, 1) == (1, 0)
    assert decode(g, 3) == (0, 1)
    assert encode(g, (2, 1)) == 5


@given(primes, st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_group_tables(p, n, data):
    g = group(p, n)
    x = data.draw(st.integers(0, g.size - 1))
    y = data.draw(st.integers(0, g.size - 1))
    assert g.add[x, g.neg[x]] == 0
    assert g.add[x, 0] == x
    assert g.add[x, y] == g.add[y, x]
    xv, yv = decode(g, x), decode(g, y)
    assert decode(g, int(g.add[x, y])) == tuple((a + b) % p for a, b in zip(xv, yv))


def test_rank_known_example():
    # [TRIVIAL] spec worked example: rank over F_3 of [[1,2],[2,1]] is 1
    # (second row is 2x the first mod 3).
    assert gf.mat_rank([[1, 2], [2, 1]], 3) == 1
    assert gf.mat_rank([[1, 2], [2, 2]], 3) == 2
    assert gf.mat_rank([[0, 0], [0, 0]], 3) == 0


@given(primes, st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 9))
@settings(max_examples=150, deadline=None)
def test_rank_matches_bruteforce(p, rows, cols, seed):
    M = small_matrix(p, rows, cols, np.random.default_rng(seed))
    assert verify.rank_identity(M, p) is None


@given(primes, st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 9))
@settings(max_examples=80, deadline=None)
def test_rank_equals_transpose_rank(p, rows, cols, seed):
    M = small_matrix(p, rows, cols, np.random.default_rng(seed))
    assert verify.rank_identity(M, p) is None


def test_row_space_basis_is_independent_and_spans():
    p = 3
    M = [(1, 2, 0), (2, 1, 0), (0, 0, 0)]
    B = gf.row_space_basis(M, p)
    assert gf.is_independent(B, p)
    assert len(B) == gf.mat_rank(M, p)
    # every original row is in the span
    span = {(0, 0, 0)}
    for _ in range(len(B)):
        span = {tuple((a + c * b) % p for a, b in zip(s, v))
                for s in span for v in B for c in range(p)}
    for r in M:
        assert tuple(r) in span


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_extend_to_independent(seed):
    p, n = 3, 4
    rng = np.random.default_rng(seed)
    L = []
    for _ in range(2):
        v = tuple(int(c) for c in rng.integers(0, p, size=n))
        if any(v) and gf.is_independent(L + [v], p):
            L.append(v)
    V = small_matrix(p, 3, n, rng)
    out = gf.extend_to_independent(L, V, p)
    assert out[: len(L)] == L
    assert gf.is_independent(out, p)
    assert gf.mat_rank(out, p) == gf.mat_rank(L + V, p)


def test_extend_rejects_dependent_base():
    with pytest.raises(ValueError):
        gf.extend_to_independent([(1, 0), (2, 0)], [], 3)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_quad_bilinear_polarization(seed):
    p, n = 5, 3
    rng = np.random.default_rng(seed)
    M = small_matrix(p, n, n, rng)
    M = [tuple((M[i][j] + M[j][i]) % p for j in range(n)) for i in range(n)]
    x = tuple(int(c) for c in rng.integers(0, p, size=n))
    y = tuple(int(c) for c in rng.integers(0, p, size=n))
    xy = tuple((a + b) % p for a, b in zip(x, y))
    lhs = bilinear(M, xy, xy, p)
    rhs = (bilinear(M, x, x, p) + bilinear(M, y, y, p)
           + bilinear(M, x, y, p) + bilinear(M, y, x, p)) % p
    assert lhs == rhs
    # symmetry of the bilinear form for symmetric M
    assert bilinear(M, x, y, p) == bilinear(M, y, x, p)
