"""Global U^2 / U^3 norms on F_p^n: naive enumeration oracles and the
DFT-accelerated engine.

All "norms" here are the unnormalized eighth/fourth power sums, e.g.
u3_eighth_naive(f) = sum over (x,h1,h2,h3) in G^4 of the 8-point cube product.
The naive sums take the last direction in closed form: for real f the cube
product on (x, h1..hd) is D(x) D(x + hd), D the product on (x, h1..h(d-1)),
so the sum over (x, hd) is (sum_x D(x))^2 and only G^d is enumerated.
Indicator (integer-valued) inputs go through exact int64 accumulation so the
identity tests are exact; real inputs use float64.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import Group

NAIVE_CAP = 10 ** 7  # refuse cube sums over more (x, h_1..h_d) tuples than this


def as_values(f, grp: Group) -> np.ndarray:
    v = np.asarray(f)
    if v.shape != (grp.size,):
        raise ValueError(f"function must be dense over {grp.size} elements")
    return v


def _exact(v: np.ndarray):
    """(v as int64, int) for integer-valued v, so sums are exact; else (v, float)."""
    if v.dtype.kind in "biu" or np.all(v == np.round(v)):
        return np.round(v).astype(np.int64), int
    return v, float


def cube_points(grp: Group, x, *hs):
    """The 2^d vertices x + sum_{i in S} h_i of the cube on x and h_1..h_d,
    vertex S at index sum_{i in S} 2^i; arrays of indices broadcast.  Each
    sum is one flat gather add.ravel()[a * N + b], which numpy runs faster
    than the 2-D gather add[a, b]."""
    add, N = grp.add.ravel(), grp.size
    pts = [np.asarray(x)]
    for h in hs:
        pts += [add[pt * N + h] for pt in pts]
    return pts


def common_code(codes: np.ndarray, pts) -> np.ndarray:
    """For each cube of cube_points: the code that all its vertices share,
    or -1 when two vertices have different codes."""
    code = codes[pts[0]]
    same = codes[pts[-1]] == code  # the last vertex has the full broadcast shape
    for pt in pts[1:-1]:
        same &= codes[pt] == code
    return np.where(same, code, -1)


def _cube_sum_naive(f, grp: Group, d: int, name: str):
    """Sum over (x, h_1..h_d) in G^(d+1) of the 2^d-point cube product: the
    2^(d-1)-point products on (x, h_1..h_(d-1)), broadcast over the addition
    table, summed over x and squared (the closed-form sum over h_d)."""
    v = as_values(f, grp)
    N = grp.size
    if N ** (d + 1) > NAIVE_CAP:
        raise ValueError(f"{name}: enumeration too large")
    v, cast = _exact(v)
    pts = cube_points(grp, *np.ix_(*[np.arange(N)] * d))
    t = np.ones((N,) * d, dtype=v.dtype)
    for pt in pts:
        t *= v[pt]
    return cast((t.sum(axis=0) ** 2).sum())


def u3_eighth_naive(f, grp: Group):
    """Sum over G^4, with the last direction h3 in closed form:
    sum_{h1,h2} (sum_x f(x) f(x+h1) f(x+h2) f(x+h1+h2))^2."""
    return _cube_sum_naive(f, grp, 3, "u3_eighth_naive")


def level_set_cube_sums(codes, grp: Group, count: int) -> list:
    """[u3_eighth_naive(codes == k, grp) for k in range(count)], exact ints,
    for codes in range(count), in one pass: a face (x, h1, h2) counts for
    level set k exactly when its four cube points share x's code k, so one
    bincount keyed by (code of x, h1, h2) gives every level set's sums over x,
    which are squared and summed over (h1, h2)."""
    codes = as_values(codes, grp)
    N = grp.size
    if N ** 4 > NAIVE_CAP:
        raise ValueError("level_set_cube_sums: enumeration too large")
    x, h1, h2 = np.ix_(*[np.arange(N)] * 3)
    face = common_code(codes, cube_points(grp, x, h1, h2))
    keys = (face * N + h1) * N + h2
    sums = np.bincount(keys[face >= 0], minlength=count * N * N)
    sums = sums.reshape(count, N * N)
    return [int(s) for s in (sums ** 2).sum(axis=1)]


@lru_cache(maxsize=32)
def _dft_matrix(p: int) -> np.ndarray:
    j = np.arange(p)
    return np.exp(-2j * np.pi * np.outer(j, j) / p)


def dft(f, grp: Group) -> np.ndarray:
    """Unnormalized character sums over Z_p^n, as n sequential length-p
    transforms.  Index r (encoded) gives fhat(r) = sum_x f(x) w^{-r.x}."""
    v = as_values(f, grp).astype(np.complex128)
    cube = v.reshape((grp.p,) * grp.n)
    # the encoded index sum_i c_i p^i puts coordinate i on axis n-1-i of the
    # C-order reshape; every axis is transformed, so the order is immaterial
    W = _dft_matrix(grp.p)
    for axis in range(grp.n):
        cube = np.tensordot(W, cube, axes=([1], [axis]))
        cube = np.moveaxis(cube, 0, axis)
    return cube.reshape(grp.size)


def u2_fourth(f, grp: Group):
    fh = dft(f, grp)
    return float(np.sum(np.abs(fh) ** 4) / grp.size)


def u3_eighth_fast(f, grp: Group):
    """sum_h ||Delta_h f||_{U2}^4 where Delta_h f(x) = f(x) f(x+h),
    with the U2 fourth power evaluated through the Fourier identity."""
    v = as_values(f, grp).astype(np.float64)
    total = 0.0
    for h in range(grp.size):
        g = v * v[grp.add[:, h]]
        total += u2_fourth(g, grp)
    return total


def rewrite_sum_g6(f, grp: Group):
    """sum over (x1,x2,y1,y2,z1,z2) in G^6 of prod_{i,j,k} f(x_i+y_j+z_k).
    Equals p^{2n} * u3_eighth_naive(f).  A literal 6-fold broadcast, so it
    refuses groups with more than 10^6 such tuples."""
    v = as_values(f, grp)
    N = grp.size
    if N ** 6 > 10 ** 6:
        raise ValueError("rewrite_sum_g6: enumeration too large")
    v, cast = _exact(v)
    a = grp.add
    # F3[x, y, z] = f(x + y + z); broadcast axes (x1,x2,y1,y2,z1,z2)
    s2 = a[np.arange(N)[:, None], np.arange(N)[None, :]]
    F3 = v[a[s2[:, :, None], np.arange(N)[None, None, :]]]
    P = (F3[:, :, None, :, None] * F3[:, :, None, None, :]
         * F3[:, None, :, :, None] * F3[:, None, :, None, :])
    # P[x, y1, y2, z1, z2] = prod_{j,k} f(x + y_j + z_k)
    Q = np.einsum("ayzwv,byzwv->", P, P)
    return cast(Q)
