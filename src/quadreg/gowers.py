"""Global U^2 / U^3 norms on F_p^n: naive enumeration oracles and the
DFT-accelerated engine.

All "norms" here are the unnormalized eighth/fourth power sums, e.g.
u3_eighth_naive(f) = sum over (x,h1,h2,h3) in G^4 of the 8-point cube product.
Indicator (integer-valued) inputs go through exact int64 accumulation so the
identity tests are exact; real inputs use float64.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import Group

NAIVE_CAP = 10 ** 7  # refuse G^4 enumerations beyond this many tuples


def as_values(f, grp: Group) -> np.ndarray:
    v = np.asarray(f)
    if v.shape != (grp.size,):
        raise ValueError(f"function must be dense over {grp.size} elements")
    return v


def _is_integral(v: np.ndarray) -> bool:
    if np.issubdtype(v.dtype, np.integer) or v.dtype == bool:
        return True
    return bool(np.all(v == np.round(v)))


def u2_fourth_naive(f, grp: Group):
    v = as_values(f, grp)
    N = grp.size
    if N ** 3 > NAIVE_CAP:
        raise ValueError("u2_fourth_naive: enumeration too large")
    a = grp.add
    x = np.arange(N)[:, None, None]
    h1 = np.arange(N)[None, :, None]
    h2 = np.arange(N)[None, None, :]
    xh1 = a[x, h1]
    xh2 = a[x, h2]
    xh12 = a[xh1, h2]
    if _is_integral(v):
        w = np.round(v).astype(np.int64)
        return int((w[x] * w[xh1] * w[xh2] * w[xh12]).sum())
    return float((v[x] * v[xh1] * v[xh2] * v[xh12]).sum())


def u3_eighth_naive(f, grp: Group):
    """Direct sum over G^4 (broadcast over the addition table)."""
    v = as_values(f, grp)
    N = grp.size
    if N ** 4 > NAIVE_CAP:
        raise ValueError("u3_eighth_naive: enumeration too large")
    a = grp.add
    x = np.arange(N)[:, None, None, None]
    h1 = np.arange(N)[None, :, None, None]
    h2 = np.arange(N)[None, None, :, None]
    h3 = np.arange(N)[None, None, None, :]
    xh1 = a[x, h1]
    xh2 = a[x, h2]
    xh3 = a[x, h3]
    xh12 = a[xh1, h2]
    xh13 = a[xh1, h3]
    xh23 = a[xh2, h3]
    xh123 = a[xh12, h3]
    if _is_integral(v):
        w = np.round(v).astype(np.int64)
        t = w[x] * w[xh1] * w[xh2] * w[xh3]
        t *= w[xh12] * w[xh13] * w[xh23] * w[xh123]
        return int(t.sum())
    t = v[x] * v[xh1] * v[xh2] * v[xh3]
    t *= v[xh12] * v[xh13] * v[xh23] * v[xh123]
    return float(t.sum())


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
    integral = _is_integral(v)
    if integral:
        v = np.round(v).astype(np.int64)
    a = grp.add
    # F3[x, y, z] = f(x + y + z); broadcast axes (x1,x2,y1,y2,z1,z2)
    s2 = a[np.arange(N)[:, None], np.arange(N)[None, :]]
    F3 = v[a[s2[:, :, None], np.arange(N)[None, None, :]]]
    P = (F3[:, :, None, :, None] * F3[:, :, None, None, :]
         * F3[:, None, :, :, None] * F3[:, None, :, None, :])
    # P[x, y1, y2, z1, z2] = prod_{j,k} f(x + y_j + z_k)
    Q = np.einsum("ayzwv,byzwv->", P, P)
    return int(Q) if integral else float(Q)
