"""Seeded generators of structured test sets and random factors."""

from __future__ import annotations

import numpy as np

from .factors import QuadraticFactor
from .gf import group, is_independent


def random_factor(p, n, lmax, qmax, rng) -> QuadraticFactor:
    """Random factor with l <= lmax independent vectors and q <= qmax
    distinct symmetric matrices."""
    l = int(rng.integers(0, lmax + 1))
    q = int(rng.integers(0, qmax + 1))
    L = []
    guard = 0
    while len(L) < l and guard < 200:
        v = tuple(int(c) for c in rng.integers(0, p, size=n))
        if any(v) and is_independent(L + [v], p):
            L.append(v)
        guard += 1
    Q = []
    guard = 0
    while len(Q) < q and guard < 200:
        M = rng.integers(0, p, size=(n, n))
        # diagonal doubles, still uniform enough for tests
        M = tuple(map(tuple, ((M + M.T) % p).tolist()))
        if any(any(row) for row in M) and M not in Q:
            Q.append(M)
        guard += 1
    return QuadraticFactor(p, n, L, Q)


def generate_set(kind: str, params: dict, seed: int, p: int, n: int) -> np.ndarray:
    """kinds: random(density), atom-union(factor, labels),
    quadratic-variety(M, value), coset(L, a)."""
    g = group(p, n)
    rng = np.random.default_rng(seed)
    if kind == "random":
        density = params.get("density", 0.5)
        if not 0 <= density <= 1:  # NaN too
            raise ValueError(f"density must lie in [0, 1], not {density}")
        return rng.random(g.size) < density
    # a quadratic variety and a coset are one-atom unions
    if kind == "quadratic-variety":
        params = {"Q": [params["M"]],
                  "labels": [{"a": [], "b": [params.get("value", 0)]}]}
    elif kind == "coset":
        params = {"L": params["L"], "labels": [{"a": params["a"], "b": []}]}
    elif kind != "atom-union":
        raise ValueError(f"unknown set kind {kind!r}")
    B = QuadraticFactor(p, n, params.get("L", []), params.get("Q", []))
    mask = np.zeros(g.size, dtype=bool)
    for lab in params["labels"]:
        if (len(lab["a"]), len(lab["b"])) != (B.l, B.q):
            raise ValueError(f"label {lab} needs {B.l} a and {B.q} b digits")
        mask |= B.atom_indicator((lab["a"], lab["b"]))
    return mask
