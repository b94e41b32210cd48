"""Arithmetic on F_p^n written for the benchmark's input generators and
output checks.

Nothing here calls quadreg: the checks must not reuse the code they time,
and the inputs must not change when quadreg's own generators change.  The
element encoding matches quadreg's (little-endian base-p digits).
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np


class Space:
    """F_p^n with coordinates and an addition table over encoded elements."""

    def __init__(self, p: int, n: int):
        self.p, self.n, self.size = p, n, p ** n
        idx = np.arange(self.size)
        self.coords = np.stack([(idx // p ** k) % p for k in range(n)], axis=1)
        powers = p ** np.arange(n)
        self.add = ((self.coords[:, None, :] + self.coords[None, :, :]) % p) @ powers

    def label_codes(self, L, Q) -> np.ndarray:
        """Atom label of every element as little-endian digits
        (x.r_1, .., x.r_l, x^T M_1 x, .., x^T M_q x)."""
        E = self.coords
        digits = [(E @ np.asarray(r)) % self.p for r in L]
        digits += [np.einsum("xi,ij,xj->x", E, np.asarray(M), E) % self.p
                   for M in Q]
        code = np.zeros(self.size, dtype=np.int64)
        for k, d in enumerate(digits):
            code += d * self.p ** k
        return code

    def u3_eighth(self, f) -> float:
        """sum over (x, h1, h2, h3) of the 8-point cube product of f, as
        sum_h sum_r |FFT(f . f(. + h))(r)|^4 / |G| with numpy's n-d FFT."""
        f = np.asarray(f, dtype=np.float64)
        shifted = f[None, :] * f[self.add]           # row h: f(x) f(x + h)
        cube = shifted.reshape((self.size,) + (self.p,) * self.n)
        spec = np.fft.fftn(cube, axes=tuple(range(1, self.n + 1)))
        return float(np.sum(np.abs(spec) ** 4) / self.size)


def random_symmetric(p: int, n: int, rng) -> list:
    """A nonzero symmetric matrix with entries in F_p."""
    while True:
        M = rng.integers(0, p, size=(n, n))
        M = np.triu(M) + np.triu(M, 1).T
        if M.any():
            return M.tolist()


def random_nonzero_vector(p: int, n: int, rng) -> list:
    while True:
        v = rng.integers(0, p, size=n)
        if v.any():
            return v.tolist()


def random_factor(p: int, n: int, l: int, q: int, rng):
    """(L, Q) with 0 <= l <= 1 nonzero vector (so L is independent) and q
    pairwise-distinct nonzero symmetric matrices."""
    if l > 1:
        raise ValueError("only l <= 1 is generated")
    L = [random_nonzero_vector(p, n, rng) for _ in range(l)]
    Q = []
    while len(Q) < q:
        M = random_symmetric(p, n, rng)
        if M not in Q:
            Q.append(M)
    return L, Q


def _pattern_masks(table, points, weights):
    """For index arrays ``points[..., m]`` of grid points: the set of
    membership patterns over all translates c, as a bitmask over patterns."""
    bits = table[points].astype(np.int32)            # [..., m, c]
    patterns = np.tensordot(bits, weights, axes=([-2], [0]))
    return np.bitwise_or.reduce(np.left_shift(1, patterns), axis=-1)


def rank_mod_p(M, p: int) -> int:
    """Rank of an integer matrix over F_p, by Gaussian elimination."""
    A = np.array(M, dtype=np.int64) % p
    rank = 0
    for col in range(A.shape[1]):
        rows = np.nonzero(A[rank:, col])[0]
        if len(rows) == 0:
            continue
        pivot = rank + rows[0]
        A[[rank, pivot]] = A[[pivot, rank]]
        A[rank] = A[rank] * pow(int(A[rank, col]), -1, p) % p
        others = np.arange(len(A)) != rank
        A[others] = (A[others] - np.outer(A[others, col], A[rank])) % p
        rank += 1
        if rank == len(A):
            break
    return rank


def factor_rank(Q, p: int, n: int) -> int:
    """Least rank over F_p of a nontrivial combination of the matrices
    (n when there are none)."""
    best = n
    for coeffs in product(range(p), repeat=len(Q)):
        if any(coeffs):
            combo = sum(c * np.asarray(M) for c, M in zip(coeffs, Q))
            best = min(best, rank_mod_p(combo, p))
    return best


def shattered_grids(space: Space, member: np.ndarray, k: int,
                    first_b: int | None = None) -> bool:
    """Is some k x k grid {a_i + b_j} shattered by the translates c, i.e. do
    the membership patterns of a_i + b_j + c over all c take all 2^(k^2)
    values?  With ``first_b``, only the grids made of the first a-tuple and
    one of the first ``first_b`` b-tuples (lexicographic order) are tried."""
    want = 2 ** (k * k)
    if want > space.size:
        return False
    add = space.add
    table = member[add]                                # table[x, c] = x + c in A
    tuples = np.array(list(combinations(range(space.size), k)))
    btuples = tuples if first_b is None else tuples[:first_b]
    weights = 2 ** np.arange(k * k, dtype=np.int32)
    full = (1 << want) - 1
    for start in range(0, 1 if first_b else len(tuples), 16):
        a = tuples[start:1 if first_b else start + 16]
        points = add[a[:, None, :, None], btuples[None, :, None, :]]
        points = points.reshape(len(a), len(btuples), k * k)
        if (_pattern_masks(table, points, weights) == full).any():
            return True
    return False


def vc2_dimension(space: Space, member: np.ndarray, kmax: int) -> int:
    best = 0
    for k in range(1, kmax + 1):
        if not shattered_grids(space, member, k):
            break
        best = k
    return best


def vc_dimension(space: Space, member: np.ndarray, kmax: int) -> int:
    """Largest k <= kmax with some a_1..a_k shattered by the translates b."""
    table = member[space.add]
    best = 0
    for k in range(1, kmax + 1):
        atuples = np.array(list(combinations(range(space.size), k)))
        masks = _pattern_masks(table, atuples, 2 ** np.arange(k, dtype=np.int32))
        if not (masks == (1 << 2 ** k) - 1).any():
            break
        best = k
    return best
