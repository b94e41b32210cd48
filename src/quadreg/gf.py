"""Exact linear algebra over F_p and the ambient group F_p^n.

Vectors are tuples of ints in [0, p-1], matrices are tuples of row-tuples.
Group elements are also stored in an encoded form: a single int whose
little-endian base-p digits are the coordinates (coord[0] least significant).
That makes dense length-p^n arrays usable as functions on the group.
"""

from __future__ import annotations

import reprlib
from functools import lru_cache

import numpy as np

_SMALL_PRIMES = {3, 5, 7, 11, 13, 17, 19, 23}
# largest group built: the add table and the bq and VC tables are (p^n, p^n)
# arrays, 8 p^(2n) bytes in int64 (38 MB at 3^7, 344 MB at 3^8)
MAX_GROUP_SIZE = 3 ** 7


def as_int(x, what: str) -> int:
    """x as an int if it is a JSON or numpy integer, not a float, bool or str."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, not {reprlib.repr(x)}")
    return int(x)


def check_odd_prime(p: int) -> None:
    if p not in _SMALL_PRIMES:
        raise ValueError(f"p must be a small odd prime, got {p}")


class Group:
    """The group F_p^n with precomputed coordinates and addition tables."""

    def __init__(self, p: int, n: int):
        check_odd_prime(p)
        if n < 1:
            raise ValueError("n must be >= 1")
        # p > 2, so an n past the limit's bit length is past the limit; that
        # test comes first, so a huge n is never raised to
        if n > MAX_GROUP_SIZE.bit_length() or p ** n > MAX_GROUP_SIZE:
            raise ValueError(f"p^n = {p}^{n} exceeds the largest supported "
                             f"group size {MAX_GROUP_SIZE}")
        self.p = p
        self.n = n
        self.size = p ** n
        # coords[i] = decoded vector of the element encoded as i, shape (size, n)
        digits = np.empty((self.size, n), dtype=np.int64)
        idx = np.arange(self.size)
        for k in range(n):
            digits[:, k] = (idx // (p ** k)) % p
        self.coords = digits
        # add[a, b] = encoding of (decode(a) + decode(b)) mod p, summed one
        # coordinate at a time so that no (p^n, p^n, n) array is built
        self.add = sum((digits[:, None, k] + digits[None, :, k]) % p * p ** k
                       for k in range(n))
        self.neg = ((-digits) % p) @ p ** np.arange(n)

    def __repr__(self):
        return f"Group(p={self.p}, n={self.n})"


@lru_cache(maxsize=None)
def group(p: int, n: int) -> Group:
    return Group(p, n)


# --- exact row reduction ----------------------------------------------------

def rref(rows, p):
    """Reduced row-echelon form. Input: iterable of row tuples/lists.
    Returns (list of nonzero echelon rows, rank)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], 0
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        # find pivot
        piv = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] % p != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[pivot_row], mat[piv] = mat[piv], mat[pivot_row]
        inv = pow(mat[pivot_row][col] % p, -1, p)
        mat[pivot_row] = [(inv * v) % p for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % p != 0:
                c = mat[r][col] % p
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    ech = [tuple(r) for r in mat[:pivot_row]]
    return ech, pivot_row


def mat_rank(rows, p) -> int:
    return rref(rows, p)[1]


def row_space_basis(rows, p):
    """Echelon basis of the row space."""
    return rref(rows, p)[0]


def is_independent(vectors, p) -> bool:
    vs = list(vectors)
    return mat_rank(vs, p) == len(vs)


def extend_to_independent(L, V, p):
    """Greedy: append vectors of V (in order) to L when they enlarge the span.
    L must already be independent."""
    out = [tuple(v) for v in L]
    if not is_independent(out, p):
        raise ValueError("base list L is linearly dependent")
    for v in map(tuple, V):
        if is_independent(out + [v], p):
            out.append(v)
    return out


def mat_rank_bruteforce(rows, p) -> int:
    """Oracle for tests: how many rows leave the span grown so far, by
    enumerating the span. Only sane for few/short rows."""
    span, rank = {tuple(0 for _ in rows[0])} if rows else set(), 0
    for r in map(tuple, rows):
        if r not in span:
            span = {tuple((a + c * b) % p for a, b in zip(s, r))
                    for s in span for c in range(p)}
            rank += 1
    return rank
