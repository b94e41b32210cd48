"""Brute-force VC and VC2 dimension of subsets of F_p^n.

The shattering definitions use the group operation (addition here):
VC: a_i + b_S in A iff i in S; VC2: a_i + b_j + c_S in A iff (i,j) in S.
Exhaustive search over the candidates in lexicographic order (a-tuples for
VC; (a, b) grids for VC2, a outer), batched: the membership patterns of a
batch of candidates over all translates are packed into integer codes
(bit i for a_i, bit i*k + j for a_i + b_j) with one gather from the table
inA[x + c], and the first candidate whose codes take all 2^m values is the
witness.  Batches start at one candidate, so early exits stay cheap, and
double up to _BATCH_ENTRIES gathered entries.  At n = 3 a VC2 dimension-1
set runs all C(27, 2)^2 = 123,201 grids of the k = 2 search in about 0.1 s.
Both searches return (found, witness): () at k = 0, None when not found.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb

import numpy as np

from .gf import Group
from .gowers import as_values

KMAX_HARD = 3

_BATCH_ENTRIES = 1 << 16  # candidates x points x translates per batch


def _search_mask(A, grp: Group, k: int) -> np.ndarray:
    if k > KMAX_HARD:
        raise ValueError(f"k > {KMAX_HARD} refused")
    return as_values(A, grp).astype(bool)


def _first_shattered(T: np.ndarray, points, count: int, m: int):
    """First candidate g < count whose m points x have membership patterns
    T[x, c] (bit i for point i) taking all 2^m values over the translates c.
    `points(lo, hi)` gives the (hi - lo, m) points of candidates lo..hi-1 and
    is called on consecutive ranges.  Returns (g, its points,
    {pattern: first c}) or None."""
    N = T.shape[1]
    want = 1 << m
    weights = (1 << np.arange(m, dtype=np.int32))[:, None]
    cap = max(1, _BATCH_ENTRIES // (m * N))
    lo, size = 0, 1
    while lo < count:
        hi = min(count, lo + size)
        pts = points(lo, hi)
        codes = (T[pts] * weights).sum(axis=1)  # (batch, N)
        seen = np.zeros((hi - lo, want), dtype=bool)
        seen[np.arange(hi - lo)[:, None], codes] = True
        full = np.flatnonzero(seen.all(axis=1))
        if full.size:
            r = int(full[0])
            _, first = np.unique(codes[r], return_index=True)
            return lo + r, pts[r], dict(enumerate(first.tolist()))
        lo, size = hi, min(2 * size, cap)
    return None


def vc_dim_at_least(A, grp: Group, k: int):
    """(found, (a, {pattern: b})): exists (a_1..a_k) and translates b_S
    realizing every membership pattern S subseteq [k]?  Distinct a_i WLOG
    (duplicates can't shatter)."""
    inA = _search_mask(A, grp, k)
    if k == 0:
        return True, ()
    N = grp.size
    tuples = combinations(range(N), k)

    def points(lo, hi):  # the a-tuples themselves: T[a, b] is a + b in A
        return np.array(list(islice(tuples, hi - lo)), dtype=np.intp)

    found = _first_shattered(inA[grp.add], points, comb(N, k), k)
    if found is None:
        return False, None
    _, a, bs = found
    return True, (tuple(a.tolist()), bs)


def vc2_dim_at_least(A, grp: Group, k: int):
    """(found, (a, b, {pattern: c})): exists a k x k grid (a_i + b_j)
    shattered by translates c_S over all 2^(k^2) patterns?"""
    inA = _search_mask(A, grp, k)
    if k == 0:
        return True, ()
    N = grp.size
    if 2 ** (k * k) > N:
        return False, None
    add = grp.add
    tup = np.array(list(combinations(range(N), k)), dtype=np.intp)
    M = len(tup)

    def points(lo, hi):  # grid g is (tup[g // M], tup[g % M]); a_i + b_j
        g = np.arange(lo, hi)
        grid = add[tup[g // M][:, :, None], tup[g % M][:, None, :]]
        return grid.reshape(hi - lo, k * k)

    found = _first_shattered(inA[add], points, M * M, k * k)
    if found is None:
        return False, None
    g, _, cs = found
    return True, (tuple(tup[g // M].tolist()), tuple(tup[g % M].tolist()), cs)


def _search(at_least, A, grp: Group, kmax: int):
    """(value, saturated, witness): the largest k <= kmax that at_least
    finds, whether kmax was reached, and the witness at k (None at 0)."""
    best, wit = 0, None
    for k in range(1, kmax + 1):
        ok, w = at_least(A, grp, k)
        if not ok:
            return best, False, wit
        best, wit = k, w
    return best, True, wit


def vc_dim(A, grp: Group, kmax: int = KMAX_HARD) -> int:
    return _search(vc_dim_at_least, A, grp, kmax)[0]


def vc2_search(A, grp: Group, kmax: int = KMAX_HARD):
    """(value, saturated, witness): the largest k <= kmax whose grid is
    shattered; saturated means the cap was reached and larger k remains
    possible; the witness (a, b, {pattern: c}) of that grid, None at 0."""
    return _search(vc2_dim_at_least, A, grp, kmax)
