"""Brute-force VC and VC2 dimension of subsets of F_p^n.

The shattering definitions use the group operation (addition here):
VC: a_i + b_S in A iff i in S; VC2: a_i + b_j + c_S in A iff (i,j) in S.
Exhaustive search; the c-quantifier is handled by collecting the achievable
membership patterns over all translates.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .gf import Group

KMAX_HARD = 3


def _as_mask(A, grp: Group) -> np.ndarray:
    m = np.asarray(A, dtype=bool)
    if m.shape != (grp.size,):
        raise ValueError("set must be a dense mask over the group")
    return m


def vc_dim_at_least(A, grp: Group, k: int, witness: bool = False):
    """Exists (a_1..a_k) and translates b_S realizing every membership
    pattern S subseteq [k]?  Distinct a_i WLOG (duplicates can't shatter)."""
    if k > KMAX_HARD:
        raise ValueError(f"k > {KMAX_HARD} refused")
    inA = _as_mask(A, grp)
    if k == 0:
        return (True, ()) if witness else True
    add = grp.add
    N = grp.size
    want = 2 ** k
    for a_tuple in combinations(range(N), k):
        # pattern(b) = bits of membership of a_i + b
        pat = np.zeros(N, dtype=np.int64)
        for i, a in enumerate(a_tuple):
            pat |= inA[add[a, :]].astype(np.int64) << i
        if len(np.unique(pat)) == want:
            if witness:
                bs = {int(s): int(np.nonzero(pat == s)[0][0]) for s in range(want)}
                return True, (a_tuple, bs)
            return True
    return (False, None) if witness else False


def vc2_dim_at_least(A, grp: Group, k: int, witness: bool = False):
    """Exists a k x k grid (a_i + b_j) shattered by translates c_S over all
    2^(k^2) patterns?"""
    if k > KMAX_HARD:
        raise ValueError(f"k > {KMAX_HARD} refused")
    inA = _as_mask(A, grp)
    if k == 0:
        return (True, ()) if witness else True
    add = grp.add
    N = grp.size
    want = 2 ** (k * k)
    if want > N:
        return (False, None) if witness else False
    for a_tuple in combinations(range(N), k):
        # U[i, b, c] = membership of a_i + b + c
        U = np.empty((k, N, N), dtype=bool)
        for i, a in enumerate(a_tuple):
            U[i] = inA[add[add[a, :][:, None], np.arange(N)[None, :]]]
        for b_tuple in combinations(range(N), k):
            pat = np.zeros(N, dtype=np.int64)
            bit = 0
            for i in range(k):
                for j, b in enumerate(b_tuple):
                    pat |= U[i, b, :].astype(np.int64) << bit
                    bit += 1
            if len(np.unique(pat)) == want:
                if witness:
                    cs = {int(s): int(np.nonzero(pat == s)[0][0])
                          for s in range(want)}
                    return True, (a_tuple, b_tuple, cs)
                return True
    return (False, None) if witness else False


def vc_dim(A, grp: Group, kmax: int = KMAX_HARD) -> int:
    best = 0
    for k in range(1, kmax + 1):
        if vc_dim_at_least(A, grp, k):
            best = k
        else:
            break
    return best


def vc2_dim(A, grp: Group, kmax: int = KMAX_HARD):
    """Largest k <= kmax that is shattered; (value, saturated) where
    saturated means the cap was reached and larger k remains possible."""
    best = 0
    for k in range(1, kmax + 1):
        if vc2_dim_at_least(A, grp, k):
            best = k
        else:
            return best, False
    return best, True
