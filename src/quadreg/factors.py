"""Linear / purely quadratic / quadratic factors, their atoms and rank,
and the rank-refinement machinery (rho-matrix deletion)."""

from __future__ import annotations

from itertools import product

import numpy as np

from . import gf
from .gf import group

MAX_Q_FOR_RANK = 12  # combination enumeration cap (p=3 -> 3^12 combos)


class QuadraticFactor:
    """B = (L, Q): an ordered list of independent vectors and an ordered list
    of pairwise-distinct symmetric matrices.  Atom labels are pairs
    (a, b) in F_p^l x F_p^q with a = (x.r_i) and b = (x^T M_j x).

    Note the lists are ordered: two factors that are equal as sets but
    ordered differently are different objects here (atom labels permute).
    """

    def __init__(self, p: int, n: int, L=(), Q=()):
        self.p = p
        self.n = n
        self.grp = group(p, n)
        self.L = tuple(tuple(gf.as_int(c, "a factor entry") % p for c in v) for v in L)
        self.Q = tuple(tuple(tuple(gf.as_int(c, "a factor entry") % p for c in row)
                             for row in M) for M in Q)
        if any(len(v) != n for v in self.L):
            raise ValueError("linear generator of wrong length")
        for M in self.Q:
            if len(M) != n or any(len(row) != n for row in M):
                raise ValueError("matrix of wrong shape")
            if tuple(zip(*M)) != M:
                raise ValueError("matrix not symmetric")
        if not gf.is_independent(self.L, p):
            raise ValueError("linear part not independent")
        if len(set(self.Q)) != len(self.Q):
            raise ValueError("quadratic part has repeated matrices")
        self._label_codes = None
        self._bq_tables = None
        self._rank = None

    # -- basic shape ---------------------------------------------------------

    @property
    def l(self) -> int:
        return len(self.L)

    @property
    def q(self) -> int:
        return len(self.Q)

    def complexity(self):
        return (self.l, self.q)

    def __eq__(self, other):
        return (isinstance(other, QuadraticFactor)
                and (self.p, self.n, self.L, self.Q) == (other.p, other.n, other.L, other.Q))

    def __hash__(self):
        return hash((self.p, self.n, self.L, self.Q))

    def __repr__(self):
        return f"QuadraticFactor(p={self.p}, n={self.n}, l={self.l}, q={self.q})"

    # -- vectorized label machinery -------------------------------------------

    def label_codes(self) -> np.ndarray:
        """For every encoded element, its label encoded as an int:
        little-endian base-p digits (a_1..a_l, b_1..b_q)."""
        if self._label_codes is None:
            E, p = self.grp.coords, self.p  # E: (N, n)
            digits = [E @ np.array(r, dtype=np.int64) % p for r in self.L]
            digits += [np.einsum("xi,ij,xj->x", E, np.array(M, dtype=np.int64), E) % p
                       for M in self.Q]
            self._label_codes = sum((digit * p ** k for k, digit in enumerate(digits)),
                                    np.zeros(self.grp.size, dtype=np.int64))
        return self._label_codes

    def label_to_code(self, label) -> int:
        a, b = label
        digits = list(a) + list(b)
        return sum((d % self.p) * self.p ** k for k, d in enumerate(digits))

    def _digits(self, code: int, count: int) -> tuple:
        return tuple(code // self.p ** k % self.p for k in range(count))

    def code_to_label(self, code: int):
        digits = self._digits(code, self.l + self.q)
        return (digits[: self.l], digits[self.l:])

    def all_labels(self):
        return map(self.code_to_label, range(self.p ** (self.l + self.q)))

    def enumerate_atom(self, label) -> np.ndarray:
        """Encoded elements of atom B(label); may be empty."""
        return np.nonzero(self.atom_indicator(label))[0]

    def atom_indicator(self, label) -> np.ndarray:
        return (self.label_codes() == self.label_to_code(label))

    def pair_code(self, values) -> int:
        """The code of a pair value b in F_p^q, digits as in label_to_code."""
        return self.label_to_code(((), values))

    def code_to_pair(self, code: int) -> tuple:
        """The pair value b in F_p^q that pair_code encodes as `code`."""
        return self._digits(code, self.q)

    def bq_tables(self) -> np.ndarray:
        """Shape (N, N): the pair code of beta_Q(x, y) for all encoded pairs,
        sum_j beta_{M_j}(x, y) p^j; all zeros when q = 0."""
        if self._bq_tables is None:
            E = self.grp.coords
            table = np.zeros((self.grp.size, self.grp.size), dtype=np.int64)
            for j, M in enumerate(self.Q):
                digit = E @ np.array(M, dtype=np.int64) @ E.T
                digit %= self.p
                digit *= self.p ** j
                table += digit
            self._bq_tables = table
        return self._bq_tables

    # -- rank ------------------------------------------------------------------

    def rank(self) -> int:
        if self._rank is None:
            self._rank = factor_rank(self)
        return self._rank


def nontrivial_combinations(B: QuadraticFactor):
    """(coeffs, U, rank of U) for every nontrivial combination U (row tuples)
    = sum_j coeffs_j M_j mod p of the matrices, coeffs in lexicographic order."""
    Q = np.array(B.Q, dtype=np.int64)
    for coeffs in product(range(B.p), repeat=B.q):
        if any(coeffs):
            U = np.tensordot(np.asarray(coeffs, dtype=np.int64), Q, axes=1) % B.p
            U = tuple(map(tuple, U.tolist()))
            yield coeffs, U, gf.mat_rank(U, B.p)


def factor_rank(B: QuadraticFactor) -> int:
    """Minimal rank over nontrivial combinations of the matrices; n for q=0."""
    if B.q > MAX_Q_FOR_RANK:
        raise ValueError(f"factor_rank refuses q > {MAX_Q_FOR_RANK}")
    return min((r for _, _, r in nontrivial_combinations(B)), default=B.n)


def find_low_rank_combination(B: QuadraticFactor, rho):
    """First (lexicographic) nontrivial coefficient tuple whose combination
    has rank < rho(l+q), or None."""
    demand = rho(B.l + B.q)
    return next(((coeffs, U) for coeffs, U, r in nontrivial_combinations(B)
                 if r < demand), None)


def rho_matrix_delete(B: QuadraticFactor, rho) -> QuadraticFactor:
    """Delete one matrix participating in a low-rank combination U, and
    extend L by a basis of the row space of U.  The deleted matrix is the
    highest-index one with a nonzero coefficient."""
    if B.q == 0:
        raise ValueError("no matrices to delete")
    found = find_low_rank_combination(B, rho)
    if found is None:
        raise ValueError("no low-rank combination exists at this rho")
    coeffs, U = found
    kill = max(i for i, c in enumerate(coeffs) if c != 0)
    new_Q = B.Q[:kill] + B.Q[kill + 1:]
    new_L = gf.extend_to_independent(B.L, gf.row_space_basis(U, B.p), B.p)
    return QuadraticFactor(B.p, B.n, new_L, new_Q)


def rank_refine(B: QuadraticFactor, rho):
    """Apply rho_matrix_delete until rank >= rho(l+q).  Returns
    (B', deletion_count, feasible).  feasible=False only when q hit 0 and
    the demand rho(l) still exceeds n (nothing more can be deleted)."""
    deletions = 0
    while True:
        if B.q == 0:
            return B, deletions, B.n >= rho(B.l)
        if B.rank() >= rho(B.l + B.q):
            return B, deletions, True
        B = rho_matrix_delete(B, rho)
        deletions += 1
