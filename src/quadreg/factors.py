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
        self.L = tuple(tuple(int(c) % p for c in v) for v in L)
        self.Q = tuple(tuple(tuple(int(c) % p for c in row) for row in M) for M in Q)
        for v in self.L:
            if len(v) != n:
                raise ValueError("linear generator of wrong length")
        for M in self.Q:
            if len(M) != n or any(len(row) != n for row in M):
                raise ValueError("matrix of wrong shape")
            for i in range(n):
                for j in range(n):
                    if M[i][j] != M[j][i]:
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

    # -- beta maps -----------------------------------------------------------

    def beta_L(self, x):
        return tuple(gf.dot(x, r, self.p) for r in self.L)

    def beta_Q(self, x, y):
        return tuple(gf.bilinear(M, x, y, self.p) for M in self.Q)

    def atom_label_of(self, x):
        return (self.beta_L(x), self.beta_Q(x, x))

    # -- vectorized label machinery -------------------------------------------

    def label_codes(self) -> np.ndarray:
        """For every encoded element, its label encoded as an int:
        little-endian base-p digits (a_1..a_l, b_1..b_q)."""
        if self._label_codes is None:
            g = self.grp
            E = g.coords  # (N, n)
            parts = []
            for r in self.L:
                parts.append((E @ np.array(r, dtype=np.int64)) % self.p)
            for M in self.Q:
                Mv = np.array(M, dtype=np.int64)
                parts.append(np.einsum("xi,ij,xj->x", E, Mv, E) % self.p)
            code = np.zeros(g.size, dtype=np.int64)
            for k, digit in enumerate(parts):
                code += digit * self.p ** k
            self._label_codes = code
        return self._label_codes

    def label_to_code(self, label) -> int:
        a, b = label
        digits = list(a) + list(b)
        return sum((d % self.p) * self.p ** k for k, d in enumerate(digits))

    def code_to_label(self, code: int):
        digits = []
        c = code
        for _ in range(self.l + self.q):
            digits.append(c % self.p)
            c //= self.p
        return (tuple(digits[: self.l]), tuple(digits[self.l:]))

    def all_labels(self):
        for code in range(self.p ** (self.l + self.q)):
            yield self.code_to_label(code)

    def enumerate_atom(self, label) -> np.ndarray:
        """Encoded elements of atom B(label); may be empty."""
        return np.nonzero(self.label_codes() == self.label_to_code(label))[0]

    def atom_indicator(self, label) -> np.ndarray:
        return (self.label_codes() == self.label_to_code(label))

    def pair_code(self, values) -> int:
        """The code of a pair value b in F_p^q, digits as in label_to_code."""
        return self.label_to_code(((), values))

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


def trivial_factor(p, n) -> QuadraticFactor:
    return QuadraticFactor(p, n)


def nontrivial_combinations(B: QuadraticFactor):
    """(coeffs, U, rank of U) for every nontrivial combination
    U = sum_j coeffs_j M_j of the matrices, coeffs in lexicographic order."""
    for coeffs in product(range(B.p), repeat=B.q):
        if any(coeffs):
            U = combine_matrices(B.Q, coeffs, B.p)
            yield coeffs, U, gf.mat_rank(U, B.p)


def factor_rank(B: QuadraticFactor) -> int:
    """Minimal rank over nontrivial combinations of the matrices; n for q=0."""
    if B.q > MAX_Q_FOR_RANK:
        raise ValueError(f"factor_rank refuses q > {MAX_Q_FOR_RANK}")
    return min((r for _, _, r in nontrivial_combinations(B)), default=B.n)


def combine_matrices(Q, coeffs, p):
    n = len(Q[0])
    U = [[0] * n for _ in range(n)]
    for c, M in zip(coeffs, Q):
        if c == 0:
            continue
        for i in range(n):
            for j in range(n):
                U[i][j] = (U[i][j] + c * M[i][j]) % p
    return tuple(tuple(row) for row in U)


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


def refines(B1: QuadraticFactor, B2: QuadraticFactor) -> bool:
    """True iff every atom of B1 sits inside a single atom of B2."""
    assert (B1.p, B1.n) == (B2.p, B2.n)
    c1 = B1.label_codes()
    c2 = B2.label_codes()
    seen = {}
    for a, b in zip(c1.tolist(), c2.tolist()):
        if a in seen:
            if seen[a] != b:
                return False
        else:
            seen[a] = b
    return True


# -- serialization -----------------------------------------------------------

def factor_to_dict(B: QuadraticFactor) -> dict:
    return {
        "p": B.p,
        "n": B.n,
        "L": [list(v) for v in B.L],
        "Q": [[list(row) for row in M] for M in B.Q],
    }


def factor_from_dict(d: dict) -> QuadraticFactor:
    return QuadraticFactor(d["p"], d["n"], d.get("L", []), d.get("Q", []))


def label_to_dict(label) -> dict:
    return {"a": list(label[0]), "b": list(label[1])}
