"""Binary strings, discrepancy, the tau / f_sigma recursions, growth
functions, chain validation and the closed-form complexity bounds.

Everything here is exact, with no float drift in the exhaustive lemma
sweeps.  One rule keeps it fast: a rational constant that is an integer
(C in a growth function, 2C in the corollary's bound) is used as an int, so
the recursions run on ints; any other constant stays a fractions.Fraction
and so does every value it touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from . import gf
from .factors import QuadraticFactor, nontrivial_combinations


@dataclass(frozen=True)
class GrowthFunction:
    """rho(x) = C*x^d, C stored as a Fraction, d as an int; `linear:K` is C = K."""
    C: Fraction
    d: int = 1
    _c: int | Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        C = Fraction(self.C)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "_c", C.numerator if C.denominator == 1 else C)

    def __call__(self, x):
        return self._c * x ** self.d

    @staticmethod
    def parse(text: str) -> "GrowthFunction":
        """`linear:K` or `poly:C,d`, rationals K, C > 0, d >= 0; else ValueError."""
        kind, _, params = text.partition(":")
        if kind not in ("linear", "poly"):
            raise ValueError(f"bad growth function syntax: {text!r}")
        c, d = (params, "1") if kind == "linear" else params.split(",")
        try:
            rho = GrowthFunction(c, d)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        if rho.C <= 0 or rho.d < 0:
            raise ValueError(f"{text!r} needs C > 0 and d >= 0")
        return rho


# -- binary strings ----------------------------------------------------------

def disc(s) -> int:
    """Sum of the +-1 entries."""
    if not all(b in (-1, 1) for b in s):
        raise ValueError("string entries must be +-1")
    return sum(s)


# -- recursions --------------------------------------------------------------

def tau(rho, i: int, x, y):
    """tau_0(x,y) = x; tau_{j+1}(x,y) = tau_j + rho(tau_j + y - j)."""
    if i < 0:
        raise ValueError("i must be >= 0")
    for j in range(i):
        x = x + rho(x + y - j)
    return x


def f_sigma(rho, s):
    """f_<> = (0,0); appending +1 gives (a+1, b+1); appending -1 gives
    (a + rho(a+b), b-1)."""
    a, b = 0, 0
    for bit in s:
        if bit == 1:
            a, b = a + 1, b + 1
        elif bit == -1:
            a, b = a + rho(a + b), b - 1
        else:
            raise ValueError("string entries must be +-1")
    return a, b


def f_table(rho, length: int) -> dict:
    """f_sigma for every string of length <= length, shorter strings first,
    each length in product((-1, 1), repeat=m) order; each entry extends its
    parent prefix by one step of the recursion.  So entry i > 0 extends
    entry (i-1)//2, by -1 when i is odd and by +1 when it is even."""
    table = {(): (0, 0)}
    values = [(0, 0)]  # f_sigma of the strings of length m - 1, in order
    for m in range(1, length + 1):
        values = [child for a, b in values
                  for child in ((a + rho(a + b), b - 1), (a + 1, b + 1))]
        table.update(zip(product((-1, 1), repeat=m), values))
    return table if length >= 0 else {}


def corollary_chain_bound(C, d: int, m: int, k: int):
    """(l-bound, q-bound) for a realizable chain of length m with k addition
    steps: ((2C)^{(m-k) d^{m-k}} (2k)^{d^{m-k}}, 2k - m)."""
    if not (1 <= m and 0 <= k <= m):
        raise ValueError("need m >= 1 and 0 <= k <= m")
    e = d ** (m - k)
    c2 = 2 * Fraction(C)
    c2 = c2.numerator if c2.denominator == 1 else c2
    lbound = c2 ** ((m - k) * e) * (2 * k) ** e
    return lbound, 2 * k - m


# -- chain validation --------------------------------------------------------

def _is_valid_deletion(B: QuadraticFactor, B2: QuadraticFactor, rho) -> bool:
    """Does B -> B2 match some rho-matrix deletion of B?  B2.Q is B.Q less
    one matrix M_k, and for some combination U of rank < rho(l+q) with a
    nonzero coefficient on M_k, B2.L is B.L followed by vectors that make
    it a basis of span(L) + rowspace(U)."""
    if B2.q != B.q - 1 or B2.n != B.n or B2.p != B.p or B2.L[: B.l] != B.L:
        return False
    # the matrices are distinct, so at most one index leaves B2.Q
    kill = next((k for k in range(B.q) if B.Q[:k] + B.Q[k + 1:] == B2.Q), None)
    if kill is None:
        return False
    p, demand = B.p, rho(B.l + B.q)
    for coeffs, U, rank in nontrivial_combinations(B):
        if rank >= demand or coeffs[kill] == 0:
            continue
        rows = gf.row_space_basis(U, p)
        # B2.L spans rowspace(U), and is no longer than L + rowspace(U) needs
        if (gf.mat_rank(list(B2.L) + rows, p) == B2.l
                and B2.l == gf.mat_rank(list(B.L) + rows, p)):
            return True
    return False


def _is_valid_addition(B: QuadraticFactor, B2: QuadraticFactor) -> bool:
    """+1 step: at most one new linear and one new quadratic generator,
    appended after the existing ones."""
    if B2.n != B.n or B2.p != B.p:
        return False
    if B2.L[: B.l] != B.L or B2.Q[: B.q] != B.Q:
        return False
    return B2.l - B.l <= 1 and B2.q - B.q <= 1 and B2.l >= B.l and B2.q >= B.q


def validate_chain(rho, sigma, factors) -> bool:
    """Is factors[0] -> ... -> factors[m] a valid chain for the string sigma
    of length m: factors[0] trivial, step i an addition when sigma[i] = +1
    and a rho-matrix deletion when -1, each factor within the f_sigma bounds
    of its prefix (l <= a, q <= b = disc(prefix))?"""
    if len(factors) != len(sigma) + 1 or factors[0].l or factors[0].q:
        return False
    a = b = 0  # f_sigma of the prefix, built one step at a time
    for B, B2, bit in zip(factors, factors[1:], sigma):
        if bit == 1:
            valid, a, b = _is_valid_addition(B, B2), a + 1, b + 1
        elif bit == -1:
            valid, a, b = _is_valid_deletion(B, B2, rho), a + rho(a + b), b - 1
        else:
            return False
        if not (valid and B2.l <= a and B2.q <= b):
            return False
    return True
