"""Reference implementations that only the tests call: scalar forms and
labels, brute-force enumerations of Omega_B and K222(d), and the definitional
forms of a few quantities quadreg computes another way.

The enumerations work from the definitions, not from the code they check:
omega_members reads Omega off the cube points' label codes over all of G^4,
and k222_codes labels every 6-tuple of G^6 from the scalar atom_label_of and
beta_Q below, with no use of bq_tables or the Omega constraints.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from quadreg import gowers, localnorms
from quadreg.localnorms import LocalLabelTuple, sigma_label


# -- scalar forms and labels -------------------------------------------------

def decode(g, idx: int) -> tuple:
    """The coordinates of the group element encoded as `idx`."""
    return tuple(int(c) for c in g.coords[idx])


def encode(g, vec) -> int:
    """The little-endian base-p code of the group element `vec`."""
    return int(sum((v % g.p) * g.p ** i for i, v in enumerate(vec)))


def mat_mul_vec(M, v, p):
    return tuple(sum(mij * vj for mij, vj in zip(row, v)) % p for row in M)


def dot(u, v, p):
    return sum(a * b for a, b in zip(u, v)) % p


def bilinear(M, x, y, p):
    """x^T M y mod p; bilinear(M, x, x, p) is the quadratic form."""
    return dot(x, mat_mul_vec(M, y, p), p)


def beta_Q(B, x, y):
    """The pair value (x^T M_j y)_j of two vectors under B's matrices."""
    return tuple(bilinear(M, x, y, B.p) for M in B.Q)


def atom_label_of(B, x):
    """The atom label ((x.r_i)_i, (x^T M_j x)_j) of the vector x."""
    return (tuple(dot(x, r, B.p) for r in B.L), beta_Q(B, x, x))


def refines(B1, B2) -> bool:
    """True iff every atom of B1 sits inside a single atom of B2: each B1
    label code meets exactly one B2 label code."""
    assert (B1.p, B1.n) == (B2.p, B2.n)
    c1, c2 = B1.label_codes(), B2.label_codes()
    pairs = np.unique(np.stack([c1, c2], axis=1), axis=0)
    return len(pairs) == len(np.unique(c1))


# -- chains ------------------------------------------------------------------

def describe(rho) -> str:
    """The `linear:K` / `poly:C,d` text that GrowthFunction.parse reads."""
    return f"linear:{rho.C}" if rho.d == 1 else f"poly:{rho.C},{rho.d}"


def tau_closed_bound(C, k, i, x, y):
    """Closed-form domination of tau_i(x,y) for rho(z) <= C z^k (z >= 1),
    rho(z) >= z: 2^{i k^i} C^{i k^i} (x+y)^{k^i}."""
    e = k ** i
    return (Fraction(2) * C) ** (i * e) * Fraction(x + y) ** e


# -- norms and phases ----------------------------------------------------------

def u2_fourth_naive(f, grp):
    """Sum over (x, h1, h2) in G^3 of the 4-point cube product, by the naive
    cube sum that u3_eighth_naive runs at d = 3."""
    return gowers._cube_sum_naive(f, grp, 2, "u2_fourth_naive")


def poly_values(grp, M, r, c) -> np.ndarray:
    """psi(x) = x^T M x + r.x + c over all encoded x."""
    E = grp.coords
    Mv = np.array(M, dtype=np.int64)
    rv = np.array(r, dtype=np.int64)
    return (np.einsum("xi,ij,xj->x", E, Mv, E) + E @ rv + c) % grp.p


def correlation(f, grp, members: np.ndarray, M, r, c=0) -> float:
    """|sum_{x in atom} f(x) w^{psi(x)}| / |atom|."""
    if len(members) == 0:
        raise ValueError("empty atom")
    v = gowers.as_values(f, grp)
    psi = poly_values(grp, M, r, c)[members]
    w = np.exp(2j * np.pi * psi / grp.p)
    return float(abs((v[members] * w).sum()) / len(members))


# -- Omega_B and K222(d) -------------------------------------------------------

def omega_members(B, e):
    """Omega_{B(e)} as (x, h1, h2, h3) tuples in lexicographic order: the
    tuples of G^4 whose 8 cube points all have label e."""
    tuples = np.indices((B.grp.size,) * 4).reshape(4, -1)
    codes = localnorms.omega_code_definitional_bulk(B, *tuples)
    return list(map(tuple, tuples[:, codes == B.label_to_code(e)].T.tolist()))


def _code(digits, p) -> int:
    return sum(int(v) * p ** k for k, v in enumerate(digits))


def local_label_code(B, d: LocalLabelTuple) -> int:
    """d as one int: the little-endian base-p digits of d_a, d_b, d_c (each
    linear then quadratic) and then d_ab, d_ac, d_bc."""
    return _code(sum(d.d_a + d.d_b + d.d_c, ()) + d.d_ab + d.d_ac + d.d_bc, B.p)


def local_label(B, code: int) -> LocalLabelTuple:
    """The local label that local_label_code encodes as `code`."""
    l, q = B.l, B.q
    digits = [code // B.p ** k % B.p for k in range(3 * l + 6 * q)]
    parts, at = [], 0
    for size in (l, q) * 3 + (q,) * 3:
        parts.append(tuple(digits[at:at + size]))
        at += size
    return LocalLabelTuple(*zip(parts[0:6:2], parts[1:6:2]), *parts[6:])


@lru_cache(maxsize=8)
def k222_codes(B) -> np.ndarray:
    """For every 6-tuple (x1,x2,y1,y2,z1,z2) of G^6, in np.indices order:
    local_label_code(B, d) when it is in K222(d), else -1.  In K222(d)
    means x1, x2 share an atom label, as do y1, y2 and z1, z2, and the four
    pairs (x_i, y_j) share one pair value, as do the (x_i, z_k) and the
    (y_j, z_k).  Read-only; n <= 2 (531,441 tuples at p = 3)."""
    g, p = B.grp, B.p
    if g.size ** 6 > 10 ** 7:
        raise ValueError("k222_codes: enumeration too large")
    pts = [decode(g, x) for x in range(g.size)]
    lab = np.array([_code(sum(atom_label_of(B, x), ()), p) for x in pts])
    pair = np.array([[_code(beta_Q(B, x, y), p) for y in pts] for x in pts])
    x1, x2, y1, y2, z1, z2 = np.ix_(*[np.arange(g.size)] * 6)
    ok = (lab[x1] == lab[x2]) & (lab[y1] == lab[y2]) & (lab[z1] == lab[z2])
    for us, vs in (((x1, x2), (y1, y2)), ((x1, x2), (z1, z2)),
                   ((y1, y2), (z1, z2))):
        for u in us:
            for v in vs:
                ok = ok & (pair[u, v] == pair[us[0], vs[0]])
    K, P = p ** (B.l + B.q), p ** B.q
    code = lab[x1] + K * (lab[y1] + K * (lab[z1] + K * (
        pair[x1, y1] + P * (pair[x1, z1] + P * pair[y1, z1]))))
    codes = np.where(ok, code, -1).ravel()
    codes.flags.writeable = False
    return codes


def k222_members(B, d: LocalLabelTuple):
    """K222(d) as (x1,x2,y1,y2,z1,z2) tuples in lexicographic order."""
    idx = np.nonzero(k222_codes(B) == local_label_code(B, d))[0]
    return list(zip(*(c.tolist()
                      for c in np.unravel_index(idx, (B.grp.size,) * 6))))


def preimage_intersection(B, d: LocalLabelTuple, e, w, ha, hb, hc):
    """Psi^{-1}(w,ha,hb,hc) intersected with K222(d), via the X/Y
    parametrization: the 6-tuples are
    (x, x+ha, y, y+hb, w-x-y, w-x-y+hc) for x in X, y in Y with
    beta_Q(x,y) = d_ab, where X and Y carry the displayed constraints.
    Requires Sigma(d) = e and (w,ha,hb,hc) in Omega_{B(e)}."""
    assert sigma_label(B, d) == e
    g, bq = B.grp, B.bq_tables()
    add, neg = g.add, g.neg

    def admissible(label, own, others, pair):
        """u in B(label) with b_Q(u, h) = 0 for h in `others`,
        2 b_Q(u, own) = -b_Q(own, own) and b_Q(u, w) = label_b + pair + d_ab."""
        atom = B.enumerate_atom(label)
        target = B.pair_code([s + t + u for s, t, u in zip(label[1], pair, d.d_ab)])
        ok = (bq[np.ix_(others, atom)] == 0).all(axis=0)
        ok &= bq[add[add[atom, atom], own], own] == 0  # beta_Q(2u + own, own) = 0
        ok &= bq[atom, w] == target
        return atom[ok]

    xs = admissible(d.d_a, ha, (hb, hc), d.d_ac)
    ys = admissible(d.d_b, hb, (ha, hc), d.d_bc)
    out = set()
    for x in xs:
        for y in ys[bq[x, ys] == B.pair_code(d.d_ab)]:
            z = add[add[w, neg[x]], neg[y]]
            out.add((int(x), int(add[x, ha]), int(y), int(add[y, hb]), int(z),
                     int(add[z, hc])))
    return out
