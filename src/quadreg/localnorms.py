"""Local U^3 norms relative to a quadratic factor: the cube-tuple sets
Omega_B, the label-constrained sets K111/K222, the label sum Sigma(d), the
change of variables Psi, the restricted-norm (atom-normalized) and the
weighted-expectation (fibre-weighted) eighth powers, and the machinery
relating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product, starmap

import numpy as np

from . import gowers
from .factors import QuadraticFactor


class DegenerateLabelError(ValueError):
    """A referenced atom or fibre is empty, so the weighted expectation is
    undefined (the mu normalizers divide by the fibre size)."""


@dataclass(frozen=True)
class LocalLabelTuple:
    """d = (d1, d2): atom labels (d_a, d_b, d_c) plus pair values
    (d_ab, d_ac, d_bc) in F_p^q."""
    d_a: tuple
    d_b: tuple
    d_c: tuple
    d_ab: tuple
    d_ac: tuple
    d_bc: tuple


def trivial_local_label(B: QuadraticFactor) -> LocalLabelTuple:
    zero = ((0,) * B.l, (0,) * B.q)
    zq = (0,) * B.q
    return LocalLabelTuple(zero, zero, zero, zq, zq, zq)


def all_local_labels(B: QuadraticFactor):
    """Every local label, in lexicographic order of (d_a, ..., d_bc)."""
    labels = list(B.all_labels())
    pairs = list(product(range(B.p), repeat=B.q))
    return starmap(LocalLabelTuple, product(*[labels] * 3, *[pairs] * 3))


def sigma_label(B: QuadraticFactor, d: LocalLabelTuple):
    """The atom label of x+y+z for any (x,y,z) in K111(d):
    d_a + d_b + d_c + 2(0|d_ab) + 2(0|d_ac) + 2(0|d_bc); only the quadratic
    coordinates pick up the pair contributions."""
    p = B.p
    lin = tuple((a + b + c) % p
                for a, b, c in zip(d.d_a[0], d.d_b[0], d.d_c[0]))
    quad = tuple((a + b + c + 2 * (u + v + w)) % p
                 for a, b, c, u, v, w in zip(d.d_a[1], d.d_b[1], d.d_c[1],
                                             d.d_ab, d.d_ac, d.d_bc))
    return (lin, quad)


# -- Omega_B -----------------------------------------------------------------

def omega_code_definitional_bulk(B, X, H1, H2, H3) -> np.ndarray:
    """For each tuple: the label code of the atom holding all 8 cube points,
    or -1 when no atom holds them all; (x,h1,h2,h3) is in Omega_{B(e)}
    exactly when its code is B.label_to_code(e)."""
    lc = B.label_codes()
    pts = gowers.cube_points(B.grp, X, H1, H2, H3)
    code = lc[pts[0]]
    for pt in pts[1:]:
        code = np.where(lc[pt] == code, code, -1)
    return code


def omega_code_constraints_bulk(B, X, H1, H2, H3) -> np.ndarray:
    """For each tuple: the label code of x when each h is in L(0) with
    2 beta_Q(x,h) + beta_Q(h,h) = 0, which is beta_Q(2x+h, h) = 0 by
    bilinearity, and beta_Q(h_a, h_b) = 0 pairwise; -1 otherwise."""
    X = np.asarray(X)
    add, bq = B.grp.add, B.bq_tables()
    lin0 = _linear_zero_mask(B)
    Hs = [np.asarray(H) for H in (H1, H2, H3)]
    ok = np.ones(np.shape(X), dtype=bool)
    for H in Hs:
        ok &= lin0[H] & _h_constraint(add, bq, X, H)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        ok &= bq[Hs[a], Hs[b]] == 0
    return np.where(ok, B.label_codes()[X], -1)


def _linear_zero_mask(B: QuadraticFactor) -> np.ndarray:
    """Membership in L(0): the low l digits of the label code are zero."""
    return B.label_codes() % B.p ** B.l == 0


def _h_constraint(add, bq, X, H) -> np.ndarray:
    """2 beta_Q(x,h) + beta_Q(h,h) = 0, i.e. beta_Q(2x+h, h) = 0."""
    return bq[add[add[X, X], H], H] == 0


def omega_count(B: QuadraticFactor, e) -> int:
    """|Omega_{B(e)}| by constrained enumeration; equals the eighth-power
    cube sum of the atom indicator.  For each x in B(e): the h's in L(0)
    with the single-h constraint, and the (h1, h2, h3) among them that are
    pairwise orthogonal, counted as the trace of P^3 for the orthogonality
    matrix P."""
    add, bq = B.grp.add, B.bq_tables()
    lin0 = np.nonzero(_linear_zero_mask(B))[0]
    total = 0
    for x in B.enumerate_atom(e):
        hs = lin0[_h_constraint(add, bq, x, lin0)]
        P = (bq[np.ix_(hs, hs)] == 0).astype(np.int64)
        total += int(np.einsum("ab,ac,bc->", P, P, P))
    return total


def omega_predicted(B: QuadraticFactor) -> float:
    return float(B.p) ** (4 * B.n - 4 * B.l - 7 * B.q)


# -- the two local norms -----------------------------------------------------

def norm_P_eighth(f, B: QuadraticFactor, e) -> float:
    """u3_eighth_fast(f * 1_{B(e)}) / |Omega_{B(e)}|; 0 when f vanishes on
    the atom (empty atoms included) or the numerator is below 1e-12."""
    v = gowers.as_values(f, B.grp).astype(np.float64)
    restricted = v * B.atom_indicator(e)
    if not restricted.any():
        return 0.0
    num = gowers.u3_eighth_fast(restricted, B.grp)
    if abs(num) < 1e-12:
        return 0.0
    return num / omega_count(B, e)


def fibre_size(B: QuadraticFactor, d_pair) -> int:
    """|{(x,y) in G^2 : beta_Q(x,y) = d_pair}|."""
    return int(np.count_nonzero(B.bq_tables() == B.pair_code(d_pair)))


def label_sizes(B: QuadraticFactor, d: LocalLabelTuple):
    """([|B(d_a)|, |B(d_b)|, |B(d_c)|], [fibre sizes of d_ab, d_ac, d_bc]);
    DegenerateLabelError when one of them is 0."""
    sizes = [len(B.enumerate_atom(lab)) for lab in (d.d_a, d.d_b, d.d_c)]
    fibres = [fibre_size(B, dp) for dp in (d.d_ab, d.d_ac, d.d_bc)]
    if 0 in sizes or 0 in fibres:
        raise DegenerateLabelError(f"empty atom or fibre for {d}")
    return sizes, fibres


def k222_sum(f, B: QuadraticFactor, d: LocalLabelTuple):
    """sum over K222(d) of prod_{i,j,k} f(x_i+y_j+z_k), by constraint
    propagation: for each pair (x1,x2) in B(d_a)^2, the y in B(d_b) and z in
    B(d_c) whose pair values with both are d_ab and d_ac give a (y,z) sum
    ||W W^T||_F^2 for W[y,z] = f-products gated by beta_Q(y, z) = d_bc."""
    g = B.grp
    v = gowers.as_values(f, g).astype(np.float64)
    bq = B.bq_tables()
    Xa, Yb, Zc = (B.enumerate_atom(lab) for lab in (d.d_a, d.d_b, d.d_c))
    ab, ac, bc = (B.pair_code(val) for val in (d.d_ab, d.d_ac, d.d_bc))
    in_bc = bq == bc
    y_ok = bq[np.ix_(Xa, Yb)] == ab
    z_ok = bq[np.ix_(Xa, Zc)] == ac
    total = 0.0
    for i1, x1 in enumerate(Xa):
        for i2, x2 in enumerate(Xa):
            ys = Yb[y_ok[i1] & y_ok[i2]]
            zs = Zc[z_ok[i1] & z_ok[i2]]
            cross = in_bc[ys[:, None], zs]
            if cross.size == 0:
                continue
            # W[y, z] = f(x1+y+z) f(x2+y+z) * [beta_Q(y,z) = d_bc]
            yz = g.add[ys[:, None], zs]
            W = v[g.add[x1]][yz] * v[g.add[x2]][yz] * cross
            M = W @ W.T
            total += float((M * M).sum())
    return total


def k111_members(B: QuadraticFactor, d: LocalLabelTuple):
    """Triples (x,y,z) with the three atom labels and three pair values."""
    bq = B.bq_tables()
    X, Y = B.enumerate_atom(d.d_a), B.enumerate_atom(d.d_b)
    xy = bq[X[:, None], Y] == B.pair_code(d.d_ab)
    if not xy.any():  # most labels of a small factor stop here
        return []
    Z = B.enumerate_atom(d.d_c)
    ok = (xy[:, :, None]
          & (bq[X[:, None], Z] == B.pair_code(d.d_ac))[:, None, :]
          & (bq[Y[:, None], Z] == B.pair_code(d.d_bc))[None, :, :])
    i, j, k = np.nonzero(ok)
    return list(zip(X[i].tolist(), Y[j].tolist(), Z[k].tolist()))


def norm_TW_eighth(f, B: QuadraticFactor, d: LocalLabelTuple) -> float:
    """The weighted 6-fold expectation: two independent draws from each of
    the three atoms, with fibre-indicator weights mu_Gamma = |G|^2/|Gamma| 1_Gamma
    on all twelve cross pairs.  Expanding the twelve mu factors gives

        |G|^24 * (prod atom sizes)^-2 * (prod fibre sizes)^-4 * k222_sum.
    """
    sizes, fibres = label_sizes(B, d)
    N = B.grp.size
    s = k222_sum(f, B, d)
    norm = float(N) ** 24
    for sz in sizes:
        norm /= float(sz) ** 2
    for fb in fibres:
        norm /= float(fb) ** 4
    return norm * s


# -- change of variables -----------------------------------------------------

def psi_map(grp, x1, x2, y1, y2, z1, z2):
    """(x1+y1+z1, x2-x1, y2-y1, z2-z1), all encoded."""
    a, neg = grp.add, grp.neg
    return (a[a[x1, y1], z1], a[x2, neg[x1]], a[y2, neg[y1]], a[z2, neg[z1]])


# -- reporting ---------------------------------------------------------------

# the norms CSV columns, each a norm_equivalence_report key
REPORT_COLUMNS = ["label", "atom_size", "omega_count", "omega_predicted",
                  "normP8", "normTW8", "diff"]


def norm_equivalence_report(f, B: QuadraticFactor, e, d: LocalLabelTuple) -> dict:
    """Both eighth powers and their difference, keyed by REPORT_COLUMNS
    and more; never asserted for nontrivial factors (the equivalence error
    depends on an unspecified rank constant).  ValueError when e is not
    sigma_label(B, d)."""
    if sigma_label(B, d) != e:
        raise ValueError(f"label {e} is not the sum label of {d}")
    p8 = norm_P_eighth(f, B, e)
    degenerate = False
    try:
        tw8 = norm_TW_eighth(f, B, d)
    except DegenerateLabelError:
        tw8, degenerate = float("nan"), True
    return {
        "label": str(e),
        "atom_size": int(len(B.enumerate_atom(e))),
        "omega_count": omega_count(B, e),
        "omega_predicted": omega_predicted(B),
        "normP8": p8,
        "normTW8": tw8,
        "diff": tw8 - p8 if not degenerate else float("nan"),
        "degenerate": degenerate,
        "rank": B.rank(),
    }


def norm_equivalence_samples(f, B: QuadraticFactor, count: int) -> list:
    """Reports for the first `count` local labels d, in all_local_labels
    order, whose weighted norm is defined; each at e = sigma_label(B, d)."""
    reports = (norm_equivalence_report(f, B, sigma_label(B, d), d)
               for d in all_local_labels(B))
    return list(islice((r for r in reports if not r["degenerate"]), count))
