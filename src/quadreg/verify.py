"""The exact identities, one function each, and the suite that runs them.

An identity takes one instance (a factor, a function, a group, a growth
function, a partition) and returns None, or a failure detail.  The suite's
checks run each on seeded instances at level "quick" (tiny instances) or
"full" (adds the n=3 items), the tests on their own, and a check returns
what an identity returns: its first failure detail, or None.  The suite
also emits diagnostics CSVs (size-lemma ratios, norm-equivalence diffs).
"""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction
from itertools import islice, product

import numpy as np

from . import gf, gowers, io, localnorms, vc2
from .chains import GrowthFunction, corollary_chain_bound, f_table, tau
from .factors import QuadraticFactor
from .generators import random_factor
from .gf import group
from .localnorms import (DegenerateLabelError, LocalLabelTuple,
                         all_local_labels, fibre_size, k111_members,
                         label_sizes, omega_count, omega_predicted,
                         sigma_label)
from .regularity import index, refinement_sum


# -- helpers -----------------------------------------------------------------

def _images(B: QuadraticFactor) -> list:
    """For every encoded x, [M_j x for every matrix of B] as row tuples."""
    Q = np.array(B.Q, dtype=np.int64).reshape(B.q, B.n, B.n)
    Mx = np.einsum("jab,xb->xja", Q, B.grp.coords) % B.p
    return [list(map(tuple, rows)) for rows in Mx.tolist()]


def count_bad_w_tuples(B: QuadraticFactor) -> int:
    """Number of (w_1..w_4) in G^4 with L u {M w_i} not independent.
    DFS over w's with the echelon basis of the current span as memo key."""
    p, N = B.p, B.grp.size
    images = _images(B)

    @functools.cache
    def good(ech, depth):
        if depth == 0:
            return 1
        total = 0
        for rows in images:
            ext, rank = gf.rref(list(ech) + rows, p)
            if rank == len(ech) + len(rows):
                total += good(tuple(ext), depth - 1)
        return total

    return N ** 4 - good(tuple(gf.row_space_basis(B.L, p)), 4)


# -- identities --------------------------------------------------------------

def rank_identity(rows, p):
    """mat_rank equals the span-growth rank and the rank of the transpose."""
    rank = gf.mat_rank(rows, p)
    if rank != gf.mat_rank_bruteforce(rows, p):
        return f"rank mismatch on {rows}"
    if rank != gf.mat_rank(list(zip(*rows)), p):
        return "rank != transpose rank"


def atoms_partition(B: QuadraticFactor):
    """The atom sizes of B add up to |G|."""
    if sum(len(B.enumerate_atom(e)) for e in B.all_labels()) != B.grp.size:
        return f"atoms don't cover G for {B}"


def omega_membership(B: QuadraticFactor, X, H1, H2, H3):
    """Both membership tests of Omega_{B(e)} agree on every tuple, for every
    label e at once: the two tests give each tuple the same label code."""
    a = localnorms.omega_code_definitional_bulk(B, X, H1, H2, H3)
    b = localnorms.omega_code_constraints_bulk(B, X, H1, H2, H3)
    if not np.array_equal(a, b):
        return f"disagreement for {B}"


def omega_identity(B: QuadraticFactor):
    """omega_count(B, e) = the (int) cube sum of 1_{B(e)}, every label e."""
    for e in B.all_labels():
        cube_sum = gowers.u3_eighth_naive(B.atom_indicator(e), B.grp)
        if not isinstance(cube_sum, int) or omega_count(B, e) != cube_sum:
            return f"omega mismatch {B} {e}"


def sigma_label_sum(B: QuadraticFactor):
    """x+y+z lies in the atom sigma_label(d) for every triple (x, y, z) in
    G^3, d its local label: the atom labels of x, y, z and the pair values
    beta_Q(x,y), beta_Q(x,z), beta_Q(y,z).  Triples are grouped by label,
    so sigma_label runs once per label that occurs."""
    g, lc, bq = B.grp, B.label_codes(), B.bq_tables()
    x, y, z = np.indices((g.size,) * 3).reshape(3, -1)
    rows = np.stack([lc[x], lc[y], lc[z], bq[x, y], bq[x, z], bq[y, z]], axis=1)
    labels, which = np.unique(rows, axis=0, return_inverse=True)

    def local_label(row):
        return LocalLabelTuple(*map(B.code_to_label, row[:3].tolist()),
                               *map(B.code_to_pair, row[3:].tolist()))

    want = np.array([B.label_to_code(sigma_label(B, local_label(row)))
                     for row in labels])
    bad = np.flatnonzero(want[which.reshape(-1)] != lc[g.add[g.add[x, y], z]])
    if bad.size:
        return f"triple sums outside atom {local_label(rows[bad[0]])}"


def psi_fibres(g):
    """psi_map takes G^6 onto G^4 with every fibre of size p^(2n)."""
    N = g.size
    w, ha, hb, hc = localnorms.psi_map(g, *np.indices((N,) * 6))
    fibres = np.bincount((((w * N + ha) * N + hb) * N + hc).ravel(),
                         minlength=N ** 4)
    if np.any(fibres != N ** 2):  # an empty fibre makes another one larger
        return "fibre sizes off"


def rewrite_identity(f, g):
    """rewrite_sum_g6(f) = |G|^2 u3_eighth(f), to 1e-9 relative."""
    lhs = gowers.u3_eighth_naive(f, g)
    rhs = gowers.rewrite_sum_g6(f, g) / g.size ** 2
    if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
        return f"rewrite identity off at n={g.n}"


# (rho, C, d) with rho(x) <= C x^d: the growth functions of the chain bounds
CHAIN_RHOS = [(GrowthFunction(1), Fraction(2), 1), (GrowthFunction(2), Fraction(2), 1),
              (GrowthFunction(1, 2), Fraction(2), 2),
              (GrowthFunction(3, 2), Fraction(3), 2)]


def chain_bounds(rho, C, d: int, length: int):
    """f_sigma(s) = (a, b) has b = 2k - m and a <= the corollary's l-bound
    for every string s of length m <= `length` with k ones and disc >= 0;
    if every prefix of s has disc >= 0 (the string of a chain), also
    0 <= a <= tau_{m-k}(k, k) <= that l-bound.  Bounds: once per (m, k)."""
    bounds = {}  # (m, k) -> (l-bound, tau_{m-k}(k, k))
    walk = {(): (0, True)}  # s -> (disc(s), every prefix has disc >= 0)
    for s, (a, b) in f_table(rho, length).items():
        if not s:
            continue
        excess, chain = walk[s[:-1]]
        excess += s[-1]  # disc(s) = 2k - m
        walk[s] = excess, chain and excess >= 0
        if excess < 0:
            continue
        m, k = len(s), (len(s) + excess) // 2
        if (m, k) not in bounds:
            bounds[m, k] = (corollary_chain_bound(C, d, m, k)[0],
                            tau(rho, m - k, k, k))
        lbound, t = bounds[m, k]
        if not (0 <= a <= t <= lbound if chain else a <= lbound) or b != excess:
            return f"chain bound {s}"


def vc2_baselines(g):
    """The empty set and the whole group have VC2 dimension 0, unsaturated."""
    if any(vc2.vc2_search(np.full(g.size, full), g)[:2] != (0, False)
           for full in (False, True)):
        return "empty/full baseline broken"


def vc2_translation(A, g, t: int):
    """A and A + t have the same VC and VC2 dimensions (k <= 2)."""
    shifted = A[g.add[g.neg[t], :]]
    if (vc2.vc2_search(A, g, 2)[:2] != vc2.vc2_search(shifted, g, 2)[:2]
            or vc2.vc_dim(A, g, 2) != vc2.vc_dim(shifted, g, 2)):
        return "translation variance"


def badcount1_bound(B: QuadraticFactor, S):
    """At most p^(n+l+(|S|+1)q-r) x make L u {Mw : w in S} u {Mx} dependent,
    by brute force (r the rank of B); vacuous if the base is dependent."""
    images = _images(B)
    base = list(B.L) + [v for w in S for v in images[w]]
    ech, rank = gf.rref(base, B.p)
    if rank < len(base):
        return None
    bad = sum(gf.mat_rank(ech + rows, B.p) < rank + B.q for rows in images)
    bound = B.p ** (B.n + B.l + (len(S) + 1) * B.q - B.rank())
    if bad > bound:
        return f"badcount1 violated: {bad} > {bound}"


def omegagood_bound(B: QuadraticFactor):
    """count_bad_w_tuples(B) <= 14 p^(4n+l+4q-r), r the rank of B."""
    bad = count_bad_w_tuples(B)
    bound = 14 * B.p ** (4 * B.n + B.l + 4 * B.q - B.rank())
    if bad > bound:
        return f"omegagood violated: {bad} > {bound}"


def pythagoras(A, parts, refined_parts, N: int):
    """index(refined) - index(parts) = refinement_sum >= 0, exactly."""
    gain = index(A, refined_parts, N) - index(A, parts, N)
    rs = refinement_sum(A, parts, refined_parts, N)
    if gain != rs or gain < 0:
        return f"index identity violated: {gain} != {rs}"


# -- checks ------------------------------------------------------------------

def _first_failure(details):
    """The first failure detail among a check's identity results, or None."""
    return next((detail for detail in details if detail is not None), None)


def _n(level) -> int:
    """The group dimension of the checks that grow with the level."""
    return 3 if level == "full" else 2


def check_rank_oracle(level):
    rng = np.random.default_rng(11)
    details = []
    for _ in range(60):
        n = int(rng.integers(1, 5))
        rows = rng.integers(0, 3, size=(int(rng.integers(1, 6)), n))
        details.append(rank_identity([tuple(int(v) for v in r) for r in rows], 3))
    return _first_failure(details)


def check_atoms_partition(level):
    rng = np.random.default_rng(5)
    return _first_failure(atoms_partition(random_factor(3, _n(level), 2, 1, rng))
                          for _ in range(10))


def check_constraints_equivalence(level):
    rng = np.random.default_rng(7)
    details = []
    for _ in range(3):
        B = random_factor(3, 2, 2, 1, rng)
        tuples = np.indices((B.grp.size,) * 4)
        details.append(omega_membership(B, *tuples))
    if level == "full":
        B = random_factor(3, 4, 2, 2, rng)
        tuples = [rng.integers(0, B.grp.size, size=10 ** 5) for _ in range(4)]
        details.append(omega_membership(B, *tuples)
                       and "random disagreement at n=4")
    return _first_failure(details)


def check_omega_identity(level):
    rng = np.random.default_rng(13)
    return _first_failure(omega_identity(random_factor(3, _n(level), 1, 1, rng))
                          for _ in range(5))


def check_sigma1(level):
    B = random_factor(3, 2, 1, 1, np.random.default_rng(17))
    return sigma_label_sum(B)


def check_psi(level):
    return psi_fibres(group(3, 1))


def check_rewritenorm(level):
    rng = np.random.default_rng(19)
    return _first_failure(rewrite_identity(rng.uniform(-1, 1, g.size), g)
                          for g in (group(3, 1), group(3, 2)) for _ in range(3))


def check_chains(level):
    return _first_failure(chain_bounds(rho, C, d, 10 if level == "full" else 7)
                          for rho, C, d in CHAIN_RHOS)


def check_vc2_baselines(level):
    g, rng = group(3, 2), np.random.default_rng(23)
    return vc2_baselines(g) or _first_failure(
        vc2_translation(rng.random(g.size) < 0.5, g, int(rng.integers(0, g.size)))
        for _ in range(10))


def check_badcount1(level):
    rng = np.random.default_rng(29)
    details = []
    for _ in range(30):
        B = random_factor(3, _n(level), 1, 1, rng)
        details.append(badcount1_bound(B, []))
        details.append(badcount1_bound(B, [int(rng.integers(0, B.grp.size))]))
    return _first_failure(details)


def check_omegagood(level):
    """It cannot fail at the sizes run here (n = 2 or 3, l, q <= 1): the
    count is at most p^(4n), and at p = 3 the bound is above that unless
    r >= l+4q+3, which needs n >= 7 at q = 1."""
    rng = np.random.default_rng(31)
    return _first_failure(omegagood_bound(random_factor(3, _n(level), 1, 1, rng))
                          for _ in range(6))


def check_pythagoras(level):
    rng = np.random.default_rng(37)
    g = group(3, 2)
    details = []
    for _ in range(20):
        A = rng.random(g.size) < rng.uniform(0.2, 0.8)
        kp = int(rng.integers(1, 4))
        labels = rng.integers(0, kp, size=g.size)
        parts = [np.nonzero(labels == i)[0] for i in range(kp) if np.any(labels == i)]
        sub = rng.integers(0, 2, size=g.size)
        refined = [Q for P in parts for v in (0, 1) if len(Q := P[sub[P] == v])]
        details.append(pythagoras(A, parts, refined, g.size))
    return _first_failure(details)


# -- diagnostics CSVs --------------------------------------------------------

def write_size_diagnostics(path, level):
    """Observed vs predicted sizes: atoms, fibres, omega counts, and the
    weighted triple-product average (should hover near 1 at high rank)."""
    rng = np.random.default_rng(41)
    rows = []
    for fi in range(3):
        B = random_factor(3, _n(level), 1, 1, rng)
        r, p, N = B.rank(), float(B.p), B.grp.size
        rows += [(fi, r, "atom", e, len(B.enumerate_atom(e)),
                  p ** (B.n - B.l - B.q)) for e in B.all_labels()]
        rows += [(fi, r, "fibre", dp, fibre_size(B, dp), p ** (2 * B.n - B.q))
                 for dp in product(range(B.p), repeat=B.q)]
        rows += [(fi, r, "omega", e, omega_count(B, e), omega_predicted(B))
                 for e in B.all_labels()]
        # weighted triple-product average vs 1 on a sample of label tuples
        for d in islice(all_local_labels(B), 5):
            try:
                sizes, fibres = label_sizes(B, d)
            except DegenerateLabelError:
                continue
            k111 = len(k111_members(B, d))
            denom = math.prod(sizes + fibres, start=1.0)
            rows.append((fi, r, "triple_product_avg", d,
                         k111 * float(N) ** 6 / denom / N ** 3, 1.0))
    io.write_csv(path, (["factor", "rank", "kind", "label", "observed",
                         "predicted"], rows))


def write_norm_equivalence_diagnostics(path, level):
    """norm-equivalence diffs for nontrivial factors (never asserted)."""
    rng = np.random.default_rng(43)
    header = ["factor", "rank", *localnorms.REPORT_COLUMNS]
    rows = []
    for fi in range(2):
        B = random_factor(3, _n(level), 1, 1, rng)
        f = rng.uniform(-1, 1, B.grp.size)
        rows += [[fi] + [rep[c] for c in header[1:]]
                 for rep in localnorms.norm_equivalence_samples(f, B, 6)]
    io.write_csv(path, (header, rows))


CHECKS = [
    ("rank_oracle", check_rank_oracle),
    ("atoms_partition", check_atoms_partition),
    ("constraints_equivalence", check_constraints_equivalence),
    ("omega_identity", check_omega_identity),
    ("sigma_label_sum", check_sigma1),
    ("psi_fibres", check_psi),
    ("rewrite_identity", check_rewritenorm),
    ("chain_bounds", check_chains),
    ("vc2_baselines", check_vc2_baselines),
    ("badcount1_bound", check_badcount1),
    ("omegagood_bound", check_omegagood),
    ("pythagoras", check_pythagoras),
]


def verify_suite(level: str = "quick", out_dir: str | None = None) -> dict:
    """{check: its first failure detail, or None}, in CHECKS order."""
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    details = {name: fn(level) for name, fn in CHECKS}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_size_diagnostics(os.path.join(out_dir, "size_diagnostics.csv"), level)
        write_norm_equivalence_diagnostics(
            os.path.join(out_dir, "norm_equivalence.csv"), level)
    return details
