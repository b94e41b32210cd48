"""Verification-suite runner: every exhaustive identity check from the
module invariants, at level "quick" (tiny instances) or "full" (adds the
n=3 items).  Emits diagnostics CSVs (size-lemma ratios, norm-equivalence
diffs) next to the machine-readable pass/fail report.
"""

from __future__ import annotations

import csv
import math
import os
from fractions import Fraction
from itertools import islice, product

import numpy as np

from . import gf, gowers, localnorms, vc2
from .chains import (corollary_chain_bound, disc, f_table, linear_growth,
                     ones_count, poly_growth)
from .factors import QuadraticFactor
from .generators import random_factor
from .gf import group
from .localnorms import (DegenerateLabelError, LocalLabelTuple,
                         all_local_labels, fibre_size, k111_members,
                         label_sizes, omega_count, omega_predicted,
                         sigma_label)
from .regularity import pythagoras_check


# -- helpers -----------------------------------------------------------------

def _images(B: QuadraticFactor, x: int) -> list:
    """M_j x for every matrix of B, as row tuples."""
    xd = B.grp.decode(x)
    return [gf.mat_mul_vec(M, xd, B.p) for M in B.Q]


def count_bad_w_tuples(B: QuadraticFactor) -> int:
    """Number of (w_1..w_4) in G^4 with L u {M w_i} not independent.
    DFS over w's with the echelon basis of the current span as memo key."""
    p, N = B.p, B.grp.size
    images = [_images(B, w) for w in range(N)]
    memo = {}

    def good(ech, depth):
        if depth == 0:
            return 1
        key = (ech, depth)
        if key not in memo:
            total = 0
            for rows in images:
                ext, rank = gf.rref(list(ech) + rows, p)
                if rank == len(ech) + len(rows):
                    total += good(tuple(ext), depth - 1)
            memo[key] = total
        return memo[key]

    return N ** 4 - good(tuple(gf.row_space_basis(B.L, p)), 4)


def count_bad_x(B: QuadraticFactor, S):
    """|{x : L u {Mw: w in S} u {Mx} not independent}| by brute force;
    None when L u {Mw: w in S} is itself dependent."""
    base = list(B.L) + [v for w in S for v in _images(B, w)]
    ech, rank = gf.rref(base, B.p)
    if rank < len(base):
        return None
    return sum(gf.mat_rank(ech + _images(B, x), B.p) < rank + B.q
               for x in range(B.grp.size))


# -- checks ------------------------------------------------------------------

def check_rank_oracle(level):
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        rows = rng.integers(0, 3, size=(int(rng.integers(1, 6)), n))
        rows = [tuple(int(v) for v in r) for r in rows]
        if gf.mat_rank(rows, 3) != gf.mat_rank_bruteforce(rows, 3):
            return {"ok": False, "detail": f"rank mismatch on {rows}"}
        cols = list(zip(*rows))
        if gf.mat_rank(rows, 3) != gf.mat_rank(cols, 3):
            return {"ok": False, "detail": "rank != transpose rank"}
    return {"ok": True}


def check_atoms_partition(level):
    rng = np.random.default_rng(5)
    n = 3 if level == "full" else 2
    for _ in range(10):
        B = random_factor(3, n, 2, 1, rng)
        sizes = sum(len(B.enumerate_atom(lab)) for lab in B.all_labels())
        if sizes != B.grp.size:
            return {"ok": False, "detail": f"atoms don't cover G for {B}"}
    return {"ok": True}


def check_constraints_equivalence(level):
    rng = np.random.default_rng(7)
    for _ in range(3):
        B = random_factor(3, 2, 2, 1, rng)
        N = B.grp.size
        idx = np.arange(N)
        X, H1, H2, H3 = np.meshgrid(idx, idx, idx, idx, indexing="ij")
        for e in B.all_labels():
            a = localnorms.omega_member_definitional_bulk(B, e, X, H1, H2, H3)
            b = localnorms.omega_member_constraints_bulk(B, e, X, H1, H2, H3)
            if not np.array_equal(a, b):
                return {"ok": False, "detail": f"disagreement for {B}, {e}"}
    if level == "full":
        B = random_factor(3, 4, 2, 2, rng)
        N = B.grp.size
        T = 10 ** 5
        X, H1, H2, H3 = (rng.integers(0, N, size=T) for _ in range(4))
        e = B.atom_label_of(B.grp.decode(int(rng.integers(0, N))))
        a = localnorms.omega_member_definitional_bulk(B, e, X, H1, H2, H3)
        b = localnorms.omega_member_constraints_bulk(B, e, X, H1, H2, H3)
        if not np.array_equal(a, b):
            return {"ok": False, "detail": "random disagreement at n=4"}
    return {"ok": True}


def check_omega_identity(level):
    rng = np.random.default_rng(13)
    n = 3 if level == "full" else 2
    for _ in range(5):
        B = random_factor(3, n, 1, 1, rng)
        for e in B.all_labels():
            ind = B.atom_indicator(e).astype(np.int64)
            if omega_count(B, e) != gowers.u3_eighth_naive(ind, B.grp):
                return {"ok": False, "detail": f"omega mismatch {B} {e}"}
    return {"ok": True}


def check_sigma1(level):
    """x+y+z lies in the atom sigma_label(d) for every triple (x, y, z) in
    G^3, d its local label: the atom labels of x, y, z and the pair values
    beta_Q(x,y), beta_Q(x,z), beta_Q(y,z).  Triples are grouped by label,
    so sigma_label runs once per label that occurs."""
    rng = np.random.default_rng(17)
    B = random_factor(3, 2, 1, 1, rng)
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
        d = local_label(rows[bad[0]])
        return {"ok": False, "detail": f"triple sums outside atom {d}"}
    return {"ok": True}


def check_psi(level):
    g = group(3, 1)
    N = g.size
    w, ha, hb, hc = localnorms.psi_map(g, *np.indices((N,) * 6))
    fibres = np.bincount((((w * N + ha) * N + hb) * N + hc).ravel(),
                         minlength=N ** 4)
    hit = fibres[fibres > 0]
    if set(hit.tolist()) != {N ** 2}:
        return {"ok": False, "detail": "fibre sizes off"}
    if hit.size != N ** 4:
        return {"ok": False, "detail": "psi not surjective"}
    return {"ok": True}


def check_rewritenorm(level):
    rng = np.random.default_rng(19)
    for n in (1, 2):
        g = group(3, n)
        for _ in range(3):
            f = rng.uniform(-1, 1, g.size)
            lhs = gowers.u3_eighth_naive(f, g)
            rhs = gowers.rewrite_sum_g6(f, g) / g.size ** 2
            if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
                return {"ok": False, "detail": f"rewrite identity off at n={n}"}
    return {"ok": True}


def check_chains(level):
    cap = 10 if level == "full" else 7
    rhos = [(linear_growth(1), Fraction(2), 1), (linear_growth(2), Fraction(2), 1),
            (poly_growth(1, 2), Fraction(2), 2), (poly_growth(3, 2), Fraction(3), 2)]
    for rho, C, dd in rhos:
        # disc(s) >= 0 means k >= m / 2 ones
        lbound = {(m, k): corollary_chain_bound(C, dd, m, k)[0]
                  for m in range(1, cap + 1) for k in range((m + 1) // 2, m + 1)}
        for s, (a, b) in f_table(rho, cap).items():
            if s and disc(s) >= 0:
                m, k = len(s), ones_count(s)
                if a > lbound[m, k] or b != 2 * k - m:
                    return {"ok": False, "detail": f"chain bound {s}"}
    return {"ok": True}


def check_vc2_baselines(level):
    g = group(3, 2)
    empty = np.zeros(g.size, dtype=bool)
    full = np.ones(g.size, dtype=bool)
    if vc2.vc2_dim(empty, g)[0] != 0 or vc2.vc2_dim(full, g)[0] != 0:
        return {"ok": False, "detail": "empty/full baseline broken"}
    rng = np.random.default_rng(23)
    for _ in range(10):
        A = rng.random(g.size) < 0.5
        t = int(rng.integers(0, g.size))
        shifted = A[g.add[g.neg[t], :]]
        if vc2.vc2_dim(A, g, 2) != vc2.vc2_dim(shifted, g, 2):
            return {"ok": False, "detail": "translation variance"}
    return {"ok": True}


def check_badcount1(level):
    rng = np.random.default_rng(29)
    n = 3 if level == "full" else 2
    tried = 0
    for _ in range(30):
        B = random_factor(3, n, 1, 1, rng)
        r = B.rank()
        for k in (0, 1):
            S = [int(rng.integers(0, B.grp.size))] if k else []
            bad = count_bad_x(B, S)
            if bad is None:
                continue
            bound = B.p ** (n + B.l + (k + 1) * B.q - r)
            if bad > bound:
                return {"ok": False,
                        "detail": f"badcount1 violated: {bad} > {bound}"}
            tried += 1
    return {"ok": tried > 0, "detail": f"{tried} instances"}


def check_omegagood(level):
    """count_bad_w_tuples(B) <= 14 p^(4n+l+4q-r) on random factors.  It
    cannot fail at the sizes run here (n = 2 or 3, l, q <= 1): the count is
    at most p^(4n), and at p = 3 the bound is above that unless
    r >= l+4q+3, which needs n >= 7 at q = 1."""
    rng = np.random.default_rng(31)
    n = 3 if level == "full" else 2
    for _ in range(6):
        B = random_factor(3, n, 1, 1, rng)
        r = B.rank()
        bad = count_bad_w_tuples(B)
        bound = 14 * B.p ** (4 * n + B.l + 4 * B.q - r)
        if bad > bound:
            return {"ok": False, "detail": f"omegagood violated: {bad} > {bound}"}
    return {"ok": True}


def check_pythagoras(level):
    rng = np.random.default_rng(37)
    g = group(3, 2)
    for _ in range(20):
        A = rng.random(g.size) < rng.uniform(0.2, 0.8)
        kp = int(rng.integers(1, 4))
        labels = rng.integers(0, kp, size=g.size)
        parts = [np.nonzero(labels == i)[0] for i in range(kp)
                 if np.any(labels == i)]
        sub = rng.integers(0, 2, size=g.size)
        refined = []
        for P in parts:
            for v in (0, 1):
                Q = P[sub[P] == v]
                if len(Q):
                    refined.append(Q)
        pythagoras_check(A, parts, refined, g.size)
    return {"ok": True}


# -- diagnostics CSVs --------------------------------------------------------

def write_size_diagnostics(path, level):
    """Observed vs predicted sizes: atoms, fibres, omega counts, and the
    weighted triple-product average (should hover near 1 at high rank)."""
    rng = np.random.default_rng(41)
    n = 3 if level == "full" else 2
    rows = []
    for fi in range(3):
        B = random_factor(3, n, 1, 1, rng)
        r = B.rank()
        pred_atom = float(B.p) ** (B.n - B.l - B.q)
        for e in B.all_labels():
            rows.append({
                "factor": fi, "rank": r, "kind": "atom",
                "label": str(e), "observed": len(B.enumerate_atom(e)),
                "predicted": pred_atom,
            })
        for dp in product(range(B.p), repeat=B.q):
            rows.append({
                "factor": fi, "rank": r, "kind": "fibre",
                "label": str(dp), "observed": fibre_size(B, dp),
                "predicted": float(B.p) ** (2 * B.n - B.q),
            })
        for e in B.all_labels():
            rows.append({
                "factor": fi, "rank": r, "kind": "omega",
                "label": str(e), "observed": omega_count(B, e),
                "predicted": omega_predicted(B),
            })
        # weighted triple-product average vs 1 on a sample of label tuples
        N = B.grp.size
        for d in islice(all_local_labels(B), 5):
            try:
                sizes, fibres = label_sizes(B, d)
            except DegenerateLabelError:
                continue
            k111 = len(k111_members(B, d))
            denom = math.prod(sizes + fibres, start=1.0)
            rows.append({
                "factor": fi, "rank": r, "kind": "triple_product_avg",
                "label": str(d), "observed": k111 * float(N) ** 6 / denom / N ** 3,
                "predicted": 1.0,
            })
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["factor", "rank", "kind", "label",
                                           "observed", "predicted"])
        w.writeheader()
        w.writerows(rows)


def write_norm_equivalence_diagnostics(path, level):
    """norm-equivalence diffs for nontrivial factors (never asserted)."""
    rng = np.random.default_rng(43)
    n = 3 if level == "full" else 2
    rows = []
    for fi in range(2):
        B = random_factor(3, n, 1, 1, rng)
        f = rng.uniform(-1, 1, B.grp.size)
        rows += [{"factor": fi, **rep}
                 for rep in localnorms.norm_equivalence_samples(f, B, 6)]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["factor", "rank",
                                           *localnorms.REPORT_COLUMNS],
                           extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)


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
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    results = {}
    ok = True
    for name, fn in CHECKS:
        res = fn(level)
        results[name] = res
        ok = ok and res["ok"]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_size_diagnostics(os.path.join(out_dir, "size_diagnostics.csv"), level)
        write_norm_equivalence_diagnostics(
            os.path.join(out_dir, "norm_equivalence.csv"), level)
    return {"ok": ok, "level": level, "checks": results}
