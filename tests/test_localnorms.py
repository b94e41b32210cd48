from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadreg import gowers, localnorms, verify
from quadreg.factors import QuadraticFactor
from quadreg.generators import random_factor
from quadreg.gf import group
from quadreg.localnorms import (DegenerateLabelError, LocalLabelTuple,
                                all_local_labels, fibre_size, k111_members,
                                k222_sum, label_sizes, norm_equivalence_report,
                                norm_P_eighth, norm_TW_eighth, omega_count,
                                omega_predicted, sigma_label,
                                trivial_local_label)
from reference import (atom_label_of, beta_Q, decode, k222_members,
                       omega_members)


def hyperplane_factor():
    return QuadraticFactor(3, 2, [(1, 0)], [])


def test_omega_count_hyperplane():
    # [DERIVED] spec worked example: l=1, q=0 at p=3, n=2 gives
    # |atom| * |L(0)|^3 = 3 * 27 = 81 for every label
    B = hyperplane_factor()
    for e in B.all_labels():
        assert omega_count(B, e) == 81


def test_omega_count_trivial_factor():
    B = QuadraticFactor(3, 2)
    e = ((), ())
    assert omega_count(B, e) == 9 ** 4
    assert omega_predicted(B) == 9.0 ** 4


@given(st.integers(0, 10 ** 9))
@settings(max_examples=20, deadline=None)
def test_omega_count_equals_cube_sum(seed):
    B = random_factor(3, 2, 2, 1, np.random.default_rng(seed))
    assert verify.omega_identity(B) is None


def test_omega_members_match_count():
    rng = np.random.default_rng(3)
    B = random_factor(3, 2, 1, 1, rng)
    g = B.grp
    for e in B.all_labels():
        mem = omega_members(B, e)
        assert len(mem) == omega_count(B, e)
        assert len(set(mem)) == len(mem)
        for (x, *hs) in mem[:50]:
            cube = [x]
            for h in hs:
                cube += [int(g.add[pt, h]) for pt in cube]
            assert all(atom_label_of(B, decode(g, pt)) == e for pt in cube)


def test_omega_codes_count_every_label():
    # on all of G^4, each label code occurs |Omega_{B(e)}| times under both
    # membership tests, and -1 marks every other tuple
    rng = np.random.default_rng(9)
    tuples = np.indices((9,) * 4).reshape(4, -1)
    for _ in range(4):
        B = random_factor(3, 2, 1, 2, rng)
        want = [omega_count(B, e) for e in B.all_labels()]
        for fn in (localnorms.omega_code_definitional_bulk,
                   localnorms.omega_code_constraints_bulk):
            codes = fn(B, *tuples)
            assert np.bincount(codes[codes >= 0], minlength=len(want)).tolist() == want
            assert np.all(codes >= -1)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_sigma_label_is_sum_label(seed):
    # for every (x,y,z) in G^3, the atom label of x+y+z is Sigma(d) for the
    # atom labels and pair values d of (x,y,z)
    B = random_factor(3, 2, 1, 2, np.random.default_rng(seed))
    assert verify.sigma_label_sum(B) is None


@pytest.mark.parametrize("broken", ["pair-factor-1", "no-d_bc"])
def test_sigma_check_catches_wrong_label(monkeypatch, broken):
    # the verify check groups all triples of G^3 by local label; a
    # sigma_label that gets the pair contributions wrong must fail it
    def wrong(B, d):
        if broken == "pair-factor-1":
            d = replace(d, d_ab=tuple(2 * v for v in d.d_ab),
                        d_ac=tuple(2 * v for v in d.d_ac),
                        d_bc=tuple(2 * v for v in d.d_bc))
        else:
            d = replace(d, d_bc=(0,) * B.q)
        return sigma_label(B, d)

    assert verify.check_sigma1("quick") is None
    monkeypatch.setattr(verify, "sigma_label", wrong)
    assert verify.check_sigma1("quick") is not None


def test_k222_trivial_factor_is_everything():
    B = QuadraticFactor(3, 1)
    d = trivial_local_label(B)
    mem = k222_members(B, d)
    assert len(mem) == 3 ** 6
    ones = np.ones(3)
    assert abs(k222_sum(ones, B, d) - 3 ** 6) < 1e-9
    assert len(k111_members(B, d)) == 3 ** 3


def test_k222_members_respect_labels():
    # the reference enumeration, built from the scalar forms, against the
    # factor's label and pair code tables
    rng = np.random.default_rng(5)
    B = random_factor(3, 2, 1, 1, rng)
    lc, bq = B.label_codes(), B.bq_tables()
    labels = [d for d in all_local_labels(B)]
    rng.shuffle(labels)
    seen = 0
    for d in labels:
        mem = np.array(k222_members(B, d)).reshape(-1, 6)
        if not len(mem):
            continue
        seen += 1
        x, y, z = mem[:, 0:2], mem[:, 2:4], mem[:, 4:6]
        for pts, lab in ((x, d.d_a), (y, d.d_b), (z, d.d_c)):
            assert np.all(lc[pts] == B.label_to_code(lab))
        for us, vs, pair in ((x, y, d.d_ab), (x, z, d.d_ac), (y, z, d.d_bc)):
            assert np.all(bq[us[:, :, None], vs[:, None, :]] == B.pair_code(pair))
        if seen >= 5:
            break
    assert seen >= 1


def test_fibre_size_trivial():
    B = QuadraticFactor(3, 2)
    assert fibre_size(B, ()) == 81  # all N^2 pairs, no constraint
    B2 = QuadraticFactor(3, 1, [], [[[1]]])
    total = sum(fibre_size(B2, (v,)) for v in range(3))
    assert total == 9


def test_trivial_norms_equal():
    p, n = 3, 2
    g = group(p, n)
    f = np.random.default_rng(0).uniform(-1, 1, size=g.size)
    B = QuadraticFactor(p, n)
    u3 = gowers.u3_eighth_fast(f, g) / p ** (4 * n)
    p8 = norm_P_eighth(f, B, ((), ()))
    tw8 = norm_TW_eighth(f, B, trivial_local_label(B))
    assert abs(p8 - u3) < 1e-9
    assert abs(tw8 - u3) < 1e-9


def test_tw_matches_definitional_bruteforce():
    # the weighted eighth power, computed straight from the definition:
    # expectations over atoms, twelve (N^2/|fibre|) 1_fibre weights, and the
    # 8-fold product of f over the sums
    from itertools import product as iproduct
    p, n = 3, 2
    B = QuadraticFactor(p, n, [], [[[1, 0], [0, 1]]])
    g = B.grp
    N = g.size
    f = np.random.default_rng(7).uniform(-1, 1, N)
    d = LocalLabelTuple(((), (1,)), ((), (1,)), ((), (2,)), (0,), (1,), (2,))
    atoms = [list(B.enumerate_atom(lab)) for lab in (d.d_a, d.d_b, d.d_c)]

    def bq(u, v):
        return beta_Q(B, decode(g, u), decode(g, v))

    fib = {v: fibre_size(B, (v,)) for v in range(p)}
    total = 0.0
    for x0, x1 in iproduct(atoms[0], repeat=2):
        for y0, y1 in iproduct(atoms[1], repeat=2):
            for z0, z1 in iproduct(atoms[2], repeat=2):
                w = 1.0
                for xi in (x0, x1):
                    for yj in (y0, y1):
                        w *= (N * N / fib[d.d_ab[0]]) * (bq(xi, yj) == d.d_ab)
                    for zj in (z0, z1):
                        w *= (N * N / fib[d.d_ac[0]]) * (bq(xi, zj) == d.d_ac)
                for yi in (y0, y1):
                    for zj in (z0, z1):
                        w *= (N * N / fib[d.d_bc[0]]) * (bq(yi, zj) == d.d_bc)
                if w == 0.0:
                    continue
                pf = 1.0
                for xi in (x0, x1):
                    for yj in (y0, y1):
                        for zk in (z0, z1):
                            pf *= f[g.add[g.add[xi, yj], zk]]
                total += w * pf
    sizes = [len(a) for a in atoms]
    brute = total / (sizes[0] ** 2 * sizes[1] ** 2 * sizes[2] ** 2)
    lib = norm_TW_eighth(f, B, d)
    assert abs(brute - lib) <= 1e-9 * max(1.0, abs(brute))


def test_norm_report_refuses_a_label_that_is_not_the_sum():
    B = QuadraticFactor(3, 2, [(1, 0)], [[[1, 0], [0, 1]]])
    d = trivial_local_label(B)
    f = np.ones(B.grp.size)
    assert norm_equivalence_report(f, B, sigma_label(B, d), d)["label"]
    with pytest.raises(ValueError, match="not the sum label"):
        norm_equivalence_report(f, B, ((1,), (0,)), d)


def test_degenerate_label_raises():
    # x^T x = 2 over F_3^1 takes values {0, 1}: atom "2" is empty
    B = QuadraticFactor(3, 1, [], [[[1]]])
    zero = ((), (2,))
    d = LocalLabelTuple(zero, zero, zero, (0,), (0,), (0,))
    with pytest.raises(DegenerateLabelError):
        norm_TW_eighth(np.ones(3), B, d)
    with pytest.raises(DegenerateLabelError):
        label_sizes(B, d)
    ok = LocalLabelTuple(((), (1,)), ((), (1,)), ((), (0,)), (0,), (1,), (2,))
    assert label_sizes(B, ok) == ([2, 2, 1], [5, 2, 2])


def test_all_local_labels_order():
    # the verify and norms CSVs list labels in this order
    B = QuadraticFactor(3, 2, [(1, 0)], [[[1, 0], [0, 1]]])
    labels = list(B.all_labels())
    pairs = [(0,), (1,), (2,)]
    nested = [LocalLabelTuple(a, b, c, ab, ac, bc)
              for a in labels for b in labels for c in labels
              for ab in pairs for ac in pairs for bc in pairs]
    assert list(all_local_labels(B)) == nested


def test_norm_p_empty_atom_is_zero():
    B = QuadraticFactor(3, 1, [], [[[1]]])
    assert norm_P_eighth(np.ones(3), B, ((), (2,))) == 0.0
