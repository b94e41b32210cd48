"""End-to-end acceptance checks for the whole toolkit.

Each test exercises one headline guarantee: the combinatorial identities
behind the local norms, the chain-calculus bounds, the exact energy
bookkeeping of the decomposition algorithms, and recovery of planted
structure.  Where quadreg.verify owns an identity, the test runs that owner
on its own instances.
"""

from itertools import product

import numpy as np
import pytest

from quadreg import gowers, localnorms, verify, vc2
from quadreg.chains import GrowthFunction, f_table, tau
from quadreg.cli import main as cli_main
from quadreg.factors import QuadraticFactor, rank_refine
from quadreg.generators import random_factor
from quadreg.gf import group
from quadreg.io import save_json, set_to_dict
from quadreg.localnorms import (k222_sum, norm_P_eighth, norm_TW_eighth,
                                psi_map, sigma_label, trivial_local_label)
from quadreg.regularity import assemble_main, cylinder_decompose, validate_cells
from quadreg.verify import CHAIN_RHOS
from reference import (k222_codes, local_label, preimage_intersection,
                       refines, tau_closed_bound)

P = 3


def planted_n3():
    """Union-of-atoms plant at n=3: one level set of x^T x, rank 3, q=1."""
    B = QuadraticFactor(P, 3, [], [np.eye(3, dtype=int).tolist()])
    return B, B.atom_indicator(((), (2,)))


# 2. omega-count identity ---------------------------------------------------

def test_accept_02_omega_identity():
    rng = np.random.default_rng(202)
    for _ in range(20):
        assert verify.omega_identity(random_factor(P, 2, 2, 1, rng)) is None


# 3. definitional vs constraint membership ----------------------------------

def test_accept_03_constraints_equivalence_exhaustive_n2():
    rng = np.random.default_rng(303)
    tuples = np.indices((P ** 2,) * 4).reshape(4, -1)
    for _ in range(4):
        B = random_factor(P, 2, 2, 2, rng)
        assert verify.omega_membership(B, *tuples) is None


def test_accept_03_constraints_equivalence_random_n4():
    rng = np.random.default_rng(304)
    B = random_factor(P, 4, 2, 2, rng)
    tuples = [rng.integers(0, B.grp.size, size=10 ** 6) for _ in range(4)]
    assert verify.omega_membership(B, *tuples) is None


# 4. structure of the change of variables -----------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_accept_04_psi_surjective_uniform_fibres(n):
    assert verify.psi_fibres(group(P, n)) is None


@pytest.mark.parametrize("n", [1, 2])
def test_accept_04_rewrite_identity(n):
    g = group(P, n)
    rng = np.random.default_rng(404)
    for _ in range(20):
        assert verify.rewrite_identity(rng.uniform(-1.0, 1.0, size=g.size), g) is None


# 5. preimage parametrization -----------------------------------------------

def five_seeded_factors_n2():
    return [
        QuadraticFactor(P, 2),
        QuadraticFactor(P, 2, [(1, 0)], []),
        QuadraticFactor(P, 2, [(1, 0), (0, 1)], []),
        QuadraticFactor(P, 2, [], [[[1, 0], [0, 1]]]),
        QuadraticFactor(P, 2, [(1, 2)], [[[1, 2], [2, 0]]]),
    ]


def k222_by_label(B):
    """(codes, members): the local-label code of every member of every
    K222(d), and the members as rows (x1, x2, y1, y2, z1, z2)."""
    codes = k222_codes(B)
    idx = np.nonzero(codes >= 0)[0]
    return codes[idx], np.stack(np.unravel_index(idx, (B.grp.size,) * 6), axis=1)


@pytest.mark.parametrize("fi", range(5))
def test_accept_05_preimage_parametrization(fi):
    B = five_seeded_factors_n2()[fi]
    g = B.grp
    N = g.size
    # one psi_map call for every member of every K222(d), then the members
    # grouped by their label d and the code of their image
    labels, mem = k222_by_label(B)
    images = np.stack(psi_map(g, *mem.T), axis=1)
    keys = labels * N ** 4 + images @ np.array([N ** 3, N ** 2, N, 1])
    order = np.argsort(keys, kind="stable")
    starts = np.unique(keys[order], return_index=True)[1]
    omega = localnorms.omega_code_definitional_bulk(B, *images.T)
    for idx in np.split(order, starts[1:]):
        d = local_label(B, int(labels[idx[0]]))
        e = sigma_label(B, d)
        # every image point must be an omega tuple of the sum label
        assert omega[idx[0]] == B.label_to_code(e)
        expect = set(map(tuple, mem[idx].tolist()))
        assert preimage_intersection(B, d, e, *images[idx[0]].tolist()) == expect


def test_accept_05_k222_sum_matches_members():
    # k222_sum(f, B, d) is the sum over K222(d) of prod f(x_i + y_j + z_k)
    rng = np.random.default_rng(505)
    for B in five_seeded_factors_n2():
        g = B.grp
        f = rng.uniform(-1.0, 1.0, size=g.size)
        labels, mem = k222_by_label(B)
        prod = np.ones(len(mem))
        for x in mem.T[0:2]:
            for y in mem.T[2:4]:
                for z in mem.T[4:6]:
                    prod *= f[g.add[g.add[x, y], z]]
        codes, inverse = np.unique(labels, return_inverse=True)
        for code, want in zip(codes.tolist(), np.bincount(inverse, weights=prod)):
            got = k222_sum(f, B, local_label(B, code))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# 6. trivial-factor norm equality -------------------------------------------

def test_accept_06_trivial_factor_norms():
    rng = np.random.default_rng(606)
    for n in (1, 2, 3):
        g = group(P, n)
        B = QuadraticFactor(P, n)
        e = ((), ())
        d = trivial_local_label(B)
        for _ in range(50):
            f = rng.uniform(-1.0, 1.0, size=g.size)
            u3 = gowers.u3_eighth_fast(f, g) / P ** (4 * n)
            p8 = norm_P_eighth(f, B, e)
            tw8 = norm_TW_eighth(f, B, d)
            assert abs(p8 - u3) <= 1e-9 * max(1.0, abs(u3))
            assert abs(tw8 - u3) <= 1e-9 * max(1.0, abs(u3))


# 7. chain calculus ---------------------------------------------------------


@pytest.mark.parametrize("ri", range(4))
def test_accept_07_seq1_append_preserves_domination(ri):
    rho, _, _ = CHAIN_RHOS[ri]
    table = f_table(rho, 12)
    mus = [m for ln in range(7) for m in product((-1, 1), repeat=ln)]
    for t in range(7):
        strings = list(product((-1, 1), repeat=t))
        for s1 in strings:
            a1, b1 = table[s1]
            for s2 in strings:
                a2, b2 = table[s2]
                if not (a1 <= a2 and b1 <= b2):
                    continue
                for mu in mus:
                    c1, d1 = table[s1 + mu]
                    c2, d2 = table[s2 + mu]
                    assert c1 <= c2 and d1 <= d2
                    if b1 == b2:
                        assert d1 == d2


@pytest.mark.parametrize("ri", range(4))
def test_accept_07_seq2_swap_monotone(ri):
    rho, _, _ = CHAIN_RHOS[ri]
    table = f_table(rho, 10)
    for m in range(2, 11):
        for s in product((-1, 1), repeat=m):
            for i in range(m - 1):
                if s[i] == -1 and s[i + 1] == 1:
                    phi = s[:i] + (1, -1) + s[i + 2:]
                    assert table[s][0] <= table[phi][0]
                    assert table[s][1] == table[phi][1]


@pytest.mark.parametrize("ri", range(4))
def test_accept_07_seq3_frontloaded_maximizes(ri):
    rho, _, _ = CHAIN_RHOS[ri]
    table = f_table(rho, 10)
    for m in range(1, 11):
        for s in product((-1, 1), repeat=m):
            k = s.count(1)
            theta = (1,) * k + (-1,) * (m - k)
            assert table[s][0] <= table[theta][0]
            assert table[s][1] == table[theta][1]


@pytest.mark.parametrize("ri", range(4))
def test_accept_07_seq4_closed_form_bounds(ri):
    assert verify.chain_bounds(*CHAIN_RHOS[ri], 10) is None


@pytest.mark.parametrize("ri", range(4))
def test_accept_07_tau_closed_bound(ri):
    rho, C, deg = CHAIN_RHOS[ri]
    for i in range(0, 6):
        for x in range(0, 21):
            for y in range(max(i, 0), 21):
                assert tau(rho, i, x, y) <= tau_closed_bound(C, deg, i, x, y)


# 8. exact Pythagoras -------------------------------------------------------

def test_accept_08_pythagoras_100_random():
    g = group(P, 2)
    rng = np.random.default_rng(808)
    for _ in range(100):
        A = rng.random(g.size) < rng.uniform(0.1, 0.9)
        coarse_f = random_factor(P, 2, 1, 1, rng)
        extra = random_factor(P, 2, 1, 1, rng)
        codes_c = coarse_f.label_codes()
        codes_e = extra.label_codes()
        coarse = [np.nonzero(codes_c == c)[0] for c in np.unique(codes_c)]
        fine = [part[codes_e[part] == c] for part in coarse
                for c in np.unique(codes_e[part])]
        assert verify.pythagoras(A, coarse, fine, g.size) is None


# 9. rank-refinement contract ------------------------------------------------

def test_accept_09_rank_refine_contract():
    rho = GrowthFunction(1)
    rng = np.random.default_rng(909)
    n = 4
    for _ in range(100):
        B = random_factor(P, n, 3, 3, rng)
        B2, deletions, feasible = rank_refine(B, rho)
        assert refines(B2, B)
        assert B2.q <= B.q
        assert B2.l <= tau(rho, B.q, B.l, B.q)
        if B2.q >= 1:
            assert B2.rank() >= rho(B2.l + B2.q)
        else:
            assert feasible == (n >= rho(B2.l))


# 10/11. planted recovery and energy accounting ------------------------------

@pytest.fixture(scope="module")
def planted_run():
    B, A = planted_n3()
    cells, report = cylinder_decompose(A, 0.4, GrowthFunction(1), p=P, n=3,
                                       seed=0)
    return A, cells, report


def test_accept_10_cli_planted_recovery(tmp_path, planted_run):
    _, A = planted_n3()
    spath = tmp_path / "planted.json"
    save_json(spath, set_to_dict(A, P, 3))
    out = tmp_path / "run"
    rc = cli_main(["decompose", "--mode", "cylinder", "--set", str(spath),
                   "--delta", "0.4", "--out", str(out)])
    assert rc == 0
    assert (out / "partition.json").exists()
    assert (out / "trace.csv").exists()


def test_accept_10_cells_are_pure_and_chains_valid(planted_run):
    A, cells, _ = planted_run
    g = group(P, 3)
    validate_cells(cells, GrowthFunction(1), g.size)
    for c in cells:
        assert c.density in (0.0, 1.0)


def test_accept_10_assemble_recovers_exactly():
    B, A = planted_n3()
    Bout, Y, report = assemble_main(A, 0.4, GrowthFunction(1), p=P, n=3,
                                    seed=0)
    assert report["sym_diff"] == 0
    assert np.array_equal(Y, A)


def check_energy_trace(trace):
    assert len(trace) >= 1
    prev_after = None
    for t in trace:
        if prev_after is not None:
            assert t.index_before >= prev_after
        assert t.index_after >= t.index_before
        if t.kind == 1:
            gain = t.index_after - t.index_before
            assert gain >= t.jensen_bound  # exact rational comparison
            assert float(gain) >= t.corr_bound - 1e-9
        prev_after = t.index_after


def test_accept_11_energy_accounting_planted(planted_run):
    _, _, report = planted_run
    check_energy_trace(report["trace"])


def test_accept_11_energy_accounting_random_runs():
    g = group(P, 3)
    any_steps = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        A = rng.random(g.size) < 0.5
        cells, report = cylinder_decompose(A, 0.3, GrowthFunction(1),
                                           p=P, n=3, seed=seed)
        trace = report["trace"]
        if trace:
            any_steps += 1
            check_energy_trace(trace)
        validate_cells(cells, GrowthFunction(1), g.size)
    assert any_steps >= 5  # delta=0.3 forces real work on most seeds


# 12. VC2 baselines and fixtures ---------------------------------------------

def test_accept_12_vc2_baselines():
    assert verify.vc2_baselines(group(P, 2)) is None


def test_accept_12_translation_invariance():
    g = group(P, 2)
    rng = np.random.default_rng(1212)
    for _ in range(50):
        A = rng.random(g.size) < rng.uniform(0.2, 0.8)
        assert verify.vc2_translation(A, g, int(rng.integers(0, g.size))) is None


# regression fixtures: exhaustive values computed once at p=3, n=3 and frozen
VC_FIXTURES = [
    # (L, Q, label, |A|, vc_dim(kmax=3), (value, saturated) of vc2_search(kmax=3))
    ([], [np.eye(3, dtype=int).tolist()], ((), (0,)), 9, 3, (1, False)),
    ([], [np.eye(3, dtype=int).tolist()], ((), (2,)), 12, 3, (1, False)),
    ([(1, 0, 0)], [], ((0,), ()), 9, 1, (1, False)),
    ([(1, 1, 0)], [[[1, 0, 0], [0, 0, 1], [0, 1, 0]]], ((1,), (1,)),
     5, 3, (1, False)),
]


@pytest.mark.parametrize("fi", range(len(VC_FIXTURES)))
def test_accept_12_regression_fixtures(fi):
    L, Q, label, size, vd, v2 = VC_FIXTURES[fi]
    g = group(P, 3)
    B = QuadraticFactor(P, 3, L, Q)
    A = B.atom_indicator(label)
    assert int(A.sum()) == size
    assert vc2.vc_dim(A, g, 3) == vd
    assert vc2.vc2_search(A, g, 3)[:2] == v2
