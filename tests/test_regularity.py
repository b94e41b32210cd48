from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from quadreg import factors, regularity, verify
from quadreg.chains import GrowthFunction
from quadreg.factors import QuadraticFactor
from quadreg.generators import generate_set, random_factor
from quadreg.gf import group
from quadreg.localnorms import norm_P_eighth
from quadreg.regularity import (BudgetExceeded, assemble_main, budget,
                                cylinder_decompose, global_decompose, index,
                                inverse_oracle, threshold, validate_cells)
from reference import correlation, encode, poly_values


def atom_parts(B):
    codes = B.label_codes()
    return [np.nonzero(codes == c)[0] for c in np.unique(codes)]


def planted_set(p=3, n=2):
    # one atom of the full-rank factor (no linear part, identity matrix)
    B = QuadraticFactor(p, n, [], [np.eye(n, dtype=int).tolist()])
    return B.atom_indicator(((), (2,)))


def test_index_trivial_partition():
    g = group(3, 2)
    A = planted_set()
    parts = [np.arange(g.size)]
    alpha = Fraction(int(np.count_nonzero(A)), g.size)
    assert index(A, parts, g.size) == alpha ** 2


def test_index_fine_partition_is_density_times_alpha():
    # singleton parts: ind = E[1_A^2] = alpha
    g = group(3, 2)
    A = planted_set()
    parts = [np.array([i]) for i in range(g.size)]
    assert index(A, parts, g.size) == Fraction(int(np.count_nonzero(A)), g.size)


def test_pythagoras_exact_random():
    g = group(3, 2)
    rng = np.random.default_rng(0)
    for _ in range(25):
        A = rng.random(g.size) < rng.uniform(0.2, 0.8)
        B = random_factor(3, 2, 1, 1, rng)
        Bf = random_factor(3, 2, 2, 2, rng)
        # refine by intersecting the two atom partitions
        coarse = atom_parts(B)
        fine = []
        for P in coarse:
            codes = Bf.label_codes()[P]
            for c in np.unique(codes):
                fine.append(P[codes == c])
        assert verify.pythagoras(A, coarse, fine, g.size) is None


def test_threshold_and_budget():
    assert threshold(0.5) == 0.5 ** 4 / 4
    assert budget(0.5) == int(np.ceil(16 * 0.5 ** -10))
    # an exact int past a float's range: 16 * 1e400, to float precision
    assert type(budget(1e-40)) is int
    assert abs(budget(1e-40) - 16 * 10 ** 400) < 10 ** 387


# the seed-1 random set on F_3^3 takes 4 cylinder steps and 2 global steps
@pytest.mark.parametrize("decompose,steps", [(cylinder_decompose, 4),
                                             (global_decompose, 2)])
def test_max_steps_is_the_step_budget(decompose, steps):
    A = generate_set("random", {}, 1, 3, 3)
    for k in (0, steps - 1):
        with pytest.raises(BudgetExceeded) as e:
            decompose(A, 0.3, GrowthFunction(1), p=3, n=3, max_steps=k)
        assert len(e.value.state["trace"]) == k
    _, report = decompose(A, 0.3, GrowthFunction(1), p=3, n=3, max_steps=steps)
    assert report["steps"] == len(report["trace"]) == steps


@pytest.mark.parametrize("decompose", [cylinder_decompose, global_decompose])
@pytest.mark.parametrize("size", [8, 10])
def test_decompose_refuses_a_set_of_the_wrong_length(decompose, size):
    with pytest.raises(ValueError, match="dense over 9"):
        decompose(np.zeros(size, dtype=bool), 0.4, GrowthFunction(1),
                  p=3, n=2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_order_is_matrix_order(n):
    # the oracle's design columns and _coeffs_to_matrix share one order
    g = group(3, n)
    design = regularity._monomial_design(g)
    for c in np.random.default_rng(n).integers(0, 3, size=(5, design.shape[1])):
        M = regularity._coeffs_to_matrix(g, c.tolist())
        assert np.array_equal(poly_values(g, M, (0,) * n, 0), design @ c % 3)


def test_inverse_oracle_finds_planted_witness():
    g = group(3, 2)
    A = planted_set().astype(np.float64)
    f = A - A.mean()
    wit = inverse_oracle(f, g, np.arange(g.size), 0.4, np.random.default_rng(0))
    assert wit is not None
    assert wit.correlation >= threshold(0.4)


@pytest.mark.parametrize("search", ["exhaustive", "randomized"])
@pytest.mark.parametrize("n", [2, 3])
def test_witness_achieves_reported_correlation(monkeypatch, n, search):
    # ties the halved off-diagonals of M and r = -s to the reported number
    if search == "randomized":
        monkeypatch.setattr(regularity, "EXHAUSTIVE_CAP", 0)
    g = group(3, n)
    everything = np.arange(g.size)
    A = generate_set("random", {}, 0, 3, n)  # no atom of B is pure
    B = QuadraticFactor(3, n, [(1,) + (0,) * (n - 1)], [])
    # the translate by e0 of a level set of x^T Q x = 2 x0 x1: its best phase
    # has an x0 x1 term and a linear term, so halving x0 x1 or not shows
    Q = np.zeros((n, n), dtype=int)
    Q[0, 1] = Q[1, 0] = 1
    V = QuadraticFactor(3, n, [], [Q.tolist()]).atom_indicator(((), (1,)))
    V = V[g.add[everything, g.neg[1]]]
    rng = np.random.default_rng(0)
    cells = [(A, m) for m in [everything] + atom_parts(B)] + [(V, everything)]
    for S, members in cells:
        f = np.zeros(g.size)
        f[members] = S[members] - S[members].mean()
        wit = inverse_oracle(f, g, members, 0.01, rng)
        assert wit is not None
        if S is V:
            assert wit.M[0][1] != 0 and any(wit.r)
        got = correlation(f, g, members, wit.M, wit.r)
        assert abs(got - wit.correlation) <= 1e-12


def _documented_witness(f, g, members):
    """(M, r, correlation) by inverse_oracle's documented rule, from the
    reference correlation of every (M, r): quadratic parts in product order
    of their monomial coefficients, r = -s for the frequencies s in encoded
    order, moduli (correlation times |atom|) tying within TIE."""
    n, rs, best = g.n, [tuple((-c % 3).tolist()) for c in g.coords], []
    for coeffs in product(range(3), repeat=n * (n + 1) // 2):
        M = np.zeros((n, n), dtype=int)
        for i, j, c in zip(*np.triu_indices(n), coeffs):
            M[i, j] = M[j, i] = c if i == j else 2 * c % 3  # 2 = 1/2 mod 3
        M = tuple(map(tuple, M.tolist()))
        mods = [correlation(f, g, members, M, r) * len(members) for r in rs]
        s = next(s for s, m in enumerate(mods)
                 if m >= max(mods) - regularity.TIE)
        best.append((M, rs[s], mods[s]))
    top = max(m for _, _, m in best)
    M, r, m = next(w for w in best if w[2] >= top - regularity.TIE)
    return M, r, m / len(members)


def test_oracle_returns_the_documented_witness():
    # the real f = 1_{e0} - 1_{-e0} ties every part with the zero part, and
    # there |fhat(s)| = |fhat(-s)|; the random cells tie frequencies too
    g = group(3, 2)
    pair = np.zeros(g.size)
    pair[encode(g, (1, 0))], pair[encode(g, (2, 0))] = 1, -1
    cells = [(pair, np.arange(g.size))]
    for seed in range(3):
        A = generate_set("random", {}, seed, 3, 2)
        for members in (np.arange(g.size), np.flatnonzero(g.coords[:, 0] == 1)):
            f = np.zeros(g.size)
            f[members] = A[members] - A[members].mean()
            cells.append((f, members))
    for f, members in cells:
        M, r, corr = _documented_witness(f, g, members)
        wit = inverse_oracle(f, g, members, 0.01, np.random.default_rng(0))
        assert (wit.M, wit.r) == (M, r)
        assert abs(wit.correlation - corr) <= 1e-12


def test_cylinder_planted_recovery_small():
    g = group(3, 2)
    A = planted_set()
    cells, report = cylinder_decompose(A, 0.4, GrowthFunction(1), p=3, n=2)
    validate_cells(cells, GrowthFunction(1), g.size)
    # planted atom union is recovered: every cell is 0/1 dense
    for c in cells:
        assert c.density in (0.0, 1.0)
    # trace bookkeeping
    idx = [t.index_before for t in report["trace"]]
    for t in report["trace"]:
        assert t.index_after >= t.index_before
    assert report["nonuniform_mass"] <= 0.4 * g.size


def test_cylinder_budget_exceeded():
    A = planted_set()
    with pytest.raises(BudgetExceeded):
        cylinder_decompose(A, 0.4, GrowthFunction(1), p=3, n=2, max_steps=0)


def test_global_decompose_terminates():
    g = group(3, 2)
    A = planted_set()
    B, report = global_decompose(A, 0.4, GrowthFunction(1), p=3, n=2)
    assert report["nonuniform_mass"] <= 0.4 * g.size
    assert B.rank() >= 1 or B.q == 0


def test_assemble_main_recovers_planted():
    g = group(3, 2)
    A = planted_set()
    B, Y, report = assemble_main(A, 0.4, GrowthFunction(1), p=3, n=2)
    assert report["sym_diff"] == 0
    assert np.array_equal(Y, A)


# seeds whose common factor has atoms of several points, so Y != A
@pytest.mark.parametrize("seed", [2, 4, 5])
def test_assemble_main_takes_atom_majority(seed):
    A = generate_set("random", {}, seed, 3, 3)
    B, Y, report = assemble_main(A, 0.3, GrowthFunction(1), p=3, n=3)
    for part in atom_parts(B):
        majority = 2 * np.count_nonzero(A[part]) > len(part)
        assert np.all(Y[part] == majority)
    assert report["sym_diff"] == np.count_nonzero(A ^ Y) > 0


def test_uniform_set_stops_immediately():
    # a random-ish set at delta=0.9 should need no steps
    g = group(3, 2)
    rng = np.random.default_rng(1)
    A = rng.random(g.size) < 0.5
    cells, report = cylinder_decompose(A, 0.9, GrowthFunction(1), p=3, n=2,
                                       seed=1)
    assert len(cells) == 1
    assert report["trace"] == []


def _n3_cylinder_run(seed):
    A = generate_set("random", {}, seed, 3, 3)
    cells, report = cylinder_decompose(A, 0.3, GrowthFunction(1), p=3, n=3)
    return A, cells, report


def test_factor_rank_once_per_factor(monkeypatch):
    rank = factors.factor_rank
    calls = {}  # id -> [factor, count]; holding the factor keeps ids unique

    def counting(B):
        calls.setdefault(id(B), [B, 0])[1] += 1
        return rank(B)

    monkeypatch.setattr(factors, "factor_rank", counting)
    A, cells, report = _n3_cylinder_run(0)  # two +1 steps, one -1 step
    validate_cells(cells, GrowthFunction(1), A.size)
    assert {t.kind for t in report["trace"]} == {1, -1}
    assert calls and all(count == 1 for _, count in calls.values())


def test_cell_norm_is_norm_P_eighth():
    A, cells, _ = _n3_cylinder_run(2)  # pure and mixed cells
    pure = 0
    for c in cells:
        f = np.zeros(A.size)
        f[c.members] = A[c.members] - c.density
        expected = norm_P_eighth(f, c.factor, c.label)
        assert c.normP8.hex() == expected.hex()
        if c.density in (0.0, 1.0):
            pure += 1
            assert c.normP8.hex() == (0.0).hex()
    assert 0 < pure < len(cells)
