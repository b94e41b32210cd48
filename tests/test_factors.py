import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadreg import gf, verify
from quadreg.chains import GrowthFunction
from quadreg.factors import (QuadraticFactor, factor_rank,
                             find_low_rank_combination, rank_refine,
                             rho_matrix_delete)
from quadreg.io import factor_from_dict, factor_to_dict
from quadreg.generators import random_factor

from conftest import seeded_factors
from reference import atom_label_of, beta_Q, decode, refines


def test_constructor_validation():
    with pytest.raises(ValueError):
        QuadraticFactor(3, 2, [], [[[1, 2], [1, 1]]])  # not symmetric
    with pytest.raises(ValueError):
        QuadraticFactor(3, 2, [(1, 0), (2, 0)], [])  # dependent L
    M = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        QuadraticFactor(3, 2, [], [M, M])  # repeated matrix
    with pytest.raises(ValueError):
        QuadraticFactor(3, 2, [(1,)], [])  # wrong length


@pytest.mark.parametrize("entry", [1.0, 1.5, True, "1"])
def test_entries_are_integers(entry):
    # numpy integers are integers; a float, bool or str is not, even if integral
    B = QuadraticFactor(3, 2, np.array([[4, 0]]), [np.eye(2, dtype=np.int64)])
    assert (B.L, B.Q) == (((1, 0),), (((1, 0), (0, 1)),))
    with pytest.raises(TypeError, match="a factor entry must be an integer"):
        QuadraticFactor(3, 2, [(entry, 0)], [])


@given(st.integers(0, 10 ** 9))
@settings(max_examples=50, deadline=None)
def test_atoms_partition_group(seed):
    B = random_factor(3, 2, 2, 2, np.random.default_rng(seed))
    assert verify.atoms_partition(B) is None


@given(st.integers(0, 10 ** 9))
@settings(max_examples=50, deadline=None)
def test_label_of_matches_codes(seed):
    rng = np.random.default_rng(seed)
    B = random_factor(3, 2, 2, 2, rng)
    g = B.grp
    for x in range(g.size):
        lab = atom_label_of(B, decode(g, x))
        assert B.label_to_code(lab) == int(B.label_codes()[x])
        assert B.code_to_label(B.label_to_code(lab)) == lab


@given(st.integers(0, 10 ** 9))
@settings(max_examples=50, deadline=None)
def test_beta_q_symmetric_bilinear(seed):
    rng = np.random.default_rng(seed)
    B = random_factor(3, 3, 0, 2, rng)
    p, g = B.p, B.grp
    x, y, z = (decode(g, int(i)) for i in rng.integers(0, g.size, size=3))
    assert beta_Q(B, x, y) == beta_Q(B, y, x)
    yz = tuple((a + b) % p for a, b in zip(y, z))
    got = beta_Q(B, x, yz)
    expect = tuple((a + b) % p for a, b in zip(beta_Q(B, x, y), beta_Q(B, x, z)))
    assert got == expect


@pytest.mark.parametrize("Q", [
    [],
    [[[1, 0], [0, 0]]],
    [[[1, 2], [2, 0]], [[0, 1], [1, 1]]],
    [[[1, 2], [2, 0]], [[0, 1], [1, 1]], [[2, 0], [0, 1]]]],
    ids=["q0", "q1", "q2", "q3"])
def test_bq_tables_match_scalar(Q):
    B = QuadraticFactor(3, 2, [(1, 1)], Q)
    g = B.grp
    table = B.bq_tables()
    assert table.shape == (g.size, g.size)
    for x in range(g.size):
        for y in range(g.size):
            value = beta_Q(B, decode(g, x), decode(g, y))
            assert table[x, y] == B.pair_code(value)
            assert B.code_to_pair(int(table[x, y])) == value
    if B.q == 0:
        assert not table.any()


def test_factor_rank_trivial_and_single():
    assert factor_rank(QuadraticFactor(3, 4)) == 4
    B = QuadraticFactor(3, 2, [], [[[1, 2], [2, 1]]])
    assert B.rank() == 1


@given(st.integers(0, 10 ** 9))
@settings(max_examples=30, deadline=None)
def test_factor_rank_is_min_over_combinations(seed):
    from itertools import product

    rng = np.random.default_rng(seed)
    B = random_factor(3, 3, 0, 2, rng)
    if B.q == 0:
        assert B.rank() == B.n
        return
    best = min(gf.mat_rank_bruteforce(
        (sum(cj * np.array(M) for cj, M in zip(c, B.Q)) % B.p).tolist(), B.p)
        for c in product(range(B.p), repeat=B.q) if any(c))
    assert B.rank() == best


def test_rank_refine_spec_example():
    # [DERIVED] spec worked example: Q = {diag(1,1,0,0)} at p=3, n=4 with
    # rho(x) = 3x.  rank(diag(1,1,0,0)) = 2 < rho(1) = 3, so the matrix is
    # deleted and L picks up the 2-dimensional row space: complexity (2,0).
    B = QuadraticFactor(3, 4, [], [np.diag([1, 1, 0, 0]).tolist()])
    rho = GrowthFunction(3)
    B2, deletions, feasible = rank_refine(B, rho)
    assert B2.complexity() == (2, 0)
    assert deletions == 1
    # at q=0 the demand rho(2)=6 exceeds n=4: flagged infeasible
    assert feasible is False


def test_rank_refine_noop_when_high_rank():
    B = QuadraticFactor(3, 2, [], [[[1, 0], [0, 1]]])  # rank 2
    B2, deletions, feasible = rank_refine(B, GrowthFunction(1))
    assert B2 == B and deletions == 0 and feasible is True


def test_rho_matrix_delete_guards():
    with pytest.raises(ValueError):
        rho_matrix_delete(QuadraticFactor(3, 2), GrowthFunction(1))
    B = QuadraticFactor(3, 2, [], [[[1, 0], [0, 1]]])
    assert find_low_rank_combination(B, GrowthFunction(1)) is None
    with pytest.raises(ValueError):
        rho_matrix_delete(B, GrowthFunction(1))


def test_delete_keeps_low_rank_information():
    # the deleted combination's value is recoverable from the new linear
    # forms, so the refined factor refines the original
    B = QuadraticFactor(3, 3, [], [np.diag([1, 0, 0]).tolist(),
                                   np.diag([0, 1, 0]).tolist()])
    rho = GrowthFunction(2)  # demand rank >= 4 > n: everything is low-rank
    B2 = rho_matrix_delete(B, rho)
    assert B2.q == B.q - 1
    assert refines(B2, B)
    Bf, _, _ = rank_refine(B, rho)
    assert refines(Bf, B)


def test_refines_basic():
    B = QuadraticFactor(3, 2, [(1, 0)], [[[1, 0], [0, 1]]])
    coarse_l = QuadraticFactor(3, 2, [(1, 0)], [])
    coarse_q = QuadraticFactor(3, 2, [], [[[1, 0], [0, 1]]])
    assert refines(B, coarse_l)
    assert refines(B, coarse_q)
    assert refines(B, QuadraticFactor(3, 2))
    assert not refines(coarse_l, coarse_q)


@given(st.integers(0, 10 ** 9))
@settings(max_examples=30, deadline=None)
def test_refines_matches_atom_definition(seed):
    rng = np.random.default_rng(seed)
    B1, B2 = (random_factor(3, 2, 1, 2, rng) for _ in range(2))
    inside = all(len(set(B2.label_codes()[B1.enumerate_atom(e)].tolist())) <= 1
                 for e in B1.all_labels())
    assert refines(B1, B2) == inside


def test_serialization_roundtrip():
    for B in seeded_factors(3, 2, 5, 2, 2, seed=7):
        assert factor_from_dict(factor_to_dict(B)) == B
