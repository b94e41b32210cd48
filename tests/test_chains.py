from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from quadreg.chains import (GrowthFunction, _is_valid_deletion,
                            corollary_chain_bound, disc, f_sigma, f_table,
                            tau, validate_chain)
from quadreg.factors import QuadraticFactor, rho_matrix_delete
from quadreg.verify import CHAIN_RHOS
from reference import describe, tau_closed_bound

RHOS = [rho for rho, _, _ in CHAIN_RHOS]


def test_growth_parse_describe():
    for text in ["linear:1", "linear:2", "poly:1,2", "poly:3,2", "linear:1/2"]:
        r = GrowthFunction.parse(text)
        assert GrowthFunction.parse(describe(r)) == r
    assert GrowthFunction.parse("poly:3,2")(2) == 12
    assert GrowthFunction(2)(Fraction(5, 2)) == 5
    with pytest.raises(ValueError):
        GrowthFunction.parse("exp:2")


def test_growth_linear_is_poly_degree_one():
    assert GrowthFunction.parse("linear:2") == GrowthFunction.parse("poly:2,1")
    assert describe(GrowthFunction.parse("poly:2,1")) == "linear:2"


def test_growth_constructor_normalizes():
    # C is always a Fraction and d an int, so equal functions compare equal
    assert GrowthFunction(1) == GrowthFunction(Fraction(1), 1)
    assert GrowthFunction("3/2", 2) == GrowthFunction.parse("poly:3/2,2")
    rho = GrowthFunction(3, 2)
    assert type(rho.C) is Fraction and type(rho.d) is int


@pytest.mark.parametrize("text", ["linear:1/0", "poly:1/0,2", "poly:1,-1",
                                  "linear:-1", "linear:0", "poly:-1,2"])
def test_growth_parse_rejects(text):
    with pytest.raises(ValueError):
        GrowthFunction.parse(text)


def test_disc_and_ones():
    assert disc((1, 1, -1)) == 1
    assert disc(()) == 0
    with pytest.raises(ValueError):
        disc((1, 0))


def test_tau_worked_example():
    # [DERIVED] spec worked example: rho(z) = 2z gives tau_2(5,3) = 67
    rho = GrowthFunction(2)
    assert tau(rho, 0, 5, 3) == 5
    assert tau(rho, 1, 5, 3) == 21
    assert tau(rho, 2, 5, 3) == 67


def test_f_sigma_worked_example():
    # [DERIVED] spec worked example: rho(z) = z, sigma = (1,1,-1) -> (6,1)
    rho = GrowthFunction(1)
    assert f_sigma(rho, (1, 1, -1)) == (6, 1)
    assert f_sigma(rho, ()) == (0, 0)
    assert f_sigma(rho, (1,)) == (1, 1)


def test_f_table_matches_f_sigma():
    for rho in RHOS:
        table = f_table(rho, 8)
        assert list(table) == [s for m in range(9)
                               for s in product((-1, 1), repeat=m)]
        assert all(table[s] == f_sigma(rho, s) for s in table)
    assert f_table(RHOS[0], 0) == {(): (0, 0)}
    assert f_table(RHOS[0], -1) == {}


def test_non_integral_growth_stays_fractional():
    # rho(z) = 3/2 z^2: (1, 1) -> (1 + 3/2 * 4, 0) -> (7 + 3/2 * 49, -1)
    rho = GrowthFunction(Fraction(3, 2), 2)
    assert f_sigma(rho, (1, -1, -1)) == (Fraction(161, 2), -1)


def test_recursions_match_fraction_reference():
    # the int-where-integral rule changes no value: every string up to
    # length 8 against the recursions written out in Fractions
    cases = [*CHAIN_RHOS, (GrowthFunction.parse("linear:1/2"), Fraction(1, 2), 1)]
    for rho, C, d in cases:
        def ref_rho(x):
            return Fraction(rho.C) * Fraction(x) ** rho.d

        table = f_table(rho, 8)
        ref = {(): (Fraction(0), Fraction(0))}
        for m in range(1, 9):
            for s in product((-1, 1), repeat=m):
                a, b = ref[s[:-1]]
                ref[s] = ((a + 1, b + 1) if s[-1] == 1
                          else (a + ref_rho(a + b), b - 1))
        assert table == ref
        if rho.C.denominator == 1:
            assert all(type(v) is int for ab in table.values() for v in ab)
        for m in range(1, 9):
            for k in range(m + 1):
                t = Fraction(k)
                for j in range(m - k):
                    t += ref_rho(t + k - j)
                assert tau(rho, m - k, k, k) == t
                for c in (C, C / 3):
                    e = d ** (m - k)
                    want = (2 * Fraction(c)) ** ((m - k) * e) * Fraction(2 * k) ** e
                    assert corollary_chain_bound(c, d, m, k) == (want, 2 * k - m)


def test_f_sigma_all_ones_prefix():
    # k leading ones give exactly (k, k)
    for rho in RHOS:
        for k in range(1, 6):
            assert f_sigma(rho, (1,) * k) == (k, k)


def test_tau_matches_theta_string():
    # f_{theta} = (tau_{m-k}(k,k), 2k-m) for the front-loaded string
    for rho in RHOS:
        for k in range(1, 5):
            for m in range(k, 2 * k + 1):
                theta = (1,) * k + (-1,) * (m - k)
                a, b = f_sigma(rho, theta)
                assert a == tau(rho, m - k, k, k)
                assert b == 2 * k - m


def test_closed_bounds_monotone_sanity():
    b = tau_closed_bound(Fraction(2), 1, 2, 5, 3)
    assert b == (4 ** 2) * 8  # (2C)^{i k^i} (x+y)^{k^i} with k=1
    lb, qb = corollary_chain_bound(Fraction(2), 1, 3, 2)
    assert qb == 1
    assert lb == 4 * 4  # (2C)^{(m-k) d^{m-k}} (2k)^{d^{m-k}} = 4^1 * 4^1
    with pytest.raises(ValueError):
        corollary_chain_bound(Fraction(2), 1, 0, 0)


def build_sample_chain():
    # trivial -> add (v, M) -> add M2 -> delete under rho(x)=3x
    p, n = 3, 3
    rho = GrowthFunction(3)
    B0 = QuadraticFactor(p, n)
    B1 = QuadraticFactor(p, n, [(1, 0, 0)], [np.diag([1, 1, 1]).tolist()])
    B2 = QuadraticFactor(p, n, [(1, 0, 0)],
                         [np.diag([1, 1, 1]).tolist(), np.diag([1, 1, 0]).tolist()])
    B3 = rho_matrix_delete(B2, rho)
    return rho, (1, 1, -1), [B0, B1, B2, B3]


def test_validate_chain_accepts_valid():
    assert validate_chain(*build_sample_chain())


def test_validate_chain_rejects_tampering():
    rho, sigma, factors = build_sample_chain()
    # wrong start
    assert not validate_chain(rho, sigma, [factors[1]] + factors[1:])
    # wrong length
    assert not validate_chain(rho, sigma[:-1], factors)
    # deletion step replaced by an unrelated factor
    wrong = QuadraticFactor(3, 3, [(0, 0, 1)], [])
    assert not validate_chain(rho, sigma, factors[:-1] + [wrong])


E0, E1, E2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _diag(*d):
    return np.diag(d).tolist()


def _deletion(B, L2, Q2, rho):
    return _is_valid_deletion(B, QuadraticFactor(B.p, B.n, L2, Q2), rho)


def test_deletion_needs_a_nonzero_coefficient_on_the_deleted_matrix():
    # at rho(2) = 2 only the multiples of diag(1,0,0) are low-rank: I has
    # coefficient 0 in each, so deleting I is no rho-matrix deletion
    B = QuadraticFactor(3, 3, [], [_diag(1, 1, 1), _diag(1, 0, 0)])
    rho = GrowthFunction(1)
    assert _deletion(B, [E0], [_diag(1, 1, 1)], rho)
    assert not _deletion(B, [E0], [_diag(1, 0, 0)], rho)


@pytest.mark.parametrize("L2", [[E0, E1], [E1], []],
                         ids=["extra-vector", "off-row-space", "empty"])
def test_deletion_adds_exactly_the_row_space(L2):
    # the only low-rank combinations are multiples of diag(1,0,0), row space
    # span(e0): an extra vector, or a vector off it, is no rho-matrix deletion
    B = QuadraticFactor(3, 3, [], [_diag(1, 1, 1), _diag(1, 0, 0)])
    assert not _deletion(B, L2, [_diag(1, 1, 1)], GrowthFunction(1))


def test_deletion_needs_a_low_rank_combination():
    # at rho(2) = 1 no nonzero combination has rank below the demand
    B = QuadraticFactor(3, 3, [], [_diag(1, 1, 1), _diag(1, 0, 0)])
    assert not _deletion(B, [E0], [_diag(1, 1, 1)], GrowthFunction(Fraction(1, 2)))


def test_deletion_through_a_later_combination():
    # at rho(2) = 3 every combination is low-rank; the first one with a
    # nonzero coefficient on M_0 is M_0 (row space e0), and M_0 + M_1 (row
    # space e0, e1) is a later one: a deletion through either is valid
    B = QuadraticFactor(3, 3, [], [_diag(1, 0, 0), _diag(0, 1, 0)])
    rho = GrowthFunction(Fraction(3, 2))
    assert _deletion(B, [E0], [_diag(0, 1, 0)], rho)
    assert _deletion(B, [E0, E1], [_diag(0, 1, 0)], rho)
    assert not _deletion(B, [E0, E1, E2], [_diag(0, 1, 0)], rho)


def test_validate_chain_empty():
    assert validate_chain(GrowthFunction(1), (), [QuadraticFactor(3, 2)])
