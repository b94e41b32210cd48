"""Energy-increment machinery: the index (mean-square density) potential,
the quadratic-phase correlation oracle, the global decomposition and the
cylinder decomposition, plus the end-to-end assembly that extracts an
approximating union of atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import gf, gowers, localnorms
from .chains import disc, validate_chain
from .factors import QuadraticFactor, rank_refine, rho_matrix_delete
from .gf import Group, group

C_INV = 4                 # witness threshold delta^C/C, budget C^2 delta^(-2C-2)
EXHAUSTIVE_CAP = 10 ** 7  # most polynomials the exhaustive oracle scans
ATTEMPTS = 2000           # randomized restarts past the cap
TIE = 1e-9                # oracle moduli this close to a maximum tie with it


class OracleFailure(RuntimeError):
    def __init__(self, cells, state=None):
        super().__init__(f"no inverse witness for {len(cells)} cell(s)")
        self.cells = cells
        self.state = state


class BudgetExceeded(RuntimeError):
    def __init__(self, state=None):
        super().__init__("step budget exceeded")
        self.state = state


def threshold(delta: float) -> float:
    """The witness threshold delta^C/C."""
    return delta ** C_INV / C_INV


def budget(delta: float) -> int:
    """The default step budget C^2 delta^(-2C-2), an exact int."""
    return math.ceil(C_INV ** 2 / Fraction(delta) ** (2 * C_INV + 2))


# -- index / Pythagoras ------------------------------------------------------

def index(A: np.ndarray, parts, N: int) -> Fraction:
    """(1/p^n) sum over parts of (|A cap P|/|P|)^2 |P|, exact."""
    return sum((_density(A, P) ** 2 * len(P) for P in parts if len(P)),
               Fraction(0)) / N


def _density(A: np.ndarray, P) -> Fraction:
    return Fraction(int(np.count_nonzero(A[P])), len(P))


def _with_parents(A: np.ndarray, parts, refined_parts, N: int):
    """(alpha_P, alpha_P', |P'|) for every refined part P' and the part P
    holding it."""
    owner = np.full(N, len(parts))  # an element in no part indexes past alphas
    alphas = []
    for i, P in enumerate(parts):
        owner[P] = i
        alphas.append(_density(A, P))
    return [(alphas[owner[Pp[0]]], _density(A, Pp), len(Pp))
            for Pp in refined_parts]


def refinement_sum(A: np.ndarray, parts, refined_parts, N: int) -> Fraction:
    """(1/p^n) sum_P sum_{P' <= P} (alpha_P - alpha_P')^2 |P'|, exact."""
    return sum(((a - b) ** 2 * size for a, b, size
                in _with_parents(A, parts, refined_parts, N)), Fraction(0)) / N


def _jensen_square(A: np.ndarray, parts, refined_parts, N: int) -> Fraction:
    """((1/p^n) sum_{P'} |alpha_{P'} - alpha_P| |P'|)^2, exact; a lower bound
    for the index gain by Cauchy-Schwarz with total weight 1."""
    s = sum((abs(b - a) * size for a, b, size
             in _with_parents(A, parts, refined_parts, N)), Fraction(0))
    return (s / N) ** 2


# -- correlation oracle ------------------------------------------------------

@dataclass
class InverseWitness:
    M: tuple  # symmetric matrix (rows of tuples)
    r: tuple  # linear part
    correlation: float


def _monomial_design(grp: Group) -> np.ndarray:
    """Columns: x_i x_j for (i, j) in np.triu_indices(n) order, values mod
    p per element."""
    i, j = np.triu_indices(grp.n)
    return grp.coords[:, i] * grp.coords[:, j] % grp.p


def _coeffs_to_matrix(grp: Group, quad_coeffs):
    """Monomial coefficients for x_i x_j in _monomial_design order ->
    symmetric M with x^T M x equal to that polynomial (off-diagonals
    halved; p odd)."""
    i, j = np.triu_indices(grp.n)
    c = np.asarray(quad_coeffs, dtype=np.int64)
    c = np.where(i == j, c, c * pow(2, -1, grp.p)) % grp.p
    M = np.zeros((grp.n, grp.n), dtype=np.int64)
    M[i, j] = M[j, i] = c
    return tuple(map(tuple, M.tolist()))


def inverse_oracle(f, grp: Group, members: np.ndarray, delta: float,
                   rng: np.random.Generator):
    """Search for a quadratic polynomial whose phase correlates with f on the
    atom at level >= delta^C/C.  The candidate quadratic parts q_k are all
    p^{n(n+1)/2} in product order while the p^{n(n+1)/2 + n + 1} polynomials
    fit the cap, else the zero part and ATTEMPTS sparse parts drawn from
    `rng`.  The character sums of f w^{q_k} on the atom give every linear
    part at once: the modulus at frequency s is |sum f w^{q_k + r.x}| with
    r = -s (the constant only rotates the phase).

    Rounding cannot flip a tie: s_k is the first frequency (encoded order)
    whose modulus is within TIE of the part's largest, m_k the modulus there;
    the witness is the first part with m_k >= max(m) - TIE, with r = -s_k
    and correlation m_k / |atom|."""
    if len(members) == 0:
        return None
    p, n = grp.p, grp.n
    fm = np.zeros(grp.size)
    fm[members] = gowers.as_values(f, grp)[members]
    nquad = n * (n + 1) // 2
    if p ** (nquad + n + 1) <= EXHAUSTIVE_CAP:
        parts = np.indices((p,) * nquad).reshape(nquad, -1).T
    else:
        parts = np.zeros((ATTEMPTS + 1, nquad), dtype=np.int64)
        for part in parts[1:]:  # rng order: support size, indices, values
            support = rng.integers(1, max(2, nquad // 2 + 1))
            for idx in rng.choice(nquad, size=min(support, nquad), replace=False):
                part[idx] = rng.integers(1, p)
    design = _monomial_design(grp)
    freq = np.empty(len(parts), dtype=np.int64)
    mod = np.empty(len(parts))
    for k, part in enumerate(parts):
        g = fm * np.exp(2j * np.pi * ((design @ part) % p) / p)
        mags = np.abs(gowers.dft(g, grp))
        freq[k] = np.argmax(mags >= mags.max() - TIE)
        mod[k] = mags[freq[k]]
    k = int(np.argmax(mod >= mod.max() - TIE))
    correlation = float(mod[k]) / len(members)
    if correlation < threshold(delta):
        return None
    r = tuple(int((-c) % p) for c in grp.coords[freq[k]])
    return InverseWitness(M=_coeffs_to_matrix(grp, parts[k]), r=r,
                          correlation=correlation)


# -- cells -------------------------------------------------------------------

@dataclass
class CylinderCell:
    factor: QuadraticFactor
    label: tuple
    sigma: tuple
    members: np.ndarray
    chain: list = field(default_factory=list)  # factor history incl. current
    density: float = 0.0
    normP8: float = 0.0
    uniform: bool = True

    def key(self):
        return (self.factor.l, self.factor.q, self.factor.label_to_code(self.label))


def _centred(A: np.ndarray, members: np.ndarray, density: float, N: int):
    """1_A - density on the members, 0 elsewhere."""
    f = np.zeros(N, dtype=np.float64)
    f[members] = A[members].astype(np.float64) - density
    return f


def _atoms(A, members, factor: QuadraticFactor, sigma, history, delta):
    """The atoms of `factor` inside `members`, in label-code order, as cells
    with their density, atom-normalized local norm and uniform flag."""
    g = factor.grp
    codes = factor.label_codes()[members]
    out = []
    for code in np.unique(codes):
        P = members[codes == code]
        label = factor.code_to_label(int(code))
        density = float(np.count_nonzero(A[P])) / len(P)
        normP8 = localnorms.norm_P_eighth(_centred(A, P, density, g.size),
                                          factor, label)
        out.append(CylinderCell(factor=factor, label=label, sigma=sigma,
                                members=P, chain=history + [factor],
                                density=density, normP8=normP8,
                                uniform=normP8 < delta ** 8))
    return out


def _resplit(A, cells, new_factors: dict, bit: int, delta):
    """The cells in key order; a cell with an entry in new_factors (keyed by
    id) is replaced by that factor's atoms inside it, sigma extended by
    `bit`."""
    out = []
    for c in sorted(cells, key=CylinderCell.key):
        B = new_factors.get(id(c))
        if B is None:
            out.append(c)
        else:
            out.extend(_atoms(A, c.members, B, c.sigma + (bit,), c.chain, delta))
    return out


def _search(A, cells, delta, rng, state) -> dict:
    """inverse_oracle on every cell in list order (which fixes the rng
    draws); {id(cell): witness}, or OracleFailure naming the cells that
    have none."""
    found, failed = {}, []
    for c in cells:
        g = c.factor.grp
        f = _centred(A, c.members, c.density, g.size)
        wit = inverse_oracle(f, g, c.members, delta, rng)
        if wit is None:
            failed.append(c)
        else:
            found[id(c)] = wit
    if failed:
        raise OracleFailure(failed, state=state)
    return found


def _extend(B: QuadraticFactor, vectors, matrices) -> QuadraticFactor:
    """B with each vector appended when it enlarges span(L) (so L stays
    independent) and each matrix appended when it is nonzero and new."""
    Q = list(B.Q)
    for M in matrices:
        if M not in Q and any(any(row) for row in M):
            Q.append(M)
    L = gf.extend_to_independent(B.L, vectors, B.p)
    return QuadraticFactor(B.p, B.n, L, Q)


def _absorb(B: QuadraticFactor, witnesses) -> QuadraticFactor:
    """B extended by the witnesses' linear and quadratic parts."""
    return _extend(B, [w.r for w in witnesses], [w.M for w in witnesses])


@dataclass
class StepRecord:
    step: int
    kind: int  # +1 or -1
    index_before: Fraction
    index_after: Fraction
    nonuniform_mass: int
    deletions: int
    witnesses: int
    jensen_bound: Fraction  # exact lower bound for the gain on +1 steps
    corr_bound: float       # float bound from achieved correlations


def _decompose(A, delta: float, rho, p: int, n: int, seed: int,
               max_steps: int | None, shared: bool):
    """The energy-increment loop shared by both decompositions.  Type -1
    steps replace every low-rank cell by its atoms under its factor minus
    one matrix (rho_matrix_delete).  Type +1 steps run the oracle on every
    non-uniform cell and split along the witnesses: each cell under its own
    factor plus its witness, or, when `shared`, every cell under one
    rank-refined factor that absorbs all witnesses.  Stops when no cell is
    low-rank and the non-uniform mass is <= delta |G|.

    Returns (cells, trace, final index, non-uniform mass)."""
    g = group(p, n)
    A = gowers.as_values(A, g).astype(bool)
    rng = np.random.default_rng(seed)
    everything = np.arange(g.size)
    cells = _atoms(A, everything, QuadraticFactor(p, n), (), [], delta)
    ind = index(A, [c.members for c in cells], g.size)
    trace: list[StepRecord] = []
    limit = budget(delta) if max_steps is None else max_steps
    while True:
        # low-rank cells (q = 0 has rank n by convention); a shared factor
        # is rank-refined whenever it is built
        low = [] if shared else [
            c for c in cells
            if c.factor.q > 0 and c.factor.rank() < rho(c.factor.l + c.factor.q)]
        nonuni = [c for c in cells if not c.uniform]
        mass = sum(len(c.members) for c in nonuni)
        if not low and mass <= delta * g.size:
            return cells, trace, ind, mass
        if len(trace) >= limit:
            raise BudgetExceeded(state={"cells": cells, "trace": trace})
        if low:
            kind, witnesses = -1, 0
            new_cells = _resplit(
                A, cells, {id(c): rho_matrix_delete(c.factor, rho) for c in low},
                -1, delta)
            deletions = len(low)
            jensen, corr_bound = Fraction(0), 0.0
        else:
            kind = 1
            found = _search(A, nonuni, delta, rng,
                            state={"cells": cells, "trace": trace})
            witnesses = len(found)
            if shared:
                B, deletions, _ = rank_refine(
                    _absorb(cells[0].factor, found.values()), rho)
                new_cells = _atoms(A, everything, B, (), [], delta)
            else:
                deletions = 0
                new_cells = _resplit(
                    A, cells, {id(c): _absorb(c.factor, [found[id(c)]])
                               for c in nonuni}, 1, delta)
            # Jensen: gain >= ((1/p^n) sum |alpha' - alpha| |P'|)^2, exact;
            # the achieved-correlation version is logged too (it is smaller)
            jensen = _jensen_square(A, [c.members for c in cells],
                                    [c.members for c in new_cells], g.size)
            corr_sum = sum(found[id(c)].correlation * len(c.members)
                           for c in nonuni)
            corr_bound = (corr_sum / g.size) ** 2
        ind_after = index(A, [c.members for c in new_cells], g.size)
        assert ind_after >= ind, "index decreased"
        assert ind_after - ind >= jensen, "gain below Jensen bound"
        trace.append(StepRecord(step=len(trace), kind=kind, index_before=ind,
                                index_after=ind_after, nonuniform_mass=mass,
                                deletions=deletions, witnesses=witnesses,
                                jensen_bound=jensen, corr_bound=corr_bound))
        cells, ind = new_cells, ind_after


def cylinder_decompose(A, delta: float, rho, *, p: int, n: int,
                       seed: int = 0, max_steps: int | None = None):
    """Iteratively refine a partition of G into atoms of per-cell factors:
    type -1 steps delete a low-rank matrix from every low-rank cell's factor,
    type +1 steps split every non-uniform cell along an inverse witness.
    Stops when no cell is low-rank and the non-uniform mass is <= delta |G|.

    Returns (cells, report) where report carries the per-step trace.
    """
    cells, trace, ind, mass = _decompose(A, delta, rho, p, n, seed,
                                         max_steps, shared=False)
    return cells, {"steps": len(trace), "trace": trace, "final_index": ind,
                   "nonuniform_mass": mass, "cells": len(cells)}


def global_decompose(A, delta: float, rho, *, p: int, n: int,
                     seed: int = 0, max_steps: int | None = None):
    """Single-factor energy increment: refine one quadratic factor until the
    atoms where 1_A - alpha has large local norm cover <= delta |G|."""
    cells, trace, _, mass = _decompose(A, delta, rho, p, n, seed, max_steps,
                                       shared=True)
    return cells[0].factor, {"steps": len(trace), "trace": trace,
                             "nonuniform_mass": mass}


# -- assembly ----------------------------------------------------------------

def assemble_main(A, delta: float, rho, *, p: int, n: int, seed: int = 0,
                  max_steps: int | None = None):
    """End-to-end pipeline: cylinder decomposition at delta, the union of the
    uniform cells' factors, rank refinement, and the approximating set
    Y = union of the atoms with density > 1/2.

    The paper runs Step 1 at a parameter mu far below any desk-scale delta;
    here mu = delta."""
    A = np.asarray(A, dtype=bool)
    cells, rep = cylinder_decompose(A, delta, rho, p=p, n=n, seed=seed,
                                    max_steps=max_steps)
    keep = [c for c in cells if c.uniform]
    B = _extend(QuadraticFactor(p, n), [v for c in keep for v in c.factor.L],
                [M for c in keep for M in c.factor.Q])
    B, deletions, feasible = rank_refine(B, rho)
    codes = B.label_codes()
    Y = (2 * np.bincount(codes, weights=A) > np.bincount(codes))[codes]
    report = {
        "cylinder": rep,
        "complexity": B.complexity(),
        "rank": B.rank(),
        "rank_feasible": feasible,
        "deletions_in_refine": deletions,
        "sym_diff": int(np.count_nonzero(A ^ Y)),
    }
    return B, Y, report


def validate_cells(cells, rho, N: int) -> None:
    """Output invariants of the cylinder decomposition."""
    seen = np.zeros(N, dtype=np.int64)
    for c in cells:
        seen[c.members] += 1
        atom = c.factor.enumerate_atom(c.label)
        assert np.array_equal(np.sort(c.members), atom), "cell is not its atom"
        assert disc(c.sigma) >= 0
        if c.factor.q > 0:
            assert c.factor.rank() >= rho(c.factor.l + c.factor.q)
        assert validate_chain(rho, c.sigma, c.chain), "invalid chain"
    assert np.all(seen == 1), "cells do not partition G"
