#!/usr/bin/env python3
"""Plant a union of atoms of a high-rank quadratic factor and watch the
cylinder decomposition recover it exactly.

Usage: python3 scripts/planted_recovery.py [--n 3] [--delta 0.4] [--seed 0]
"""

import argparse
import time

import numpy as np

from quadreg.chains import GrowthFunction
from quadreg.factors import QuadraticFactor
from quadreg.gf import group
from quadreg.regularity import assemble_main, cylinder_decompose, validate_cells


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--delta", type=float, default=0.4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    p = 3
    g = group(p, args.n)
    B = QuadraticFactor(p, args.n, [], [np.eye(args.n, dtype=int).tolist()])
    A = B.atom_indicator(((), (2,)))
    print(f"planted: value-2 level set of x^T x at p={p}, n={args.n}, "
          f"|A|={int(A.sum())}, rank={B.rank()}")

    rho = GrowthFunction(1)
    t0 = time.time()
    cells, report = cylinder_decompose(A, args.delta, rho, p=p, n=args.n,
                                       seed=args.seed)
    print(f"cylinder: {report['steps']} step(s), {len(cells)} cell(s), "
          f"{time.time() - t0:.2f}s")
    for t in report["trace"]:
        print(f"  step {t.step} kind {t.kind:+d} "
              f"index {float(t.index_before):.4f} -> {float(t.index_after):.4f} "
              f"jensen {float(t.jensen_bound):.2e} witnesses {t.witnesses} "
              f"deletions {t.deletions}")
    validate_cells(cells, rho, g.size)
    dens = sorted({c.density for c in cells})
    print(f"cell densities on A: {dens}")

    Bout, Y, rep = assemble_main(A, args.delta, rho, p=p, n=args.n,
                                 seed=args.seed)
    print(f"assembled factor complexity {rep['complexity']} rank {rep['rank']} "
          f"|A xor Y| = {rep['sym_diff']}")


if __name__ == "__main__":
    main()
