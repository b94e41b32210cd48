#!/usr/bin/env python3
"""Empirical study of the two local U^3 norms: sample random factors and
random bounded functions, and tabulate |restricted - weighted| eighth-power
differences against the factor rank.  The theory predicts the gap shrinks as
rank grows; the CSV makes that visible at desk scale.

Usage: python3 scripts/norm_equivalence_study.py [--n 2] [--factors 20] [--out FILE]
"""

import argparse
import csv

import numpy as np

from quadreg.generators import random_factor
from quadreg.localnorms import norm_equivalence_samples


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--factors", type=int, default=20)
    ap.add_argument("--labels-per-factor", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="norm_equivalence_study.csv")
    args = ap.parse_args()

    p = 3
    rng = np.random.default_rng(args.seed)
    rows = []
    for fi in range(args.factors):
        B = random_factor(p, args.n, 2, 1, rng)
        f = rng.uniform(-1, 1, B.grp.size)
        for rep in norm_equivalence_samples(f, B, args.labels_per_factor):
            rows.append({
                "factor": fi, "l": B.l, "q": B.q, "rank": rep["rank"],
                "atom_size": rep["atom_size"],
                "omega_count": rep["omega_count"],
                "omega_predicted": rep["omega_predicted"],
                "normP8": rep["normP8"], "normTW8": rep["normTW8"],
                "abs_diff": abs(rep["diff"]),
            })
    with open(args.out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    by_rank = {}
    for r in rows:
        by_rank.setdefault(r["rank"], []).append(r["abs_diff"])
    print(f"wrote {len(rows)} rows to {args.out}")
    for rank in sorted(by_rank):
        ds = by_rank[rank]
        print(f"rank {rank}: {len(ds)} samples, mean |diff| = "
              f"{sum(ds) / len(ds):.3e}, max = {max(ds):.3e}")


if __name__ == "__main__":
    main()
