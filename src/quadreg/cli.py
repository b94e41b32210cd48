"""Command-line entry point.

Subcommands: decompose, verify, vc2, chain-bounds, norms, gen.
Exit codes for decompose: 0 success, 2 oracle-failure, 3 budget-exceeded.
Every subcommand exits 4 on bad input, usage errors included, printing one
`error: ...` line; `--help` exits 0.
The inverse oracle scans every quadratic part while p^(n(n+1)/2+n+1) <= 10^7
and runs 2,000 randomized restarts past that (from n=4 at p=3).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import io, localnorms, vc2 as vc2mod
from .chains import GrowthFunction, f_table, tau
from .generators import generate_set
from .gf import group
from .regularity import (BudgetExceeded, OracleFailure, cylinder_decompose,
                         global_decompose)
from .verify import verify_suite

# chain-bounds refuses larger tables before building any: f_table holds
# 2^(length+1) - 1 strings (0.1 GB at 16), the tau table <= (imax+1)(xmax+1)^2
MAX_LENGTH = 16
MAX_TAU_ROWS = 10 ** 5


def cmd_decompose(args) -> int:
    # a cell is uniform below delta^8, which rounds to 0 below about 3.5e-41
    if not (0 < args.delta <= 1 and args.delta ** 8 > 0):
        raise io.InputError("--delta must lie in (0, 1] and exceed about 3.5e-41")
    if args.max_steps is not None and args.max_steps < 0:
        raise io.InputError("--max-steps must be at least 0")
    A, p, n = io.set_from_dict(io.load_json(args.set), args.set)
    with io.input_errors("--rho"):
        rho = GrowthFunction.parse(args.rho)
    run = dict(p=p, n=n, seed=args.seed, max_steps=args.max_steps)
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.mode == "global":
            B, report = global_decompose(A, args.delta, rho, **run)
            out = io.global_to_dict(B, report)
        else:
            cells, report = cylinder_decompose(A, args.delta, rho, **run)
            out = io.cells_to_dict(cells, p, n)
    except OracleFailure as e:
        print(f"oracle-failure: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget-exceeded: {e}", file=sys.stderr)
        return 3
    io.save_json(os.path.join(args.out, "partition.json"), out)
    io.save_trace(os.path.join(args.out, "trace.csv"), report["trace"])
    return 0


def cmd_verify(args) -> int:
    details = verify_suite(args.level, out_dir=args.out)
    sys.stderr.writelines(f"{name}: {detail}\n" for name, detail in details.items()
                          if detail is not None)
    passed = {name: detail is None for name, detail in details.items()}
    print(io.dumps_canonical(passed | {"ok": all(passed.values())}))
    return 0 if all(passed.values()) else 1


def cmd_vc2(args) -> int:
    if args.kmax < 1:
        raise io.InputError("--kmax must be at least 1")
    A, p, n = io.set_from_dict(io.load_json(args.set), args.set)
    g = group(p, n)
    kmax = min(args.kmax, vc2mod.KMAX_HARD)
    vd = vc2mod.vc_dim(A, g, kmax)
    v2, saturated, wit = vc2mod.vc2_search(A, g, kmax)
    witnesses = {}
    if v2 >= 1:
        witnesses["vc2"] = {"a": list(wit[0]), "b": list(wit[1]),
                            "c_by_pattern": wit[2]}
    print(io.dumps_canonical({"vc_dim": vd, "vc2_dim": v2,
                              "saturated": saturated,
                              "witnesses": witnesses}))
    return 0


def cmd_chain_bounds(args) -> int:
    with io.input_errors("--rho"):
        rho = GrowthFunction.parse(args.rho)
    if not 0 <= args.length <= MAX_LENGTH:
        raise io.InputError(f"--length must lie in [0, {MAX_LENGTH}]")
    if (min(args.tau_imax, args.tau_xmax) < 0
            or (args.tau_imax + 1) * (args.tau_xmax + 1) ** 2 > MAX_TAU_ROWS):
        raise io.InputError("need --tau-imax, --tau-xmax >= 0 and (--tau-imax"
                            f" + 1)(--tau-xmax + 1)^2 <= {MAX_TAU_ROWS}")
    # every value is converted before any row is written, so an overflow
    # leaves no partial table
    try:
        f_rows = [["".join("+" if x == 1 else "-" for x in s), float(a), float(b)]
                  for s, (a, b) in f_table(rho, args.length).items()]
        tau_rows = [[i, x, y, float(tau(rho, i, x, y))]
                    for i in range(args.tau_imax + 1)
                    for x in range(args.tau_xmax + 1)
                    for y in range(i, args.tau_xmax + 1)]
    except OverflowError:
        raise io.InputError("chain-bounds: a value does not fit a float; "
                            "lower --length or --tau-imax") from None
    io.write_csv(sys.stdout, (["sigma", "a", "b"], f_rows),
                 (["tau_i", "x", "y", "value"], tau_rows))
    return 0


def cmd_norms(args) -> int:
    with io.input_errors(args.factor):
        B = io.factor_from_dict(io.load_json(args.factor))
        B.rank()  # the report needs it; past MAX_Q_FOR_RANK this refuses
    f, p, n = io.function_from_dict(io.load_json(args.function), args.function)
    if (p, n) != (B.p, B.n):
        raise io.InputError("function and factor live on different groups")
    rows = []
    for e in B.all_labels():
        # canonical local-label with d_a = e and everything else zero
        d = dataclasses.replace(localnorms.trivial_local_label(B), d_a=e)
        rep = localnorms.norm_equivalence_report(f, B, e, d)
        if rep["degenerate"]:
            rep |= {"normTW8": "degenerate", "diff": ""}
        rows.append([rep[c] for c in localnorms.REPORT_COLUMNS])
    io.write_csv(args.out, (localnorms.REPORT_COLUMNS, rows))
    return 0


def cmd_gen(args) -> int:
    with io.input_errors(f"gen --kind {args.kind}"):
        params = io.check(io.parse_json(args.params or "{}", "gen --params"),
                          io.GEN_PARAMS[args.kind])
        A = generate_set(args.kind, params, args.seed, args.p, args.n)
    io.save_json(args.out, io.set_to_dict(A, args.p, args.n))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: one `error:` line and exit 4, not
    argparse's exit 2 (decompose's oracle-failure code)."""

    def error(self, message):
        raise io.InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="quadreg")
    sub = ap.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("decompose", help="energy-increment decompositions")
    d.add_argument("--mode", choices=["global", "cylinder"], default="cylinder")
    d.add_argument("--set", required=True)
    d.add_argument("--delta", type=float, required=True)
    d.add_argument("--rho", default="linear:1")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--max-steps", type=int, default=None)
    d.add_argument("--out", required=True)
    d.set_defaults(fn=cmd_decompose)

    v = sub.add_parser("verify", help="run the invariant verification suite")
    v.add_argument("--level", choices=["quick", "full"], default="quick")
    v.add_argument("--out", default=None, help="directory for diagnostics CSVs")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("vc2", help="VC / VC2 dimension of a set")
    c.add_argument("--set", required=True)
    c.add_argument("--kmax", type=int, default=2,
                   help="largest k to test, at least 1; values above "
                        f"{vc2mod.KMAX_HARD} are clamped to {vc2mod.KMAX_HARD}")
    c.set_defaults(fn=cmd_vc2)

    cb = sub.add_parser("chain-bounds", help="tau / f_sigma tables as CSV")
    cb.add_argument("--rho", default="linear:1")
    cb.add_argument("--length", type=int, default=4)
    cb.add_argument("--tau-imax", type=int, default=3)
    cb.add_argument("--tau-xmax", type=int, default=5)
    cb.set_defaults(fn=cmd_chain_bounds)

    nm = sub.add_parser("norms", help="per-atom local norm table")
    nm.add_argument("--factor", required=True)
    nm.add_argument("--function", required=True)
    nm.add_argument("--out", required=True)
    nm.set_defaults(fn=cmd_norms)

    gn = sub.add_parser("gen", help="generate a test set")
    gn.add_argument("--kind", required=True,
                    choices=["random", "atom-union", "quadratic-variety", "coset"])
    gn.add_argument("--params", default=None, help="JSON parameter object")
    gn.add_argument("--seed", type=int, default=0)
    gn.add_argument("--p", type=int, required=True)
    gn.add_argument("--n", type=int, required=True)
    gn.add_argument("--out", required=True)
    gn.set_defaults(fn=cmd_gen)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
            raise io.InputError("--seed must be at least 0")
        return args.fn(args)
    except (io.InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
