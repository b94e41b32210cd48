#!/usr/bin/env python3
"""Fixed-seed output digest: run quadreg's commands in-process on a fixed
matrix of inputs and print one `sha256 name` line per output.

Every run contributes its exit code, its stdout and stderr, and every file
it writes.  Two source trees give the same outputs exactly when they print
the same lines, so a refactor that must keep its outputs byte-identical is
checked with

    PYTHONPATH=<old>/src python3 scripts/output_digest.py > old.txt
    PYTHONPATH=<new>/src python3 scripts/output_digest.py > new.txt
    diff old.txt new.txt

The matrix: `gen` for random sets (seeds 0-2), a quadratic variety and an
atom union at n=2 and 3; `decompose` on each of them in both modes at delta
0.3 and 0.4, plus one n=4 run, one `poly:1,2` run and one run stopped by
`--max-steps 1`; `vc2` on each set; `verify --level quick|full --out`;
`chain-bounds --length 8` for four growth functions; and `norms` on seeded
random factors at n=2..4.  It takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as _io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from quadreg import io
from quadreg.cli import main as cli_main
from quadreg.generators import random_factor

P = 3


def _sets(n: int) -> dict:
    """name -> gen arguments for the sets on F_3^n."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    e0 = [1] + [0] * (n - 1)
    out = {f"random{seed}": ["--kind", "random", "--seed", str(seed)]
           for seed in range(3)}
    out["variety"] = ["--kind", "quadratic-variety",
                      "--params", json.dumps({"M": eye, "value": 2})]
    out["atom-union"] = ["--kind", "atom-union", "--params", json.dumps(
        {"L": [e0], "Q": [eye],
         "labels": [{"a": [0], "b": [1]}, {"a": [1], "b": [2]}]})]
    return out


def runs(work: Path):
    """(name, argv) in run order; argv may name files earlier runs wrote."""
    for n in (2, 3):
        for name, args in _sets(n).items():
            s = work / f"n{n}-{name}.json"
            yield f"gen/n{n}-{name}", ["gen", *args, "--p", str(P),
                                       "--n", str(n), "--out", str(s)]
            for mode in ("cylinder", "global"):
                for delta in ("0.3", "0.4"):
                    yield (f"decompose/n{n}-{name}-{mode}-{delta}",
                           ["decompose", "--mode", mode, "--set", str(s),
                            "--delta", delta, "--out", "{out}"])
            yield f"vc2/n{n}-{name}", ["vc2", "--set", str(s), "--kmax", "2"]
    s4 = work / "n4-random0.json"
    yield "gen/n4-random0", ["gen", "--kind", "random", "--seed", "0",
                             "--p", str(P), "--n", "4", "--out", str(s4)]
    yield "decompose/n4-random0-cylinder-0.4", [
        "decompose", "--set", str(s4), "--delta", "0.4", "--out", "{out}"]
    yield "decompose/n3-random0-cylinder-0.3-poly:1,2", [
        "decompose", "--set", str(work / "n3-random0.json"), "--delta", "0.3",
        "--rho", "poly:1,2", "--out", "{out}"]
    yield "decompose/n3-random1-cylinder-0.3-max-steps-1", [
        "decompose", "--set", str(work / "n3-random1.json"), "--delta", "0.3",
        "--max-steps", "1", "--out", "{out}"]
    for level in ("quick", "full"):
        yield f"verify/{level}", ["verify", "--level", level, "--out", "{out}"]
    for rho in ("linear:1", "linear:1/2", "poly:2,2", "poly:3,2"):
        yield f"chain-bounds/{rho}", ["chain-bounds", "--rho", rho,
                                      "--length", "8"]
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4):
        for i in range(3):
            B = random_factor(P, n, 1, 2, rng)
            fac, fn = work / f"factor-n{n}-{i}.json", work / f"f-n{n}-{i}.json"
            io.save_json(fac, io.factor_to_dict(B))
            io.save_json(fn, io.function_to_dict(
                rng.uniform(-1, 1, P ** n), P, n))
            yield f"norms/n{n}-{i}", ["norms", "--factor", str(fac),
                                      "--function", str(fn),
                                      "--out", "{out}/norms.csv"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(work: Path):
    """Yield (sha256, name) for every output of every run."""
    for name, argv in runs(work):
        out = work / "out" / name
        if any("{out}" in a for a in argv):
            out.mkdir(parents=True)
        argv = [a.replace("{out}", str(out)) for a in argv]
        stdout, stderr = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        yield _sha(str(code).encode()), f"{name}/exit"
        yield _sha(stdout.getvalue().encode()), f"{name}/stdout"
        yield _sha(stderr.getvalue().encode()), f"{name}/stderr"
        if out.is_dir():
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    yield _sha(path.read_bytes()), f"{name}/{path.relative_to(out)}"
        if argv[0] == "gen":
            yield _sha(Path(argv[-1]).read_bytes()), f"{name}/set.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for sha, name in digest(Path(tmp)):
            print(sha, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
