import csv
import json
import os
from itertools import product

import numpy as np
import pytest

from quadreg import io, regularity, verify
from quadreg.chains import GrowthFunction, f_sigma, tau
from quadreg.cli import main
from quadreg.factors import QuadraticFactor
from quadreg.io import factor_to_dict
from quadreg.gf import group


def gen_set(tmp_path, name="set.json", kind="random", params=None, seed=0,
            p=3, n=2):
    out = tmp_path / name
    argv = ["gen", "--kind", kind, "--seed", str(seed), "--p", str(p),
            "--n", str(n), "--out", str(out)]
    if params is not None:
        argv += ["--params", json.dumps(params)]
    assert main(argv) == 0
    return out


def test_gen_deterministic(tmp_path):
    a = gen_set(tmp_path, "a.json", seed=5)
    b = gen_set(tmp_path, "b.json", seed=5)
    c = gen_set(tmp_path, "c.json", seed=6)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    d = io.load_json(a)
    assert d["p"] == 3 and d["n"] == 2 and d["kind"] == "indicator"


def test_gen_variety_roundtrip(tmp_path):
    path = gen_set(tmp_path, kind="quadratic-variety",
                   params={"M": [[1, 0], [0, 1]], "value": 2}, p=3, n=2)
    A, p, n = io.set_from_dict(io.load_json(path), str(path))
    B = QuadraticFactor(3, 2, [], [[[1, 0], [0, 1]]])
    assert np.array_equal(A, B.atom_indicator(((), (2,))))


@pytest.mark.parametrize("mode,oracle", [
    ("cylinder", "exhaustive"), ("cylinder", "randomized"),
    ("global", "exhaustive"), ("global", "randomized")])
def test_decompose_cylinder_end_to_end(tmp_path, monkeypatch, mode, oracle):
    s = gen_set(tmp_path, kind="quadratic-variety",
                params={"M": [[1, 0], [0, 1]], "value": 2}, p=3, n=2)
    if oracle == "randomized":  # the restarts otherwise run only from n=4
        monkeypatch.setattr(regularity, "EXHAUSTIVE_CAP", 0)

    def run(out):
        return main(["decompose", "--mode", mode, "--set", str(s),
                     "--delta", "0.4", "--out", str(out)])

    out, out2 = tmp_path / "run", tmp_path / "run2"
    assert run(out) == 0
    assert (out / "partition.json").exists()
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "expected at least one step"
    assert set(rows[0]) == {"step", "kind", "index_before", "index_after",
                            "nonuniform_mass", "deletions", "witnesses"}
    # determinism: a rerun writes identical bytes
    assert run(out2) == 0
    for name in ("partition.json", "trace.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_decompose_global_mode(tmp_path):
    s = gen_set(tmp_path, kind="quadratic-variety",
                params={"M": [[1, 0], [0, 1]], "value": 2}, p=3, n=2)
    out = tmp_path / "glob"
    rc = main(["decompose", "--mode", "global", "--set", str(s),
               "--delta", "0.4", "--out", str(out)])
    assert rc == 0
    d = io.load_json(out / "partition.json")
    assert d["mode"] == "global"
    assert "factor" in d and "complexity" in d


def test_decompose_budget_exit_code(tmp_path):
    s = gen_set(tmp_path, kind="quadratic-variety",
                params={"M": [[1, 0], [0, 1]], "value": 2}, p=3, n=2)
    rc = main(["decompose", "--mode", "cylinder", "--set", str(s),
               "--delta", "0.4", "--max-steps", "0",
               "--out", str(tmp_path / "nope")])
    assert rc == 3


@pytest.mark.parametrize("delta", ["1e-40", "3.6e-41"])
def test_decompose_at_a_tiny_delta(tmp_path, delta):
    # delta^-10 overflows a float below about 1.6e-31; the budget is an exact
    # int, and 3.6e-41 is just above the floor where delta^8 rounds to 0
    s = gen_set(tmp_path)
    assert main(["decompose", "--set", str(s), "--delta", delta,
                 "--out", str(tmp_path / "out")]) == 0


def test_vc2_command(tmp_path, capsys):
    s = gen_set(tmp_path, kind="quadratic-variety",
                params={"M": [[1, 0], [0, 1]], "value": 1}, p=3, n=2)
    assert main(["vc2", "--set", str(s), "--kmax", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert set(rep) == {"vc_dim", "vc2_dim", "saturated", "witnesses"}
    assert rep["vc2_dim"] <= 1  # impossible at n=2 (16 patterns > 9 points)


def test_chain_bounds_command(capsys):
    assert main(["chain-bounds", "--rho", "poly:2,2", "--length", "3",
                 "--tau-imax", "2", "--tau-xmax", "3"]) == 0
    out = capsys.readouterr().out
    assert "sigma,a,b" in out
    assert "tau_i,x,y,value" in out


@pytest.mark.parametrize("rho", ["linear:1", "poly:2,2", "linear:1/2"])
def test_chain_bounds_rows_match_recursions(capsys, rho):
    assert main(["chain-bounds", "--rho", rho, "--length", "6",
                 "--tau-imax", "3", "--tau-xmax", "4"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    blank = rows.index([])
    f_rows, tau_rows = rows[1:blank], rows[blank + 2:]
    g = GrowthFunction.parse(rho)
    strings = [s for m in range(7) for s in product((-1, 1), repeat=m)]
    assert [r[0] for r in f_rows] == ["".join("+" if x == 1 else "-" for x in s)
                                      for s in strings]
    for (_, a, b), s in zip(f_rows, strings):
        assert (float(a), float(b)) == tuple(map(float, f_sigma(g, s)))
    want = [(i, x, y) for i in range(4) for x in range(5) for y in range(i, 5)]
    assert [tuple(map(int, r[:3])) for r in tau_rows] == want
    for (i, x, y), r in zip(want, tau_rows):
        assert float(r[3]) == float(tau(g, i, x, y))


def test_norms_command(tmp_path):
    B = QuadraticFactor(3, 2, [(1, 0)], [])
    fpath = tmp_path / "factor.json"
    io.save_json(fpath, factor_to_dict(B))
    g = group(3, 2)
    vals = np.random.default_rng(0).uniform(-1, 1, size=g.size)
    fn = tmp_path / "f.json"
    io.save_json(fn, io.function_to_dict(vals, 3, 2))
    out = tmp_path / "norms.csv"
    assert main(["norms", "--factor", str(fpath), "--function", str(fn),
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3  # one per label
    assert set(rows[0]) == {"label", "atom_size", "omega_count",
                            "omega_predicted", "normP8", "normTW8", "diff"}
    for r in rows:
        assert r["atom_size"] == "3"
        assert r["omega_count"] == "81"


def test_norms_command_empty_atom(tmp_path):
    # x0^2 never takes the value 2 mod 3, so the atom ((), (2,)) is empty
    fpath = _write(tmp_path / "factor.json",
                   factor_to_dict(QuadraticFactor(3, 2, [], [[[1, 0], [0, 0]]])))
    vals = np.random.default_rng(0).uniform(-1, 1, size=9)
    fn = _write(tmp_path / "f.json", io.function_to_dict(vals, 3, 2))
    out = tmp_path / "norms.csv"
    assert main(["norms", "--factor", fpath, "--function", fn,
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = {r["label"]: r for r in csv.DictReader(fh)}
    row = rows["((), (2,))"]
    assert row["atom_size"] == "0"
    assert row["normTW8"] == "degenerate"
    assert row["diff"] == ""


@pytest.mark.parametrize("level", ["quick", "full"])
def test_verify_command(tmp_path, capsys, level):
    assert main(["verify", "--level", level, "--out", str(tmp_path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is True and len(rep) == 13  # 12 checks and the verdict
    # the explicit counting inequalities are asserted, not just reported
    assert rep["omegagood_bound"] and rep["badcount1_bound"]
    size_csv = (tmp_path / "size_diagnostics.csv").read_text().splitlines()
    norm_csv = (tmp_path / "norm_equivalence.csv").read_text().splitlines()
    assert size_csv[0] == "factor,rank,kind,label,observed,predicted"
    assert norm_csv[0] == ("factor,rank,label,atom_size,omega_count,"
                           "omega_predicted,normP8,normTW8,diff")
    assert len(size_csv) > 1 and len(norm_csv) > 1
    assert any(",triple_product_avg," in row for row in size_csv)


def test_verify_names_each_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(verify, "psi_fibres", lambda g: "fibre sizes off")
    assert main(["verify", "--level", "quick"]) == 1
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rep.pop("ok") is False and rep.pop("psi_fibres") is False
    assert len(rep) == 11 and all(rep.values())
    assert err == "psi_fibres: fibre sizes off\n"


def _write(path, obj):
    io.save_json(path, obj)
    return str(path)


SET = {"p": 3, "n": 2, "kind": "indicator", "elements": [0, 4]}
DENSE = {"p": 3, "n": 2, "kind": "dense", "values": [0.5] * 9}
# file cases whose error line names the bad value: (the command that reads
# the file, its contents as JSON or raw bytes, a part of that line); "norms"
# reads it as --function and "norms-factor" as --factor, next to a valid file
NAMED_FILE_CASES = {
    "vc2-member-past-int64": ("vc2", SET | {"elements": [0, 10 ** 30]},
                              "set members must lie in [0, 9)"),
    "decompose-member-past-int64-negative": (
        "decompose", SET | {"elements": [-10 ** 30]}, "set members must lie in"),
    "decompose-dense-value-past-float": (
        "decompose", DENSE | {"values": [10 ** 400] + [0] * 8},
        "values[0] must be a finite number, not 1000"),
    "decompose-dense-value-boolean": (
        "decompose", DENSE | {"values": [True] + [0] * 8},
        "values[0] must be a finite number, not True"),
    "norms-dense-value-string": ("norms", DENSE | {"values": ["1"] + [0] * 8},
                                 "values[0] must be a finite number, not '1'"),
    "vc2-set-file-a-list": ("vc2", [1, 2], "the value must be an object"),
    "vc2-set-n-a-string": ("vc2", SET | {"n": "2"}, "n must be an integer, not '2'"),
    "vc2-set-without-elements": ("vc2", {"p": 3, "n": 2, "kind": "indicator"},
                                 "elements is missing"),
    "norms-L-not-a-list": ("norms-factor", {"p": 3, "n": 2, "L": 5},
                           "L must be a list, not 5"),
    "norms-matrix-row-not-a-list": (
        "norms-factor", {"p": 3, "n": 2, "Q": [[[1, 0], 1]]}, "Q[0][1] must be a list"),
    "vc2-deep-nesting": ("vc2", b"[" * 100000, "maximum recursion depth"),
    "norms-deep-nesting-factor": ("norms-factor", b"[" * 100000,
                                  "maximum recursion depth"),
    "vc2-file-not-utf8": ("vc2", b"\xff", "input.json: "),
}
# earlier cases whose error line names the bad value
NAMED = {"fractional-member": "elements[0] must be an integer, not 1.5",
         "boolean-member": "elements[0] must be an integer, not True",
         "norms-factor-fractional-entry": "L[0][0] must be an integer, not 1.5",
         "norms-factor-string-entry": "L[0][0] must be an integer, not '1'",
         "norms-factor-boolean-entry": "L[0][0] must be an integer, not True",
         "gen-coset-fractional-entry": "L[0][0] must be an integer, not 1.7",
         "gen-variety-fractional-value": "value must be an integer, not 1.5",
         "gen-label-fractional-digit": "labels[0].a[0] must be an integer",
         "atom-union-without-labels": "labels is missing",
         "gen-params-list": "the value must be an object, not [1]",
         "gen-params-null": "the value must be an object, not None",
         "gen-params-string": "the value must be an object, not 'x'",
         "norms-nan-value": "values[8] must be a finite number, not nan",
         "norms-infinite-value": "values[8] must be a finite number, not inf",
         "decompose-nan-value": "values[8] must be a finite number, not nan"}
# gen cases whose error line names the bad value: (--kind, --params, a part
# of that line)
NAMED_GEN_CASES = {
    "gen-density-boolean": ("random", '{"density": true}',
                            "density must be a finite number, not True"),
    "gen-density-string": ("random", '{"density": "0.5"}',
                           "density must be a finite number, not '0.5'"),
    "gen-label-without-b": ("atom-union", '{"L": [[1, 0]], "labels": [{"a": [1]}]}',
                            "labels[0].b is missing"),
    "gen-labels-not-a-list": ("atom-union", '{"L": [[1, 0]], "labels": {"a": [1]}}',
                              "labels must be a list"),
    "gen-deep-nesting-params": ("random", "[" * 100000, "maximum recursion depth"),
}


@pytest.mark.parametrize("case", ["negative-member", "member-too-large",
                                  "fractional-member", "boolean-member",
                                  "unsupported-p", "delta-zero",
                                  "norms-group-mismatch", "norms-q-past-rank-cap",
                                  "atom-union-without-labels", "gen-bad-p",
                                  "usage-missing-set", "usage-delta-not-a-number",
                                  "usage-unknown-command", "vc2-kmax-zero",
                                  "vc2-kmax-negative", "decompose-oracle",
                                  "decompose-p", "chain-bounds-overflow",
                                  "gen-params-list", "gen-params-null",
                                  "gen-params-string",
                                  "decompose-rho-zero-denominator",
                                  "chain-bounds-rho-zero-denominator",
                                  "chain-bounds-rho-negative-degree",
                                  "chain-bounds-rho-negative-constant",
                                  "decompose-rho-zero-constant",
                                  "gen-density-nan", "gen-density-above-one",
                                  "norms-nan-value", "norms-infinite-value",
                                  "decompose-nan-value", "gen-group-too-large",
                                  "set-group-too-large",
                                  "decompose-negative-max-steps",
                                  "chain-bounds-length-past-cap",
                                  "chain-bounds-tau-table-past-cap",
                                  "chain-bounds-negative-length",
                                  "chain-bounds-negative-tau-imax",
                                  "chain-bounds-negative-tau-xmax",
                                  "decompose-delta-eighth-power-zero",
                                  "decompose-dense-set-not-0-1",
                                  "gen-label-digit-count",
                                  "norms-function-wrong-length",
                                  "norms-factor-fractional-entry",
                                  "norms-factor-string-entry",
                                  "norms-factor-boolean-entry",
                                  "gen-coset-fractional-entry",
                                  "gen-variety-fractional-value",
                                  "gen-label-fractional-digit",
                                  *NAMED_FILE_CASES, *NAMED_GEN_CASES,
                                  "decompose-negative-seed", "gen-negative-seed"])
def test_bad_input_exits_4(tmp_path, capsys, case):
    out = str(tmp_path / "out")
    expected = NAMED.get(case, "")
    # decompose cases: (p, n, members, delta); 3^30 is past the largest group
    decompose = {"negative-member": (3, 2, [0, -1], "0.4"),
                 "member-too-large": (3, 2, [0, 9], "0.4"),
                 "fractional-member": (3, 2, [1.5, 2], "0.4"),
                 "boolean-member": (3, 2, [True, 2], "0.4"),
                 "unsupported-p": (4, 2, [0], "0.4"),
                 "delta-zero": (3, 2, [0], "0"),
                 "decompose-delta-eighth-power-zero": (3, 2, [0], "3.5e-41"),
                 "set-group-too-large": (3, 30, [0], "0.4")}
    if case in NAMED_FILE_CASES:
        command, contents, expected = NAMED_FILE_CASES[case]
        path = tmp_path / "input.json"
        path.write_bytes(contents if isinstance(contents, bytes)
                         else json.dumps(contents).encode())
        factor = _write(tmp_path / "factor.json",
                        factor_to_dict(QuadraticFactor(3, 2, [(1, 0)], [])))
        fn = _write(tmp_path / "f.json", DENSE)
        argv = {"vc2": ["vc2", "--set", str(path)],
                "decompose": ["decompose", "--set", str(path), "--delta", "0.4",
                              "--out", out],
                "norms": ["norms", "--factor", factor, "--function", str(path),
                          "--out", out],
                "norms-factor": ["norms", "--factor", str(path), "--function", fn,
                                 "--out", out]}[command]
    elif case in NAMED_GEN_CASES:
        kind, params, expected = NAMED_GEN_CASES[case]
        argv = ["gen", "--kind", kind, "--params", params, "--p", "3", "--n", "2",
                "--out", out]
    elif case.endswith("-negative-seed"):  # numpy's generators refuse it
        argv = (["gen", "--kind", "random", "--p", "3", "--n", "2"]
                if case.startswith("gen") else
                ["decompose", "--set", _write(tmp_path / "s.json", SET), "--delta",
                 "0.4"]) + ["--seed", "-1", "--out", out]
        expected = "error: --seed must be at least 0\n"
    elif case in decompose:
        p, n, members, delta = decompose[case]
        s = _write(tmp_path / "set.json", {"p": p, "n": n, "kind": "indicator",
                                           "elements": members})
        argv = ["decompose", "--set", s, "--delta", delta, "--out", out]
    elif case == "norms-group-mismatch":
        factor = _write(tmp_path / "factor.json",
                        factor_to_dict(QuadraticFactor(3, 3, [(1, 0, 0)], [])))
        fn = _write(tmp_path / "f.json", io.function_to_dict(np.ones(9), 3, 2))
        argv = ["norms", "--factor", factor, "--function", fn, "--out", out]
    elif case == "norms-q-past-rank-cap":
        Q = [[[a, b], [b, c]] for a, b, c in product(range(3), repeat=3)][1:14]
        factor = _write(tmp_path / "factor.json",
                        factor_to_dict(QuadraticFactor(3, 2, [], Q)))
        fn = _write(tmp_path / "f.json", io.function_to_dict(np.ones(9), 3, 2))
        argv = ["norms", "--factor", factor, "--function", fn, "--out", out]
    elif case == "atom-union-without-labels":
        argv = ["gen", "--kind", "atom-union", "--params", '{"L": [[1, 0]]}',
                "--p", "3", "--n", "2", "--out", out]
    elif case == "gen-bad-p":
        argv = ["gen", "--kind", "random", "--p", "4", "--n", "2", "--out", out]
    elif case == "gen-group-too-large":
        argv = ["gen", "--kind", "random", "--p", "3", "--n", "30", "--out", out]
    elif case == "usage-missing-set":
        argv = ["decompose", "--delta", "0.4", "--out", out]
    elif case == "usage-delta-not-a-number":
        argv = ["decompose", "--set", "set.json", "--delta", "abc", "--out", out]
    elif case == "usage-unknown-command":
        argv = ["decomposee", "--out", out]
    elif case in ("decompose-oracle", "decompose-p"):  # removed options
        extra = (["--oracle", "exhaustive"] if case.endswith("oracle")
                 else ["--p", "3"])
        argv = ["decompose", "--set", str(gen_set(tmp_path)), "--delta", "0.4",
                "--out", out] + extra
    elif case in ("vc2-kmax-zero", "vc2-kmax-negative"):
        s = str(gen_set(tmp_path))
        argv = ["vc2", "--set", s, "--kmax", "0" if case.endswith("zero") else "-1"]
    elif case == "chain-bounds-overflow":  # a values past 1e308 at length 10
        argv = ["chain-bounds", "--rho", "poly:2,2", "--length", "10"]
    elif case == "decompose-negative-max-steps":
        argv = ["decompose", "--set", str(gen_set(tmp_path)), "--delta", "0.4",
                "--max-steps", "-1", "--out", out]
    elif case.startswith("chain-bounds-") and case.endswith("-past-cap"):
        # refused before any table is built: 2^1001 strings, 4e12 tau rows
        argv = (["chain-bounds", "--length", "1000"] if "length" in case
                else ["chain-bounds", "--tau-xmax", "1000000"])
    elif case.startswith("chain-bounds-negative-"):  # two empty tables, exit 0
        option = "--" + case[len("chain-bounds-negative-"):]
        argv = ["chain-bounds", option, "-3"]
    elif case == "decompose-dense-set-not-0-1":  # once read as {0, 1, 8}
        s = _write(tmp_path / "f.json", io.function_to_dict(
            [0.5, -2] + [0] * 6 + [0.001], 3, 2))
        argv = ["decompose", "--set", s, "--delta", "0.4", "--out", out]
    elif case == "gen-label-digit-count":  # two a digits for one linear form
        argv = ["gen", "--kind", "atom-union", "--params",
                '{"L": [[1, 0]], "labels": [{"a": [0, 1], "b": []}]}',
                "--p", "3", "--n", "2", "--out", out]
    elif case.startswith("norms-factor-"):  # each was once read as (1, 0)
        entry = {"fractional": 1.5, "string": "1", "boolean": True}[case[13:-6]]
        factor = _write(tmp_path / "factor.json",
                        {"p": 3, "n": 2, "L": [[entry, 0]], "Q": []})
        fn = _write(tmp_path / "f.json", io.function_to_dict(np.ones(9), 3, 2))
        argv = ["norms", "--factor", factor, "--function", fn, "--out", out]
    elif case.startswith("gen-") and "fractional" in case:  # read as 1 once
        kind, params = {
            "coset": ("coset", {"L": [[1.7, 0]], "a": [1]}),
            "variety": ("quadratic-variety", {"M": [[1, 0], [0, 1]], "value": 1.5}),
            "label": ("atom-union", {"L": [[1, 0]], "labels": [{"a": [1.5], "b": []}]}),
        }[case.split("-")[1]]
        argv = ["gen", "--kind", kind, "--params", json.dumps(params), "--p", "3",
                "--n", "2", "--out", out]
    elif case.startswith("gen-params-"):
        params = {"list": "[1]", "null": "null", "string": '"x"'}[case[11:]]
        argv = ["gen", "--kind", "random", "--params", params, "--p", "3",
                "--n", "2", "--out", out]
    elif case.startswith("decompose-rho-"):
        rho = "linear:1/0" if case.endswith("denominator") else "linear:0"
        argv = ["decompose", "--set", str(gen_set(tmp_path)), "--delta", "0.4",
                "--rho", rho, "--out", out]
    elif case.startswith("chain-bounds-rho-"):  # rho(0) = 0^-1 at degree -1
        rho = {"denominator": "linear:1/0", "degree": "poly:1,-1",
               "constant": "linear:-1"}[case.rsplit("-", 1)[1]]
        argv = ["chain-bounds", "--rho", rho, "--length", "2"]
    elif case.startswith("gen-density-"):
        density = "nan" if case.endswith("nan") else 1.5
        argv = ["gen", "--kind", "random", "--params",
                json.dumps({"density": density}), "--p", "3", "--n", "2",
                "--out", out]
    elif case == "norms-function-wrong-length":  # 8 values on a 9-point group
        factor = _write(tmp_path / "factor.json",
                        factor_to_dict(QuadraticFactor(3, 2, [(1, 0)], [])))
        fn = _write(tmp_path / "f.json", io.function_to_dict([0.5] * 8, 3, 2))
        argv = ["norms", "--factor", factor, "--function", fn, "--out", out]
    elif case in ("norms-nan-value", "norms-infinite-value",
                  "decompose-nan-value"):
        bad = float("nan") if "nan" in case else float("inf")
        fn = _write(tmp_path / "f.json",
                    io.function_to_dict([0.5] * 8 + [bad], 3, 2))
        if case.startswith("norms"):
            factor = _write(tmp_path / "factor.json",
                            factor_to_dict(QuadraticFactor(3, 2, [(1, 0)], [])))
            argv = ["norms", "--factor", factor, "--function", fn, "--out", out]
        else:
            argv = ["decompose", "--set", fn, "--delta", "0.4", "--out", out]
    assert main(argv) == 4
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert expected in err, err
    assert not os.path.exists(out)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["decompose", "--help"])
    assert e.value.code == 0
    assert "--delta" in capsys.readouterr().out
