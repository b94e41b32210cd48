"""Malformed input never gives a traceback.

Hypothesis mutates valid n = 2 input files and argument lists (an entry
swapped for a bool, string, null, list, object, huge or negative number,
wrapped in one more list, or dropped; a whole file nested 100,000 deep; an
option given a junk value or left out) and runs each subcommand in-process.
Every run exits 0 or 4, and exit 4 prints exactly one `error:` line.
"""

import contextlib
import copy
import io as _io
import json

from hypothesis import Phase, given, settings, strategies as st

from quadreg.cli import main

FILES = {
    "set": {"p": 3, "n": 2, "kind": "indicator", "elements": [0, 4, 8]},
    "function": {"p": 3, "n": 2, "kind": "dense",
                 "values": [0.5, -1, 0, 1, 0.25, 0, 0, 1, 0]},
    "factor": {"p": 3, "n": 2, "L": [[1, 0]], "Q": [[[0, 1], [1, 0]]]},
}
PARAMS = {"random": {"density": 0.3},
          "quadratic-variety": {"M": [[1, 0], [0, 1]], "value": 2},
          "coset": {"L": [[1, 0]], "a": [1]},
          "atom-union": {"L": [[1, 0]], "Q": [[[0, 1], [1, 0]]],
                         "labels": [{"a": [0], "b": [1]}]}}
# "{set}", "{function}" and "{factor}" stand for input files, "{out}" for an
# output path, "{params}" for the kind's JSON parameters
COMMANDS = [
    ["decompose", "--mode", "cylinder", "--set", "{set}", "--delta", "0.5",
     "--rho", "linear:1", "--seed", "1", "--out", "{out}"],
    ["decompose", "--mode", "global", "--set", "{set}", "--delta", "0.5",
     "--out", "{out}"],
    ["vc2", "--set", "{set}", "--kmax", "2"],
    ["norms", "--factor", "{factor}", "--function", "{function}", "--out", "{out}"],
    ["chain-bounds", "--rho", "poly:2,2", "--length", "3", "--tau-imax", "2",
     "--tau-xmax", "3"],
    ["verify", "--level", "quick"],
] + [["gen", "--kind", kind, "--params", "{params}", "--seed", "2", "--p", "3",
      "--n", "2", "--out", "{out}"] for kind in PARAMS]

JUNK = [True, False, None, "", "1", [], [1], {}, {"p": 3}, 10 ** 30, -10 ** 30,
        10 ** 400, -1, 0, 1.5, float("nan"), float("inf")]
JUNK_ARGS = ["", "abc", "-1", "0", "1.5", "nan", "1e400", str(10 ** 30),
             str(-10 ** 30), "[1]", "{}", "linear:0"]
DEEP = "[" * 100000


def mutate(value, data):
    """`value` with one entry, reached by a random walk from the top,
    replaced by junk, wrapped in a list, or (in an object) dropped."""
    # three in four walks go one level deeper, one in three stops drop a key
    if value and isinstance(value, (list, dict)) and data.draw(st.integers(0, 3)):
        key = data.draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                        else range(len(value))))
        out = copy.copy(value)
        if isinstance(value, dict) and not data.draw(st.integers(0, 2)):
            del out[key]
        else:
            out[key] = mutate(value[key], data)
        return out
    return data.draw(st.sampled_from(JUNK + [[value]]))


def mutated_text(value, data) -> str:
    """A mutation of `value` as JSON text; one in four is nested 100,000 deep."""
    return json.dumps(mutate(value, data)) if data.draw(st.integers(0, 3)) else DEEP


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          phases=(Phase.generate, Phase.shrink))
@given(data=st.data())
def test_mutated_input_exits_0_or_4(tmp_path_factory, data):
    template = data.draw(st.sampled_from(COMMANDS))
    inputs = dict(FILES, params=PARAMS[template[2]] if template[0] == "gen" else None)
    # each run changes one input file, --params or one option
    target = data.draw(st.sampled_from(
        [a[1:-1] for a in template if a[1:-1] in inputs] + ["option"]))
    texts = {name: mutated_text(value, data) if name == target else json.dumps(value)
             for name, value in inputs.items()}
    tmp = tmp_path_factory.mktemp("fuzz")
    fill = {"{out}": str(tmp / "out"), "{params}": texts["params"]}
    for name in FILES:
        (tmp / f"{name}.json").write_text(texts[name])
        fill[f"{{{name}}}"] = str(tmp / f"{name}.json")
    argv = [fill.get(a, a) for a in template]
    if target == "option":
        options = [i for i, a in enumerate(argv) if a.startswith("--")
                   and argv[i + 1] != str(tmp / "out")]
        i = data.draw(st.sampled_from(options))
        if data.draw(st.booleans()):
            del argv[i:i + 2]
        else:
            argv[i + 1] = data.draw(st.sampled_from(JUNK_ARGS))
    stdout, stderr = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 4), (argv, err)
    if code == 4:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
