"""File formats: JSON sets, functions, factors and partitions, canonically
ordered (sorted keys) so diffs are meaningful, and every CSV file."""

from __future__ import annotations

import csv
import json
import reprlib
import sys
from contextlib import contextmanager, nullcontext

import numpy as np

from .factors import QuadraticFactor
from .gf import as_int, group
from .gowers import as_values


class InputError(ValueError):
    """A malformed input file or inconsistent inputs; the CLI prints the
    message and exits with code 4."""


@contextmanager
def input_errors(source: str):
    """Turn the errors that malformed input raises inside the block into
    InputErrors naming `source` (an InputError passes unchanged); json.loads
    raises RecursionError on a deep nesting."""
    try:
        yield
    except (TypeError, ValueError, RecursionError) as e:
        raise (e if isinstance(e, InputError) else InputError(f"{source}: {e}")) from None


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))


def load_json(path):
    with open(path) as fh, input_errors(str(path)):  # a file not in UTF-8 too
        return parse_json(fh.read(), str(path))


def parse_json(text: str, source: str):
    with input_errors(source):
        return json.loads(text)


FUNCTION_FILES = {"indicator": {"p": int, "n": int, "elements": [int]},
                  "dense": {"p": int, "n": int, "values": [float]}}
FACTOR_FILE = {"p": int, "n": int, "L?": [[int]], "Q?": [[[int]]]}
GEN_PARAMS = {"random": {"density?": float}, "coset": {"L": [[int]], "a": [int]},
              "quadratic-variety": {"M": [[int]], "value?": int},
              "atom-union": {"L?": [[int]], "Q?": [[[int]]],
                             "labels": [{"a": [int], "b": [int]}]}}


def check(value, schema, path: str = ""):
    """`value` as `schema` describes it, else a TypeError naming the JSON path of
    the mismatch (`L[0][1]`): int is gf.as_int, float a finite number (no bool or
    int past the float range), [s] a list of s, {key: s} an object cut to these
    keys ("key?" may be missing), a tuple one of its strings."""
    if isinstance(schema, list) and isinstance(value, list):
        return [check(v, schema[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(schema, dict) and isinstance(value, dict):
        out = {}
        for key, sub in schema.items():
            name = key.rstrip("?")
            if name in value:
                out[name] = check(value[name], sub, f"{path}.{name}".lstrip("."))
            elif name == key:
                raise TypeError(f"{path}.{name}".lstrip(".") + " is missing")
        return out
    if schema is int:
        return as_int(value, path)
    if (schema is float and type(value) in (int, float) and abs(value) <= sys.float_info.max
            or isinstance(schema, tuple) and value in schema):
        return value
    expected = {list: "a list", dict: "an object", tuple: f"one of {schema}"}.get(
        type(schema), "a finite number")
    raise TypeError(f"{path or 'the value'} must be {expected}, not {reprlib.repr(value)}")


# -- sets / functions --------------------------------------------------------

def set_to_dict(A, p: int, n: int) -> dict:
    return {"p": p, "n": n, "kind": "indicator",
            "elements": np.flatnonzero(A).tolist()}


def function_to_dict(values, p: int, n: int) -> dict:
    return {"p": p, "n": n, "kind": "dense",
            "values": [float(v) for v in values]}


def function_from_dict(d, source: str):
    with input_errors(source):
        kind = check(d, {"kind": tuple(FUNCTION_FILES)})["kind"]
        d = check(d, FUNCTION_FILES[kind])
        g = group(d["p"], d["n"])
        if kind == "indicator":
            if not all(0 <= m < g.size for m in d["elements"]):
                raise ValueError(f"set members must lie in [0, {g.size})")
            v = np.zeros(g.size, dtype=np.float64)
            v[d["elements"]] = 1.0
        else:
            v = as_values(np.asarray(d["values"], dtype=np.float64), g)
            # f is 1-bounded; from about 1e39 on, its eighth powers overflow
            big = np.flatnonzero(abs(v) > 1)
            if big.size:
                raise ValueError(f"values[{big[0]}] must lie in [-1, 1], "
                                 f"not {reprlib.repr(d['values'][big[0]])}")
        return v, d["p"], d["n"]


def set_from_dict(d, source: str):
    v, p, n = function_from_dict(d, source)
    if not np.isin(v, (0, 1)).all():
        raise InputError(f"{source}: dense set values must be 0 or 1")
    return v.astype(bool), p, n


# -- factors -----------------------------------------------------------------

def factor_to_dict(B: QuadraticFactor) -> dict:
    return {"p": B.p, "n": B.n, "L": [list(v) for v in B.L],
            "Q": [[list(row) for row in M] for M in B.Q]}


def factor_from_dict(d) -> QuadraticFactor:
    return QuadraticFactor(**check(d, FACTOR_FILE))


# -- partitions and traces ---------------------------------------------------

def cells_to_dict(cells, p: int, n: int) -> dict:
    out = []
    for c in sorted(cells, key=lambda c: c.key()):
        out.append({
            "factor": factor_to_dict(c.factor),
            "label": {"a": list(c.label[0]), "b": list(c.label[1])},
            "sigma": list(c.sigma),
            "members": sorted(int(x) for x in c.members),
            "density": c.density,
            "normP8": c.normP8,
            "uniform": bool(c.uniform),
        })
    return {"p": p, "n": n, "cells": out}


def global_to_dict(B: QuadraticFactor, report) -> dict:
    """A global decomposition's partition: its factor and its report."""
    return {"mode": "global", "factor": factor_to_dict(B),
            "complexity": list(B.complexity()), "rank": B.rank(),
            "nonuniform_mass": report["nonuniform_mass"]}


def save_trace(path, trace) -> None:
    """One CSV row per step record, the exact indices written as floats."""
    header = ["step", "kind", "index_before", "index_after",
              "nonuniform_mass", "deletions", "witnesses"]
    write_csv(path, (header, [
        [t.step, t.kind, float(t.index_before), float(t.index_after),
         t.nonuniform_mass, t.deletions, t.witnesses] for t in trace]))


def write_csv(out, *tables) -> None:
    """Write each (header, rows) table as CSV to `out`, a path or an open
    text stream, with a blank row between tables."""
    with (nullcontext(out) if hasattr(out, "write")
          else open(out, "w", newline="")) as fh:
        w = csv.writer(fh)
        for i, (header, rows) in enumerate(tables):
            if i:
                w.writerow([])
            w.writerow(header)
            w.writerows(rows)
