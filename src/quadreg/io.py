"""File formats: JSON sets, functions, factors and partitions, canonically
ordered (sorted keys) so diffs are meaningful, and every CSV file."""

from __future__ import annotations

import csv
import json
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
    InputErrors naming `source`."""
    try:
        yield
    except InputError:
        raise
    except KeyError as e:
        raise InputError(f"{source}: missing {e}") from None
    except (TypeError, ValueError) as e:
        raise InputError(f"{source}: {e}") from None


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))


def load_json(path):
    with open(path) as fh, input_errors(str(path)):
        return json.load(fh)


# -- sets / functions --------------------------------------------------------

def set_to_dict(A, p: int, n: int) -> dict:
    return {"p": p, "n": n, "kind": "indicator",
            "elements": np.flatnonzero(A).tolist()}


def function_to_dict(values, p: int, n: int) -> dict:
    return {"p": p, "n": n, "kind": "dense",
            "values": [float(v) for v in values]}


def function_from_dict(d: dict):
    with input_errors("set/function file"):
        g = group(d["p"], d["n"])
        if d["kind"] == "indicator":
            members = np.array([as_int(m, "a set member") for m in d["elements"]],
                               dtype=np.int64)
            if members.size and not 0 <= members.min() <= members.max() < g.size:
                raise InputError(f"set members must lie in [0, {g.size})")
            v = np.zeros(g.size, dtype=np.float64)
            v[members] = 1.0
            return v, d["p"], d["n"]
        if d["kind"] == "dense":
            v = as_values(np.asarray(d["values"], dtype=np.float64), g)
            if not np.isfinite(v).all():
                raise InputError("dense values must be finite")
            return v, d["p"], d["n"]
        raise InputError(f"unknown function kind {d['kind']!r}")


def set_from_dict(d: dict):
    v, p, n = function_from_dict(d)
    if not np.isin(v, (0, 1)).all():
        raise InputError("dense set values must be 0 or 1")
    return v.astype(bool), p, n


# -- factors -----------------------------------------------------------------

def factor_to_dict(B: QuadraticFactor) -> dict:
    return {"p": B.p, "n": B.n, "L": [list(v) for v in B.L],
            "Q": [[list(row) for row in M] for M in B.Q]}


def factor_from_dict(d: dict) -> QuadraticFactor:
    return QuadraticFactor(d["p"], d["n"], d.get("L", []), d.get("Q", []))


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
