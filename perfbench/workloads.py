"""The four benchmark workloads: seeded inputs, the jobs built from them,
and an output check for every job.

A workload is a list of job templates that together make one *round*.
Every round has the same templates in the same order; only the inputs
change, drawn from ``(seed, input set)``.  Why each workload exists and
which branch each template takes is written down in README.md.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import fp

P = 3
DELTA = 0.3
RHO = "linear:1"
VC2_KMAX = 3


@dataclass
class Job:
    template: str         # what kind of job, e.g. "n4-random-cylinder"
    inputs: int           # index of the input set it was built from
    argv: list            # quadreg argv; "{out}" is replaced per execution
    check: object         # check(result of a run that exited 0) -> None or an error
    outputs: list = field(default_factory=list)   # files hashed, under {out}

    @property
    def key(self) -> str:
        return f"{self.template}@{self.inputs}"


@dataclass
class Result:
    rc: object
    seconds: float
    stdout: str
    error: str | None
    out: str


def output_hash(job: Job, res: Result) -> str:
    h = hashlib.sha256(res.stdout.encode())
    for name in job.outputs:
        path = os.path.join(res.out, name)
        h.update(name.encode())
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _set_dict(space, mask):
    return {"p": space.p, "n": space.n, "kind": "indicator",
            "elements": [int(i) for i in np.nonzero(mask)[0]]}


def _proper(mask) -> bool:
    return 0 < int(mask.sum()) < len(mask)


# -- seeded sets -----------------------------------------------------------

def random_set(space, rng):
    while True:
        mask = rng.random(space.size) < 0.5
        if _proper(mask):
            return mask


def atom_union(space, rng):
    """Union of about half the atoms of a random factor with l = q = 1."""
    while True:
        L, Q = fp.random_factor(space.p, space.n, 1, 1, rng)
        codes = space.label_codes(L, Q)
        present = np.unique(codes)
        pick = rng.choice(present, size=max(1, len(present) // 2), replace=False)
        mask = np.isin(codes, pick)
        if _proper(mask):
            return mask


def quadratic_variety(space, rng):
    """{x : x^T M x = c} for a random symmetric M and value c."""
    while True:
        M = fp.random_symmetric(space.p, space.n, rng)
        value = int(rng.integers(0, space.p))
        mask = space.label_codes([], [M]) == value
        if _proper(mask):
            return mask


def coset(space, rng):
    """{x : x.r = c}: a coset of a hyperplane."""
    r = fp.random_nonzero_vector(space.p, space.n, rng)
    value = int(rng.integers(0, space.p))
    return space.label_codes([r], []) == value


def pick(make, space, rng, accept, tries=200):
    """The first set from ``make`` that ``accept`` (benchmark code, not
    quadreg) takes; this fixes which branch quadreg's searches take on it."""
    for _ in range(tries):
        mask = make(space, rng)
        if accept(mask):
            return mask
    raise RuntimeError(f"no acceptable {make.__name__} set in {tries} tries")


# -- decompose -------------------------------------------------------------

def _decompose_check(space, mask, mode, capture):
    def check(res: Result):
        with open(os.path.join(res.out, "partition.json")) as fh:
            part = json.load(fh)
        with open(os.path.join(res.out, "trace.csv")) as fh:
            rows = list(csv.DictReader(fh))
        prev_after = None
        for row in rows:
            before, after = float(row["index_before"]), float(row["index_after"])
            if after < before - 1e-12:
                return f"index decreased at step {row['step']}"
            if prev_after is not None and abs(before - prev_after) > 1e-12:
                return f"index jumped between steps at {row['step']}"
            prev_after = after
        if mode == "cylinder":
            err = _check_cells(space, mask, part["cells"])
            if err is None:
                err = capture.validate()
            return err
        return _check_global(space, mask, part)
    return check


def _normalized_u3(space, mask, members):
    """(u3 of 1_A - density on the part) / (u3 of the part's indicator), or
    None when 1_A is constant on the part."""
    dens = mask[members].mean()
    f = np.zeros(space.size)
    f[members] = mask[members] - dens
    if np.max(np.abs(f)) < 1e-15:
        return None
    ind = np.zeros(space.size)
    ind[members] = 1.0
    return space.u3_eighth(f) / space.u3_eighth(ind)


def _check_cells(space, mask, cells):
    seen = np.zeros(space.size, dtype=np.int64)
    mass = 0
    codes_of = {}
    for cell in cells:
        members = np.asarray(cell["members"], dtype=np.int64)
        seen[members] += 1
        fac = cell["factor"]
        key = json.dumps(fac, sort_keys=True)
        if key not in codes_of:
            codes_of[key] = space.label_codes(fac["L"], fac["Q"])
        digits = list(cell["label"]["a"]) + list(cell["label"]["b"])
        code = sum(d * space.p ** k for k, d in enumerate(digits))
        if not np.array_equal(np.sort(members), np.nonzero(codes_of[key] == code)[0]):
            return "cell is not the atom of its factor"
        norm = _normalized_u3(space, mask, members)
        norm = 0.0 if norm is None else norm
        if abs(norm - cell["normP8"]) > 1e-7 * max(1.0, norm):
            return f"cell normP8 {cell['normP8']} != recomputed {norm}"
        if cell["uniform"] != (cell["normP8"] < DELTA ** 8):
            return "uniform flag disagrees with normP8"
        if not cell["uniform"]:
            mass += len(members)
    if not np.all(seen == 1):
        return "cells do not partition the group"
    if mass > DELTA * space.size:
        return f"non-uniform mass {mass} > delta |G|"
    return None


def _check_global(space, mask, part):
    fac = part["factor"]
    codes = space.label_codes(fac["L"], fac["Q"])
    mass, borderline = 0, False
    for code in np.unique(codes):
        members = np.nonzero(codes == code)[0]
        norm = _normalized_u3(space, mask, members)
        if norm is None:
            continue
        borderline |= abs(norm / DELTA ** 8 - 1) < 1e-9
        if norm >= DELTA ** 8:
            mass += len(members)
    if mass > DELTA * space.size:
        return f"non-uniform mass {mass} > delta |G|"
    if not borderline and mass != part["nonuniform_mass"]:
        return f"reported non-uniform mass {part['nonuniform_mass']} != {mass}"
    return None


class CellCapture:
    """Keeps the cells the last cylinder decomposition returned, so that
    ``regularity.validate_cells`` can check them (partition.json does not
    carry the factor chains)."""

    def __init__(self, cli, regularity, chains):
        self.cli, self.regularity = cli, regularity
        self.rho = chains.GrowthFunction.parse(RHO)
        self.cells = None
        inner = cli.cylinder_decompose

        def capture(*args, **kwargs):
            cells, report = inner(*args, **kwargs)
            self.cells = cells
            return cells, report

        self.inner = inner
        cli.cylinder_decompose = capture

    def validate(self):
        cells, self.cells = self.cells, None
        if cells is None:
            return "no cells captured"
        try:
            self.regularity.validate_cells(cells, self.rho, P ** cells[0].factor.n)
        except AssertionError as e:
            return f"validate_cells: {e}"
        return None

    def uninstall(self):
        self.cli.cylinder_decompose = self.inner


def decompose_round(ctx, s, rng):
    jobs = []

    def add(name, n, make, modes):
        space = ctx.space(n)
        mask = make(space, rng)
        path = os.path.join(ctx.inputs, f"{name}-{s}.json")
        _write_json(path, _set_dict(space, mask))
        for mode in modes:
            jobs.append(Job(
                template=f"{name}-{mode}", inputs=s,
                argv=["decompose", "--mode", mode, "--set", path,
                      "--delta", str(DELTA), "--rho", RHO, "--out", "{out}"],
                check=_decompose_check(space, mask, mode, ctx.capture),
                outputs=["partition.json", "trace.csv"]))

    both = ("cylinder", "global")
    # One n = 4 job per round, in cylinder mode.  Its cost varies by up to
    # a factor of two between random sets (global mode: 2.3-6 s, with a
    # longer tail), so jobs_per_s is the median over rounds; more or
    # costlier n = 4 jobs per round would leave too few rounds for it.
    add("n4-random", 4, random_set, ("cylinder",))
    # n = 3: the quadratic varieties (one step, about 60 ms) are two thirds
    # of the jobs, so job_s_p50 falls inside that class.  The random sets
    # run in cylinder mode only: most take four steps (0.3-0.45 s), and with
    # four per round the tenth-slowest job after the n = 4 ones falls inside
    # that class; in global mode they take two steps (0.2-0.3 s), and the
    # tail would land on the edge between the two.
    for i in range(4):
        add(f"n3-random-{i}", 3, random_set, ("cylinder",))
    add("n3-atom-union", 3, atom_union, both)
    for i in range(6):
        add(f"n3-variety-{i}", 3, quadratic_variety, both)
    return jobs


# -- norms -----------------------------------------------------------------

# (n, l, q) of each norms job in a round; q = 0 is left out (one
# omega_count on a trivial factor at n = 5 takes seconds and would swamp
# every other cost), and so is (6, 0, 1) (k222_sum on three atoms of 243
# elements runs for close to a minute).
NORMS_SHAPES = [(5, 1, 1), (5, 0, 2), (5, 0, 1), (5, 0, 2), (6, 1, 2),
                (5, 1, 1), (5, 0, 2), (5, 1, 2)]


def _norms_check(space, L, Q, f):
    codes = space.label_codes(L, Q)
    nlab = space.p ** (len(L) + len(Q))

    def label_text(code):
        digits = [(code // space.p ** k) % space.p for k in range(len(L) + len(Q))]
        return str((tuple(digits[:len(L)]), tuple(digits[len(L):])))

    expected = {label_text(c): c for c in range(nlab)}
    # the cube-count identities are recomputed on two labels per job: at
    # n = 6 each recomputation costs about as much as a small job
    sampled = {label_text(0), label_text(nlab - 1)}

    def check(res: Result):
        with open(os.path.join(res.out, "norms.csv")) as fh:
            rows = list(csv.DictReader(fh))
        if sorted(r["label"] for r in rows) != sorted(expected):
            return "rows are not one per label"
        total = 0
        for r in rows:
            members = np.nonzero(codes == expected[r["label"]])[0]
            size, omega = int(r["atom_size"]), int(r["omega_count"])
            total += size
            if size != len(members):
                return f"atom size of {r['label']} is {size}, not {len(members)}"
            if omega < size:
                return f"omega_count {omega} < atom size {size}"
            p8 = float(r["normP8"])
            if not (math.isfinite(p8) and p8 >= 0):
                return f"normP8 {p8} is not finite and nonnegative"
            if size and r["label"] in sampled:
                ind = np.zeros(space.size)
                ind[members] = 1.0
                if abs(space.u3_eighth(ind) - omega) > 1e-9 * omega:
                    return f"omega_count {omega} is not the cube count of the atom"
                want = space.u3_eighth(f * ind) / omega
                if abs(want - p8) > 1e-7 * max(1.0, want) and want >= 1e-12:
                    return f"normP8 {p8} != recomputed {want}"
            if r["normTW8"] != "degenerate":
                tw8 = float(r["normTW8"])
                if not (math.isfinite(tw8) and tw8 >= 0):
                    return f"normTW8 {tw8} is not finite and nonnegative"
        if total != space.size:
            return f"atom sizes sum to {total}, not p^n"
        return None
    return check


def norms_round(ctx, s, rng):
    """Factors of full rank n: their atoms all have about p^(n-l-q) elements,
    so a job's cost is set by its shape; lower-rank factors have uneven
    atoms, and the cost of k222_sum then varies by tens of percent between
    factors of one shape."""
    jobs = []
    for i, (n, l, q) in enumerate(NORMS_SHAPES):
        space = ctx.space(n)
        while True:
            L, Q = fp.random_factor(P, n, l, q, rng)
            if fp.factor_rank(Q, P, n) == n:
                break
        f = rng.uniform(-1.0, 1.0, space.size)
        fac_path = os.path.join(ctx.inputs, f"factor-{i}-{s}.json")
        fun_path = os.path.join(ctx.inputs, f"function-{i}-{s}.json")
        _write_json(fac_path, {"p": P, "n": n, "L": L, "Q": Q})
        _write_json(fun_path, {"p": P, "n": n, "kind": "dense",
                               "values": [float(v) for v in f]})
        jobs.append(Job(
            template=f"{i}-n{n}-l{l}-q{q}", inputs=s,
            argv=["norms", "--factor", fac_path, "--function", fun_path,
                  "--out", os.path.join("{out}", "norms.csv")],
            check=_norms_check(space, L, Q, f), outputs=["norms.csv"]))
    return jobs


# -- vc2 -------------------------------------------------------------------

def _vc2_check(space, mask, want_vc2):
    want_vc = []

    def check(res: Result):
        out = json.loads(res.stdout)
        k = out["vc2_dim"]
        if not want_vc:
            want_vc.append(fp.vc_dimension(space, mask, VC2_KMAX))
        if (out["vc_dim"], k) != (want_vc[0], want_vc2):
            return f"dimensions {(out['vc_dim'], k)} != {(want_vc[0], want_vc2)}"
        if out["saturated"] != (k == VC2_KMAX):
            return "saturated flag is wrong"
        if k == 0:
            return None
        wit = out["witnesses"]["vc2"]
        a, b, cs = wit["a"], wit["b"], wit["c_by_pattern"]
        if len(set(a)) != k or len(set(b)) != k:
            return "witness grid is not k x k"
        if sorted(int(s) for s in cs) != list(range(2 ** (k * k))):
            return "witness does not list every pattern"
        add = space.add
        for s, c in cs.items():
            s = int(s)
            for i in range(k):
                for j in range(k):
                    if mask[add[add[a[i], b[j]], c]] != bool(s >> (i * k + j) & 1):
                        return f"pattern {s} is not realized by c={c}"
        return None
    return check


def vc2_round(ctx, s, rng):
    """Three early-exit jobs and two full searches, interleaved.

    Early exit: a random set on which a 2 x 2 grid made of the first a-tuple
    (0, 1) and one of the first 32 b-tuples is shattered, so quadreg's grid
    search stops within its first 32 grids (VC2 dimension 2, since a 3 x 3
    grid needs 512 > 27 translates).  Without the bound on the b-tuple the
    early exits range from 2 ms to 130 ms and set where the median lands.
    Full search: a coset of a hyperplane, or an atom union of VC2 dimension
    1, so the 2 x 2 search runs through all C(27, 2)^2 grids.  A coset
    always has dimension 1: its membership depends on one linear form, so a
    2 x 2 grid shows at most p < 16 patterns.
    """
    space = ctx.space(3)

    def early(mask):
        return fp.shattered_grids(space, mask, 2, first_b=32)

    def full(mask):
        return fp.vc2_dimension(space, mask, VC2_KMAX) == 1

    structured = [("coset", coset, lambda mask: True), ("atom-union", atom_union, full)]
    plan = [("random", random_set, early, 2), (*structured[s % 2], 1),
            ("random", random_set, early, 2), (*structured[(s + 1) % 2], 1),
            ("random", random_set, early, 2)]
    jobs = []
    for i, (name, make, accept, dim) in enumerate(plan):
        mask = pick(make, space, rng, accept)
        path = os.path.join(ctx.inputs, f"vc2-{i}-{s}.json")
        _write_json(path, _set_dict(space, mask))
        jobs.append(Job(template=f"{i}-{name}", inputs=s,
                        argv=["vc2", "--set", path, "--kmax", str(VC2_KMAX)],
                        check=_vc2_check(space, mask, dim)))
    return jobs


# -- verify ----------------------------------------------------------------

def _verify_check(level):
    def check(res: Result):
        report = json.loads(res.stdout)
        if report.get("ok") is not True or not all(report.values()):
            return f"report not ok: {report}"
        if level == "full":
            for name in ("size_diagnostics.csv", "norm_equivalence.csv"):
                path = os.path.join(res.out, name)
                with open(path) as fh:
                    if len(fh.readlines()) < 2:
                        return f"{name} has no rows"
        return None
    return check


def verify_round(ctx, s, rng):
    """One quick and two full runs of the suite.  With equal counts the
    median would be the midpoint of the slowest quick and the fastest full
    job, and the tail would flip between the two levels with the parity of
    the round count; with two full jobs per round and at least six rounds,
    both land among the full jobs.  The suite has no inputs: every round's
    jobs share input set 0, so each execution is compared with the first."""
    full = Job(template="full", inputs=0,
               argv=["verify", "--level", "full", "--out", "{out}"],
               check=_verify_check("full"),
               outputs=["size_diagnostics.csv", "norm_equivalence.csv"])
    return [Job(template="quick", inputs=0, argv=["verify", "--level", "quick"],
                check=_verify_check("quick")), full, full]


@dataclass
class Workload:
    build_round: object   # (ctx, input set, rng) -> list of Job
    sizes: tuple          # the n of every group the jobs use
    repeat: tuple         # templates of the first round executed again, untimed
    min_rounds: int = 1


WORKLOADS = {
    # the randomized-oracle n = 4 job and an exhaustive-oracle n = 3 job
    "decompose": Workload(decompose_round, (3, 4), (0, 6)),
    "norms": Workload(norms_round, (5, 6), (0,)),
    # an early exit and a full search; six rounds give twelve full searches,
    # so that job_s_tail (ten jobs beyond it) lands among them
    "vc2": Workload(vc2_round, (3,), (0, 1), min_rounds=6),
    # every round repeats the same jobs, so no extra repeat is needed
    "verify": Workload(verify_round, (1, 2, 3, 4), (), min_rounds=6),
}
