"""Span tracing around quadreg's public functions, installed from outside.

Every binding of a traced function is replaced by a wrapper: the defining
module's attribute, each ``from .x import name`` copy in other quadreg
modules, class attributes for methods, and the entries of
``verify.CHECKS``.  A span records (id, name, start, end, parent id, job id).
Spans stay in memory until ``write`` is called at the end of the run.  A
function that re-enters itself records one span per outermost entry.
"""

from __future__ import annotations

import cProfile
import contextlib
import gzip
import pstats
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path inside it)
FUNCTIONS = {
    "regularity.inverse_oracle": ("regularity", "inverse_oracle"),
    "regularity.cylinder_decompose": ("regularity", "cylinder_decompose"),
    "regularity.global_decompose": ("regularity", "global_decompose"),
    "regularity.index": ("regularity", "index"),
    "gowers.u3_eighth_fast": ("gowers", "u3_eighth_fast"),
    "gowers.dft": ("gowers", "dft"),
    "gowers.u3_eighth_naive": ("gowers", "u3_eighth_naive"),
    "localnorms.omega_count": ("localnorms", "omega_count"),
    "localnorms.k222_sum": ("localnorms", "k222_sum"),
    "localnorms.fibre_size": ("localnorms", "fibre_size"),
    "localnorms.norm_P_eighth": ("localnorms", "norm_P_eighth"),
    "localnorms.norm_TW_eighth": ("localnorms", "norm_TW_eighth"),
    "factors.label_codes": ("factors", "QuadraticFactor.label_codes"),
    "factors.bq_tables": ("factors", "QuadraticFactor.bq_tables"),
    "factors.factor_rank": ("factors", "factor_rank"),
    "factors.rank_refine": ("factors", "rank_refine"),
    "factors.rho_matrix_delete": ("factors", "rho_matrix_delete"),
    "gf.mat_rank": ("gf", "mat_rank"),
    "gf.group_build": ("gf", "Group.__init__"),
    "vc2.vc2_dim_at_least": ("vc2", "vc2_dim_at_least"),
    "vc2.vc_dim": ("vc2", "vc_dim"),
    "chains.f_sigma": ("chains", "f_sigma"),
    "chains.tau": ("chains", "tau"),
    "chains.validate_chain": ("chains", "validate_chain"),
    "io.load_json": ("io", "load_json"),
    "io.save_json": ("io", "save_json"),
}

# the verification checks, in verify.CHECKS order
CHECK_NAMES = ["rank_oracle", "atoms_partition", "constraints_equivalence",
               "omega_identity", "sigma_label_sum", "psi_fibres",
               "rewrite_identity", "chain_bounds", "vc2_baselines",
               "badcount1_bound", "omegagood_bound", "pythagoras"]

SPAN_NAMES = [name for name in FUNCTIONS if name != "gf.group_build"] + [
    f"verify.{c}" for c in CHECK_NAMES]


def _witness_found(result) -> bool:
    return result is not None


def _shattered(result) -> bool:
    return bool(result[0] if isinstance(result, tuple) else result)


# span name -> predicate on the return value, for "useful outcome" ratios
OUTCOMES = {"regularity.inverse_oracle": _witness_found,
            "vc2.vc2_dim_at_least": _shattered}


class Tracer:
    def __init__(self):
        self.spans = []           # (id, name, start, end, parent, job)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.outcomes = defaultdict(int)
        self.reports = defaultdict(int)   # regularity.steps / .cells
        self.job = None
        self.paused = False
        self._stack = []          # [span id, name, start, child time]
        self._active = defaultdict(int)
        self._next_id = 0
        self._undo = []
        self.originals = {}       # span name -> function object

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        outcome = OUTCOMES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused or tracer._active[name]:
                return fn(*args, **kwargs)
            tracer._active[name] += 1
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                dur = end - frame[2]
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[3] += dur
                tracer.spans.append((sid, name, frame[2], end,
                                     parent[0] if parent else -1, tracer.job))
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[3]
            if outcome is not None and outcome(result):
                tracer.outcomes[name] += 1
            if name in ("regularity.cylinder_decompose",
                        "regularity.global_decompose"):
                report = result[1]
                tracer.reports["steps"] += report["steps"]
                tracer.reports["cells"] += report.get("cells", 0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every binding of every traced function in quadreg."""
        from quadreg import chains, factors, gf, gowers, localnorms, regularity, verify, vc2
        from quadreg import io as qio
        import quadreg.cli  # noqa: F401  (its bindings are patched below)
        modules = {"regularity": regularity, "gowers": gowers,
                   "localnorms": localnorms, "factors": factors, "gf": gf,
                   "vc2": vc2, "chains": chains, "io": qio, "verify": verify}
        loaded = [m for key, m in sys.modules.items()
                  if m is not None and (key == "quadreg" or key.startswith("quadreg."))]
        for name, (modname, path) in FUNCTIONS.items():
            owner = modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            else:
                attr = path
            fn = owner.__dict__[attr]
            self.originals[name] = fn
            wrapper = self._wrap(name, fn)
            self._set(owner, attr, wrapper)
            if owner is modules[modname]:
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, key, wrapper)
        checks = verify.CHECKS
        if [c for c, _ in checks] != CHECK_NAMES:
            raise RuntimeError("verify.CHECKS changed; update tracing.CHECK_NAMES")
        for i, (check, fn) in enumerate(list(checks)):
            self.originals[f"verify.{check}"] = fn
            checks[i] = (check, self._wrap(f"verify.{check}", fn))
        self._undo.append(lambda: checks.__setitem__(
            slice(None), [(c, self.originals[f"verify.{c}"]) for c in CHECK_NAMES]))

    @contextlib.contextmanager
    def pause(self):
        """Record nothing inside the block (output checks, repeats)."""
        self.job, self.paused = None, True
        try:
            yield
        finally:
            self.paused = False

    def _set(self, owner, attr, value):
        old = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.total[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for name in OUTCOMES:
            ratio = self.outcomes[name] / self.calls[name] if self.calls[name] else 0.0
            key = ("regularity.oracle_witness_ratio" if name.startswith("regularity")
                   else f"{name}.true_ratio")
            out[key] = (ratio, "ratio")
        out["regularity.steps"] = (self.reports["steps"], "count")
        out["regularity.cells"] = (self.reports["cells"], "count")
        out["gf.group_build_s"] = (self.total["gf.group_build"], "s")
        return out

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,job\n")
            for sid, name, start, end, parent, job in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},"
                         f"{'' if job is None else job}\n")


def profile_calls(tracer: Tracer, run):
    """Run ``run()`` under cProfile and compare, for every traced function,
    the spans it recorded with cProfile's primitive call count of the
    wrapped function.  Returns (functions with calls, mismatches)."""
    before = dict(tracer.calls)
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    by_code = {}
    for (filename, line, funcname), (cc, _nc, _tt, _ct, _callers) in stats.items():
        by_code[(filename, line, funcname)] = cc
    seen, mismatches = 0, []
    for name, fn in tracer.originals.items():
        code = fn.__code__
        profiled = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        traced = tracer.calls[name] - before.get(name, 0)
        if profiled or traced:
            seen += 1
        if profiled != traced:
            mismatches.append((name, traced, profiled))
    return seen, mismatches
