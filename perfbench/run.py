"""quadreg benchmark: one closed-loop client running quadreg CLI jobs
in-process, one job at a time.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 28 --trace 0

Workloads: decompose, norms, vc2, verify (see README.md).  The jobs of a
workload come in rounds of fixed templates; the inputs are generated from
--seed.  The run measures whole rounds for about --seconds seconds, then
executes a few jobs of the first round again outside the measurement.  Each
job's outputs are checked by code that does not call quadreg, and hashed;
two executions of the same job must give the same hash.  Job and set-up
times are scaled to a reference machine speed by a calibration kernel timed
between jobs (see calibration()); the raw times are in the summary line.

--trace 0 prints the end-to-end metrics, --trace 1 wraps quadreg's public
functions, prints the per-layer metrics, and also checks the wrapped call
counts against cProfile on the first job.  The last line of stdout is the
result object; the lines before it record the environment, the percentile
sample counts and the output hashes.  Exit code 2 means quadreg could not be
loaded from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import fp
import tracing
from workloads import WORKLOADS, CellCapture, Result, output_hash

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# Seconds the calibration kernel takes on the machine the benchmark was
# written on (2-core Xeon VM) in its faster state; see calibration().
REFERENCE_CALIBRATION_S = 0.003


def load_quadreg():
    """Import quadreg.cli from the checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "quadreg" / "cli.py").is_file():
        raise ImportError(f"no quadreg sources under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("quadreg.cli")
    if Path(cli.__file__).resolve().parent != (src / "quadreg").resolve():
        raise ImportError(f"quadreg was imported from {cli.__file__}")
    return cli


def environment(seed) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from threadpoolctl import threadpool_info
        blas = {i["internal_api"]: i["num_threads"] for i in threadpool_info()}
    except ImportError:
        blas = {k: os.environ.get(k, "default")
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": blas,
            "quadreg_threads": os.environ.get("QUADREG_THREADS", "1"),
            "seed": seed}


class Context:
    """What a workload's round builder needs: where to write inputs, the
    benchmark's own group arithmetic, and the cell capture for checks."""

    def __init__(self, workdir, capture):
        self.inputs = str(workdir / "inputs")
        self.capture = capture
        self._spaces = {}
        os.makedirs(self.inputs, exist_ok=True)

    def space(self, n):
        if n not in self._spaces:
            self._spaces[n] = fp.Space(3, n)
        return self._spaces[n]


def execute(cli, job, out):
    os.makedirs(out)
    argv = [a.replace("{out}", out) for a in job.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    error, rc = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as e:
        rc, error = e.code, f"SystemExit({e.code})"
    except Exception:
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - t0
    if error is None and rc != 0:
        error = f"exit code {rc}: {stderr.getvalue().strip()}"
    return Result(rc=rc, seconds=seconds, stdout=stdout.getvalue(),
                  error=error, out=out)


def calibration() -> float:
    """Best of two timings of a fixed mix of interpreter and small-array
    numpy work, the two costs quadreg's jobs are made of.

    The shared VM the benchmark was written on changes speed by up to 1.6x
    within seconds (other tenants); every job time is scaled by
    REFERENCE_CALIBRATION_S over the calibration taken just before and just
    after it, so that runs at different moments are comparable.  The raw
    wall times are printed in the summary."""
    best = float("inf")
    a = np.arange(27)
    for _ in range(2):
        t0 = time.perf_counter()
        s = 0
        for i in range(15000):
            s += i * i % 7
        for _ in range(350):
            np.unique(a % 5)
        best = min(best, time.perf_counter() - t0)
    return best


def tail_percentile(times):
    """The highest percentile that still has at least ten jobs beyond it:
    (value, percentile, jobs at or below it, jobs in all)."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), rank, len(ordered)


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and quadreg.cli."""
    code = ("import time; t = time.perf_counter(); import numpy, quadreg.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


class Ledger:
    """Checks and hashes every execution; collects failures."""

    def __init__(self):
        self.hashes = {}
        self.failures = []
        self.executions = 0

    def record(self, job, res, label=None):
        self.executions += 1
        error = res.error
        if error is None:
            try:
                error = job.check(res)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=4)
        digest = output_hash(job, res)
        if error is None and self.hashes.setdefault(job.key, digest) != digest:
            error = "output differs from an earlier execution of the same job"
        if error is not None:
            self.failures.append({"job": label or job.key, "rc": res.rc,
                                  "error": error[-400:]})
        shutil.rmtree(res.out, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    try:
        cli = load_quadreg()
    except ImportError as e:
        print(f"perfbench: cannot load quadreg: {e}", file=sys.stderr)
        return 2
    from quadreg import chains, regularity

    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    # the tracer goes in first: the capture then wraps cli's traced binding
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    capture = CellCapture(cli, regularity, chains)
    try:
        return run(args, cli, Context(workdir, capture), workdir, tracer)
    finally:
        capture.uninstall()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()      # only when no span file is left in it


def run(args, cli, ctx, workdir, tracer) -> int:
    from quadreg import gf
    workload = WORKLOADS[args.workload]
    paused = tracer.pause if tracer else contextlib.nullcontext
    rounds_built = {}

    def round_jobs(s):
        if s not in rounds_built:
            rng = np.random.default_rng([args.seed, s])
            rounds_built[s] = workload.build_round(ctx, s, rng)
        return rounds_built[s]

    # set-up: a fresh interpreter's imports, input generation for the first
    # round, and filling the group() cache; the median of several
    setup_times, setup_raw = [], []
    cal = calibration()
    for _ in range(SETUP_REPEATS):
        rounds_built.clear()
        gf.group.cache_clear()
        t0 = time.perf_counter()
        round_jobs(0)
        for n in workload.sizes:
            gf.group(3, n)
        raw = time.perf_counter() - t0 + import_seconds()
        cal_after = calibration()
        setup_raw.append(raw)
        setup_times.append(raw * 2 * REFERENCE_CALIBRATION_S / (cal + cal_after))
        cal = cal_after

    ledger = Ledger()
    times, raw_times, cals, by_template = [], [], [], {}
    round_rates = []   # jobs per scaled second, one entry per round
    aside_s = 0.0      # input generation, calibration, checks and hashing
    r = 0
    loop_start = time.perf_counter()
    cal = calibration()
    aside_s += time.perf_counter() - loop_start
    while True:
        t_aside = time.perf_counter()
        jobs = round_jobs(r)
        aside_s += time.perf_counter() - t_aside
        for job in jobs:
            if tracer:
                tracer.job = len(times)
            res = execute(cli, job, str(workdir / f"job{len(times)}"))
            t_aside = time.perf_counter()
            cal_after = calibration()
            scaled = res.seconds * 2 * REFERENCE_CALIBRATION_S / (cal + cal_after)
            cal = cal_after
            cals.append(cal)
            raw_times.append(res.seconds)
            times.append(scaled)
            by_template.setdefault(job.template, []).append(scaled)
            with paused():
                ledger.record(job, res)
            aside_s += time.perf_counter() - t_aside
        r += 1
        round_rates.append(len(jobs) / sum(times[-len(jobs):]))
        busy_s = time.perf_counter() - loop_start - aside_s
        # stop at the round boundary nearest to --seconds
        if r >= workload.min_rounds and busy_s + busy_s / r / 2 >= args.seconds:
            break

    # determinism: the same jobs again, outside the measurement
    with paused():
        for i in workload.repeat:
            job = round_jobs(0)[i]
            ledger.record(job, execute(cli, job, str(workdir / f"repeat{i}")),
                          label=job.key + " (repeat)")

    profile = None
    if tracer:
        layer_metrics = tracer.metrics()
        job = round_jobs(0)[0]
        tracer.job = len(times)
        holder = {}
        seen, bad = tracing.profile_calls(tracer, lambda: holder.setdefault(
            "res", execute(cli, job, str(workdir / "profiled"))))
        with paused():
            ledger.record(job, holder["res"], label=job.key + " (profiled)")
        profile = {"job": job.key, "functions_called": seen, "mismatches": bad}
        tracer.write(WORK / f"spans-{args.workload}-s{args.seed}.csv.gz")

    attempted = ledger.executions
    failed = len(ledger.failures)
    tail, pct, rank, count = tail_percentile(times)
    summary = {
        "workload": args.workload, "rounds": r, "timed_jobs": len(times),
        "executions": attempted, "measured_s": busy_s, "aside_s": aside_s,
        "round_jobs_per_s": round_rates,
        "raw": {"jobs_per_s": len(raw_times) / sum(raw_times),
                "job_s_p50": statistics.median(raw_times),
                "job_s_tail": tail_percentile(raw_times)[0],
                "setup_s": statistics.median(setup_raw),
                "calibration_s": statistics.median(cals)},
        "job_s_p50": {"jobs": len(times)},
        "job_s_tail": {"percentile": pct, "jobs_at_or_below": rank,
                       "jobs_beyond": count - rank},
        "fail_frac": failed / attempted, "failures": ledger.failures,
        "setup_runs_s": setup_times,
        "template_median_s": {t: statistics.median(v)
                              for t, v in by_template.items()},
    }
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({"hashes": ledger.hashes}))
    if profile is not None:
        print(json.dumps({"cprofile_check": profile}))

    jobs_per_s = statistics.median(round_rates)
    if tracer:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        metrics["traced.jobs_per_s"] = {"value": jobs_per_s, "unit": "1/s"}
        metrics["traced.cprofile_mismatches"] = {"value": len(bad), "unit": "count"}
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
            "job_s_p50": {"value": statistics.median(times), "unit": "s"},
            "job_s_tail": {"value": tail, "unit": "s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    correct = failed == 0 and (profile is None or not bad)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
