"""Closed-loop benchmark of qtmat matrix functions.

One process runs one workload with one client: it submits a job, waits for
its result and only then submits the next, until ``--seconds`` have passed.
After the timed loop every result is checked against an independent oracle
(``checks.py``) and the end-to-end metrics are printed by name with their
units.  With ``--trace 1`` the same jobs are replayed with spans recorded
around every public ``qtmat`` function (``spans.py``), and the per-layer
metrics are printed instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import ctypes
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from checks import digits, max_error
from probe import SpeedProbe
from spans import LAYERS, Tracer
from workloads import WORKLOADS, make_jobs, pool_rounds, run_job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up (import, input generation, warm-up) is repeated and its median
# reported, so that one slow first import does not decide the figure.
SETUP_ROUNDS = 5

# Loop times are in reference seconds: wall seconds scaled by the speed
# probe (probe.py), so that the load of other tenants does not move them.
END_TO_END = (
    ("jobs_per_s", "1/ref_s"),
    ("job_s_p50", "ref_s"),
    ("job_s_tail", "ref_s"),
    ("digits_min", "digits"),
    ("result_entries", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def per_layer_units():
    """Per-layer metric names with their units, in output order."""
    out = []
    for layer, funcs in LAYERS.items():
        for func in funcs:
            out += [(f"{layer}.{func}.calls", "count"),
                    (f"{layer}.{func}.total_s", "s"),
                    (f"{layer}.{func}.self_s", "s")]
            if layer == "linalg":
                out.append((f"{layer}.{func}.flops_computed", "flop"))
    out += [("correction.compress_rank_ratio", "ratio"),
            ("series.terms_mean", "terms"),
            ("contour.levels_mean", "levels"),
            ("contour.resolvent_reuse", "ratio"),
            ("contour.retries", "count")]
    out += [(f"{layer}.errors", "count") for layer in LAYERS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


@dataclass
class Outcome:
    """A job as the client saw it, plus its oracle check."""

    job: object
    seconds: float
    output: Optional[str] = None
    info: Optional[dict] = None
    raised: Optional[str] = None
    error: Optional[float] = None
    scale: Optional[float] = None
    entries: Optional[int] = None

    @property
    def allowed(self):
        """Largest error within the stated accuracy (tol * max(1, scale))."""
        return self.job.tol * max(1.0, self.scale)

    @property
    def ok(self):
        return self.error is not None and self.error <= self.allowed


# -- set-up ----------------------------------------------------------------


def import_qtmat():
    """Import ``qtmat`` afresh from the checkout's ``src`` directory."""
    for name in [n for n in sys.modules if n == "qtmat"
                 or n.startswith("qtmat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    qt = importlib.import_module("qtmat")
    if Path(qt.__file__).resolve().parent != SRC / "qtmat":
        raise ImportError(f"qtmat imported from {qt.__file__}, not {SRC}")
    return qt


def warm_up_jobs(qt, workload):
    """One small job per engine and matrix kind, alike in every run."""
    first = {}
    for job in make_jobs(qt, workload, 0, 1, "tiny"):
        first.setdefault((job.engine, job.poly is None), job)
    return list(first.values())


def set_up(workload, seed, seconds, size):
    """Import, generate the job pool and warm up; repeated SETUP_ROUNDS times.

    Returns the last round's package and pool with every round's time.
    """
    times = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        qt = import_qtmat()
        pool = make_jobs(qt, workload, seed, pool_rounds(workload, seconds),
                         size)
        for job in warm_up_jobs(qt, workload):
            run_job(qt, job)
        times.append(time.perf_counter() - start)
    return qt, pool, times


# -- the timed loop ----------------------------------------------------------


def closed_loop(qt, jobs, seconds, probe, max_jobs=None, tracer=None):
    """Submit jobs one at a time for ``seconds`` reference seconds.

    Before each job the client runs the speed probe.  The loop stops at the
    first round boundary after ``seconds`` reference seconds, so every run
    completes whole rounds, sees the workload's exact mix of kinds, and does
    about the same amount of work however loaded the machine is; on a very
    slow machine it stops after twice ``seconds`` wall seconds.  Returns
    the outcomes and the loop's wall time without the probes, up to the
    return of the last submitted job.  A job that raises is recorded with
    its message and the time it took; it never stops the loop.
    """
    outcomes = []
    probing = 0.0
    start = time.perf_counter()
    for job in jobs[:max_jobs]:
        elapsed = time.perf_counter() - start - probing
        if (outcomes and job.round_id != outcomes[-1].job.round_id
                and (probe.factor * elapsed >= seconds
                     or elapsed >= 2 * seconds)):
            break
        probing += probe.before_job(outcomes[-1].seconds if outcomes
                                    else 0.0)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output, info = run_job(qt, job)
            else:
                output, info = tracer.job_span(
                    job.job_id,
                    lambda: run_job(qt, job, tracer.count_nodes))
        except Exception as exc:  # a failed job is counted, not fatal
            outcomes.append(Outcome(job, time.perf_counter() - t0,
                                    raised=f"{type(exc).__name__}: {exc}"))
            continue
        outcomes.append(Outcome(job, time.perf_counter() - t0, output, info))
    return outcomes, time.perf_counter() - start - probing


def check_outcomes(qt, outcomes):
    """Fill in each returned job's oracle error and stored-entry count."""
    with warnings.catch_warnings():
        # scipy.linalg.logm warns about its own accuracy estimate, which
        # stays near 1e-13 on these inputs.
        warnings.simplefilter("ignore", RuntimeWarning)
        for o in outcomes:
            if o.output is not None:
                o.error, o.scale, parsed = max_error(
                    o.job, o.output, qt.sine_transform_oracle)
                o.entries = parsed.entries


# -- metrics -----------------------------------------------------------------


def latency_summary(outcomes, wall):
    """Median and tail latency; a failed job ranks above every completed one.

    The tail is the highest percentile with at least 10 jobs beyond it.  A
    percentile that lands on a failed job reads as the loop's wall time.
    """
    lat = sorted(o.seconds if o.ok else math.inf for o in outcomes)
    n = len(lat)
    p50 = statistics.median(lat)
    if n > 10:
        tail, pct, beyond = lat[n - 11], 100.0 * (n - 10) / n, 10
    else:
        tail, pct, beyond = lat[-1], 100.0, 0
    return (min(p50, wall), min(tail, wall)), pct, beyond


def end_to_end(outcomes, wall, factor, setup_times, rss_mb):
    """End-to-end metrics; ``factor`` turns wall into reference seconds."""
    ok = sum(o.ok for o in outcomes)
    (p50, tail), pct, beyond = latency_summary(outcomes, wall)
    checked = [o for o in outcomes if o.error is not None]
    metrics = {
        "jobs_per_s": ok / (wall * factor),
        "job_s_p50": p50 * factor,
        "job_s_tail": tail * factor,
        "digits_min": min((digits(o.error) for o in checked), default=0.0),
        "result_entries": (statistics.fmean(o.entries for o in checked)
                           if checked else 0.0),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    notes = {"jobs_per_s": f"{ok / wall:.6g} per wall second",
             "job_s_p50": f"{p50:.6g} wall s",
             "job_s_tail": f"{tail:.6g} wall s; p{pct:.1f} of "
                           f"{len(outcomes)} jobs, {beyond} beyond",
             "setup_s": "median of " + ", ".join(f"{t:.3f}"
                                                 for t in setup_times)}
    return metrics, notes


def per_layer(tracer, outcomes, overhead):
    stats = tracer.function_stats()
    metrics = {}
    errors = dict.fromkeys(LAYERS, 0)
    for layer, funcs in LAYERS.items():
        for func in funcs:
            calls, total, own, raised = stats[f"{layer}.{func}"]
            metrics[f"{layer}.{func}.calls"] = calls
            metrics[f"{layer}.{func}.total_s"] = total
            metrics[f"{layer}.{func}.self_s"] = own
            if layer == "linalg":
                metrics[f"{layer}.{func}.flops_computed"] = tracer.flops[func]
            errors[layer] += raised
    terms = [o.info["terms"] for o in outcomes
             if o.info and "terms" in o.info]
    levels = [o.info["levels"] for o in outcomes
              if o.info and "levels" in o.info]
    resolvents = metrics["contour.resolvent.calls"]
    metrics.update({
        "correction.compress_rank_ratio":
            tracer.rank_out / tracer.rank_in if tracer.rank_in else 0.0,
        "series.terms_mean": statistics.fmean(terms) if terms else 0.0,
        "contour.levels_mean": statistics.fmean(levels) if levels else 0.0,
        "contour.resolvent_reuse":
            1.0 - resolvents / tracer.node_visits if tracer.node_visits
            else 0.0,
        "contour.retries": tracer.retries.count,
    })
    metrics.update({f"{layer}.errors": n for layer, n in errors.items()})
    metrics["trace.overhead_ratio"] = overhead
    return metrics


# -- reporting ---------------------------------------------------------------


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            if hasattr(handle, name):
                func = getattr(handle, name)
                func.restype = ctypes.c_int
                return func()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "python": sys.version.split()[0],
    }


def print_metrics(metrics, units, notes=None):
    notes = notes or {}
    for name, unit in units:
        value = metrics[name]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{note}")


def print_checks(outcomes):
    raised = [o for o in outcomes if o.raised]
    missed = [o for o in outcomes if o.error is not None and not o.ok]
    checked = [o for o in outcomes if o.error is not None]
    print(f"oracle: {len(checked) - len(missed)}/{len(outcomes)} jobs within "
          f"their stated accuracy; {len(missed)} inaccurate, "
          f"{len(raised)} raised")
    if checked:
        worst = max(checked, key=lambda o: o.error / o.allowed)
        print(f"  worst error {worst.error:.3e} (allowed {worst.allowed:.3e})"
              f" in job {worst.job.job_id} {worst.job.kind}")
    for o in (raised + missed)[:10]:
        what = o.raised or f"error {o.error:.3e} > {o.allowed:.3e}"
        print(f"  FAILED job {o.job.job_id} {o.job.kind}: {what}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="stop after this many jobs (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "qtmat" / "__init__.py").is_file():
        print(f"error: no qtmat sources under {SRC}", file=sys.stderr)
        return 2

    qt, pool, setup_times = set_up(args.workload, args.seed, args.seconds,
                                   args.size)
    probe = SpeedProbe()
    outcomes, wall = closed_loop(qt, pool, args.seconds, probe,
                                 args.max_jobs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        traced_probe = SpeedProbe()
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = closed_loop(
                qt, [o.job for o in outcomes], math.inf, traced_probe,
                tracer=tracer)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(span_file)

    check_outcomes(qt, outcomes)
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    correct = all(o.ok for o in outcomes if o.error is not None)

    repeats = sum(o.job.repeat_of is not None for o in outcomes)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}"
                                      for k, v in environment().items()))
    exhausted = " exhausted" if attempted == len(pool) else ""
    print(f"loop: closed, 1 client; {attempted} jobs in {wall:.3f} s; pool "
          f"of {len(pool)} jobs{exhausted}; {repeats}/{attempted} jobs "
          f"repeat an earlier input")
    print(f"speed probe: {len(probe.times)} samples, mean "
          f"{statistics.fmean(probe.times) * 1e3:.4f} ms; "
          f"{probe.factor:.4f} reference s per wall s")
    print_checks(outcomes)
    print(f"  failed_frac {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} attempted)")

    e2e, notes = end_to_end(outcomes, wall, probe.factor, setup_times,
                            rss_mb)
    if not args.trace:
        print("end-to-end metrics:")
        print_metrics(e2e, END_TO_END, notes)
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        identical = all(a.output == b.output
                        for a, b in zip(outcomes, traced))
        correct = correct and identical
        traced_rate = sum(o.output is not None for o in traced) \
            / (traced_wall * traced_probe.factor)
        untraced_rate = sum(o.output is not None for o in outcomes) \
            / (wall * probe.factor)
        layer = per_layer(tracer, traced, traced_rate / untraced_rate)
        units = per_layer_units()
        print(f"traced replay: {len(traced)} jobs in {traced_wall:.3f} s; "
              f"{len(tracer.starts)} spans written to {span_file}; outputs "
              f"{'identical to' if identical else 'DIFFER from'} the "
              f"untraced run")
        print("per-layer metrics:")
        print_metrics(layer, units)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in units}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
