"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each ``qtmat`` module,
and the ``numpy.linalg`` kernels they call, by wrappers that record one
span per call: name, start, end, parent span and job id.  Every binding of
a target function in every loaded ``qtmat`` module is replaced, so calls
through ``from .x import f`` names are traced as well.  ``uninstall``
restores the originals.  Spans stay in memory until ``save``.
"""

import functools
import logging
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "symbol": ("sym_mul", "sym_truncate", "sym_reciprocal", "winding_number",
               "eval_at_unit_roots"),
    "correction": ("corr_compress", "corr_add", "hankel_product",
                   "toeplitz_times_factor", "Correction.from_dense"),
    "cqt": ("cqt_mul", "cqt_add", "cqt_inv", "finite_section"),
    "finite": ("fqt_mul", "fqt_add", "fqt_inv", "fqt_from_dense",
               "fqt_to_dense"),
    "series": ("funm_taylor", "funm_laurent"),
    "contour": ("funm_contour", "resolvent"),
    "fileio": ("parse", "serialize"),
    "linalg": ("qr", "svd", "inv"),
}

JOB_SPAN = "bench.job"


def _qr_flops(shape):
    # Householder QR, 2 k^2 (M - k/3), plus as much again to form thin Q.
    big, k = max(shape[-2:]), min(shape[-2:])
    return 4.0 * k * k * (big - k / 3.0)


def _svd_flops(shape):
    # Thin R-SVD with both singular vector sets: 6 M k^2 + 20 k^3.
    big, k = max(shape[-2:]), min(shape[-2:])
    return 6.0 * big * k * k + 20.0 * k ** 3


def _inv_flops(shape):
    # LU factorization 2n^3/3 plus inversion from the factors 4n^3/3.
    return 2.0 * shape[-1] ** 3


_FLOPS = {"qr": _qr_flops, "svd": _svd_flops, "inv": _inv_flops}


def _real_flops(a, formula):
    """Real flops of a kernel call; complex arithmetic counts four times."""
    a = np.asarray(a)
    return formula(a.shape) * (4.0 if np.iscomplexobj(a) else 1.0)


class _RetryCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "retrying" in record.getMessage():
            self.count += 1


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.jobs = array("i")
        self.raised = []
        self.stack = []
        self.job = -1
        self.rank_in = 0
        self.rank_out = 0
        self.flops = {name: 0.0 for name in _FLOPS}
        self.node_visits = 0
        self.retries = _RetryCounter()
        self._restore = []
        self._job_wrapper = self.wrap(JOB_SPAN, lambda fn: fn())

    # -- recording -----------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name, fn, on_call=None):
        """Wrapper of ``fn`` recording a span named ``name`` per call.

        ``on_call(args, result)`` runs after a call that returned.
        """
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self.stack
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, jobs = self.parents, self.jobs
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                tracer.raised.append(idx)
                raise
            ends[idx] = clock()
            stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def job_span(self, job_id, fn):
        """Call ``fn()`` inside a root span for one job."""
        self.job = job_id
        try:
            return self._job_wrapper(fn)
        finally:
            self.job = -1

    def count_nodes(self, f):
        """Scalar function that counts contour node visits (one f per node)."""
        def counted(z):
            self.node_visits += 1
            return f(z)
        return counted

    def _on_compress(self, args, result):
        self.rank_in += args[0].rank
        self.rank_out += result.rank

    def _on_kernel(self, name):
        formula = _FLOPS[name]

        def hook(args, result):
            self.flops[name] += _real_flops(args[0], formula)
        return hook

    # -- installation ----------------------------------------------------

    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "qtmat" or key.startswith("qtmat.")]
        for layer, funcs in LAYERS.items():
            if layer == "linalg":
                for name in funcs:
                    self._patch(np.linalg, name, self.wrap(
                        f"linalg.{name}", getattr(np.linalg, name),
                        self._on_kernel(name)))
                continue
            home = sys.modules[f"qtmat.{layer}"]
            for name in funcs:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, classmethod(
                        self.wrap(f"{layer}.{name}", orig.__func__)))
                    continue
                orig = getattr(home, name)
                hook = self._on_compress if name == "corr_compress" else None
                wrapper = self.wrap(f"{layer}.{name}", orig, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapper)
        logging.getLogger("qtmat.contour").addHandler(self.retries)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        logging.getLogger("qtmat.contour").removeHandler(self.retries)
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def _arrays(self):
        name_ids = np.frombuffer(self.name_ids, dtype=np.int32)
        starts = np.frombuffer(self.starts, dtype=np.int64)
        ends = np.frombuffer(self.ends, dtype=np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        jobs = np.frombuffer(self.jobs, dtype=np.int32)
        return name_ids, starts, ends, parents, jobs

    def function_stats(self):
        """{span name: (calls, total_s, self_s, raised)}.

        Self time is a span's duration minus the durations of its child
        spans; ``raised`` counts spans left by an exception.
        """
        name_ids, starts, ends, parents, _ = self._arrays()
        dur = (ends - starts).astype(np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        raised = np.zeros(dur.size, dtype=bool)
        raised[np.asarray(self.raised, dtype=np.int64)] = True
        stats = {}
        for nid, name in enumerate(self.names):
            sel = name_ids == nid
            stats[name] = (int(sel.sum()), float(dur[sel].sum()) * 1e-9,
                           float(own[sel].sum()) * 1e-9,
                           int(raised[sel].sum()))
        return stats

    def save(self, path):
        """Write every span to a compressed NumPy archive."""
        name_ids, starts, ends, parents, jobs = self._arrays()
        raised = np.zeros(starts.size, dtype=bool)
        raised[np.asarray(self.raised, dtype=np.int64)] = True
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=name_ids, start_ns=starts, end_ns=ends,
                            parent=parents, job=jobs, raised=raised)
