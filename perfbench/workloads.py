"""Seeded job generators for the benchmark workloads.

A job is one ``qtmat funm`` call without the disk: the serialized input
matrix, the engine that computes the function, and the accuracy the job
must reach against an independent oracle.  Jobs are generated in rounds
with a fixed mix of kinds and stratified sizes, so every run sees the same
proportions of cheap and expensive jobs whatever its seed and length.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

WORKLOADS = ("semi-series", "finite-series", "contour-resolvent")

# funm_contour settings of the contour workload.  The default tol_stop of
# 1e-12 does not converge for I + H^10 at m >= 100 (see README.md), so the
# workload states the paper's 1e-8.
CONTOUR_TOL = 1e-8
CONTOUR_CENTER = 1.5
CONTOUR_RADIUS = 1.0

# Rounds generated per second of --seconds: two to ten times the rounds a
# run completes, so the pool outlasts the loop while no input repeats.  The
# pool size depends on the run length only, never on the measured speed.
_ROUNDS_PER_SECOND = {"semi-series": 5.0, "finite-series": 2.5,
                      "contour-resolvent": 0.25}

# Sizes per workload: "full" for measurement, "tiny" for warm-up and tests.
_SIZES = {
    "full": {"hessenberg_k": range(1, 9), "finite_m": (512, 4096),
             "contour_m": ((110, 140), (180, 200))},
    "tiny": {"hessenberg_k": range(1, 3), "finite_m": (48, 96),
             "contour_m": ((24, 32), (34, 40))},
}


@dataclass(frozen=True)
class Job:
    """One matrix-function request.

    engine      "taylor", "laurent" or "contour"
    func        "exp", "laurent", "sqrt" or "log"
    text        input matrix in the qtmat text format
    tol         stated accuracy: largest allowed max-abs error vs the oracle,
                relative to max(1, largest reference entry)
    poly        for finite inputs, coefficients of p (lowest degree first)
                so the input is shift * I + p(H)
    shift       see ``poly``
    laurent     (exponent, coefficient) pairs of the Laurent polynomial
    repeat_of   id of an earlier job with the same input, if any
    round_id    index of the round the job belongs to
    """

    job_id: int
    round_id: int
    kind: str
    engine: str
    func: str
    text: str
    tol: float
    poly: Optional[tuple] = None
    shift: float = 0.0
    laurent: tuple = ()
    repeat_of: Optional[int] = None


def pool_rounds(workload, seconds):
    return max(1, math.ceil(seconds * _ROUNDS_PER_SECOND[workload]))


def make_jobs(qt, workload, seed, rounds, size="full"):
    """The first ``rounds`` rounds of the workload's job stream for ``seed``.

    ``qt`` is the imported ``qtmat`` package; inputs are built from its
    matrix types and serialized with its writer.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(
        [seed, WORKLOADS.index(workload), list(_SIZES).index(size)])
    sizes = _SIZES[size]
    gen = _Generator(qt, rng, sizes)
    round_fn = {"semi-series": gen.semi_round,
                "finite-series": gen.finite_round,
                "contour-resolvent": gen.contour_round}[workload]
    for gen.round_id in range(rounds):
        round_fn()
    return gen.jobs


def run_job(qt, job, wrap_scalar=None):
    """Parse the input, call the engine, serialize the result.

    Returns the output text and the engine's info dict.  ``wrap_scalar``
    may wrap the scalar function handed to the contour engine.
    """
    matrix = qt.parse(job.text)
    if job.engine == "taylor":
        result, info = qt.funm_taylor(matrix, qt.SeriesSpec.exp(),
                                      with_info=True)
    elif job.engine == "laurent":
        spec = qt.SeriesSpec.laurent_polynomial(dict(job.laurent))
        result, info = qt.funm_laurent(matrix, spec, with_info=True)
    else:
        cfg = qt.DEFAULT_CONFIG.updated(tol_stop=CONTOUR_TOL)
        contour = qt.ContourSpec.circle(CONTOUR_CENTER, CONTOUR_RADIUS)
        f = {"sqrt": np.sqrt, "log": np.log}[job.func]
        if wrap_scalar is not None:
            f = wrap_scalar(f)
        result, info = qt.funm_contour(matrix, f, contour, cfg,
                                       with_info=True)
    return qt.serialize(result), info


class _Generator:
    def __init__(self, qt, rng, sizes):
        self.qt = qt
        self.rng = rng
        self.sizes = sizes
        self.jobs = []
        self.used_sizes = set()
        self.round_id = 0

    def _add(self, kind, engine, func, text, tol, **extra):
        job = Job(len(self.jobs), self.round_id, kind, engine, func, text,
                  tol, **extra)
        self.jobs.append(job)
        return job

    # -- semi-series ---------------------------------------------------

    def semi_round(self):
        # Seventeen jobs: seven (three Laurent, three T(a) + E, k = 1) are
        # cheaper than the three k = 2 bands and seven are dearer, so the
        # median job is a k = 2 band in the middle of its kind; the widest
        # band comes twice, so that the tail job (the eleventh slowest) is
        # one of them in any run of six rounds or more.
        bands = list(self.sizes["hessenberg_k"])
        bands += bands[1:2] * 2 + bands[-1:]
        makers = [lambda k=k: self._hessenberg_exp(k) for k in bands]
        makers += [lambda i=i: self._toeplitz_exp(i, 3) for i in range(3)]
        makers += [self._laurent] * 3
        for i in self.rng.permutation(len(makers)):
            makers[i]()

    def _hessenberg_exp(self, k):
        # The paper's Hessenberg band (one subdiagonal, k superdiagonals of
        # ones), perturbed by up to 5 % so that no input repeats.
        coeffs = 1.0 + 0.05 * self.rng.uniform(-1.0, 1.0, k + 2)
        a = self.qt.CqtMatrix(self.qt.LaurentSymbol(coeffs, -1))
        self._add(f"hessenberg-exp k={k}", "taylor", "exp",
                  self.qt.serialize(a), 1e-10)

    def _toeplitz_exp(self, stratum, strata):
        rng = self.rng
        n_neg = int(rng.integers(1, 3))
        n_pos = int(rng.integers(1, 4))
        wiener = 0.5 + (stratum + rng.uniform()) / strata
        sym = self._real_symbol(n_neg, n_pos, wiener)
        corr = self._real_correction(int(rng.integers(2, 11)),
                                     int(rng.integers(2, 11)),
                                     int(rng.integers(1, 4)), 0.5)
        self._add("toeplitz-exp", "taylor", "exp",
                  self.qt.serialize(self.qt.CqtMatrix(sym, corr)), 1e-10)

    def _laurent(self):
        # Diagonally dominant, so T(a) + E is invertible with winding 0.
        rng = self.rng
        sym = self._real_symbol(int(rng.integers(1, 3)),
                                int(rng.integers(1, 3)),
                                0.6 * rng.uniform(0.5, 1.0),
                                center=2.0 + 0.5 * rng.uniform())
        corr = self._real_correction(int(rng.integers(2, 7)),
                                     int(rng.integers(2, 7)),
                                     int(rng.integers(1, 3)), 0.2)
        coeffs = tuple((k, float(c)) for k, c in
                       zip((-1, 0, 1, 2), rng.uniform(-1.0, 1.0, 4)))
        self._add("laurent-poly", "laurent", "laurent",
                  self.qt.serialize(self.qt.CqtMatrix(sym, corr)), 1e-10,
                  laurent=coeffs)

    def _real_symbol(self, n_neg, n_pos, wiener, center=None):
        """Real symbol on [-n_neg, n_pos] with the given off-centre mass.

        Without ``center`` the whole symbol has Wiener norm ``wiener``.
        """
        c = self.rng.standard_normal(n_neg + n_pos + 1)
        if center is not None:
            c[n_neg] = 0.0
        c *= wiener / np.abs(c).sum()
        if center is not None:
            c[n_neg] = center
        return self.qt.LaurentSymbol(c, -n_neg)

    def _real_correction(self, p, q, r, mass):
        """Real rank-r correction whose p x q block has entry sum ``mass``."""
        u = self.rng.standard_normal((p, r))
        v = self.rng.standard_normal((q, r))
        u *= mass / np.abs(u @ v.T).sum()
        return self.qt.Correction(u, v)

    # -- finite-series -------------------------------------------------

    def finite_round(self):
        # Two thirds are the paper's H^10, so the median job is one of them
        # and not the boundary between H^10 and the cheaper polynomials.
        per_round = 6
        lo, hi = self.sizes["finite_m"]
        sizes = [self._stratified_size(lo, hi, i, per_round)
                 for i in range(per_round)]
        paper = self.rng.permutation(per_round) < 2 * per_round // 3
        for i in self.rng.permutation(per_round):
            poly = _H10 if paper[i] else self._random_poly()
            self._add("finite-exp", "taylor", "exp",
                      self._finite_input(sizes[i], poly, 0.0), 1e-10,
                      poly=poly)

    def _stratified_size(self, lo, hi, stratum, strata):
        """A size in the stratum's share of [lo, hi), never used before.

        H^10 inputs of equal size would repeat, so sizes never recur.
        """
        width = (hi - lo) / strata
        for _ in range(1000):
            m = int(lo + width * (stratum + self.rng.uniform()))
            if m not in self.used_sizes:
                self.used_sizes.add(m)
                return m
        raise ValueError("size range exhausted; generate fewer rounds")

    def _random_poly(self):
        """Nonnegative polynomial without constant term and p(1) = 1."""
        degree = int(self.rng.integers(4, 11))
        c = self.rng.uniform(0.0, 1.0, degree + 1)
        c[0] = 0.0
        c[degree] += 0.1
        return tuple(float(x) for x in c / c.sum())

    def _finite_input(self, m, poly, shift):
        """Serialized shift * I + p(H) for the rescaled m x m Laplacian H.

        The band is the symbol p(h) with h = (1, 2, 1) / scale.  Both corner
        corrections come from a small dense section, where p(H) differs
        from the Toeplitz matrix of p(h) only in the leading deg x deg block;
        H is symmetric and persymmetric, so the flipped bottom-right corner
        equals the top-left one.
        """
        qt = self.qt
        deg = len(poly) - 1
        scale = 2.0 + 2.0 * math.cos(math.pi / (m + 1))
        h = np.array([1.0, 2.0, 1.0]) / scale
        band = np.zeros(2 * deg + 1)
        power = np.ones(1)
        for j, c in enumerate(poly):
            band[deg - j:deg + j + 1] += c * power
            power = np.convolve(power, h)
        n = 2 * deg + 2
        dense_h = (np.diag(np.full(n, h[1]))
                   + np.diag(np.full(n - 1, h[0]), 1)
                   + np.diag(np.full(n - 1, h[2]), -1))
        dense_p = np.zeros((n, n))
        for c in reversed(poly):
            dense_p = dense_p @ dense_h + c * np.eye(n)
        offsets = np.arange(n)[None, :] - np.arange(n)[:, None]
        toeplitz = np.where(np.abs(offsets) <= deg,
                            band[np.clip(offsets + deg, 0, 2 * deg)], 0.0)
        resid = (dense_p - toeplitz)[:deg, :deg]
        band[deg] += shift
        corner = qt.Correction.zero()
        if deg > 1:
            w, s, vh = np.linalg.svd(resid)
            k = int(np.count_nonzero(s > 1e-15 * s[0])) if s[0] > 0 else 0
            if k:
                corner = qt.Correction(w[:, :k] * s[:k], vh[:k].T)
        a = qt.FiniteQtMatrix(m, qt.LaurentSymbol(band, -deg), corner, corner)
        return qt.serialize(a)

    # -- contour-resolvent ---------------------------------------------

    def contour_round(self):
        # Three finite I + H^10, two small and one large, and one
        # semi-infinite matrix, each for sqrt and log.  Finite jobs take five
        # to twenty times as long as semi-infinite ones and their time grows
        # with m; the narrow size bands keep each kind's time steady from
        # seed to seed.  Half the jobs are small finite ones, with a quarter
        # cheaper and a quarter dearer, so in any run of two rounds or more
        # both the median and the tail job (the eleventh slowest) are small
        # finite jobs.
        small, large = self.sizes["contour_m"]
        inputs = [("finite", self._finite_input(
                       self._stratified_size(lo, hi, 0, 1), _H10, 1.0), _H10)
                  for lo, hi in (small, small, large)]
        inputs.append(("semi", self._contour_semi_input(), None))
        for i in self.rng.permutation(len(inputs)):
            where, text, poly = inputs[i]
            first = self._add(f"{where}-sqrt", "contour", "sqrt", text,
                              CONTOUR_TOL, poly=poly, shift=1.0)
            self._add(f"{where}-log", "contour", "log", text, CONTOUR_TOL,
                      poly=poly, shift=1.0, repeat_of=first.job_id)

    def _contour_semi_input(self):
        """I + T(a) + E with symbol values within 0.4 of the contour centre.

        The shape (band 2 + 1 + 2, a 6 x 6 rank-2 correction) is fixed and
        only the values are drawn, so the job's time varies little.
        """
        rng = self.rng
        sym = self._real_symbol(2, 2, 0.3 * rng.uniform(0.5, 1.0),
                                center=CONTOUR_CENTER
                                + 0.1 * rng.uniform(-1.0, 1.0))
        corr = self._real_correction(6, 6, 2, 0.1)
        return self.qt.serialize(self.qt.CqtMatrix(sym, corr))


# p(x) = x^10, the paper's H^10.
_H10 = (0.0,) * 10 + (1.0,)
