"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines interleaved with the pytest report.
"""

import functools
import math
import time

import numpy as np
import pytest
import scipy.linalg

from qtmat import (
    Correction,
    CqtMatrix,
    DEFAULT_CONFIG,
    FiniteQtMatrix,
    LaurentSymbol,
    SeriesSpec,
    abs_sum_norm,
    bound_correction_general,
    bound_correction_toeplitz,
    cqt_inv,
    cqt_mul,
    cqt_norm,
    finite_section,
    fqt_mul,
    fqt_to_dense,
    funm_contour,
    funm_taylor,
    parse,
    power_corrections,
    serialize,
    sine_transform_oracle,
    wiener_norms,
)
from qtmat import ContourSpec
from qtmat.oracles import _laplacian_power
from qtmat.symbol import sym_mul

from tests.support import (
    dense_fqt_oracle,
    dense_toeplitz_oracle,
    random_correction,
    random_cqt,
    random_fqt,
    random_invertible_symbol,
    random_symbol,
)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL - {title}")
                raise
            print(f"criterion {number:2d}: PASS - {title}")
        return wrapper
    return decorate


@criterion(1, "Toeplitz product identity vs dense truncations")
def test_criterion_01_product_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        a = CqtMatrix(random_symbol(rng, min_deg_lo=-5, max_len=10))
        b = CqtMatrix(random_symbol(rng, min_deg_lo=-5, max_len=10))
        got = finite_section(cqt_mul(a, b), 60)
        want = (dense_toeplitz_oracle(a.symbol, 100)
                @ dense_toeplitz_oracle(b.symbol, 100))[:60, :60]
        assert np.abs(got - want).max() <= 1e-12 * max(1.0,
                                                       np.abs(want).max())
    assert time.perf_counter() - start < 30.0


@criterion(2, "minimal instance T(1/z) T(z) = I - e1 e1^T exactly")
def test_criterion_02_minimal_instance():
    a = CqtMatrix(LaurentSymbol([1.0], -1))
    b = CqtMatrix(LaurentSymbol([1.0], 1))
    p = cqt_mul(a, b)
    assert p.symbol.support_len == 1
    assert p.symbol.min_deg == 0
    assert p.symbol.coeffs[0] == 1.0 + 0.0j
    want = np.eye(8, dtype=complex)
    want[0, 0] = 0.0
    assert np.array_equal(finite_section(p, 8), want)


@criterion(3, "power-correction recurrence vs sections and norm bound")
def test_criterion_03_power_corrections():
    rng = np.random.default_rng(103)
    symbols = [LaurentSymbol([1.0, 0.0, 1.0], -1)]
    symbols += [random_symbol(rng, max_len=6, scale=0.5) for _ in range(20)]
    for sym in symbols:
        k = 8
        corrs = power_corrections(sym, None, k)
        nw, nw1 = wiener_norms(sym)
        n = 80
        big = n + k * (sym.support_len + 2)
        dense = dense_toeplitz_oracle(sym, big)
        dense_pow = np.eye(big, dtype=complex)
        sym_pow = LaurentSymbol.one()
        for i in range(1, k + 1):
            dense_pow = dense_pow @ dense
            sym_pow = sym_mul(sym_pow, sym)
            want = dense_pow[:n, :n] - dense_toeplitz_oracle(sym_pow, n)
            got = np.zeros((n, n), dtype=complex)
            c = corrs[i - 1]
            if not c.is_zero:
                got[:min(c.p, n), :min(c.q, n)] = \
                    c.materialize(min(c.p, n), min(c.q, n))
            assert np.abs(got - want).max() <= 1e-10
            if i >= 2:
                bound = 0.5 * i * (i - 1) * nw1 ** 2 * nw ** (i - 2)
                assert abs_sum_norm(c) <= bound * (1 + 1e-12)
            else:
                assert c.is_zero


@criterion(4, "series exp of Hessenberg symbols vs dense exponential")
def test_criterion_04_series_engine():
    start = time.perf_counter()
    for k in range(1, 6):
        a = CqtMatrix(LaurentSymbol(np.ones(k + 2), -1))
        f = funm_taylor(a, SeriesSpec.exp())
        dense = scipy.linalg.expm(dense_toeplitz_oracle(a.symbol, 600))
        assert np.abs(finite_section(f, 80) - dense[:80, :80]).max() <= 1e-8
        assert f.corr.rank <= 60
    assert time.perf_counter() - start < 120.0


@criterion(5, "correction-mass bounds certify every converged run")
def test_criterion_05_bound_certificates():
    exp = SeriesSpec.exp()
    # Pure Toeplitz arguments.
    for k in range(1, 6):
        sym = LaurentSymbol(np.ones(k + 2), -1)
        f = funm_taylor(CqtMatrix(sym), exp)
        assert abs_sum_norm(f.corr) <= bound_correction_toeplitz(exp, sym)
    # Arguments with a correction part.
    rng = np.random.default_rng(105)
    for _ in range(5):
        sym = random_symbol(rng, max_len=5, scale=0.4)
        corr = random_correction(rng, 4, 4, 2, scale=0.3)
        f = funm_taylor(CqtMatrix(sym, corr), exp)
        bound = bound_correction_general(exp, sym, abs_sum_norm(corr))
        assert abs_sum_norm(f.corr) <= bound
    # Specialization: for exp the Toeplitz bound is (1/2)||a'||^2 e^{||a||}.
    for _ in range(10):
        sym = random_symbol(rng, max_len=6)
        nw, nw1 = wiener_norms(sym)
        got = bound_correction_toeplitz(exp, sym)
        want = 0.5 * nw1 ** 2 * math.exp(nw)
        assert abs(got - want) <= 1e-12 * want


@criterion(6, "finite product vs dense, corner layout and symmetry")
def test_criterion_06_finite_algebra():
    rng = np.random.default_rng(106)
    for case in range(100):
        m = int(rng.integers(8, 201))
        a = random_fqt(rng, m, band=5, corner=8)
        b = random_fqt(rng, m, band=5, corner=8)
        p = fqt_mul(a, b)
        want = dense_fqt_oracle(a) @ dense_fqt_oracle(b)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(fqt_to_dense(p) - want).max() <= 1e-12 * scale
        supports = max(a.symbol.support_len, b.symbol.support_len,
                       a.corr_tl.p, a.corr_tl.q, b.corr_tl.p, b.corr_tl.q,
                       a.corr_br.p, a.corr_br.q, b.corr_br.p, b.corr_br.q)
        if supports < m / 2:
            # The two corner supports share no entry.
            assert not (p.corr_tl.p + p.corr_br.p > m
                        and p.corr_tl.q + p.corr_br.q > m)
    # Symmetric inputs keep the two corners equal (the flip relation).
    for _ in range(10):
        m = int(rng.integers(20, 80))
        band = rng.standard_normal(3)
        band[2] = band[0]
        block = rng.standard_normal((5, 2))
        corr = Correction(block, block)
        a = FiniteQtMatrix(m, LaurentSymbol(band, -1), corr, corr)
        p = fqt_mul(a, a)
        pad = max(p.corr_tl.p, p.corr_br.p, p.corr_tl.q, p.corr_br.q)
        tl = p.corr_tl.materialize(pad, pad)
        br = p.corr_br.materialize(pad, pad)
        assert np.abs(tl - br).max() <= 1e-12


@criterion(7, "finite exponential matches the sine-transform oracle")
def test_criterion_07_finite_exp():
    start = time.perf_counter()
    for m in (100, 1000):
        a = _laplacian_power(m)
        f = funm_taylor(a, SeriesSpec.exp())
        oracle = sine_transform_oracle(m, lambda lam: np.exp(lam ** 10), 1)
        assert np.linalg.norm(f.column(0) - oracle) < 1e-8
    assert time.perf_counter() - start < 120.0


@pytest.fixture(scope="module")
def contour_runs():
    m = 200
    a = _laplacian_power(m).add(FiniteQtMatrix.identity(m))
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-8)
    circle = ContourSpec.circle(1.5, 1.0)
    start = time.perf_counter()
    sqrt_res, sqrt_info = funm_contour(a, np.sqrt, circle, cfg,
                                       with_info=True)
    log_res, log_info = funm_contour(a, np.log, circle, cfg, with_info=True)
    elapsed = time.perf_counter() - start
    return {"m": m, "a": a, "cfg": cfg, "sqrt": (sqrt_res, sqrt_info),
            "log": (log_res, log_info), "elapsed": elapsed}


@criterion(8, "contour sqrt/log of I + H^10 reproduce the matrix")
def test_criterion_08_contour_engine(contour_runs):
    m = contour_runs["m"]
    a = contour_runs["a"]
    cfg = contour_runs["cfg"]
    dense_a = fqt_to_dense(a)
    sqrt_res, _ = contour_runs["sqrt"]
    squared = fqt_mul(sqrt_res, sqrt_res, cfg)
    assert np.abs(fqt_to_dense(squared) - dense_a).max() <= 1e-6
    log_res, _ = contour_runs["log"]
    exp_log = funm_taylor(log_res, SeriesSpec.exp(), cfg)
    assert np.abs(fqt_to_dense(exp_log) - dense_a).max() <= 1e-6
    sqrt_oracle = sine_transform_oracle(
        m, lambda lam: np.sqrt(1.0 + lam ** 10), 1)
    log_oracle = sine_transform_oracle(
        m, lambda lam: np.log(1.0 + lam ** 10), 1)
    assert np.linalg.norm(sqrt_res.column(0) - sqrt_oracle) <= 1e-6
    assert np.linalg.norm(log_res.column(0) - log_oracle) <= 1e-6
    assert contour_runs["elapsed"] < 300.0


@criterion(9, "trapezoidal iterates decay like a Cauchy sequence")
def test_criterion_09_cauchy_decay(contour_runs):
    for key in ("sqrt", "log"):
        diffs = contour_runs[key][1]["level_diffs"][-3:]
        assert len(diffs) == 3
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[1] <= 0.75 * diffs[0]
        assert diffs[2] <= 0.75 * diffs[1]


@criterion(10, "norm submultiplicativity over random pairs")
def test_criterion_10_banach_inequality():
    rng = np.random.default_rng(110)
    for _ in range(200):
        a = random_cqt(rng)
        b = random_cqt(rng)
        lhs = cqt_norm(cqt_mul(a, b))
        assert lhs <= cqt_norm(a) * cqt_norm(b) * (1 + 1e-10)


@criterion(11, "inversion certificate on random invertible matrices")
def test_criterion_11_inversion_certificate():
    rng = np.random.default_rng(111)
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-10)
    for _ in range(50):
        sym = random_invertible_symbol(rng)
        corr = random_correction(rng, int(rng.integers(1, 6)),
                                 int(rng.integers(1, 6)), 2, scale=0.2)
        a = CqtMatrix(sym, corr)
        b, info = cqt_inv(a, cfg, with_info=True)
        n = info["certified_n"]
        resid = finite_section(cqt_mul(a, b), n) - np.eye(n)
        assert np.abs(resid).max() <= 1e-9


@criterion(12, "serialization round trip is value-identical")
def test_criterion_12_serialization():
    rng = np.random.default_rng(112)
    for case in range(100):
        if case % 2 == 0:
            a = random_cqt(rng)
            b = parse(serialize(a))
            assert a.symbol.min_deg == b.symbol.min_deg
            assert np.array_equal(a.symbol.coeffs, b.symbol.coeffs)
            assert np.array_equal(a.corr.u, b.corr.u)
            assert np.array_equal(a.corr.v, b.corr.v)
        else:
            a = random_fqt(rng, int(rng.integers(4, 60)))
            b = parse(serialize(a))
            assert a.m == b.m
            assert a.symbol.min_deg == b.symbol.min_deg
            assert np.array_equal(a.symbol.coeffs, b.symbol.coeffs)
            assert np.array_equal(a.corr_tl.u, b.corr_tl.u)
            assert np.array_equal(a.corr_tl.v, b.corr_tl.v)
            assert np.array_equal(a.corr_br.u, b.corr_br.u)
            assert np.array_equal(a.corr_br.v, b.corr_br.v)
