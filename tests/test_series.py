"""Series engine: power corrections, function values, a-priori bounds."""

import math
import sys

import numpy as np
import pytest
import scipy.linalg

import qtmat.correction
import qtmat.cqt
import qtmat.finite
from qtmat import (
    Correction,
    CqtMatrix,
    DEFAULT_CONFIG,
    FiniteQtMatrix,
    LaurentSymbol,
    NoConvergenceError,
    RadiusViolationError,
    SeriesSpec,
    abs_sum_norm,
    bound_correction_general,
    bound_correction_toeplitz,
    cqt_inv,
    finite_section,
    fqt_to_dense,
    funm_laurent,
    funm_taylor,
    parse,
    power_corrections,
    serialize,
    wiener_norms,
)
from qtmat.oracles import _laplacian_power
from qtmat.symbol import eval_at_unit_roots

from tests.support import (
    dense_correction_oracle,
    dense_cqt_oracle,
    dense_toeplitz_oracle,
    random_correction,
    random_symbol,
)


def test_power_corrections_first_is_zero():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = random_symbol(rng)
        out = power_corrections(a, None, 4)
        assert out[0].is_zero  # correction of the first power


def test_power_corrections_tridiagonal_e2():
    a = LaurentSymbol([1.0, 0.0, 1.0], -1)  # z + 1/z
    out = power_corrections(a, None, 2)
    e2 = dense_correction_oracle(out[1], 2, 2)
    assert np.abs(e2 - np.array([[-1.0, 0.0], [0.0, 0.0]])).max() < 1e-14


def test_power_corrections_match_dense_sections():
    rng = np.random.default_rng(2)
    for _ in range(8):
        a = random_symbol(rng, max_len=6, scale=0.5)
        k = 6
        out = power_corrections(a, None, k)
        n = 80
        big = n + k * (a.support_len + 2)
        dense_t = dense_toeplitz_oracle(a, big)
        dense_pow = np.eye(big, dtype=complex)
        sym_pow = {0: 1.0}
        for i in range(1, k + 1):
            dense_pow = dense_pow @ dense_t
            new_pow = {}
            for s, c in sym_pow.items():
                for t in range(a.min_deg, a.max_deg + 1):
                    ct = a.coeff(t)
                    if ct != 0:
                        new_pow[s + t] = new_pow.get(s + t, 0) + c * ct
            sym_pow = new_pow
            toep = np.zeros((n, n), dtype=complex)
            for d, c in sym_pow.items():
                if -n < d < n:
                    idx = np.arange(max(0, -d), min(n, n - d))
                    toep[idx, idx + d] = c
            want = dense_pow[:n, :n] - toep
            got = dense_correction_oracle(out[i - 1], n, n)
            assert np.abs(got - want).max() < 1e-11


def test_power_corrections_of_a_zero_correction_are_bitwise_none():
    # One recurrence: E = 0 given as a correction or as None.
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = random_symbol(rng, max_len=6, scale=0.5)
        for got, want in zip(power_corrections(a, Correction.zero(), 6),
                             power_corrections(a, None, 6), strict=True):
            assert np.array_equal(got.u, want.u)
            assert np.array_equal(got.v, want.v)


def test_power_corrections_norm_bound():
    rng = np.random.default_rng(3)
    a = LaurentSymbol([1.0, 0.0, 1.0], -1)
    symbols = [a] + [random_symbol(rng, max_len=5, scale=0.4)
                     for _ in range(6)]
    for sym in symbols:
        nw, nw1 = wiener_norms(sym)
        out = power_corrections(sym, None, 8)
        for i in range(2, 9):
            bound = 0.5 * i * (i - 1) * nw1 ** 2 * nw ** (i - 2)
            assert abs_sum_norm(out[i - 1]) <= bound * (1 + 1e-10)


def test_power_corrections_general_variant():
    rng = np.random.default_rng(4)
    a = random_symbol(rng, max_len=5, scale=0.4)
    e = random_correction(rng, 4, 4, 2, scale=0.3)
    k = 5
    out = power_corrections(a, e, k)
    assert len(out) == k + 1
    assert out[0].is_zero  # zeroth power is the identity
    assert np.abs(dense_correction_oracle(out[1], 5, 5)
                  - dense_correction_oracle(e, 5, 5)).max() < 1e-13
    n = 60
    big = n + (k + 1) * (a.support_len + 6)
    dense_a = dense_toeplitz_oracle(a, big) \
        + dense_correction_oracle(e, big, big)
    dense_pow = np.eye(big, dtype=complex)
    apow = LaurentSymbol.one()
    from qtmat.symbol import sym_mul
    for i in range(1, k + 1):
        dense_pow = dense_pow @ dense_a
        apow = sym_mul(apow, a)
        want = dense_pow[:n, :n] - dense_toeplitz_oracle(apow, n)
        got = dense_correction_oracle(out[i], n, n)
        assert np.abs(got - want).max() < 1e-11


def test_power_corrections_general_norm_bound():
    rng = np.random.default_rng(5)
    a = random_symbol(rng, max_len=4, scale=0.3)
    e = random_correction(rng, 3, 3, 2, scale=0.05)
    nw, nw1 = wiener_norms(a)
    ne = abs_sum_norm(e)
    assert ne < 1.0  # the per-term bound normalizes the correction mass
    out = power_corrections(a, e, 8)
    alpha = nw1 ** 2 + ne
    beta = nw1 ** 2
    for i in range(1, 9):
        bound = (alpha * ((nw + ne) ** i - nw ** i) / ne
                 - beta * i * nw ** (i - 1)) / ne
        assert abs_sum_norm(out[i]) <= bound * (1 + 1e-10)


def test_funm_taylor_zero_matrix():
    f = funm_taylor(CqtMatrix.zero(), SeriesSpec.exp())
    assert np.array_equal(finite_section(f, 4), np.eye(4))


def test_funm_taylor_identity_function():
    rng = np.random.default_rng(6)
    a = CqtMatrix(random_symbol(rng),
                  random_correction(rng, 3, 3, 2))
    f, info = funm_taylor(a, SeriesSpec.polynomial([0.0, 1.0]),
                          with_info=True)
    assert info["terms"] == 1
    assert np.abs(finite_section(f, 30) - dense_cqt_oracle(a, 30)).max() \
        < 1e-12


def test_funm_taylor_polynomial_equals_horner():
    rng = np.random.default_rng(7)
    coeffs = [0.3, -1.0, 0.25, 0.5]
    a = CqtMatrix(random_symbol(rng, max_len=4, scale=0.5))
    f = funm_taylor(a, SeriesSpec.polynomial(coeffs))
    n = 40
    big = n + 5 * a.symbol.support_len
    dense = dense_cqt_oracle(a, big)
    horner = np.zeros((big, big), dtype=complex)
    for c in coeffs[::-1]:
        horner = horner @ dense + c * np.eye(big)
    assert np.abs(finite_section(f, n) - horner[:n, :n]).max() < 1e-12


def test_funm_taylor_hessenberg_exp_vs_dense():
    for k in (1, 2, 3):
        a = CqtMatrix(LaurentSymbol(np.ones(k + 2), -1))
        f = funm_taylor(a, SeriesSpec.exp())
        dense = scipy.linalg.expm(dense_cqt_oracle(a, 600))
        assert np.abs(finite_section(f, 80) - dense[:80, :80]).max() < 1e-8


def test_funm_taylor_symbol_matches_scalar_values():
    a = CqtMatrix(LaurentSymbol(np.ones(4), -1))
    f = funm_taylor(a, SeriesSpec.exp())
    n = 256
    va = eval_at_unit_roots(a.symbol, n)
    vf = eval_at_unit_roots(f.symbol, n)
    assert np.abs(vf - np.exp(va)).max() <= 10 * DEFAULT_CONFIG.tol_stop \
        * max(1.0, np.abs(np.exp(va)).max())


def test_the_symbol_refresh_keeps_a_cancelling_series_accurate():
    # On the unit circle exp(a) stays below e^-16, while the series terms
    # reach 24^k / k!, about e^21: the summed symbol loses some 1e-6 to
    # cancellation, which interp(exp(a(w))) replaces by the accurate one.
    a = CqtMatrix(LaurentSymbol([2.0, -20.0, 2.0], -1),
                  Correction(np.full((3, 1), 0.1), np.ones((3, 1))))
    got = finite_section(funm_taylor(a, SeriesSpec.exp()), 60)
    want = scipy.linalg.expm(finite_section(a, 400))[:60, :60]
    assert np.abs(got - want).max() <= 1e-7 * max(1.0, np.abs(want).max())


def test_funm_taylor_tail_estimate_sound():
    a = CqtMatrix(LaurentSymbol(np.ones(3), -1))
    _, info = funm_taylor(a, SeriesSpec.exp(), with_info=True)
    assert info["tail_estimate"] <= DEFAULT_CONFIG.tol_stop


def test_funm_taylor_radius_violation():
    a = CqtMatrix(LaurentSymbol([2.0, 2.0], 0))
    with pytest.raises(RadiusViolationError):
        funm_taylor(a, SeriesSpec.log1p())


def test_funm_taylor_finite_matches_dense():
    rng = np.random.default_rng(8)
    m = 60
    band = 0.3 * rng.standard_normal(3)
    a = FiniteQtMatrix(m, LaurentSymbol(band, -1),
                       random_correction(rng, 4, 4, 2, scale=0.2))
    f = funm_taylor(a, SeriesSpec.exp())
    from tests.support import dense_fqt_oracle
    want = scipy.linalg.expm(dense_fqt_oracle(a))
    from qtmat import fqt_to_dense
    assert np.abs(fqt_to_dense(f) - want).max() < 1e-10


def test_funm_laurent_scalar_shift():
    f = SeriesSpec.laurent_polynomial({1: 1.0, -1: 1.0})
    a = CqtMatrix(LaurentSymbol.constant(2.0))
    got = funm_laurent(a, f)
    assert got.corr.is_zero
    assert got.symbol.coeff(0) == pytest.approx(2.5, abs=1e-13)


def test_funm_laurent_pure_inverse():
    a = CqtMatrix(LaurentSymbol([1.0, 4.0, 1.0], -1))
    f = SeriesSpec.laurent_polynomial({-1: 1.0})
    got = funm_laurent(a, f)
    want = cqt_inv(a)
    n = 40
    assert np.abs(finite_section(got, n) - finite_section(want, n)).max() \
        < 1e-10


def test_funm_laurent_geometric_tails_vs_dense():
    a = CqtMatrix(LaurentSymbol([1.0, 4.0, 1.0], -1))
    r = 0.1

    def coeff(i):
        return r ** abs(i)

    def scalar(x):
        # closed form of sum_k r^|k| x^k on r < |x| < 1/r
        return 1.0 / (1.0 - r * x) + (r / x) / (1.0 - r / x)

    f = SeriesSpec.laurent(coeff, r, 1.0 / r, scalar=scalar)
    got, info = funm_laurent(a, f, with_info=True)
    # The estimate bounds the closed-form majorant of the dropped terms,
    # sum over i > terms of r^i (||A||^i + ||A^-1||^i).
    terms = info["terms"]
    majorant = sum((r * x) ** (terms + 1) / (1.0 - r * x)
                   for x in (a.norm_cqt(), a.inv().norm_cqt()))
    assert info["tail_estimate"] >= majorant > 0
    n = 50
    big = 400
    dense = dense_cqt_oracle(a, big)
    dense_inv = np.linalg.inv(dense)
    acc = np.eye(big, dtype=complex)
    ppow = np.eye(big, dtype=complex)
    mpow = np.eye(big, dtype=complex)
    for i in range(1, 120):
        ppow = ppow @ dense
        mpow = mpow @ dense_inv
        acc = acc + coeff(i) * ppow + coeff(-i) * mpow
    assert np.abs(finite_section(got, n) - acc[:n, :n]).max() < 1e-9


def test_power_series_and_laurent_share_the_term_loop():
    # A polynomial through either engine sums the same terms in the same
    # order, so the correction factors agree bit for bit.
    rng = np.random.default_rng(8)
    a = CqtMatrix(random_symbol(rng, max_len=5, scale=0.3),
                  random_correction(rng, 6, 4, 2, scale=0.2))
    c = [0.5, -1.0, 0.25, 2.0, -0.75]
    got, got_info = funm_taylor(a, SeriesSpec.polynomial(c),
                                with_info=True)
    want, want_info = funm_laurent(
        a, SeriesSpec.laurent_polynomial(dict(enumerate(c))), with_info=True)
    # Both sum the polynomial exactly, so neither has a tail to estimate.
    assert got_info == want_info == {
        "terms": 4, "tail_estimate": 0.0,
        "ranks": [(got.corr.p, got.corr.q, got.corr.rank)]}
    assert not got.corr.is_zero
    for x, y in ((got.corr.u, want.corr.u), (got.corr.v, want.corr.v)):
        assert x.shape == y.shape
        assert np.array_equal(x, y)


def test_funm_laurent_annulus_violation():
    a = CqtMatrix(LaurentSymbol.constant(2.0))
    f = SeriesSpec.laurent(lambda i: 0.5 ** abs(i), 0.5, 1.5,
                           scalar=lambda x: x)
    with pytest.raises(RadiusViolationError):
        funm_laurent(a, f)


def test_bound_toeplitz_exp_value():
    a = LaurentSymbol([1.0, 0.0, 1.0], -1)  # z + 1/z
    got = bound_correction_toeplitz(SeriesSpec.exp(), a)
    assert got == pytest.approx(2.0 * math.e ** 2, rel=1e-12)


def test_bound_toeplitz_zero_symbol():
    assert bound_correction_toeplitz(SeriesSpec.exp(),
                                     LaurentSymbol.zero()) == 0.0


def test_bound_exp_specialization():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = random_symbol(rng, max_len=5)
        nw, nw1 = wiener_norms(a)
        got = bound_correction_toeplitz(SeriesSpec.exp(), a)
        assert got == pytest.approx(0.5 * nw1 ** 2 * math.exp(nw), rel=1e-12)


def test_bound_general_limit_and_monotonicity():
    a = LaurentSymbol([1.0, 0.0, 1.0], -1)
    f = SeriesSpec.exp()
    base = bound_correction_toeplitz(f, a)
    assert bound_correction_general(f, a, 1e-12) == base
    with_corr = bound_correction_general(f, a, 1.0)
    assert with_corr >= base


def test_bound_radius_violation():
    a = LaurentSymbol([2.0, 2.0])
    with pytest.raises(RadiusViolationError):
        bound_correction_toeplitz(SeriesSpec.log1p(), a)


def test_bound_dominates_materialized_correction():
    for k in (1, 2, 3):
        sym = LaurentSymbol(np.ones(k + 2), -1)
        a = CqtMatrix(sym)
        f = funm_taylor(a, SeriesSpec.exp())
        assert abs_sum_norm(f.corr) <= bound_correction_toeplitz(
            SeriesSpec.exp(), sym)
    rng = np.random.default_rng(10)
    for _ in range(3):
        sym = random_symbol(rng, max_len=4, scale=0.4)
        e = random_correction(rng, 3, 3, 1, scale=0.2)
        a = CqtMatrix(sym, e)
        f = funm_taylor(a, SeriesSpec.exp())
        assert abs_sum_norm(f.corr) <= bound_correction_general(
            SeriesSpec.exp(), sym, abs_sum_norm(e))


def test_series_spec_one_sided_negative_coeffs_zero():
    f = SeriesSpec.exp()
    assert f.coeff(-3) == 0.0
    assert SeriesSpec.sqrt1p().coeff(2) == pytest.approx(-1.0 / 8.0)
    assert SeriesSpec.log1p().coeff(3) == pytest.approx(1.0 / 3.0)


def test_funm_taylor_polynomial_terminates_at_degree():
    rng = np.random.default_rng(11)
    a = CqtMatrix(random_symbol(rng, max_len=3, scale=0.3))
    _, info = funm_taylor(a, SeriesSpec.polynomial([1.0, 2.0, 0.5, -0.25]),
                          with_info=True)
    assert info["terms"] == 3


def test_funm_laurent_positive_polynomial_skips_inverse():
    # A Laurent polynomial without negative powers must not require an
    # invertible argument.
    from qtmat import cqt_mul
    a = CqtMatrix(LaurentSymbol([1.0], 1))  # shift, not invertible
    f = SeriesSpec.laurent_polynomial({2: 1.0})
    got = funm_laurent(a, f)
    want = cqt_mul(a, a)
    n = 20
    assert np.abs(finite_section(got, n) - finite_section(want, n)).max() \
        < 1e-12


def _stored_dtypes(a):
    return {a.symbol.coeffs.dtype} | {x.dtype for c in a.corrections
                                       for x in (c.u, c.v)}


def test_parsed_input_keeps_its_dtype_through_taylor():
    a = CqtMatrix(LaurentSymbol([0.2, 0.5, 0.1], -1),
                  Correction([[0.1], [0.3]], [[0.2], [0.05], [0.1]]))
    text = serialize(a)
    parsed = parse(text)
    assert _stored_dtypes(parsed) == {np.dtype(np.float64)}
    got = funm_taylor(parsed, SeriesSpec.exp())
    assert _stored_dtypes(got) == {np.dtype(np.float64)}
    # A -0 imaginary field makes the text, and so the result, complex.
    parsed = parse(text.replace("0.5 0\n", "0.5 -0\n"))
    assert _stored_dtypes(parsed) == {np.dtype(np.complex128)}
    got = funm_taylor(parsed, SeriesSpec.exp())
    assert _stored_dtypes(got) == {np.dtype(np.complex128)}


def _real_inputs():
    """A real invertible T(a) + E and two finite matrices of its parts.

    The finite inverses take the band solve (m = 40) and Widom's formula
    (m = 600).
    """
    corr = Correction([[0.1, -0.05], [0.3, 0.02], [0.0, 0.04]],
                      [[0.2, 0.1], [0.05, -0.03]])
    sym = LaurentSymbol([0.3, -0.2, 2.0, 0.4, 0.1], -2)
    return [CqtMatrix(sym, corr)] + [
        FiniteQtMatrix(m, sym, corr, corr.scaled(-1.0)) for m in (40, 600)]


def _complexified(a):
    return a.with_parts(LaurentSymbol(a.symbol.coeffs + 0j, a.symbol.min_deg),
                        [Correction(c.u + 0j, c.v) for c in a.corrections])


def _max_difference(a, b):
    if isinstance(a, CqtMatrix):
        return np.abs(finite_section(a, 60) - finite_section(b, 60)).max()
    return np.abs(fqt_to_dense(a) - fqt_to_dense(b)).max()


_REAL_SPECS = {"exp": SeriesSpec.exp(),
               "laurent": SeriesSpec.laurent_polynomial(
                   {-2: 0.1, -1: -0.5, 0: 0.2, 1: 1.0, 2: 0.25})}


@pytest.mark.parametrize("func", sorted(_REAL_SPECS))
def test_real_input_and_real_series_give_a_real_result(func):
    f = _REAL_SPECS[func]
    engine = funm_taylor if f.annulus is None else funm_laurent
    for a in _real_inputs():
        got = engine(a, f)
        assert _stored_dtypes(got) == {np.dtype(np.float64)}
        want = engine(_complexified(a), f)
        assert _stored_dtypes(want) == {np.dtype(np.complex128)}
        assert _max_difference(got, want) < 1e-14 * max(1.0, got.norm_cqt())


def test_a_complex_coefficient_keeps_the_result_complex():
    a = _real_inputs()[0]
    f = SeriesSpec.polynomial([1.0, 0.5j, 0.25])
    got = funm_taylor(a, f)
    assert _stored_dtypes(got) == {np.dtype(np.complex128)}
    dense = finite_section(a, 80)
    want = np.eye(80) + 0.5j * dense + 0.25 * dense @ dense
    assert np.abs(finite_section(got, 40) - want[:40, :40]).max() < 1e-13


def test_taylor_tail_estimate_is_what_the_stopping_rule_compared():
    # The paper's Hessenberg band with k = 8 superdiagonals of ones: the
    # rule fires on the term bound |f_k| ||A||^k while the fitted geometric
    # tail still reads five orders of magnitude above the tolerance.
    a = CqtMatrix(LaurentSymbol(np.ones(10), -1))
    _, info = funm_taylor(a, SeriesSpec.exp(), with_info=True)
    assert 0.0 < info["tail_estimate"] <= DEFAULT_CONFIG.tol_stop


def test_taylor_exp_of_h10_keeps_no_rounding_noise_as_rank():
    # The corner singular values of exp(H^10) at m = 710 sit at 1-2e-16 of
    # the largest from the 16th on: rounding noise, which the compression
    # must not keep as rank, nor let into the result.
    a = _laplacian_power(710)
    got, info = funm_taylor(a, SeriesSpec.exp(), with_info=True)
    assert info["ranks"] == [(c.p, c.q, c.rank) for c in got.corrections]
    assert got.corr_tl.rank <= 20
    want = scipy.linalg.expm(fqt_to_dense(a).real)
    assert np.abs(fqt_to_dense(got) - want).max() <= 1e-14 * np.abs(want).max()


def _geometric_input():
    # T(0.2/z + 1 + 0.3z) + [0.1, 0.2]^T [0.3, 0.1], and f_k = 0.25^k for
    # k >= 0, analytic on |z| < 4.
    a = CqtMatrix(LaurentSymbol([0.2, 1.0, 0.3], -1),
                  Correction([[0.1], [0.2]], [[0.3], [0.1]]))
    return a, lambda i: 0.25 ** i if i >= 0 else 0.0


def test_each_laurent_side_stops_on_its_own_rule():
    # The negative side is zero, so its rule fires at once, and the Laurent
    # engine sums the terms of the power series engine in the same order.
    a, coeff = _geometric_input()
    got, got_info = funm_taylor(a, SeriesSpec(coeff=coeff, radius=4.0),
                                with_info=True)
    want, want_info = funm_laurent(a, SeriesSpec.laurent(coeff, 0.1, 4.0),
                                   with_info=True)
    assert got_info["terms"] == want_info["terms"] > 3
    assert len(got.corrections) == len(want.corrections)
    for x, y in zip(got.corrections, want.corrections):
        assert np.array_equal(x.u, y.u) and np.array_equal(x.v, y.v)


@pytest.mark.parametrize("engine", ["taylor", "laurent"])
def test_series_names_the_term_cap_it_did_not_converge_within(engine):
    a, coeff = _geometric_input()
    cfg = DEFAULT_CONFIG.updated(max_terms=10)
    with pytest.raises(NoConvergenceError,
                       match=r"^series did not converge within 10 terms$"):
        if engine == "taylor":
            funm_taylor(a, SeriesSpec(coeff=coeff, radius=4.0), cfg)
        else:
            funm_laurent(a, SeriesSpec.laurent(coeff, 0.1, 4.0), cfg)


def _counted_fqt_mul(monkeypatch):
    """The list of fqt_mul calls, counted through every qtmat binding."""
    calls = []
    fqt_mul = qtmat.finite.fqt_mul

    def counted(*args, **kwargs):
        calls.append(args)
        return fqt_mul(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qtmat" and getattr(
                module, "fqt_mul", None) is fqt_mul:
            monkeypatch.setattr(module, "fqt_mul", counted)
    return calls


def test_a_mirrored_matrix_sums_its_series_once_on_its_half(monkeypatch):
    a = _laplacian_power(2000)
    calls = _counted_fqt_mul(monkeypatch)
    got, info = funm_taylor(a, SeriesSpec.exp(), with_info=True)
    assert calls == [] and info["terms"] == 27
    assert got.corr_tl is got.corr_br


def test_the_half_gives_the_finite_symbol_and_top_left_corner_bitwise(
        monkeypatch):
    a = _laplacian_power(1000)
    got, got_info = funm_taylor(a, SeriesSpec.exp(), with_info=True)
    monkeypatch.setattr(qtmat.finite, "_mirrored", lambda a: False)
    want, want_info = funm_taylor(a, SeriesSpec.exp(), with_info=True)
    assert got_info == want_info
    assert got.symbol.min_deg == want.symbol.min_deg
    assert np.array_equal(got.symbol.coeffs, want.symbol.coeffs)
    assert np.array_equal(got.corr_tl.u, want.corr_tl.u)
    assert np.array_equal(got.corr_tl.v, want.corr_tl.v)
    br, want_br = got.corr_br.materialize(), want.corr_br.materialize()
    assert br.shape == want_br.shape
    ulp = np.finfo(np.float64).eps * np.abs(want_br).max()
    assert np.abs(br - want_br).max() <= 16 * ulp


def _unmirrored_inputs():
    h10 = _laplacian_power(600)
    corner = Correction([[0.1], [0.2]], [[0.3], [0.1]])
    yield h10.with_parts(h10.symbol, (h10.corr_tl, h10.corr_br.scaled(1.01)))
    yield FiniteQtMatrix(600, LaurentSymbol([0.2, 0.5, 0.3], -1), corner,
                         corner)
    # reach = 27 terms * 10 + 9 rows = 279, past m / 2.
    yield _laplacian_power(557)


@pytest.mark.parametrize("case", range(3), ids=[
    "different-corners", "lopsided-symbol", "past-the-fit-rule"])
def test_other_inputs_keep_the_finite_run(case, monkeypatch):
    a = list(_unmirrored_inputs())[case]
    _, info = funm_taylor(a, SeriesSpec.exp(), with_info=True)
    assert a.semi_infinite_half(info["terms"]) is None
    calls = _counted_fqt_mul(monkeypatch)
    got = funm_taylor(a, SeriesSpec.exp())
    assert calls and got.corr_tl is not got.corr_br
    want = scipy.linalg.expm(fqt_to_dense(a))
    assert np.abs(fqt_to_dense(got) - want).max() <= 1e-12 * max(
        1.0, np.abs(want).max())


def test_the_fit_rule_admits_twice_the_reach():
    a = _laplacian_power(558)
    assert isinstance(a.semi_infinite_half(27), CqtMatrix)
    assert a.semi_infinite_half(28) is None


def test_a_mirrored_exp_on_its_half_matches_expm(monkeypatch):
    rng = np.random.default_rng(25)
    m = 600
    corner = random_correction(rng, 6, 6, 2, scale=0.2)
    corner = Correction(corner.u.real, corner.v.real)
    a = FiniteQtMatrix(m, LaurentSymbol([0.1, -0.3, 1.0, -0.3, 0.1], -2),
                       corner, corner)
    calls = _counted_fqt_mul(monkeypatch)
    got = funm_taylor(a, SeriesSpec.exp())
    assert calls == [] and got.corr_tl is got.corr_br
    want = scipy.linalg.expm(fqt_to_dense(a))
    assert np.abs(fqt_to_dense(got) - want).max() < 1e-12


def _counted_algebra(monkeypatch):
    """(name, products it ran inside) for each add, product and compression.

    cqt_add, fqt_add, cqt_mul, fqt_mul and corr_compress are counted
    through every qtmat binding.
    """
    calls, inside = [], [0]

    def counted(name, func):
        product = name.endswith("_mul")

        def wrapper(*args, **kwargs):
            calls.append((name, inside[0]))
            inside[0] += product
            try:
                return func(*args, **kwargs)
            finally:
                inside[0] -= product

        return wrapper

    for origin, name in ((qtmat.cqt, "cqt_add"), (qtmat.finite, "fqt_add"),
                         (qtmat.cqt, "cqt_mul"), (qtmat.finite, "fqt_mul"),
                         (qtmat.correction, "corr_compress")):
        func = getattr(origin, name)
        wrapper = counted(name, func)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "qtmat" and getattr(
                    module, name, None) is func:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def _exact_sum_inputs():
    corner = Correction([[0.1], [0.2]], [[0.3], [0.1]])
    other = Correction([[0.2], [0.1]], [[0.1], [0.3]])
    yield CqtMatrix(LaurentSymbol([0.2, 3.0, 0.3], -1), corner)
    yield _laplacian_power(1000)
    yield FiniteQtMatrix(600, LaurentSymbol([0.2, 3.0, 0.3], -1), corner,
                         other)


_EXACT_SUM_SPECS = {
    "taylor": SeriesSpec.exp(),
    "laurent": SeriesSpec.laurent_polynomial(
        {-2: 0.1, -1: 0.5, 0: 1.0, 1: 0.3, 2: 0.05}),
}


@pytest.mark.parametrize("engine", sorted(_EXACT_SUM_SPECS))
@pytest.mark.parametrize("case", range(3), ids=[
    "semi-infinite", "mirrored-half", "finite-run"])
def test_the_series_adds_exactly_and_compresses_only_in_products(
        engine, case, monkeypatch):
    a = list(_exact_sum_inputs())[case]
    f = _EXACT_SUM_SPECS[engine]
    if case == 1 and engine == "laurent":
        # H^10 is near singular: no negative powers, so the half sums it.
        f = SeriesSpec.laurent_polynomial({0: 1.0, 1: 0.3, 2: 0.05})
    calls = _counted_algebra(monkeypatch)
    got = (funm_taylor if engine == "taylor" else funm_laurent)(a, f)
    names = {name for name, _ in calls}
    assert "cqt_add" not in names and "fqt_add" not in names
    compressions = [inside for name, inside in calls
                    if name == "corr_compress"]
    assert compressions and all(compressions)
    if case == 1:
        assert got.corr_tl is got.corr_br and "fqt_mul" not in names
    if case == 2:
        assert "fqt_mul" in names
        dense = fqt_to_dense(a)
        if engine == "taylor":
            want = scipy.linalg.expm(dense)
        else:
            inv = np.linalg.inv(dense)
            want = (np.eye(a.m) + 0.3 * dense + 0.05 * dense @ dense
                    + 0.5 * inv + 0.1 * inv @ inv)
        assert np.abs(fqt_to_dense(got) - want).max() <= 1e-12 * np.abs(
            want).max()
