"""Factored corrections against dense materialization oracles."""

import sys
import warnings

import numpy as np
import pytest

import qtmat.correction
from qtmat import (
    Correction,
    CqtMatrix,
    FiniteQtMatrix,
    LaurentSymbol,
    abs_sum_norm,
    corr_add,
    corr_compress,
    cqt_mul,
    finite_section,
    fqt_mul,
    fqt_to_dense,
    hankel_product,
    power_corrections,
    sym_mul,
    sym_scale,
    sym_split,
)
from qtmat.config import ROUNDING_ULPS
from qtmat.correction import (
    _kept_length,
    _kept_rank,
    corr_product,
    corr_times_corr,
    toeplitz_times_factor,
)
from qtmat.symbol import sym_reverse

from tests.support import (
    convolve_oracle,
    dense_correction_oracle,
    dense_cqt_oracle,
    dense_fqt_oracle,
    dense_hankel_minus,
    dense_hankel_plus,
    dense_toeplitz_oracle,
    dict_to_symbol,
    random_correction,
    random_symbol,
)


def e11():
    return Correction.rank_one([1.0], [1.0])


def test_corr_add_cancellation():
    s = corr_compress(corr_add(e11(), e11(), -1.0), 1e-14)
    assert s.is_zero


def test_corr_add_zero_identity():
    e = random_correction(np.random.default_rng(0), 4, 3, 2)
    assert corr_add(e, Correction.zero()) is e


def test_corr_add_random_vs_dense():
    rng = np.random.default_rng(5)
    for _ in range(10):
        e1 = random_correction(rng, 7, 5, 2)
        e2 = random_correction(rng, 4, 9, 3)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        got = corr_add(e1, e2, alpha)
        want = dense_correction_oracle(e1, 9, 9) \
            + alpha * dense_correction_oracle(e2, 9, 9)
        assert np.abs(dense_correction_oracle(got, 9, 9) - want).max() < 1e-13


def test_corr_add_commutative_dense():
    rng = np.random.default_rng(6)
    e1 = random_correction(rng, 6, 6, 2)
    e2 = random_correction(rng, 3, 8, 3)
    d1 = dense_correction_oracle(corr_add(e1, e2), 8, 8)
    d2 = dense_correction_oracle(corr_add(e2, e1), 8, 8)
    assert np.abs(d1 - d2).max() < 1e-13


def test_corr_compress_duplicate_columns():
    rng = np.random.default_rng(9)
    u = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    v = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    e = Correction(np.hstack([u, u]), np.hstack([v, v]))
    c = corr_compress(e, 1e-14)
    assert c.rank == 1
    want = dense_correction_oracle(e, 6, 4)
    assert np.abs(dense_correction_oracle(c, 6, 4) - want).max() < 1e-12


def test_corr_compress_zero_tol_preserves():
    rng = np.random.default_rng(10)
    e = random_correction(rng, 8, 7, 4)
    c = corr_compress(e, 0.0)
    diff = dense_correction_oracle(c, 8, 7) - dense_correction_oracle(e, 8, 7)
    assert np.abs(diff).max() < 1e-13


def test_corr_compress_recovers_exact_rank():
    rng = np.random.default_rng(11)
    e = random_correction(rng, 20, 15, 5)
    noisy = corr_add(e, random_correction(rng, 20, 15, 5, scale=1e-16))
    c = corr_compress(noisy, 1e-12)
    assert c.rank == 5


def test_corr_compress_budget_and_idempotence():
    rng = np.random.default_rng(12)
    for tol in (1e-14, 1e-8, 1e-4):
        e = random_correction(rng, 15, 12, 6)
        c = corr_compress(e, tol)
        err = abs_sum_norm(corr_add(e, c, -1.0))
        assert err <= tol * max(1.0, abs_sum_norm(e)) * 1.01
        again = corr_compress(c, tol)
        assert again.rank == c.rank


def test_corr_compress_huge_scale_keeps_rank_without_warning():
    rng = np.random.default_rng(13)
    e = random_correction(rng, 10, 8, 3).scaled(1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        c = corr_compress(e, 1e-12)
    assert c.rank == 3


def test_abs_sum_norm_simple():
    assert abs_sum_norm(e11()) == 1.0
    assert abs_sum_norm(Correction.zero()) == 0.0


def test_abs_sum_norm_random_vs_dense():
    rng = np.random.default_rng(13)
    e = random_correction(rng, 40, 30, 3)
    want = np.abs(dense_correction_oracle(e, 40, 30)).sum()
    assert abs_sum_norm(e) == pytest.approx(want, rel=1e-12)


def test_abs_sum_norm_blockwise_path():
    rng = np.random.default_rng(14)
    e = random_correction(rng, 3000, 1200, 2)
    want = np.abs(np.asarray(e.u) @ np.asarray(e.v).T).sum()
    assert abs_sum_norm(e) == pytest.approx(want, rel=1e-11)


def test_hankel_product_unit():
    z = LaurentSymbol([1.0], 1)
    h = hankel_product(z, z)
    assert np.abs(dense_correction_oracle(h, 2, 2)
                  - np.array([[1.0, 0], [0, 0]])).max() == 0.0


def test_hankel_product_zero():
    assert hankel_product(LaurentSymbol.zero(), LaurentSymbol([1.0], 1)).is_zero


def test_hankel_product_random_vs_dense():
    rng = np.random.default_rng(15)
    for _ in range(10):
        am = LaurentSymbol(rng.standard_normal(4)
                           + 1j * rng.standard_normal(4), 1)
        bp = LaurentSymbol(rng.standard_normal(6)
                           + 1j * rng.standard_normal(6), 1)
        got = hankel_product(am, bp)
        size = 12
        want = dense_hankel_minus(am, size) @ dense_hankel_plus(bp, size)
        assert np.abs(dense_correction_oracle(got, size, size) - want).max() \
            < 1e-12
        assert got.rank <= min(am.max_deg, bp.max_deg)


def test_hankel_product_clip_matches_truncated_dense():
    rng = np.random.default_rng(16)
    am = LaurentSymbol(rng.standard_normal(7), 1)
    bp = LaurentSymbol(rng.standard_normal(5), 1)
    clip = 4
    got = hankel_product(am, bp, clip=clip)
    hm = dense_hankel_minus(am, clip)
    hp = dense_hankel_plus(bp, clip)
    assert np.abs(dense_correction_oracle(got, clip, clip) - hm @ hp).max() \
        < 1e-13


def test_hankel_product_requires_one_sided():
    with pytest.raises(ValueError):
        hankel_product(LaurentSymbol([1.0], 0), LaurentSymbol([1.0], 1))


def test_toeplitz_times_factor_vs_dense():
    rng = np.random.default_rng(17)
    for _ in range(10):
        sym = random_symbol(rng)
        p, r = 7, 3
        u = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
        got = toeplitz_times_factor(sym, u)
        rows = p + sym.n_minus
        big = rows + sym.support_len
        dense = dense_toeplitz_oracle(sym, big)
        upad = np.zeros((big, r), dtype=complex)
        upad[:p] = u
        want = (dense @ upad)[:rows]
        assert np.abs(got - want).max() < 1e-12


def test_corr_toeplitz_products_vs_dense():
    rng = np.random.default_rng(18)
    for _ in range(10):
        sym = random_symbol(rng)
        e = random_correction(rng, 6, 5, 2)
        n = 24
        dense_t = dense_toeplitz_oracle(sym, n)
        dense_e = dense_correction_oracle(e, n, n)
        got = Correction(toeplitz_times_factor(sym, e.u), e.v)
        assert np.abs(dense_correction_oracle(got, n, n)
                      - dense_t @ dense_e).max() < 1e-12
        got2 = Correction(e.u, toeplitz_times_factor(sym_reverse(sym), e.v))
        assert np.abs(dense_correction_oracle(got2, n, n)
                      - dense_e @ dense_t).max() < 1e-12


def test_corr_times_corr_vs_dense():
    rng = np.random.default_rng(19)
    e1 = random_correction(rng, 6, 4, 2)
    e2 = random_correction(rng, 7, 5, 3)
    got = corr_times_corr(e1, e2)
    n = 8
    want = dense_correction_oracle(e1, n, n) @ dense_correction_oracle(e2, n, n)
    assert np.abs(dense_correction_oracle(got, n, n) - want).max() < 1e-12


# Exponent ranges of symbols with only negative, only positive and both
# kinds of exponent.
_EXPONENTS = {"negative": (-8, -1), "positive": (1, 8), "both": (-7, 6)}


def _product_factors(rng, kind, real):
    """A symbol of the given exponent kind and a correction, real or not."""
    lo, hi = _EXPONENTS[kind]
    coeffs = rng.standard_normal(hi - lo + 1)
    if real:
        p, q, r = rng.integers(1, 7, size=3)
        corr = Correction(rng.standard_normal((p, r)),
                          rng.standard_normal((q, r)))
    else:
        coeffs = coeffs + 1j * rng.standard_normal(hi - lo + 1)
        corr = random_correction(rng, *rng.integers(1, 7, size=3))
    return LaurentSymbol(coeffs, lo), corr


def _product_oracle(a, e, b, f, n):
    """Leading n x n section of (T(a) + E)(T(b) + F) - T(ab).

    The inner dimension 2n covers every band and correction of the tests.
    """
    left = dense_toeplitz_oracle(a, 2 * n) \
        + dense_correction_oracle(e, 2 * n, 2 * n)
    right = dense_toeplitz_oracle(b, 2 * n) \
        + dense_correction_oracle(f, 2 * n, 2 * n)
    return (left @ right)[:n, :n] \
        - dense_toeplitz_oracle(dict_to_symbol(convolve_oracle(a, b)), n)


def _finite_product_oracle(a, e, b, f, m):
    """(T_m(a) + E)(T_m(b) + F) - T_m(ab) without its bottom-right term.

    The product of two m x m Toeplitz sections is
    T_m(ab) - H_m(a^-) H_m(b^+) - J H_m(a^+) H_m(b^-) J (J the flip), so
    the last term, which belongs to the bottom-right corner, is added back.
    """
    def hankel(sym, sign):
        return np.array([[sym.coeff(sign * (i + j + 1)) for j in range(m)]
                         for i in range(m)], dtype=complex)

    left = dense_toeplitz_oracle(a, m) + dense_correction_oracle(e, m, m)
    right = dense_toeplitz_oracle(b, m) + dense_correction_oracle(f, m, m)
    flipped = hankel(a, 1) @ hankel(b, -1)
    return left @ right \
        - dense_toeplitz_oracle(dict_to_symbol(convolve_oracle(a, b)), m) \
        + flipped[::-1, ::-1]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("kinds", [("negative", "positive"),
                                   ("positive", "negative"),
                                   ("negative", "negative"),
                                   ("positive", "positive"),
                                   ("both", "both")])
def test_corr_product_vs_dense_sections(kinds, real):
    rng = np.random.default_rng(23)
    a, e = _product_factors(rng, kinds[0], real)
    b, f = _product_factors(rng, kinds[1], real)
    # As in an m x m matrix, the symbols fit in its band and E and F in its
    # corner; the Toeplitz terms T(a) F and E T(b) reach past the cap.
    n, m = 24, 9
    for ee in (Correction.zero(), e):
        for ff in (Correction.zero(), f):
            got = corr_product(a, ee, b, ff)
            assert got.p <= n and got.q <= n
            assert np.abs(dense_correction_oracle(got, n, n)
                          - _product_oracle(a, ee, b, ff, n)).max() < 1e-12
            got = corr_product(a, ee, b, ff, m)
            assert got.p <= m and got.q <= m
            assert np.abs(dense_correction_oracle(got, m, m)
                          - _finite_product_oracle(a, ee, b, ff, m)
                          ).max() < 1e-12


@pytest.mark.parametrize("cap", [None, 9], ids=["semi", "capped"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_corr_product_counts_the_rank_of_f_once(real, cap):
    # T(a) F and E F share the right factor of F, so they are one pair:
    # the product has rank r_H + r_F + r_E, not r_H + 2 r_F + r_E.
    rng = np.random.default_rng(34)
    for _ in range(5):
        a, e = _product_factors(rng, "both", real)
        b, f = _product_factors(rng, "both", real)
        r_h = hankel_product(sym_split(a)[0], sym_split(b)[2], cap).rank
        got = corr_product(a, e, b, f, cap)
        assert got.rank == r_h + f.rank + e.rank
        assert got.u.dtype == (np.float64 if real else np.complex128)


def _counted_corr_add(monkeypatch):
    """The list of corr_add calls, counted through every qtmat binding."""
    calls = []
    corr_add = qtmat.correction.corr_add

    def counted(*args, **kwargs):
        calls.append(args)
        return corr_add(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qtmat" and getattr(
                module, "corr_add", None) is corr_add:
            monkeypatch.setattr(module, "corr_add", counted)
    return calls


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_every_product_writes_its_correction_in_one_pass(monkeypatch, real):
    # corr_product stacks its three pairs at once, so no product adds
    # corrections: not cqt_mul, not fqt_mul while its corners stay apart,
    # not power_corrections.
    rng = np.random.default_rng(35)
    a, e = _product_factors(rng, "both", real)
    b, f = _product_factors(rng, "both", real)
    a, b = sym_scale(a, 0.2), sym_scale(b, 0.2)
    calls = _counted_corr_add(monkeypatch)

    n = 24
    got = finite_section(cqt_mul(CqtMatrix(a, e), CqtMatrix(b, f)), n)
    want = (dense_cqt_oracle(CqtMatrix(a, e), 2 * n)
            @ dense_cqt_oracle(CqtMatrix(b, f), 2 * n))[:n, :n]
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    fa = FiniteQtMatrix(200, a, e, f)
    fb = FiniteQtMatrix(200, b, f, e)
    got = fqt_to_dense(fqt_mul(fa, fb))
    want = dense_fqt_oracle(fa) @ dense_fqt_oracle(fb)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    powers = power_corrections(a, e, 5)
    big = n + 6 * (a.support_len + e.p + e.q)
    dense_a = dense_cqt_oracle(CqtMatrix(a, e), big)
    dense_pow = np.eye(big)
    apow = LaurentSymbol.one()
    for d in powers[1:]:
        dense_pow = dense_pow @ dense_a
        apow = sym_mul(apow, a)
        want = dense_pow[:n, :n] - dense_toeplitz_oracle(apow, n)
        assert np.abs(dense_correction_oracle(d, n, n) - want).max() \
            <= 1e-12 * max(1.0, np.abs(dense_pow[:n, :n]).max())
    assert calls == []


def test_from_dense_round_trip():
    rng = np.random.default_rng(20)
    block = rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
    e = Correction.from_dense(block, 1e-14)
    assert np.abs(dense_correction_oracle(e, 9, 6) - block).max() < 1e-12
    assert Correction.from_dense(np.zeros((4, 4)), 1e-14).is_zero


def test_compress_rank_never_exceeds_dimensions():
    rng = np.random.default_rng(21)
    for _ in range(10):
        e = random_correction(rng, 12, 9, 6)
        wide = corr_add(corr_add(e, random_correction(rng, 3, 20, 5)),
                        random_correction(rng, 20, 2, 4))
        c = corr_compress(wide, 1e-13)
        assert c.rank <= min(c.p, c.q)
        assert np.abs(dense_correction_oracle(c, 20, 20)
                      - dense_correction_oracle(wide, 20, 20)).max() < 1e-11


def test_dtype_follows_the_inputs():
    rng = np.random.default_rng(22)
    real = Correction(rng.standard_normal((5, 2)), rng.standard_normal((4, 2)))
    assert real.u.dtype == real.v.dtype == np.float64
    cplx = random_correction(rng, 5, 4, 2)
    assert cplx.u.dtype == cplx.v.dtype == np.complex128
    # A complex factor with zero imaginary parts stays complex.
    stored = Correction(real.u.astype(complex), real.v)
    assert stored.u.dtype == stored.v.dtype == np.complex128
    assert Correction.rank_one([1.0, 2.0], [3.0]).u.dtype == np.float64
    twice = corr_add(real, real.scaled(0.5), -2.0)
    assert twice.u.dtype == np.float64
    assert corr_compress(twice, 1e-14).u.dtype == np.float64


def test_toeplitz_kernels_follow_the_operands_dtype():
    rng = np.random.default_rng(24)
    real_sym = LaurentSymbol(rng.standard_normal(7), -3)
    cplx_sym = LaurentSymbol(real_sym.coeffs + 0j, -3)
    factor = rng.standard_normal((6, 2))
    for sym, f, dtype in ((real_sym, factor, np.float64),
                          (cplx_sym, factor, np.complex128),
                          (real_sym, factor + 0j, np.complex128)):
        got = toeplitz_times_factor(sym, f)
        assert got.dtype == dtype
        assert np.abs(got - dense_toeplitz_oracle(sym, 9)[:, :6] @ f).max() \
            < 1e-14
    minus, _, plus = sym_split(real_sym)
    assert hankel_product(minus, plus).u.dtype == np.float64
    assert hankel_product(minus, sym_split(cplx_sym)[2]).u.dtype \
        == np.complex128
    e = Correction(rng.standard_normal((4, 2)), rng.standard_normal((3, 2)))
    assert e.materialize(5, 5).dtype == np.float64
    assert corr_product(real_sym, e, real_sym, e).u.dtype == np.float64


def test_built_values_are_refused_where_they_turn_non_finite():
    # Values made inside the package skip the finiteness scan of the
    # public constructor; compression still refuses a non-finite core.
    bad = Correction._owned(np.array([[np.inf], [1.0]]), np.ones((2, 1)))
    with pytest.raises(ValueError):
        corr_compress(bad, 1e-14)
    with pytest.raises(ValueError):
        Correction.from_dense(np.array([[1.0, np.nan]]), 1e-14)
    with pytest.raises(ValueError):
        Correction(np.array([[np.nan]]), np.ones((1, 1)))


def test_real_plus_complex_scaled_is_complex_without_warning():
    rng = np.random.default_rng(23)
    real = Correction(rng.standard_normal((5, 2)), rng.standard_normal((4, 2)))
    other = Correction(rng.standard_normal((3, 1)), rng.standard_normal((6, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        got = corr_add(real, other, 0.5 - 2j)
        also = corr_add(real, random_correction(rng, 2, 2, 1))
    assert got.u.dtype == got.v.dtype == np.complex128
    assert also.u.dtype == np.complex128
    want = (dense_correction_oracle(real, 6, 6)
            + (0.5 - 2j) * dense_correction_oracle(other, 6, 6))
    assert np.abs(dense_correction_oracle(got, 6, 6) - want).max() < 1e-14


def _kept_length_loop(masses, budget):
    n, spent = masses.size, 0.0
    while n > 0 and spent + masses[n - 1] <= budget:
        spent += masses[n - 1]
        n -= 1
    return n


def _kept_rank_loop(s, p, q, budget):
    rel = s[::-1] / s[0]
    tail = s[0] * np.sqrt(np.cumsum(rel * rel))[::-1]
    k = s.size
    while k > 0 and np.sqrt(p * q) * tail[k - 1] <= budget:
        k -= 1
    return k


def test_trim_and_rank_cuts_equal_the_loops_they_replace():
    rng = np.random.default_rng(25)
    for trial in range(3000):
        n = int(rng.integers(1, 40))
        masses = 10.0 ** rng.uniform(-18, 0, n)
        masses[rng.uniform(size=n) < 0.2] = 0.0
        budget = 10.0 ** rng.uniform(-17, 0)
        if trial % 4 == 0:  # a budget exactly at a partial tail sum
            budget = float(np.cumsum(masses[::-1])[n // 2])
        assert _kept_length(masses, budget) == _kept_length_loop(masses,
                                                                  budget)
        s = np.sort(10.0 ** rng.uniform(-18, 2, n))[::-1]
        if trial % 3 == 0:
            s[max(1, n // 2):] = 0.0
        p, q = (int(x) for x in rng.integers(1, 200, 2))
        budget = 10.0 ** rng.uniform(-16, 0) * s[0]
        if trial % 4 == 1:  # a budget exactly at a scaled tail norm
            rel = s[::-1] / s[0]
            tail = s[0] * np.sqrt(np.cumsum(rel * rel))[::-1]
            budget = float(np.sqrt(p * q) * tail[n // 2])
        assert _kept_rank(s, p, q, budget) == _kept_rank_loop(s, p, q,
                                                              budget)


def _block_of_rank(rng, p, q, rank, rate, decay, complex_):
    """p x q block of exact rank with singular values rate^i.

    ``decay`` < 1 also damps row i and column j by decay^(i + j), as in an
    inverse corner, so trailing rows and columns get trimmed.
    """
    def basis(n):
        x = rng.standard_normal((n, rank))
        if complex_:
            x = x + 1j * rng.standard_normal((n, rank))
        return np.linalg.qr(x)[0] if rank else x
    block = (basis(p) * rate ** np.arange(rank)) @ basis(q).T
    return block * np.outer(decay ** np.arange(p), decay ** np.arange(q))


def test_from_dense_stays_within_half_the_budget():
    rng = np.random.default_rng(13)
    # Above rounding: at tol 1e-14 the rounding of a dense 40 x 40 factoring
    # alone is about the size of the bound.
    for tol in (1e-12, 1e-9):
        for p, q in ((40, 40), (80, 70), (25, 90)):
            for rank in range(min(p, q) + 1):
                for rate, decay in ((1.0, 1.0), (0.5, 1.0), (0.8, 0.9)):
                    block = _block_of_rank(rng, p, q, rank, rate, decay,
                                           complex_=rank % 2 == 1)
                    c = Correction.from_dense(block, tol)
                    budget = tol * max(1.0, np.abs(block).sum())
                    err = block.astype(complex)
                    err[:c.p, :c.q] -= c.materialize()
                    # Trim plus factoring, and the factoring alone.
                    assert np.abs(err).sum() <= budget
                    assert np.abs(err[:c.p, :c.q]).sum() <= budget / 2
                    assert c.rank <= rank


def test_construction_copies_caller_arrays_only():
    u = np.ones((3, 1))
    v = np.arange(2.0).reshape(2, 1)
    for c in (Correction(u, v), Correction.rank_one(u[:, 0], v[:, 0])):
        assert not np.shares_memory(c.u, u) and not np.shares_memory(c.v, v)
        assert u.flags.writeable and v.flags.writeable
    c = Correction(u, v)
    # Results built from fresh arrays are frozen like any other, and still
    # checked for finite entries.
    for out in (c.scaled(2.0), c.scaled(1j),
                corr_add(c, c, 0.5), corr_compress(corr_add(c, c), 1e-14)):
        assert not (out.u.flags.writeable or out.v.flags.writeable)
    with pytest.raises(ValueError):
        c.scaled(np.inf)
    with pytest.raises(ValueError):
        corr_add(c, c, np.nan)


def _factors(rng, p, q, r, complex_):
    """Seeded p x r and q x r factors whose columns decay by 0.3 each."""
    u = rng.standard_normal((p, r)) * 0.3 ** np.arange(r)
    v = rng.standard_normal((q, r))
    if complex_:
        u = u + 1j * rng.standard_normal((p, r)) * 0.3 ** np.arange(r)
        v = v + 1j * rng.standard_normal((q, r))
    return u, v


def _assert_compressed(u, v, c, tol):
    """corr_compress's invariants for c = corr_compress(Correction(u, v))."""
    dense = u @ v.T
    scale = np.linalg.norm(dense, 2) if dense.size else 0.0
    err = dense.astype(complex)
    assert c.p <= err.shape[0] and c.q <= err.shape[1]
    if not c.is_zero:
        err[:c.p, :c.q] -= c.u @ c.v.T
    # The certified entrywise budget, plus rounding of the dense products.
    assert np.abs(err).sum() <= (tol * max(1.0, scale)
                                 + 1e-13 * np.abs(dense).sum())
    assert c.rank <= min(c.p, c.q)
    if u.dtype == v.dtype == np.float64:
        assert c.u.dtype == c.v.dtype == np.float64


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("p, q, r", [(5, 9, 14), (11, 6, 17), (10, 8, 4),
                                     (7, 7, 7), (1, 6, 4), (6, 1, 4)])
def test_corr_compress_invariants(p, q, r, complex_):
    rng = np.random.default_rng(100 * p + 10 * q + r)
    for tol in (0.0, 1e-10, 1e-4):
        u, v = _factors(rng, p, q, r, complex_)
        _assert_compressed(u, v, corr_compress(Correction(u, v), tol), tol)


@pytest.mark.parametrize("complex_", [False, True])
def test_corr_compress_invariants_on_degenerate_input(complex_):
    rng = np.random.default_rng(31)
    u, v = _factors(rng, 6, 9, 3, complex_)
    cases = [
        (np.hstack([u, u, u, u]), np.hstack([v, v, v, v])),  # rank 3 of 12
        (np.zeros((6, 12)), v[:, :1] @ np.ones((1, 12))),  # a zero factor
        (u[:0], v), (u, v[:0]), (u[:, :0], v[:, :0]),  # zero shapes
    ]
    for uu, vv in cases:
        for tol in (0.0, 1e-10):
            c = corr_compress(Correction(uu, vv), tol)
            _assert_compressed(uu, vv, c, tol)
            assert c.rank <= 3
    # Rounding noise is not kept as rank, not even at tol 0.
    assert corr_compress(Correction(*cases[0]), 0.0).rank == 3
    assert corr_compress(Correction(*cases[1]), 0.0).is_zero


_FLOOR = ROUNDING_ULPS * np.finfo(np.float64).eps


@pytest.mark.parametrize("complex_", [False, True])
def test_compression_drops_a_rounding_plateau(complex_):
    # A 90 x 90 block: 20 singular values from 1 down to 1e-3, then 70 at
    # 1e-16 of the largest.  The budget rule alone keeps the plateau, whose
    # certified sum sqrt(pq) ||tail|| reads about 7.5e-14; the floor drops
    # it at any tol.
    rng = np.random.default_rng(41)
    s = np.concatenate([np.logspace(0, -3, 20), np.full(70, 1e-16)])
    x = rng.standard_normal((90, 180))
    if complex_:
        x = x + 1j * rng.standard_normal((90, 180))
    u = np.linalg.qr(x[:, :90])[0] * s
    v = np.linalg.qr(x[:, 90:])[0]
    for tol in (0.0, 1e-14):
        assert corr_compress(Correction(u, v), tol).rank == 20
    assert Correction.from_dense(u @ v.T, 0.0).rank == 20


@pytest.mark.parametrize("above, kept", [(1.01, 2), (1.0, 1), (0.5, 1)])
def test_compression_keeps_values_just_above_the_floor(above, kept):
    # Diagonal factors, so the QR and the SVD give the values exactly: one
    # a hair above ROUNDING_ULPS eps s_0 is kept, one at it is dropped.
    s = np.array([1.0, above * _FLOOR])
    u = np.zeros((12, 2))
    u[[0, 1], [0, 1]] = s
    v = np.eye(12)[:, :2]
    assert corr_compress(Correction(u, v), 0.0).rank == kept
    assert Correction.from_dense(u @ v.T, 0.0).rank == kept


def _trimmed_below_rank(rng, p, q, complex_):
    """Factors whose compression is trimmed to a side shorter than its rank.

    The short side has 3 lines.  Two dense ones span the long side but for
    its middle entry; the third holds one spike there, of tol / 8 times the
    leading singular value, which the rank cut keeps and the trim drops as
    trailing mass.
    """
    tol = 1e-6
    u, v = _factors(rng, 2, max(p, q), 2, complex_)
    short = np.zeros((3, 3), dtype=u.dtype)
    short[:2, :2] = u
    short[2, 2] = tol * np.linalg.norm(u @ v.T, 2) / 8
    long_ = np.zeros((max(p, q), 3), dtype=u.dtype)
    long_[:, :2] = v
    long_[max(p, q) // 2] = (0.0, 0.0, 1.0)
    u, v = (short, long_) if p <= q else (long_, short)
    # Each column twice, halved on one side: the same block at rank 6, so
    # the rank also starts above min(p, q).
    return np.hstack([u, u]) / 2, np.hstack([v, v]), tol


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("p, q", [(3, 30), (30, 3)])
def test_corr_compress_refactors_after_the_trim(p, q, complex_):
    # The trim leaves rank 3 on a short side of 2; the exact refactor that
    # follows stores that side as an identity in the factors' dtype and
    # brings the rank down to 2.
    u, v, tol = _trimmed_below_rank(np.random.default_rng(32), p, q,
                                    complex_)
    c = corr_compress(Correction(u, v), tol)
    _assert_compressed(u, v, c, tol)
    short = c.u if c.p <= c.q else c.v
    assert min(c.p, c.q) == c.rank == 2
    assert short.dtype == c.u.dtype
    assert np.array_equal(short, np.eye(min(c.p, c.q)))


@pytest.mark.parametrize("trimmed", [False, True])
@pytest.mark.parametrize("p, q, r", [(5, 9, 14), (11, 6, 17), (3, 30, 8),
                                     (30, 3, 8)])
def test_corr_compress_runs_one_qr_on_the_long_side(monkeypatch, p, q, r,
                                                     trimmed):
    calls = {"qr": [], "svd": []}
    for name in calls:
        def recording(a, *args, _name=name, _orig=getattr(np.linalg, name),
                      **kwargs):
            calls[_name].append(a.shape)
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    rng = np.random.default_rng(33)
    tol = 1e-10
    if trimmed and min(p, q) == 3:
        u, v, tol = _trimmed_below_rank(rng, p, q, complex_=True)
    else:
        u, v = _factors(rng, p, q, r, complex_=True)
    assert u.shape[1] > min(p, q)
    c = corr_compress(Correction(u, v), tol)
    _assert_compressed(u, v, c, tol)
    # One QR, of the long side's refactored factor (never of the identity),
    # one SVD of its min(p, q) square triangle, and no second pass.
    assert calls["qr"] == [(max(p, q), min(p, q))]
    assert calls["svd"] == [(min(p, q), min(p, q))]
