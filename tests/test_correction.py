"""Factored corrections against dense materialization oracles."""

import warnings

import numpy as np
import pytest

from qtmat import (
    Correction,
    LaurentSymbol,
    abs_sum_norm,
    corr_add,
    corr_compress,
    hankel_product,
)
from qtmat.correction import (
    corr_times_corr,
    corr_times_toeplitz,
    toeplitz_times_corr,
    toeplitz_times_factor,
)

from tests.support import (
    dense_correction_oracle,
    dense_hankel_minus,
    dense_hankel_plus,
    dense_toeplitz_oracle,
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


def test_real_part_is_exact_and_uncompressed():
    rng = np.random.default_rng(14)
    e = random_correction(rng, 7, 5, 2)
    re = e.real_part()
    assert re.is_real and not e.is_real
    assert re.rank == 2 * e.rank
    want = dense_correction_oracle(e, 7, 5).real
    assert np.abs(dense_correction_oracle(re, 7, 5) - want).max() < 1e-14
    half = Correction(e.u.real, e.v)  # Im u Im v^T vanishes: rank kept
    assert half.real_part().rank == e.rank


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
        got = toeplitz_times_corr(sym, e)
        assert np.abs(dense_correction_oracle(got, n, n)
                      - dense_t @ dense_e).max() < 1e-12
        got2 = corr_times_toeplitz(e, sym)
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
