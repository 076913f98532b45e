"""Laurent symbol arithmetic against scalar-loop and convolution oracles."""

import time

import numpy as np
import pytest

from qtmat import (
    LaurentSymbol,
    NoConvergenceError,
    NonzeroWindingError,
    ZeroOnCircleError,
    sym_add,
    sym_mul,
    sym_reciprocal,
    sym_scale,
    sym_split,
    sym_truncate,
    wiener_norms,
    winding_number,
)
from qtmat.config import DEFAULT_CONFIG, MIRROR_ULPS
from qtmat.oracles import _laplacian_power
from qtmat.symbol import (
    norm_w,
    sym_inverse_factors,
    range_samples,
    sym_eval,
    sym_reverse,
    sym_sub,
)

from tests.support import (
    convolve_oracle,
    dict_to_symbol,
    random_invertible_symbol,
    random_symbol,
    symbol_to_dict,
)


def test_canonical_trim():
    s = LaurentSymbol([0.0, 0.0, 1.0, 2.0, 0.0], -3)
    assert s.min_deg == -1
    assert s.coeffs.size == 2
    assert LaurentSymbol([0.0, 0.0]).is_zero
    assert LaurentSymbol.zero().min_deg == 0


def test_coeff_lookup():
    s = LaurentSymbol([3.0, 2.0, 1.0], -1)
    assert s.coeff(-1) == 3.0
    assert s.coeff(0) == 2.0
    assert s.coeff(1) == 1.0
    assert s.coeff(5) == 0.0
    assert s.n_minus == 1
    assert s.n_plus == 1


def test_wiener_norms_simple():
    a = LaurentSymbol([1.0, 2.0, 1.0], -1)  # 2 + z + z^{-1}
    assert wiener_norms(a) == (4.0, 2.0)


def test_wiener_norms_zero():
    assert wiener_norms(LaurentSymbol.zero()) == (0.0, 0.0)


def test_wiener_norms_random_vs_loop():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    a = LaurentSymbol(coeffs, -10)
    nw = sum(abs(a.coeff(k)) for k in range(-10, 11))
    nw1 = sum(abs(k * a.coeff(k)) for k in range(-10, 11))
    got_w, got_w1 = wiener_norms(a)
    assert got_w == pytest.approx(nw, rel=1e-14)
    assert got_w1 == pytest.approx(nw1, rel=1e-14)


def test_sym_mul_simple():
    one_plus = LaurentSymbol([1.0, 1.0])
    one_minus = LaurentSymbol([1.0, -1.0])
    prod = sym_mul(one_plus, one_minus)
    assert symbol_to_dict(prod) == {0: 1.0 + 0j, 2: -1.0 + 0j}

    z = LaurentSymbol([1.0], 1)
    zinv = LaurentSymbol([1.0], -1)
    assert symbol_to_dict(sym_mul(z, zinv)) == {0: 1.0 + 0j}


def test_sym_mul_random_vs_convolution():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = random_symbol(rng)
        b = random_symbol(rng)
        want = convolve_oracle(a, b)
        got = symbol_to_dict(sym_mul(a, b))
        for k in set(want) | set(got):
            assert got.get(k, 0.0) == pytest.approx(want.get(k, 0.0),
                                                    abs=1e-12)


def test_sym_mul_commutative_associative():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b, c = (random_symbol(rng) for _ in range(3))
        ab = sym_mul(a, b)
        ba = sym_mul(b, a)
        scale = max(1.0, norm_w(ab))
        assert norm_w(sym_sub(ab, ba)) <= 1e-12 * scale
        abc1 = sym_mul(sym_mul(a, b), c)
        abc2 = sym_mul(a, sym_mul(b, c))
        scale = max(1.0, norm_w(abc1))
        assert norm_w(sym_sub(abc1, abc2)) <= 1e-12 * scale


def test_sym_mul_wiener_submultiplicative():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = random_symbol(rng)
        b = random_symbol(rng)
        assert norm_w(sym_mul(a, b)) <= norm_w(a) * norm_w(b) * (1 + 1e-12)


def test_sym_reciprocal_constant():
    b = sym_reciprocal(LaurentSymbol.constant(2.0), 1e-12)
    assert symbol_to_dict(b) == {0: 0.5 + 0j}


def test_sym_reciprocal_geometric():
    a = LaurentSymbol([1.0, -0.5])  # 1 - 0.5 z
    tol = 1e-12
    b = sym_reciprocal(a, tol)
    for k in range(0, 20):
        assert b.coeff(k) == pytest.approx(0.5 ** k, abs=1e-10)
    assert norm_w(sym_sub(sym_mul(a, b), LaurentSymbol.one())) <= tol


def test_sym_reciprocal_winding_error():
    with pytest.raises(NonzeroWindingError):
        sym_reciprocal(LaurentSymbol([1.0], 1), 1e-10)


def test_sym_reciprocal_zero_on_circle():
    with pytest.raises(ZeroOnCircleError):
        sym_reciprocal(LaurentSymbol([1.0, -1.0]), 1e-10)  # 1 - z


@pytest.mark.parametrize("mid", [2.15 + 0.05j, 2.08 + 0.05j])
def test_sym_reciprocal_gives_up_once_rounding_takes_over(mid):
    # The residual bottoms out near 1e-14 at a grid of 256 and then grows
    # with the grid; the search stops there instead of at 2^22.
    start = time.perf_counter()
    with pytest.raises(NoConvergenceError,
                       match=r"stopped decreasing at [12]\.\d\de-14, above "
                             r"tolerance 1\.00e-14"):
        sym_reciprocal(LaurentSymbol([1.0, mid, 1.0], -1), 1e-14)
    assert time.perf_counter() - start < 0.1


def test_sym_reciprocal_rides_out_a_residual_that_rises_early():
    # The residual goes 1.47, 0.95, 1.58, 0.72, ... and certifies on a grid
    # of 4096; the rise at 64 is not rounding and must not stop the search.
    a = LaurentSymbol([-2.707 + 2.598j, -0.693 - 2.588j, 0.688 + 1.437j,
                       8.009 + 1.557j], -3)
    b = sym_reciprocal(a, 1e-9)
    assert norm_w(sym_sub(sym_mul(a, b), LaurentSymbol.one())) <= 1e-9


def test_sym_reciprocal_random_property():
    rng = np.random.default_rng(19)
    for _ in range(15):
        a = random_invertible_symbol(rng)
        tol = 1e-11
        b = sym_reciprocal(a, tol)
        assert norm_w(sym_sub(sym_mul(a, b), LaurentSymbol.one())) <= tol


def test_inverse_factors_are_one_sided_and_invert_the_symbol():
    # The residual stays within the budgets: tol / 2 for the grid, and
    # tol / 10 of its own norm for each factor's truncation, which a times
    # the other factor can amplify by at most ||a||_W times that factor's.
    rng = np.random.default_rng(29)
    tol = 1e-13
    for _ in range(15):
        a = random_invertible_symbol(rng)
        b_minus, b_plus = sym_inverse_factors(a, tol)
        assert b_minus.max_deg == 0 and b_minus.coeff(0) == pytest.approx(1.0)
        assert b_plus.min_deg == 0
        b = sym_mul(b_minus, b_plus)
        budget = tol / 2 + 2 * tol / 10 * norm_w(a) * max(
            1.0, norm_w(b_minus)) * max(1.0, norm_w(b_plus))
        assert norm_w(sym_sub(sym_mul(a, b), LaurentSymbol.one())) <= budget


def test_inverse_factors_stop_where_rounding_holds_the_grid():
    # 0.81 - (0.5 / z + 0.3 z) comes within 0.01 of zero on the circle; its
    # log coefficients stop falling near 6e-14, above tol.
    start = time.perf_counter()
    with pytest.raises(NoConvergenceError, match="stopped falling"):
        sym_inverse_factors(LaurentSymbol([-0.5, 0.81, -0.3], -1), 1e-14)
    assert time.perf_counter() - start < 0.1


def test_winding_simple():
    assert winding_number(LaurentSymbol([1.0], 1)) == 1
    assert winding_number(LaurentSymbol([2.0, 1.0])) == 0
    assert winding_number(LaurentSymbol([1.0, 0.1], -2)) == -2


def test_winding_zero_symbol():
    with pytest.raises(ZeroOnCircleError):
        winding_number(LaurentSymbol.zero())


def test_winding_additive_on_products():
    rng = np.random.default_rng(23)
    for _ in range(10):
        shift_a = int(rng.integers(-3, 4))
        shift_b = int(rng.integers(-3, 4))
        a = sym_mul(random_invertible_symbol(rng),
                    LaurentSymbol([1.0], shift_a))
        b = sym_mul(random_invertible_symbol(rng),
                    LaurentSymbol([1.0], shift_b))
        assert winding_number(a) == shift_a
        assert winding_number(b) == shift_b
        assert winding_number(sym_mul(a, b)) == shift_a + shift_b


def test_sym_truncate_tiny_ends():
    a = LaurentSymbol([1e-20, 1.0, 1e-20], -1)
    t = sym_truncate(a, 1e-12)
    assert symbol_to_dict(t) == {0: 1.0 + 0j}


def test_sym_truncate_zero_tol_identity():
    a = LaurentSymbol([1e-20, 1.0, 1e-20], -1)
    t = sym_truncate(a, 0.0)
    assert t is a


def test_sym_truncate_mass_bound():
    rng = np.random.default_rng(29)
    coeffs = 0.5 ** np.arange(40)
    a = LaurentSymbol(coeffs)
    for tol in (1e-10, 1e-6, 1e-3):
        t = sym_truncate(a, tol)
        dropped = norm_w(sym_sub(a, t))
        assert dropped <= tol * max(1.0, norm_w(a))
    del rng


def _greedy_truncate(a, tol):
    """The two-ended greedy of ``sym_truncate``, one step at a time.

    The smaller end goes.  Ends within MIRROR_ULPS ulps of the larger one
    tie, and go together or not at all.
    """
    budget = tol * max(1.0, norm_w(a))
    mags = np.abs(a.coeffs)
    lo, hi = 0, a.coeffs.size - 1
    spent = 0.0
    while lo <= hi:
        tie = abs(mags[lo] - mags[hi]) \
            <= MIRROR_ULPS * np.finfo(float).eps * max(mags[lo], mags[hi])
        if lo < hi and tie:
            total, step = spent + mags[lo] + mags[hi], (1, 1)
        elif mags[lo] <= mags[hi]:
            total, step = spent + mags[lo], (1, 0)
        else:
            total, step = spent + mags[hi], (0, 1)
        if total > budget:
            break
        spent = total
        lo, hi = lo + step[0], hi - step[1]
    return lo, hi


def test_sym_truncate_matches_the_greedy_loop():
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(300):
        n = int(rng.integers(1, 40))
        c = rng.standard_normal(n) * np.exp(rng.uniform(-30, 0, n))
        if rng.uniform() < 0.5:  # ties: a few repeated magnitudes
            c = rng.choice([1e-9, 2e-9, 1e-8, 1.0], size=n)
            c[0] = c[-1] = 1e-9
        if rng.uniform() < 0.3:  # palindromes
            c = np.concatenate((c, c[::-1][int(rng.integers(0, 2)):]))
            if rng.uniform() < 0.5:  # up to rounding: a few ulps apart
                c = c * (1.0 + np.finfo(float).eps
                         * rng.integers(-24, 25, c.size))
        if rng.uniform() < 0.3:
            c = c + 1j * rng.standard_normal(c.size) * np.abs(c)
        cases.append(c)
    cases += [np.ones(7), np.array([1.0, 2.0, 1.0]), np.array([3.0, 1.0, 3.0]),
              np.array([1e-9, 5.0, 1e-9, 1e-9, 1e-9])]
    for c in cases:
        a = LaurentSymbol(c, -3)
        for tol in (1e-16, 1e-12, 1e-9, 1e-6, 0.3, 1.0):
            lo, hi = _greedy_truncate(a, tol)
            t = sym_truncate(a, tol)
            if lo > hi:
                assert t.is_zero
            else:
                assert t.min_deg == a.min_deg + lo
                assert np.array_equal(t.coeffs, a.coeffs[lo:hi + 1])


def test_truncated_powers_of_the_h10_symbol_keep_a_symmetric_support():
    # The symbol of H^10 is a palindrome up to 1-2 ulps of rounding, so its
    # truncated powers must keep as many coefficients on either side.
    a = _laplacian_power(1000).symbol
    power = a
    for _ in range(26):
        power = sym_truncate(sym_mul(power, a), DEFAULT_CONFIG.tol_trunc)
        assert power.min_deg == -power.max_deg


def test_real_symbols_stay_real():
    rng = np.random.default_rng(42)
    a = LaurentSymbol(rng.standard_normal(5), -2)
    b = LaurentSymbol(rng.standard_normal(90), -40)  # FFT product branch
    c = LaurentSymbol(b.coeffs + 0j, b.min_deg)
    assert LaurentSymbol([1, 2]).coeffs.dtype == np.float64
    assert c.coeffs.dtype == np.complex128  # by dtype, not by value
    real = [sym_add(a, b), sym_mul(a, b), sym_mul(b, b), sym_scale(b, -2.0),
            sym_truncate(sym_mul(b, b), 1e-6), sym_reverse(a),
            sym_reciprocal(LaurentSymbol([1.0, -0.5]), 1e-12)]
    real += [x for x in sym_split(a) if isinstance(x, LaurentSymbol)]
    assert all(x.coeffs.dtype == np.float64 for x in real)
    mixed = [sym_add(a, c), sym_mul(a, c), sym_mul(b, c), sym_scale(a, 1j)]
    assert all(x.coeffs.dtype == np.complex128 for x in mixed)
    for got, want in ((sym_mul(b, b), sym_mul(c, c)),
                      (sym_mul(a, b), sym_mul(a, c))):
        assert np.abs(got.coeffs - want.coeffs).max() < 1e-13


def test_inverse_factors_of_a_real_symbol_are_real():
    a = LaurentSymbol([0.3, -0.2, 2.0, 0.5, 0.1], -2)
    b_minus, b_plus = sym_inverse_factors(a, 1e-14)
    assert b_minus.coeffs.dtype == b_plus.coeffs.dtype == np.float64
    c_minus, c_plus = sym_inverse_factors(LaurentSymbol(a.coeffs + 0j, -2),
                                          1e-14)
    assert c_minus.coeffs.dtype == np.complex128
    residual = sym_add(sym_mul(a, sym_mul(b_minus, b_plus)),
                       LaurentSymbol.constant(-1.0))
    assert norm_w(residual) < 1e-13
    assert np.abs(c_plus.coeffs - b_plus.coeffs).max() < 1e-14


def test_sym_split_simple():
    a = dict_to_symbol({-1: 3.0, 0: 2.0, 1: 1.0})
    minus, a0, plus = sym_split(a)
    assert symbol_to_dict(minus) == {1: 3.0 + 0j}
    assert a0 == 2.0
    assert symbol_to_dict(plus) == {1: 1.0 + 0j}

    minus, a0, plus = sym_split(LaurentSymbol.constant(5.0))
    assert minus.is_zero and plus.is_zero
    assert a0 == 5.0


def test_sym_split_recombination_identity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = random_symbol(rng)
        minus, a0, plus = sym_split(a)
        rebuilt = {k: v for k, v in symbol_to_dict(plus).items()}
        for k, v in symbol_to_dict(minus).items():
            rebuilt[-k] = rebuilt.get(-k, 0.0) + v
        if a0 != 0:
            rebuilt[0] = rebuilt.get(0, 0.0) + a0
        assert rebuilt == symbol_to_dict(a)


def test_sym_add_scale_eval():
    a = dict_to_symbol({-2: 1.0, 1: 2.0})
    b = dict_to_symbol({-2: -1.0, 0: 3.0})
    s = sym_add(a, b)
    assert symbol_to_dict(s) == {0: 3.0 + 0j, 1: 2.0 + 0j}
    assert sym_scale(a, 0).is_zero
    z = np.exp(1j * 0.7)
    want = 1.0 * z ** -2 + 2.0 * z
    assert sym_eval(a, z) == pytest.approx(want, rel=1e-13)


def test_sym_reverse():
    a = dict_to_symbol({-2: 1.0, 1: 5.0})
    r = sym_reverse(a)
    assert symbol_to_dict(r) == {2: 1.0 + 0j, -1: 5.0 + 0j}


def test_range_samples_grid():
    # The power of two at or above max(256, 4 x support length), sampled
    # at the unit roots, where sym_eval gives the same values.
    for width, size in ((1, 256), (64, 256), (65, 512), (300, 2048)):
        a = LaurentSymbol(np.linspace(1.0, 2.0, width), -(width // 2))
        vals = range_samples(a)
        assert vals.size == size
        w = np.exp(2j * np.pi * np.arange(size) / size)
        assert np.allclose(vals, sym_eval(a, w), rtol=1e-12, atol=1e-12)
    assert not np.any(range_samples(LaurentSymbol.zero()))
