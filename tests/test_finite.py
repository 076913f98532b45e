"""Finite quasi-Toeplitz algebra against dense m x m oracles."""

import numpy as np
import pytest
import scipy.linalg

from qtmat import (
    DEFAULT_CONFIG,
    CertificateError,
    Correction,
    CqtMatrix,
    FiniteQtMatrix,
    LaurentSymbol,
    SingularMatrixError,
    SizeMismatchError,
    ToleranceConfig,
    cqt_inv,
    cqt_mul,
    fqt_add,
    fqt_from_dense,
    fqt_inv,
    fqt_mul,
    fqt_scale,
    fqt_to_dense,
    toeplitz_section,
)
import qtmat.correction
import qtmat.finite
from qtmat.finite import BandMatrix, fqt_split_norm, mirrored_columns
from qtmat.symbol import sym_reverse
from qtmat.oracles import _laplacian_power

from tests.support import centrosymmetric_fqt, dense_fqt_oracle, random_fqt


def test_to_dense_matches_oracle():
    rng = np.random.default_rng(1)
    for m in (8, 20, 50):
        a = random_fqt(rng, m)
        assert np.abs(fqt_to_dense(a) - dense_fqt_oracle(a)).max() < 1e-13


def test_mul_symmetric_tridiagonal_m6():
    m = 6
    a = FiniteQtMatrix(m, LaurentSymbol([1.0, 0.0, 1.0], -1))
    p = fqt_mul(a, a)
    want = np.zeros((m, m))
    for d, c in ((-2, 1.0), (0, 2.0), (2, 1.0)):
        want += np.diag(np.full(m - abs(d), c), d)
    want[0, 0] -= 1.0
    want[m - 1, m - 1] -= 1.0
    assert np.abs(fqt_to_dense(p) - want).max() < 1e-13
    # single-entry Hankel products in both corners
    assert p.corr_tl.p == 1 and p.corr_tl.q == 1
    assert p.corr_br.p == 1 and p.corr_br.q == 1


def test_mul_identity_shortcut():
    rng = np.random.default_rng(2)
    a = random_fqt(rng, 12)
    assert fqt_mul(a, FiniteQtMatrix.identity(12)) is a
    assert fqt_mul(FiniteQtMatrix.identity(12), a) is a


def test_mul_random_vs_dense():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(12, 51))
        a = random_fqt(rng, m, band=5, corner=8)
        b = random_fqt(rng, m, band=5, corner=8)
        got = fqt_to_dense(fqt_mul(a, b))
        want = dense_fqt_oracle(a) @ dense_fqt_oracle(b)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() < 1e-12 * scale


def _crossing_corner_pairs(a, b):
    """Pairs (top-left of one factor, bottom-right of the other) that meet."""
    return (int(a.corr_tl.q + b.corr_br.p > a.m)
            + int(a.corr_br.q + b.corr_tl.p > a.m))


def test_mul_overlapping_corners_exact():
    # Full-width corners force the cross-corner products to materialize.
    rng = np.random.default_rng(4)
    overlaps = 0
    for _ in range(20):
        m = int(rng.integers(4, 13))
        a = random_fqt(rng, m, band=3, corner=m, rank=3)
        b = random_fqt(rng, m, band=3, corner=m, rank=3)
        a = FiniteQtMatrix(m, a.symbol,
                           Correction(a.corr_tl.u,
                                      rng.standard_normal((m, a.corr_tl.rank))),
                           a.corr_br)
        overlaps += _crossing_corner_pairs(a, b)
        got = fqt_to_dense(fqt_mul(a, b))
        want = dense_fqt_oracle(a) @ dense_fqt_oracle(b)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() < 1e-12 * scale
    assert overlaps >= 20  # every case crosses at least the widened corner


def test_mul_corner_disjointness_for_large_m():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = 120
        a = random_fqt(rng, m, band=4, corner=8)
        b = random_fqt(rng, m, band=4, corner=8)
        p = fqt_mul(a, b)
        assert _crossing_corner_pairs(a, b) == 0
        assert not (p.corr_tl.p + p.corr_br.p > m
                    and p.corr_tl.q + p.corr_br.q > m)
        assert p.corr_tl.p + p.corr_br.p <= m
        assert p.corr_tl.q + p.corr_br.q <= m


def test_mul_corners_are_the_semi_infinite_products_bit_for_bit():
    # One product rule for both classes: with no clip biting and no corners
    # crossing, the top-left corner is the product of the top-left pair
    # and the flipped bottom-right one that of J a J and J b J.
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = random_fqt(rng, 64, band=4, corner=8)
        b = random_fqt(rng, 64, band=4, corner=8)
        got = fqt_mul(a, b)
        assert _crossing_corner_pairs(a, b) == 0
        tl = cqt_mul(CqtMatrix(a.symbol, a.corr_tl),
                     CqtMatrix(b.symbol, b.corr_tl)).corr
        br = cqt_mul(CqtMatrix(sym_reverse(a.symbol), a.corr_br),
                     CqtMatrix(sym_reverse(b.symbol), b.corr_br)).corr
        for corner, want in ((got.corr_tl, tl), (got.corr_br, br)):
            assert np.array_equal(corner.u, want.u)
            assert np.array_equal(corner.v, want.v)


def test_mul_preserves_symmetry():
    rng = np.random.default_rng(6)
    m = 30
    band = rng.standard_normal(3)
    band[0] = band[2]  # symmetric symbol
    corner = rng.standard_normal((4, 2))
    sym_corr = Correction(corner, corner)  # symmetric corner block
    a = FiniteQtMatrix(m, LaurentSymbol(band, -1), sym_corr, sym_corr)
    p = fqt_mul(a, a)
    dense = fqt_to_dense(p)
    assert np.abs(dense - dense.T).max() < 1e-12
    tl = p.corr_tl.materialize()
    br = p.corr_br.materialize()
    pad = max(tl.shape[0], br.shape[0], tl.shape[1], br.shape[1])
    tl_full = np.zeros((pad, pad), dtype=complex)
    tl_full[:tl.shape[0], :tl.shape[1]] = tl
    br_full = np.zeros((pad, pad), dtype=complex)
    br_full[:br.shape[0], :br.shape[1]] = br
    assert np.abs(tl_full - br_full).max() < 1e-12


def test_add_scale_simple_and_dense():
    rng = np.random.default_rng(7)
    m = 25
    a = random_fqt(rng, m)
    b = random_fqt(rng, m)
    assert fqt_add(a, FiniteQtMatrix.zero(m)) is a
    assert fqt_scale(a, 0.0).is_zero
    got = fqt_to_dense(fqt_add(a, b))
    assert np.abs(got - (dense_fqt_oracle(a) + dense_fqt_oracle(b))).max() \
        < 1e-12
    alpha = 0.5 - 2.0j
    got = fqt_to_dense(fqt_scale(a, alpha))
    assert np.abs(got - alpha * dense_fqt_oracle(a)).max() < 1e-12


def test_scale_hits_both_corners():
    a = FiniteQtMatrix(10, LaurentSymbol.zero(),
                       Correction.rank_one([1.0], [1.0]),
                       Correction.rank_one([1.0], [1.0]))
    d = fqt_to_dense(fqt_scale(a, 3.0))
    assert d[0, 0] == 3.0
    assert d[9, 9] == 3.0


def test_size_mismatch():
    with pytest.raises(SizeMismatchError):
        fqt_add(FiniteQtMatrix.identity(4), FiniteQtMatrix.identity(5))


def test_inv_identity():
    b = fqt_inv(FiniteQtMatrix.identity(9))
    assert np.array_equal(fqt_to_dense(b), np.eye(9))


def test_inv_triangular_geometric_band():
    m = 80
    a = FiniteQtMatrix(m, LaurentSymbol([1.0, -0.5]))
    b = fqt_inv(a)
    assert b.corr_tl.is_zero and b.corr_br.is_zero
    for k in range(12):
        assert b.symbol.coeff(k) == pytest.approx(0.5 ** k, abs=1e-12)
    assert b.symbol.coeff(-1) == 0.0


def test_inv_random_vs_dense_columns():
    rng = np.random.default_rng(8)
    m = 200
    band = np.array([1.0, 4.0, 1.0])
    corr = Correction(rng.standard_normal((8, 2)), rng.standard_normal((8, 2)))
    a = FiniteQtMatrix(m, LaurentSymbol(band, -1), corr,
                       Correction(rng.standard_normal((5, 1)),
                                  rng.standard_normal((5, 1))))
    b = fqt_inv(a)
    dense_inv = np.linalg.inv(dense_fqt_oracle(a))
    got = fqt_to_dense(b)
    cols = rng.integers(0, m, size=20)
    assert np.abs(got[:, cols] - dense_inv[:, cols]).max() < 1e-10


def test_inv_singular():
    m = 6
    a = FiniteQtMatrix(m, LaurentSymbol([1.0], 1))  # nilpotent shift
    with pytest.raises(SingularMatrixError):
        fqt_inv(a)


def _banded_input(rng, m):
    """Non-symmetric complex band with corners wider than the band.

    The top-left corner is taller than it is wide and the bottom-right one
    wider than tall, so both the lower and the upper band are widened.
    """
    tl = Correction(rng.standard_normal((min(m, 6), 2)) + 1j,
                    0.3 * rng.standard_normal((min(m, 4), 2)))
    br = Correction(0.5 * rng.standard_normal((min(m, 3), 1)),
                    rng.standard_normal((min(m, 9), 1)) - 0.5j)
    sym = LaurentSymbol([1.0, 2.5 + 0.3j, 0.5], -1) if m > 1 \
        else LaurentSymbol([2.5 + 0.3j])
    return FiniteQtMatrix(m, sym, tl, br)


@pytest.mark.parametrize("m", [1, 2, 5, 40, 123, 190, 300, 700, 1024])
def test_inv_matches_the_dense_inverse(m):
    a = _banded_input(np.random.default_rng(m), m)
    b, info = fqt_inv(a, with_info=True)
    # Up to 256 every column is solved; beyond, two semi-infinite inverses
    # give the inverse by Widom's formula, and no column is solved.
    if m <= 256:
        assert info["path"] == "banded" and info["columns"] == m
    else:
        assert info["path"] == "factored" and "columns" not in info
    assert info["residual"] <= DEFAULT_CONFIG.tol_stop
    want = np.linalg.inv(dense_fqt_oracle(a))
    assert np.abs(fqt_to_dense(b) - want).max() < 1e-12


@pytest.mark.parametrize("m", [300, 400])
def test_inv_long_reciprocal_band(m):
    # The reciprocal symbol has 70 coefficients, so Widom's formula keeps
    # a long band.
    a = FiniteQtMatrix(m, LaurentSymbol([1.0, 2.5 + 0.3j, 0.6], -1),
                       Correction([[0.5, 0.1], [0.2, -0.3], [0.1, 0.05]],
                                  [[0.4, 0.2], [0.1, 0.3]]),
                       Correction.rank_one([0.3, 0.1], [0.4]))
    b, info = fqt_inv(a, with_info=True)
    assert info["path"] == "factored" and info["residual"] <= 1e-12
    assert b.symbol.support_len >= 70
    want = np.linalg.inv(dense_fqt_oracle(a))
    assert np.abs(fqt_to_dense(b) - want).max() < 1e-12


def test_inv_of_a_near_zero_symbol_keeps_its_wide_corners():
    # Near-zero symbol (1, 2.2 + 0.05i, 1): both corners of the inverse are
    # about 78 columns wide, and Widom's formula holds them.
    m = 700
    a = _banded_input(np.random.default_rng(m), m)
    a = FiniteQtMatrix(m, LaurentSymbol([1.0, 2.2 + 0.05j, 1.0], -1),
                       a.corr_tl, a.corr_br)
    b, info = fqt_inv(a, with_info=True)
    assert info["path"] == "factored"
    assert min(b.corr_tl.q, b.corr_br.q) > 64
    want = np.linalg.inv(dense_fqt_oracle(a))
    assert np.abs(fqt_to_dense(b) - want).max() < 1e-12


def test_inv_of_a_near_zero_symbol_factors_no_band(monkeypatch):
    # Near-zero symbol (1, 2.15 + 0.05i, 1) at m = 1024: Widom's formula
    # holds its inverse, so the band is never factored.
    calls = []
    factor = BandMatrix.factor

    def counting(self, shift=0.0):
        calls.append(shift)
        return factor(self, shift)

    monkeypatch.setattr(BandMatrix, "factor", counting)
    m = 1024
    a = FiniteQtMatrix(m, LaurentSymbol([1.0, 2.15 + 0.05j, 1.0], -1))
    b, info = fqt_inv(a, with_info=True)
    assert calls == []
    assert info["path"] == "factored" and info["residual"] <= 1e-12
    cols = np.array([0, 3, 100, m // 2, m - 1])
    rhs = np.zeros((m, cols.size), dtype=complex)
    rhs[cols, np.arange(cols.size)] = 1.0
    want = scipy.linalg.solve_banded((1, 1), _band_storage(a, 1, 1), rhs)
    assert np.abs(b.columns(cols) - want).max() < 1e-12


def _shifted_h10(m, z):
    """z I - H^10, a contour node resolvent's input; corners of rank 10."""
    h10 = _laplacian_power(m)
    return h10.identity_like().scale(z).add(h10.scale(-1.0))


def test_inv_slowly_decaying_corner():
    # The inverse corners of (1.5 + 1i) I - H^10 at m = 150 do not decay
    # within m // 2, so no window of half the matrix holds them; the whole
    # inverse is solved instead, from its first 75 columns as the matrix is
    # centrosymmetric.
    a = _shifted_h10(150, 1.5 + 1j)
    b, info = fqt_inv(a, with_info=True)
    assert info == {"path": "banded", "columns": 75,
                    "residual": info["residual"]}
    want = np.linalg.inv(dense_fqt_oracle(a))
    assert np.abs(fqt_to_dense(b) - want).max() < 1e-12


def test_inv_of_a_mirrored_matrix_solves_half_its_columns(monkeypatch):
    # (1.5 + 1i) I - (I + H^10) at m = 200 is centrosymmetric: fqt_inv
    # solves its first 100 inverse columns and mirrors the others.
    a = _shifted_h10(200, 0.5 + 1j)
    b, info = fqt_inv(a, with_info=True)
    assert info["columns"] == 100 and info["residual"] <= 1e-12
    monkeypatch.setattr(BandMatrix, "mirrored", False)
    want, want_info = fqt_inv(a, with_info=True)
    assert want_info["columns"] == 200
    assert np.abs(fqt_to_dense(b) - fqt_to_dense(want)).max() <= 1e-13


def _band_storage(a, lower, upper):
    """solve_banded storage of a, from its symbol and corner blocks."""
    m = a.m
    ab = np.zeros((lower + upper + 1, m), dtype=complex)
    for d in range(a.symbol.min_deg, a.symbol.max_deg + 1):
        ab[upper - d, max(d, 0):m + min(d, 0)] = a.symbol.coeff(d)
    tl = a.corr_tl.u @ a.corr_tl.v.T
    for (i, j), x in np.ndenumerate(tl):
        ab[upper + i - j, j] += x
    br = a.corr_br.u @ a.corr_br.v.T
    for (i, j), x in np.ndenumerate(br):
        ab[upper + j - i, m - 1 - j] += x
    return ab


def test_inv_large_m_against_solve_banded():
    m = 8192
    a = _banded_input(np.random.default_rng(3), m)
    b, info = fqt_inv(a, with_info=True)
    assert info["path"] == "factored"
    cols = np.array([0, 1, 5, 40, 127, 128, 500, m // 2, m - 300, m - 129,
                     m - 128, m - 9, m - 1])
    rhs = np.zeros((m, cols.size))
    rhs[cols, np.arange(cols.size)] = 1.0
    want = scipy.linalg.solve_banded((8, 8), _band_storage(a, 8, 8), rhs)
    assert np.abs(b.columns(cols) - want).max() < 1e-12


def test_inv_falls_back_to_the_band_where_the_symbol_vanishes():
    # z + 1/z vanishes at +-i, so cqt_inv raises and the m = 300 inverse is
    # solved on the band, in the first half of its columns as the band is
    # centrosymmetric.
    m = 300
    a = FiniteQtMatrix(m, LaurentSymbol([1.0, 0.0, 1.0], -1))
    b, info = fqt_inv(a, with_info=True)
    assert info["path"] == "banded" and info["columns"] == m // 2
    want = np.linalg.inv(dense_fqt_oracle(a))
    assert np.abs(fqt_to_dense(b) - want).max() < 1e-12


def test_widom_refusal_at_the_top_left_corner_takes_one_cqt_inv(monkeypatch):
    # Roots near the unit circle: the inverse's top-left corner decays over
    # more than m // 2 = 150 rows and columns, so Widom's formula is refused
    # before the bottom-right inverse is computed.
    m = 300
    a = FiniteQtMatrix(m, LaurentSymbol([-0.9, 1.82, -0.81], -1))
    calls = []

    def counted(x, *args, **kwargs):
        out = cqt_inv(x, *args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(qtmat.finite, "cqt_inv", counted)
    b, info = fqt_inv(a, with_info=True)
    assert len(calls) == 1 and info["path"] == "banded"
    assert max(calls[0].corr.p, calls[0].corr.q) > m // 2
    want = np.linalg.inv(dense_fqt_oracle(a))
    assert np.abs(fqt_to_dense(b) - want).max() < 1e-10


def test_a_mirrored_inverse_takes_one_cqt_inv_and_builds_no_band(
        monkeypatch):
    # 2.5 I + H^10 is mirrored, so its top-left inverse corner is also the
    # bottom-right one; the certificate reads the matrix, not the band.
    m = 1024
    a = centrosymmetric_fqt(m).add(FiniteQtMatrix.identity(m).scale(1.5))
    calls, built = [], []
    band = BandMatrix.band.func

    def counted(x, *args, **kwargs):
        calls.append(x)
        return cqt_inv(x, *args, **kwargs)

    monkeypatch.setattr(qtmat.finite, "cqt_inv", counted)
    monkeypatch.setattr(BandMatrix, "band",
                        property(lambda self: built.append(1) or band(self)))
    b, info = fqt_inv(a, with_info=True)
    assert len(calls) == 1 and info["path"] == "factored"
    assert b.corr_tl is b.corr_br and built == []
    want = np.linalg.inv(fqt_to_dense(a))
    assert np.abs(fqt_to_dense(b) - want).max() < 1e-13


def test_inverse_of_a_real_matrix_is_real():
    rng = np.random.default_rng(12)
    for m in (40, 300):  # band solve, Widom's formula
        a = _banded_input(rng, m)
        a = a.with_parts(LaurentSymbol(a.symbol.coeffs.real, a.symbol.min_deg),
                         [Correction(c.u.real, c.v.real)
                          for c in a.corrections])
        assert a.dtype == np.float64
        b, info = fqt_inv(a, with_info=True)
        assert info["path"] == ("banded" if m == 40 else "factored")
        assert b.dtype == np.float64
        want = np.linalg.inv(dense_fqt_oracle(a))
        assert np.abs(fqt_to_dense(b) - want).max() < 1e-11


def test_inv_singular_corner():
    # I - e1 e1^T has a zero pivot, whatever the size.
    for m in (40, 300):
        a = FiniteQtMatrix(m, LaurentSymbol.one(),
                           Correction.rank_one([-1.0], [1.0]))
        with pytest.raises(SingularMatrixError):
            fqt_inv(a)


@pytest.mark.parametrize("case", ["band-190", "band-700", "h10-123"])
def test_inv_twice_is_bit_equal(case):
    kind, m = case.split("-")
    m = int(m)
    a = _banded_input(np.random.default_rng(m), m) if kind == "band" \
        else _shifted_h10(m, 2.5)
    first = fqt_inv(a)
    second = fqt_inv(a)
    assert first.symbol.min_deg == second.symbol.min_deg
    for x, y in ((first.symbol.coeffs, second.symbol.coeffs),
                 (first.corr_tl.u, second.corr_tl.u),
                 (first.corr_tl.v, second.corr_tl.v),
                 (first.corr_br.u, second.corr_br.u),
                 (first.corr_br.v, second.corr_br.v)):
        assert x.shape == y.shape and np.array_equal(x, y)


def test_inv_certificate_miss_names_residual_and_tolerance():
    a = _banded_input(np.random.default_rng(4), 60)
    with pytest.raises(CertificateError,
                       match=r"inverse residual .* exceeds tolerance "
                             r"1\.00e-17"):
        fqt_inv(a, ToleranceConfig(tol_stop=1e-17))


def test_from_dense_round_trips():
    rng = np.random.default_rng(9)
    for m in (6, 17, 40):
        a = random_fqt(rng, m)
        dense = dense_fqt_oracle(a)
        back = fqt_from_dense(dense)
        assert np.abs(fqt_to_dense(back) - dense).max() \
            < 1e-13 * max(1.0, np.abs(dense).max())
    assert fqt_from_dense(np.zeros((5, 5))).is_zero


def _from_dense_by_diagonals(dense, mass=None, cfg=DEFAULT_CONFIG):
    """Reference split: one np.diagonal call per diagonal, index-sum masks."""
    m = dense.shape[0]
    scale = float(np.abs(dense).max(initial=0.0))
    coeff_floor = 0.5 * cfg.tol_trunc * max(1.0, scale)
    coeffs = np.zeros(2 * m - 1, dtype=np.complex128)
    for d in range(-(m - 1), m):
        diag = np.diagonal(dense, offset=d)
        val = diag[(diag.size - 1) // 2]
        if abs(val) > coeff_floor:
            coeffs[d + m - 1] = val
    sym = LaurentSymbol(coeffs, -(m - 1))
    resid = dense - toeplitz_section(sym, m)
    anti = np.add.outer(np.arange(m), np.arange(m))
    tl_block = np.where(anti <= m - 1, resid, 0.0)
    br_block = np.where(anti > m - 1, resid, 0.0)[::-1, ::-1]
    mass = float(np.abs(dense).sum()) if mass is None else mass
    tl = Correction.from_dense(tl_block, cfg.tol_trunc, scale=mass)
    br = Correction.from_dense(br_block, cfg.tol_trunc, scale=mass)
    return FiniteQtMatrix(m, sym, tl, br)


@pytest.mark.parametrize("mass", [None, 1e4])
@pytest.mark.parametrize("m", [5, 40, 121, 190])
def test_from_dense_is_bitwise_the_diagonal_loop(m, mass):
    rng = np.random.default_rng(m)
    h2 = fqt_mul(*[FiniteQtMatrix(m, LaurentSymbol([0.25, 0.5, 0.25], -1))]
                 * 2)
    resolvent_like = np.linalg.inv((2.5 + 1j) * np.eye(m)
                                   - fqt_to_dense(h2))
    for dense in (resolvent_like, dense_fqt_oracle(random_fqt(rng, m))):
        got = fqt_from_dense(dense, mass=mass)
        want = _from_dense_by_diagonals(dense, mass)
        assert got.symbol.min_deg == want.symbol.min_deg
        for x, y in ((got.symbol.coeffs, want.symbol.coeffs),
                     (got.corr_tl.u, want.corr_tl.u),
                     (got.corr_tl.v, want.corr_tl.v),
                     (got.corr_br.u, want.corr_br.u),
                     (got.corr_br.v, want.corr_br.v)):
            assert x.shape == y.shape
            assert np.array_equal(x, y)
        assert not got.corr_tl.is_zero


def test_from_dense_budget_follows_mass_and_real_stays_real():
    m = 60
    h2 = fqt_mul(*[FiniteQtMatrix(m, LaurentSymbol([0.25, 0.5, 0.25], -1))]
                 * 2)
    dense = np.linalg.inv((2.5 + 1j) * np.eye(m) - fqt_to_dense(h2)).real
    own = fqt_from_dense(dense)
    assert own.corr_tl.u.dtype == own.corr_br.v.dtype == np.float64
    assert np.abs(fqt_to_dense(own) - dense).max() < 1e-13
    # The same split with the default mass passed explicitly, then with a
    # thousandfold budget that keeps less of each corner.
    mass = float(np.abs(dense).sum())
    same = fqt_from_dense(dense, mass=mass)
    assert np.array_equal(same.corr_tl.u, own.corr_tl.u)
    loose = fqt_from_dense(dense, mass=1e3 * mass)
    assert loose.corr_tl.p < own.corr_tl.p
    assert np.abs(fqt_to_dense(loose) - dense).max() <= 1e-14 * 1e3 * mass


def test_split_norm_is_norm_cqt_of_the_split():
    rng = np.random.default_rng(12)
    for m in (1, 7, 40):
        dense = dense_fqt_oracle(random_fqt(rng, m))
        want = fqt_from_dense(dense).norm_cqt()
        assert fqt_split_norm(dense) == pytest.approx(want, rel=1e-12)
        assert fqt_split_norm(dense.real) == pytest.approx(
            fqt_from_dense(dense.real).norm_cqt(), rel=1e-12)
    assert fqt_split_norm(np.zeros((4, 4))) == 0.0


@pytest.mark.parametrize("m", [1, 9, 60])
def test_band_residual_matches_the_dense_product(m):
    a = _banded_input(np.random.default_rng(m), m)
    shift = 0.7 - 0.2j
    cols = [0, m // 2, m - 1]
    x = np.random.default_rng(0).standard_normal((m, len(cols))) + 0.5j
    # Also corners under a zero symbol, which the Toeplitz kernel returns
    # empty, and the band with its flipped corner alone.
    for b in (a, FiniteQtMatrix(m, LaurentSymbol.zero(), *a.corrections),
              FiniteQtMatrix(m, a.symbol, None, a.corr_br)):
        want = (shift * np.eye(m) + dense_fqt_oracle(b)) @ x
        want[cols, np.arange(len(cols))] -= 1.0
        got = BandMatrix(b).residual(x, cols, shift)
        assert got == pytest.approx(np.abs(want).max(), rel=1e-13)


@pytest.mark.parametrize("m", [1, 2, 121, 122])
def test_half_inverse_of_a_mirrored_band_is_the_full_inverse(m):
    band = BandMatrix(centrosymmetric_fqt(m).scale(-1.0))
    assert band.mirrored
    shift, cfg = 1.5 + 1j, DEFAULT_CONFIG
    half, worst = band.shifted_inverse(shift, cfg, half=True)
    full, _ = band.shifted_inverse(shift, cfg)
    assert half.shape == (m, (m + 1) // 2) and full.shape == (m, m)
    assert np.abs(mirrored_columns(half, np.arange(m)) - full).max() < 1e-13
    # The certificate reads the sampled columns past the half from their
    # mirrors and multiplies them by the band itself.
    cols = qtmat.finite._sample_columns(m)
    assert worst == band.residual(mirrored_columns(half, cols), cols, shift)
    assert worst <= cfg.tol_stop


def test_mirrored_is_the_point_reflection_of_the_band_up_to_rounding():
    m = 60
    a = centrosymmetric_fqt(m)
    band = BandMatrix(a)
    # The symbol of H^10 misses bitwise symmetry by the summation order.
    assert not np.array_equal(band.band, band.band[::-1, ::-1])
    assert band.mirrored
    tilted = a.add(FiniteQtMatrix(m, LaurentSymbol([1e-9, 0.0, 0.0], -1)))
    other_br = FiniteQtMatrix(m, a.symbol, a.corr_tl,
                              a.corr_br.scaled(1.0 + 1e-9))
    wider = FiniteQtMatrix(m, a.symbol,
                           Correction(np.ones((12, 1)), np.ones((11, 1))),
                           Correction(np.ones((11, 1)), np.ones((12, 1))))
    assert BandMatrix(wider).kl != BandMatrix(wider).ku
    for b in (tilted, other_br, wider):
        assert not BandMatrix(b).mirrored


def test_column_extraction():
    rng = np.random.default_rng(10)
    a = random_fqt(rng, 35)
    dense = dense_fqt_oracle(a)
    for j in (0, 1, 17, 33, 34):
        assert np.abs(a.column(j) - dense[:, j]).max() < 1e-13


def test_columns_are_the_stacked_columns_bit_for_bit():
    rng = np.random.default_rng(11)
    for m in (1, 7, 35, 64):
        a = random_fqt(rng, m, corner=min(8, m), rank=3)
        js = [m - 1, 0, m // 2, m - 1, min(1, m - 1)]
        got = a.columns(js)
        assert got.shape == (m, len(js))
        assert np.abs(got - dense_fqt_oracle(a)[:, js]).max() < 1e-13
    with pytest.raises(IndexError):
        a.columns([0, m])


def test_band_validation():
    with pytest.raises(ValueError):
        FiniteQtMatrix(3, LaurentSymbol([1.0], 5))
    with pytest.raises(ValueError):
        FiniteQtMatrix(3, LaurentSymbol.one(),
                       Correction.rank_one([1.0] * 4, [1.0] * 4))
