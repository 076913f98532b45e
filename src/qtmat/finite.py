"""Finite m x m quasi-Toeplitz matrices with two corner corrections.

A matrix is stored as a banded Toeplitz part plus a top-left correction and
a bottom-right correction.  The bottom-right one is kept in flipped
coordinates (as the top-left correction of J A J, with J the anti-identity)
so both corners share the same factored representation and compression; the
flip is applied only when materializing.
"""

import numpy as np

from .config import DEFAULT_CONFIG
from .correction import (
    Correction,
    abs_sum_norm,
    corr_add,
    corr_compress,
    corr_times_corr,
    corr_times_toeplitz,
    hankel_product,
    toeplitz_times_corr,
)
from .cqt import _gather, toeplitz_section
from .errors import (
    NoConvergenceError,
    SingularMatrixError,
    SizeMismatchError,
)
from .symbol import (
    LaurentSymbol,
    sym_add,
    sym_clip,
    sym_mul,
    sym_reciprocal,
    sym_reverse,
    sym_scale,
    sym_split,
    sym_truncate,
    wiener_norms,
)

# Dense inversion is used up to this size even when the section cap allows
# more, to keep memory bounded.
_DENSE_INV_CAP = 4096


class FiniteQtMatrix:
    """Size m, banded symbol, corrections corr_tl and corr_br (flipped)."""

    def __init__(self, m, symbol, corr_tl=None, corr_br=None):
        m = int(m)
        if m < 1:
            raise ValueError("size must be at least 1")
        if not isinstance(symbol, LaurentSymbol):
            symbol = LaurentSymbol(symbol)
        if not symbol.is_zero and (symbol.n_minus > m - 1
                                   or symbol.n_plus > m - 1):
            raise ValueError("symbol support exceeds the matrix band range")
        corr_tl = Correction.zero() if corr_tl is None else corr_tl
        corr_br = Correction.zero() if corr_br is None else corr_br
        for c in (corr_tl, corr_br):
            if c.p > m or c.q > m:
                raise ValueError("corner correction exceeds the matrix size")
        self.m = m
        self.symbol = symbol
        self.corr_tl = corr_tl
        self.corr_br = corr_br

    @classmethod
    def zero(cls, m):
        return cls(m, LaurentSymbol.zero())

    @classmethod
    def identity(cls, m):
        return cls(m, LaurentSymbol.one())

    @classmethod
    def from_toeplitz(cls, m, symbol):
        return cls(m, symbol)

    @property
    def is_zero(self):
        return (self.symbol.is_zero and self.corr_tl.is_zero
                and self.corr_br.is_zero)

    @property
    def is_identity(self):
        return (self.corr_tl.is_zero and self.corr_br.is_zero
                and self.symbol.support_len == 1 and self.symbol.min_deg == 0
                and self.symbol.coeffs[0] == 1.0)

    @property
    def corners_overlap(self):
        """True when the two corner supports share at least one entry."""
        return (self.corr_tl.p + self.corr_br.p > self.m
                and self.corr_tl.q + self.corr_br.q > self.m)

    def add(self, other, cfg=DEFAULT_CONFIG):
        return fqt_add(self, other, cfg)

    def mul(self, other, cfg=DEFAULT_CONFIG):
        return fqt_mul(self, other, cfg)

    def inv(self, cfg=DEFAULT_CONFIG):
        return fqt_inv(self, cfg)

    def scale(self, alpha):
        return fqt_scale(self, alpha)

    @property
    def is_real(self):
        return (self.symbol.is_real and self.corr_tl.is_real
                and self.corr_br.is_real)

    def real_part(self):
        """Entrywise real part, exact and uncompressed."""
        return FiniteQtMatrix(self.m, self.symbol.real_part(),
                              self.corr_tl.real_part(),
                              self.corr_br.real_part())

    def norm_cqt(self):
        nw, nw1 = wiener_norms(self.symbol)
        return nw + nw1 + abs_sum_norm(self.corr_tl) \
            + abs_sum_norm(self.corr_br)

    def norm_qt(self):
        nw, _ = wiener_norms(self.symbol)
        return nw + abs_sum_norm(self.corr_tl) + abs_sum_norm(self.corr_br)

    def zero_like(self):
        return FiniteQtMatrix.zero(self.m)

    def identity_like(self):
        return FiniteQtMatrix.identity(self.m)

    def with_symbol(self, symbol):
        return FiniteQtMatrix(self.m, sym_clip(symbol, self.m - 1),
                              self.corr_tl, self.corr_br)

    def flipped(self):
        """J A J: reversed symbol, corners swapped."""
        return FiniteQtMatrix(self.m, sym_reverse(self.symbol),
                              self.corr_br, self.corr_tl)

    def column(self, j):
        """Dense column j (zero-based) without materializing the matrix."""
        m = self.m
        if not 0 <= j < m:
            raise IndexError("column index out of range")
        col = _gather(self.symbol, np.full(m, j) - np.arange(m))
        if not self.corr_tl.is_zero and j < self.corr_tl.q:
            col[:self.corr_tl.p] += self.corr_tl.u @ self.corr_tl.v[j]
        if not self.corr_br.is_zero and (m - 1 - j) < self.corr_br.q:
            part = self.corr_br.u @ self.corr_br.v[m - 1 - j]
            col[m - self.corr_br.p:] += part[::-1]
        return col

    def __add__(self, other):
        return fqt_add(self, other, DEFAULT_CONFIG)

    def __matmul__(self, other):
        return fqt_mul(self, other, DEFAULT_CONFIG)

    def __repr__(self):
        return (f"FiniteQtMatrix(m={self.m}, symbol={self.symbol!r}, "
                f"tl={self.corr_tl!r}, br={self.corr_br!r})")


def _check_sizes(a, b):
    if a.m != b.m:
        raise SizeMismatchError(f"sizes differ: {a.m} vs {b.m}")


def fqt_to_dense(a):
    """Dense m x m materialization."""
    m = a.m
    out = toeplitz_section(a.symbol, m)
    if not a.corr_tl.is_zero:
        out[:a.corr_tl.p, :a.corr_tl.q] += a.corr_tl.materialize()
    if not a.corr_br.is_zero:
        block = a.corr_br.materialize()
        out[m - a.corr_br.p:, m - a.corr_br.q:] += block[::-1, ::-1]
    return out


def fqt_add(a, b, cfg=DEFAULT_CONFIG):
    _check_sizes(a, b)
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    sym = sym_truncate(sym_add(a.symbol, b.symbol), cfg.tol_symbol)
    tl = corr_compress(corr_add(a.corr_tl, b.corr_tl), cfg.tol_corr)
    br = corr_compress(corr_add(a.corr_br, b.corr_br), cfg.tol_corr)
    return FiniteQtMatrix(a.m, sym, tl, br)


def fqt_scale(a, alpha):
    if alpha == 0:
        return FiniteQtMatrix.zero(a.m)
    return FiniteQtMatrix(a.m, sym_scale(a.symbol, alpha),
                          a.corr_tl.scaled(alpha), a.corr_br.scaled(alpha))


def cross_corner_count(a, b):
    """Number of cross-corner products a product would materialize.

    Counts the pairs (top-left of one factor, bottom-right of the other)
    whose supports meet across the middle of the matrix.
    """
    count = 0
    if a.corr_tl.q + b.corr_br.p > a.m:
        count += 1
    if a.corr_br.q + b.corr_tl.p > a.m:
        count += 1
    return count


def fqt_mul(a, b, cfg=DEFAULT_CONFIG):
    """Product of two finite quasi-Toeplitz matrices.

    The Toeplitz part is the product symbol clipped to the representable
    band; both corners collect their Hankel-product deviation and the cross
    terms from the input corrections.  When corner supports meet across the
    matrix, the cross-corner products are materialized exactly in factored
    form (one factor then spans the full dimension).
    """
    _check_sizes(a, b)
    if a.is_zero or b.is_zero:
        return FiniteQtMatrix.zero(a.m)
    if a.is_identity:
        return b
    if b.is_identity:
        return a
    m = a.m
    c = sym_clip(sym_mul(a.symbol, b.symbol), m - 1)
    am, _, ap = sym_split(a.symbol)
    bm, _, bp = sym_split(b.symbol)
    arev = sym_reverse(a.symbol)
    brev = sym_reverse(b.symbol)

    tl = corr_add(Correction.zero(), hankel_product(am, bp, clip=m), -1.0)
    br = corr_add(Correction.zero(), hankel_product(ap, bm, clip=m), -1.0)

    if not b.corr_tl.is_zero:
        tl = corr_add(tl, toeplitz_times_corr(a.symbol, b.corr_tl, row_cap=m))
    if not b.corr_br.is_zero:
        br = corr_add(br, toeplitz_times_corr(arev, b.corr_br, row_cap=m))
    if not a.corr_tl.is_zero:
        tl = corr_add(tl, corr_times_toeplitz(a.corr_tl, b.symbol, col_cap=m))
    if not a.corr_br.is_zero:
        br = corr_add(br, corr_times_toeplitz(a.corr_br, brev, col_cap=m))
    if not a.corr_tl.is_zero and not b.corr_tl.is_zero:
        tl = corr_add(tl, corr_times_corr(a.corr_tl, b.corr_tl))
    if not a.corr_br.is_zero and not b.corr_br.is_zero:
        br = corr_add(br, corr_times_corr(a.corr_br, b.corr_br))

    # Cross-corner terms; nonzero only when the supports overlap across the
    # middle of the matrix.
    if not a.corr_tl.is_zero and not b.corr_br.is_zero \
            and a.corr_tl.q + b.corr_br.p > m:
        tl = corr_add(tl, _tl_times_flipped(a.corr_tl, b.corr_br, m))
    if not a.corr_br.is_zero and not b.corr_tl.is_zero \
            and a.corr_br.q + b.corr_tl.p > m:
        tl = corr_add(tl, _flipped_times_tl(a.corr_br, b.corr_tl, m))

    return FiniteQtMatrix(
        a.m, sym_truncate(c, cfg.tol_symbol),
        corr_compress(tl, cfg.tol_corr), corr_compress(br, cfg.tol_corr))


def _embed_flipped_rows(factor, m):
    """Rows of a flipped-corner factor inside the full index range."""
    out = np.zeros((m, factor.shape[1]), dtype=np.complex128)
    out[m - factor.shape[0]:] = factor[::-1]
    return out


def _tl_times_flipped(e_tl, f_br, m):
    """E_tl @ (J F J) as a top-left-anchored correction (q spans m)."""
    u_big = _embed_flipped_rows(f_br.u, m)
    mid = e_tl.v.T @ u_big[:e_tl.q]
    v_big = _embed_flipped_rows(f_br.v, m)
    return Correction(e_tl.u @ mid, v_big)


def _flipped_times_tl(f_br, e_tl, m):
    """(J F J) @ E_tl as a top-left-anchored correction (p spans m)."""
    u_big = _embed_flipped_rows(f_br.u, m)
    v_big = _embed_flipped_rows(f_br.v, m)
    mid = v_big[:e_tl.p].T @ e_tl.u
    return Correction(u_big @ mid, e_tl.v)


def fqt_leading_section(a, n):
    """Dense leading n x n block (includes any corner mass reaching it)."""
    m = a.m
    n = min(n, m)
    out = toeplitz_section(a.symbol, n)
    if not a.corr_tl.is_zero:
        rp = min(a.corr_tl.p, n)
        cq = min(a.corr_tl.q, n)
        out[:rp, :cq] += a.corr_tl.u[:rp] @ a.corr_tl.v[:cq].T
    if not a.corr_br.is_zero:
        block = a.corr_br.materialize()
        rows = np.arange(m - a.corr_br.p, m)
        cols = np.arange(m - a.corr_br.q, m)
        rsel = rows < n
        csel = cols < n
        if rsel.any() and csel.any():
            out[np.ix_(rows[rsel], cols[csel])] += \
                block[::-1, ::-1][np.ix_(rsel, csel)]
    return out


def fqt_from_dense(dense, band_hint=None, cfg=DEFAULT_CONFIG):
    """Recover band plus two corner corrections from a dense matrix.

    The Toeplitz coefficient of each diagonal is read from the middle of the
    diagonal; the residual is split along the main anti-diagonal and each
    half is factored into a corner correction.  The round trip through
    ``fqt_to_dense`` reproduces the input up to the compression tolerance.
    """
    dense = np.asarray(dense, dtype=np.complex128)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError("expected a square matrix")
    m = dense.shape[0]
    scale = float(np.abs(dense).max(initial=0.0))
    if scale == 0.0:
        return FiniteQtMatrix.zero(m)
    cap = m - 1 if band_hint is None else min(band_hint, m - 1)
    coeff_floor = 0.5 * cfg.tol_corr * max(1.0, scale)
    coeffs = np.zeros(2 * m - 1, dtype=np.complex128)
    for d in range(-cap, cap + 1):
        diag = np.diagonal(dense, offset=d)
        val = diag[(diag.size - 1) // 2]
        if abs(val) > coeff_floor:
            coeffs[d + m - 1] = val
    sym = LaurentSymbol(coeffs, -(m - 1))
    resid = dense - toeplitz_section(sym, m)
    anti = np.add.outer(np.arange(m), np.arange(m))
    tl_block = np.where(anti <= m - 1, resid, 0.0)
    br_block = np.where(anti > m - 1, resid, 0.0)[::-1, ::-1]
    # Budget the corners against the mass of the whole matrix, so band
    # coefficients dropped by the floor do not linger as corner dust.
    mass = float(np.abs(dense).sum())
    tl = Correction.from_dense(tl_block, cfg.tol_corr, scale=mass)
    br = Correction.from_dense(br_block, cfg.tol_corr, scale=mass)
    return FiniteQtMatrix(m, sym, tl, br)


def _certify_columns(a, b, cfg, rng_cols):
    """Max residual of a @ b against the identity on sampled columns."""
    worst = 0.0
    prod = fqt_mul(a, b, cfg)
    for j in rng_cols:
        col = prod.column(j)
        col[j] -= 1.0
        worst = max(worst, float(np.abs(col).max()))
    return worst


def _sample_columns(m):
    cols = {0, 1, m // 2, m - 2, m - 1}
    step = max(1, m // 16)
    cols.update(range(0, m, step))
    return sorted(c for c in cols if 0 <= c < m)[:24]


def fqt_inv(a, cfg=DEFAULT_CONFIG, with_info=False):
    """Inverse of a finite quasi-Toeplitz matrix.

    Sizes up to the section cap are inverted densely and re-split into band
    plus corners; larger sizes use windowed extraction (the inverse of a
    leading window supplies the top-left corner, the flipped matrix supplies
    the other one, and the band is the reciprocal symbol).  Either way the
    result is certified columnwise against the identity.

    Raises
    ------
    SingularMatrixError   numerically singular input or failed certificate
    NoConvergenceError    windowed extraction could not separate the corners
    """
    m = a.m
    if a.is_zero:
        raise SingularMatrixError("zero matrix is not invertible")
    if (a.corr_tl.is_zero and a.corr_br.is_zero
            and a.symbol.support_len == 1 and a.symbol.min_deg == 0):
        inv = FiniteQtMatrix(
            m, LaurentSymbol.constant(1.0 / a.symbol.coeffs[0]))
        return (inv, {"path": "scalar", "residual": 0.0}) \
            if with_info else inv
    if m <= min(cfg.max_finite_section, _DENSE_INV_CAP):
        return _fqt_inv_dense(a, cfg, with_info)
    return _fqt_inv_windowed(a, cfg, with_info)


def _fqt_inv_dense(a, cfg, with_info):
    dense = fqt_to_dense(a)
    try:
        dense_inv = np.linalg.inv(dense)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is numerically singular") from exc
    result = fqt_from_dense(dense_inv, None, cfg)
    cols = _sample_columns(a.m)
    resid = dense @ np.column_stack([result.column(j) for j in cols])
    resid[cols, np.arange(len(cols))] -= 1.0
    worst = float(np.abs(resid).max())
    if worst > cfg.tol_stop:
        raise SingularMatrixError(
            f"inverse residual {worst:.2e} exceeds tolerance "
            f"{cfg.tol_stop:.2e}")
    info = {"path": "dense", "residual": worst}
    return (result, info) if with_info else result


def _extract_corner(a, recip, cfg):
    """Top-left correction of the inverse from a growing leading window."""
    m = a.m
    base = max(a.corr_tl.p, a.corr_tl.q, a.symbol.support_len,
               recip.support_len, 16)
    w = 1 << (2 * base - 1).bit_length()
    w = max(w, 64)
    compress_tol = max(cfg.tol_corr, cfg.tol_stop / 10)
    while w <= m // 2:
        section = fqt_leading_section(a, w)
        try:
            dense_inv = np.linalg.inv(section)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"leading {w} x {w} window is singular") from exc
        half = w // 2
        cand = dense_inv[:half, :half] - toeplitz_section(recip, half)
        frame = max(1, half // 10)
        frame_mass = max(np.abs(cand[half - frame:, :]).max(initial=0.0),
                         np.abs(cand[:, half - frame:]).max(initial=0.0))
        if frame_mass <= cfg.tol_stop:
            return Correction.from_dense(cand, compress_tol)
        w *= 2
    raise NoConvergenceError(
        "inverse corner did not decay within half the matrix size")


def _fqt_inv_windowed(a, cfg, with_info):
    recip = sym_clip(sym_reciprocal(a.symbol, cfg.tol_symbol), a.m - 1)
    tl = _extract_corner(a, recip, cfg)
    br = _extract_corner(a.flipped(), sym_reverse(recip), cfg)
    result = FiniteQtMatrix(a.m, recip, tl, br)
    worst = _certify_columns(a, result, cfg, _sample_columns(a.m))
    if worst > cfg.tol_stop:
        raise NoConvergenceError(
            f"windowed inverse residual {worst:.2e} exceeds tolerance")
    info = {"path": "windowed", "residual": worst}
    return (result, info) if with_info else result
