"""Semi-infinite quasi-Toeplitz matrices: T(a) plus a low-rank correction.

The product of two Toeplitz operators deviates from Toeplitz form by a
product of two Hankel matrices built from the symbol tails; all algebra
operations here track that deviation in factored form and compress it after
every step.
"""

import numpy as np
import scipy.linalg

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
from .errors import (
    NoConvergenceError,
    NonzeroWindingError,
    SingularSectionError,
)
from .symbol import (
    LaurentSymbol,
    sym_add,
    sym_mul,
    sym_reciprocal,
    sym_scale,
    sym_split,
    sym_truncate,
    wiener_norms,
    winding_number,
)


class CqtMatrix:
    """Pair (symbol, correction) representing T(a) + E."""

    def __init__(self, symbol, corr=None):
        if not isinstance(symbol, LaurentSymbol):
            symbol = LaurentSymbol(symbol)
        self.symbol = symbol
        self.corr = Correction.zero() if corr is None else corr

    @classmethod
    def zero(cls):
        return cls(LaurentSymbol.zero())

    @classmethod
    def identity(cls):
        return cls(LaurentSymbol.one())

    @classmethod
    def from_toeplitz(cls, symbol):
        return cls(symbol)

    @property
    def is_zero(self):
        return self.symbol.is_zero and self.corr.is_zero

    @property
    def is_identity(self):
        return (self.corr.is_zero and self.symbol.support_len == 1
                and self.symbol.min_deg == 0
                and self.symbol.coeffs[0] == 1.0)

    # Algebra methods shared with the finite class; the function-engine
    # modules rely only on these.
    def add(self, other, cfg=DEFAULT_CONFIG):
        return cqt_add(self, other, cfg)

    def mul(self, other, cfg=DEFAULT_CONFIG):
        return cqt_mul(self, other, cfg)

    def inv(self, cfg=DEFAULT_CONFIG):
        return cqt_inv(self, cfg)

    def scale(self, alpha):
        return CqtMatrix(sym_scale(self.symbol, alpha),
                         self.corr.scaled(alpha))

    @property
    def is_real(self):
        return self.symbol.is_real and self.corr.is_real

    def real_part(self):
        """Entrywise real part, exact and uncompressed."""
        return CqtMatrix(self.symbol.real_part(), self.corr.real_part())

    def norm_cqt(self):
        return cqt_norm(self)

    def norm_qt(self):
        return qt_norm(self)

    def zero_like(self):
        return CqtMatrix.zero()

    def identity_like(self):
        return CqtMatrix.identity()

    def with_symbol(self, symbol):
        return CqtMatrix(symbol, self.corr)

    def finite_section(self, n):
        return finite_section(self, n)

    def __add__(self, other):
        return cqt_add(self, other, DEFAULT_CONFIG)

    def __matmul__(self, other):
        return cqt_mul(self, other, DEFAULT_CONFIG)

    def __repr__(self):
        return f"CqtMatrix(symbol={self.symbol!r}, corr={self.corr!r})"


def cqt_norm(a):
    """||a||_W + ||a'||_W + entrywise sum of the correction."""
    nw, nw1 = wiener_norms(a.symbol)
    return nw + nw1 + abs_sum_norm(a.corr)


def qt_norm(a):
    """||a||_W + entrywise sum of the correction (derivative term dropped)."""
    nw, _ = wiener_norms(a.symbol)
    return nw + abs_sum_norm(a.corr)


def toeplitz_section(sym, n):
    """Dense leading n x n block of T(a)."""
    if sym.is_zero:
        return np.zeros((n, n), dtype=np.complex128)
    col = _gather(sym, -np.arange(n))
    row = _gather(sym, np.arange(n))
    return scipy.linalg.toeplitz(col, row)


def _gather(sym, exps):
    out = np.zeros(exps.shape, dtype=np.complex128)
    idx = exps - sym.min_deg
    mask = (idx >= 0) & (idx < sym.coeffs.size)
    out[mask] = sym.coeffs[idx[mask]]
    return out


def finite_section(a, n):
    """Dense leading n x n block of the represented matrix."""
    if n < 1:
        raise ValueError("section size must be at least 1")
    out = toeplitz_section(a.symbol, n)
    if not a.corr.is_zero:
        rp = min(a.corr.p, n)
        cq = min(a.corr.q, n)
        out[:rp, :cq] += a.corr.u[:rp] @ a.corr.v[:cq].T
    return out


def cqt_add(a, b, cfg=DEFAULT_CONFIG):
    """Sum in the algebra; symbol and correction add, then get compressed."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    sym = sym_truncate(sym_add(a.symbol, b.symbol), cfg.tol_symbol)
    corr = corr_compress(corr_add(a.corr, b.corr), cfg.tol_corr)
    return CqtMatrix(sym, corr)


def cqt_mul(a, b, cfg=DEFAULT_CONFIG):
    """Product in the algebra.

    The Toeplitz part carries the product symbol; the correction collects the
    Hankel-product deviation of the two Toeplitz parts together with the
    cross terms involving the input corrections, all realized in factored
    form and compressed at the end.
    """
    if a.is_zero or b.is_zero:
        return CqtMatrix.zero()
    if a.is_identity:
        return b
    if b.is_identity:
        return a
    c = sym_mul(a.symbol, b.symbol)
    a_minus, _, _ = sym_split(a.symbol)
    _, _, b_plus = sym_split(b.symbol)
    corr = corr_add(Correction.zero(),
                    hankel_product(a_minus, b_plus), -1.0)
    if not b.corr.is_zero:
        corr = corr_add(corr, toeplitz_times_corr(a.symbol, b.corr))
    if not a.corr.is_zero:
        corr = corr_add(corr, corr_times_toeplitz(a.corr, b.symbol))
    if not a.corr.is_zero and not b.corr.is_zero:
        corr = corr_add(corr, corr_times_corr(a.corr, b.corr))
    return CqtMatrix(sym_truncate(c, cfg.tol_symbol),
                     corr_compress(corr, cfg.tol_corr))


def cqt_inv(a, cfg=DEFAULT_CONFIG, with_info=False):
    """Inverse in the algebra, certified through finite sections.

    The symbol of the inverse is the reciprocal symbol; the correction is
    extracted from densely inverted leading sections of growing size until
    the candidate has decayed before the window boundary, and the result is
    accepted only when the residual of the algebra product against the
    identity passes the stopping tolerance on a covering section.

    Raises
    ------
    NonzeroWindingError, ZeroOnCircleError  if the symbol is not invertible
    SingularSectionError                    if a dense section is singular
    NoConvergenceError                      if sections exhaust the cap
    """
    if a.is_zero:
        raise SingularSectionError("zero matrix is not invertible")
    # Scalar Toeplitz matrices invert exactly.
    if (a.corr.is_zero and a.symbol.support_len == 1
            and a.symbol.min_deg == 0):
        inv = CqtMatrix(LaurentSymbol.constant(1.0 / a.symbol.coeffs[0]))
        return (inv, {"section": 0, "certified_n": 1, "residual": 0.0}) \
            if with_info else inv
    w = winding_number(a.symbol)
    if w != 0:
        raise NonzeroWindingError(f"winding number is {w}, expected 0")
    recip = sym_reciprocal(a.symbol, cfg.tol_symbol)
    band = a.symbol.support_len + recip.support_len
    n = max(64, 2 * max(a.corr.p, a.corr.q, 1), 4 * a.symbol.support_len)
    n = 1 << (n - 1).bit_length()
    compress_tol = max(cfg.tol_corr, cfg.tol_stop / 10)
    while n <= cfg.max_finite_section:
        section = finite_section(a, n)
        try:
            dense_inv = np.linalg.inv(section)
        except np.linalg.LinAlgError as exc:
            raise SingularSectionError(
                f"dense {n} x {n} section is singular") from exc
        half = n // 2
        cand = dense_inv[:half, :half] - toeplitz_section(recip, half)
        frame = max(1, half // 10)
        frame_mass = max(np.abs(cand[half - frame:, :]).max(initial=0.0),
                         np.abs(cand[:, half - frame:]).max(initial=0.0))
        if frame_mass <= cfg.tol_stop:
            corr = Correction.from_dense(cand, compress_tol)
            result = CqtMatrix(recip, corr)
            residual = inverse_residual(a, result, cfg)
            n_cert = _certificate_section(a, result)
            if residual <= cfg.tol_stop:
                info = {"section": n, "certified_n": n_cert,
                        "residual": residual}
                return (result, info) if with_info else result
        n *= 2
    raise NoConvergenceError(
        "inverse correction did not decay within the section cap; "
        f"band estimate {band}")


def _certificate_section(a, b):
    prod_extent = max(a.corr.p + b.corr.p, a.corr.q + b.corr.q, 1)
    band = a.symbol.support_len + b.symbol.support_len
    return prod_extent + band + 8


def inverse_residual(a, b, cfg=DEFAULT_CONFIG):
    """Entrywise max of finite_section(a @ b - I) on a covering section.

    The section covers both the full correction support of the product and
    one period of every stored symbol coefficient, so together with the
    residual of the reciprocal symbol it certifies the whole matrix.
    """
    prod = cqt_mul(a, b, cfg)
    n = _certificate_section(a, b)
    resid = finite_section(prod, n)
    np.fill_diagonal(resid, resid.diagonal() - 1.0)
    return float(np.abs(resid).max())
