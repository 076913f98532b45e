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
    corr_product,
)
from .errors import CertificateError, NoConvergenceError, SingularSectionError
from .symbol import (
    LaurentSymbol,
    sym_add,
    sym_mul,
    sym_reciprocal,
    sym_scale,
    sym_truncate,
    wiener_norms,
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

    def inv(self, cfg=DEFAULT_CONFIG, with_info=False):
        return cqt_inv(self, cfg, with_info)

    def scale(self, alpha):
        return CqtMatrix(sym_scale(self.symbol, alpha),
                         self.corr.scaled(alpha))

    @property
    def is_real(self):
        return self.symbol.is_real and self.corr.is_real

    def norm_cqt(self):
        return cqt_norm(self)

    def identity_like(self):
        return CqtMatrix.identity()

    def with_symbol(self, symbol):
        return CqtMatrix(symbol, self.corr)

    @property
    def corrections(self):
        """The stored corrections, in constructor order."""
        return (self.corr,)

    def with_parts(self, symbol, corrections):
        """A matrix of this class and size from a symbol and corrections."""
        return CqtMatrix(symbol, *corrections)

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

    The Toeplitz part carries the product symbol.  The correction is
    ``corr_product`` of the two pairs, compressed: the Hankel-product
    deviation of the two Toeplitz parts together with the cross terms
    involving the input corrections, in factored form.
    """
    if a.is_zero or b.is_zero:
        return CqtMatrix.zero()
    if a.is_identity:
        return b
    if b.is_identity:
        return a
    return CqtMatrix(
        sym_truncate(sym_mul(a.symbol, b.symbol), cfg.tol_symbol),
        corr_compress(corr_product(a.symbol, a.corr, b.symbol, b.corr),
                      cfg.tol_corr))


def cqt_inv(a, cfg=DEFAULT_CONFIG, with_info=False):
    """Inverse in the algebra, certified through finite sections.

    The symbol of the inverse is the reciprocal symbol.  The correction
    comes from the one windowed-inverse loop: for windows n, 2n, ... up to
    ``cfg.max_finite_section``, the top-left half of the inverse of the
    leading n x n section minus T(recip) is a candidate once it has decayed
    to ``cfg.tol_stop`` on its last tenth of rows and columns, and the
    first candidate whose product with ``a`` passes the stopping tolerance
    against the identity on a covering section (``inverse_residual``) is
    returned.

    The record's ``path`` is "windowed", or "scalar" for a scalar Toeplitz
    matrix, which inverts exactly with no section.

    Raises
    ------
    NonzeroWindingError, ZeroOnCircleError  if the symbol is not invertible
    SingularSectionError                    if a dense section is singular
    CertificateError                        if a decayed window misses the
                                            tolerance without halving the
                                            last decayed window's residual
    NoConvergenceError                      if sections exhaust the cap
    """
    if a.is_zero:
        raise SingularSectionError("zero matrix is not invertible")
    # Scalar Toeplitz matrices invert exactly.
    if (a.corr.is_zero and a.symbol.support_len == 1
            and a.symbol.min_deg == 0):
        inv = CqtMatrix(LaurentSymbol.constant(1.0 / a.symbol.coeffs[0]))
        info = {"path": "scalar", "section": 0, "certified_n": 1,
                "residual": 0.0}
        return (inv, info) if with_info else inv
    recip = sym_reciprocal(a.symbol, cfg.tol_symbol)
    band = a.symbol.support_len + recip.support_len
    n = max(64, 2 * max(a.corr.p, a.corr.q, 1), 4 * a.symbol.support_len)
    n = 1 << (n - 1).bit_length()
    compress_tol = max(cfg.tol_corr, cfg.tol_stop / 10)
    best = np.inf
    while n <= cfg.max_finite_section:
        try:
            dense_inv = np.linalg.inv(finite_section(a, n))
        except np.linalg.LinAlgError as exc:
            raise SingularSectionError(
                f"dense {n} x {n} section is singular") from exc
        half = n // 2
        cand = dense_inv[:half, :half] - toeplitz_section(recip, half)
        frame = max(1, half // 10)
        frame_mass = max(np.abs(cand[half - frame:, :]).max(initial=0.0),
                         np.abs(cand[:, half - frame:]).max(initial=0.0))
        if frame_mass <= cfg.tol_stop:
            result = CqtMatrix(recip, Correction.from_dense(cand, compress_tol))
            residual = inverse_residual(a, result)
            if residual <= cfg.tol_stop:
                info = {"path": "windowed", "section": n,
                        "certified_n": _certificate_section(a, result),
                        "residual": residual}
                return (result, info) if with_info else result
            # A decayed window that no longer halves the residual has met
            # the arithmetic's floor; larger windows would not certify.
            if not residual < best / 2:
                raise CertificateError(
                    f"inverse residual {min(best, residual):.2e} exceeds "
                    f"tolerance {cfg.tol_stop:.2e}")
            best = residual
        n *= 2
    raise NoConvergenceError(
        "inverse correction did not decay within the section cap; "
        f"band estimate {band}")


def _certificate_section(a, b):
    prod_extent = max(a.corr.p + b.corr.p, a.corr.q + b.corr.q, 1)
    band = a.symbol.support_len + b.symbol.support_len
    return prod_extent + band + 8


def inverse_residual(a, b):
    """Entrywise max of the leading n x n block of a @ b - I.

    The section n covers both the full correction support of the product
    and one period of every stored symbol coefficient, so together with the
    residual of the reciprocal symbol it certifies the whole matrix.  The
    block is the product of dense sections, exact and uncompressed: row
    i < n of a has no entry past column i + n_plus, nor past column
    a.corr.q < n, so its first k = n + n_plus columns hold all of it.
    """
    n = _certificate_section(a, b)
    k = n + a.symbol.n_plus
    resid = finite_section(a, k)[:n] @ finite_section(b, k)[:, :n]
    np.fill_diagonal(resid, resid.diagonal() - 1.0)
    return float(np.abs(resid).max())
