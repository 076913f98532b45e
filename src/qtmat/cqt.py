"""Semi-infinite quasi-Toeplitz matrices: T(a) plus a low-rank correction.

The product of two Toeplitz operators deviates from Toeplitz form by a
product of two Hankel matrices built from the symbol tails; all algebra
operations here track that deviation in factored form and compress it after
every step.  The inverse uses the same rule on the Wiener-Hopf factors of
the symbol, T(a)^-1 = T(1/a_minus) T(1/a_plus), adds the correction by
Woodbury's identity and is certified by its residual against the identity.

``QtMatrix``, the base of ``CqtMatrix`` and ``finite.FiniteQtMatrix``,
computes the protocol members from a symbol and a tuple of corrections.
Both modules' algebra functions share the add rule and the shortcuts of
the product and the inverse defined here, and both function engines the
exact running sum ``ExactSum``.
"""

import copy

import numpy as np
import scipy.linalg

from .config import DEFAULT_CONFIG
from .correction import (
    Correction,
    abs_sum_norm,
    corr_add,
    corr_compress,
    corr_product,
    hankel_product,
    padded_sum,
    toeplitz_times_factor,
)
from .errors import CertificateError, SingularMatrixError
from .symbol import (
    LaurentSymbol,
    norm_w,
    sym_add,
    sym_inverse_factors,
    sym_mul,
    sym_scale,
    sym_split,
    sym_truncate,
    wiener_norms,
)


class QtMatrix:
    """Algebra protocol shared by ``CqtMatrix`` and ``FiniteQtMatrix``.

    A subclass stores ``symbol`` and provides ``corrections`` (the stored
    corrections, in constructor order), ``with_parts`` (a matrix of its
    class and size from a symbol and corrections, missing ones zero) and
    ``add``, ``mul`` and ``inv``; everything here is computed from those.
    The function-engine modules rely only on this protocol.
    """

    @classmethod
    def zero(cls, *size):
        """The zero matrix; ``size`` is the finite class's m."""
        return cls(*size, LaurentSymbol.zero())

    @classmethod
    def identity(cls, *size):
        """The identity; ``size`` is the finite class's m."""
        return cls(*size, LaurentSymbol.one())

    @property
    def is_zero(self):
        return self.symbol.is_zero and all(c.is_zero
                                           for c in self.corrections)

    @property
    def is_identity(self):
        return _scalar(self) == 1.0

    @property
    def is_real(self):
        return self.symbol.is_real and all(c.is_real
                                           for c in self.corrections)

    @property
    def dtype(self):
        """float64 when the symbol and every correction are stored real."""
        return np.result_type(self.symbol.coeffs,
                              *(c.u for c in self.corrections))

    def norm_cqt(self):
        return cqt_norm(self)

    def scale(self, alpha):
        return self.with_parts(sym_scale(self.symbol, alpha),
                               [c.scaled(alpha) for c in self.corrections])

    def identity_like(self):
        return self.with_parts(LaurentSymbol.one(), ())

    def with_symbol(self, symbol):
        return self.with_parts(symbol, self.corrections)

    def semi_infinite_half(self, terms):
        """None; ``FiniteQtMatrix`` gives its mirrored half, if it fits."""
        return None

    def __add__(self, other):
        return self.add(other)

    def __matmul__(self, other):
        return self.mul(other)


class CqtMatrix(QtMatrix):
    """Pair (symbol, correction) representing T(a) + E."""

    def __init__(self, symbol, corr=None):
        if not isinstance(symbol, LaurentSymbol):
            symbol = LaurentSymbol(symbol)
        self.symbol = symbol
        self.corr = Correction.zero() if corr is None else corr

    @property
    def corrections(self):
        """The stored corrections, in constructor order."""
        return (self.corr,)

    def with_parts(self, symbol, corrections):
        """A matrix of this class from a symbol and corrections."""
        return CqtMatrix(symbol, *corrections)

    def add(self, other, cfg=DEFAULT_CONFIG):
        return cqt_add(self, other, cfg)

    def mul(self, other, cfg=DEFAULT_CONFIG):
        return cqt_mul(self, other, cfg)

    def inv(self, cfg=DEFAULT_CONFIG, with_info=False):
        return cqt_inv(self, cfg, with_info)

    def __repr__(self):
        return f"CqtMatrix(symbol={self.symbol!r}, corr={self.corr!r})"


class ExactSum:
    """Exact running sum of scaled matrices of one class and size.

    It holds the symbol, one dense block per correction grown to the
    largest term's (``correction.padded_sum``, the grow-and-add rule that
    ``corr_product`` uses too) and the summed term masses: a term
    c (T(a) + E) weighs |c| ||a||_W plus the entry mass of c E.
    ``result`` truncates the symbol and factors each block once, budgeted
    against that mass.  The series sums f_k A^k with it, the contour engine
    c_k (z_k I - A)^{-1}.
    """

    def __init__(self, like):
        self.like = like  # builds the result by its ``with_parts``
        self.sym = LaurentSymbol.zero()
        self.blocks = [np.zeros((0, 0)) for _ in like.corrections]
        self.mass = 0.0

    def add(self, term, coef, real=False):
        """Add coef times term; with ``real`` only its real part."""
        sym = sym_scale(term.symbol, coef)
        if real:
            sym = LaurentSymbol(sym.coeffs.real, sym.min_deg)
        self.sym = sym_add(self.sym, sym)
        self.mass += abs(coef) * norm_w(term.symbol)
        for i, c in enumerate(term.corrections):
            if c.is_zero:
                continue
            block = (c.u * coef) @ c.v.T
            self.mass += float(np.abs(block).sum())
            self.blocks[i] = padded_sum(self.blocks[i],
                                        block.real if real else block)

    def halved(self):
        """Half of this sum, mass included, as a new sum."""
        half = copy.copy(self)
        half.sym, half.mass = sym_scale(self.sym, 0.5), 0.5 * self.mass
        half.blocks = [0.5 * b for b in self.blocks]
        return half

    def distance(self, other):
        """Exact ``norm_cqt`` of this sum minus ``other``."""
        nw, nw1 = wiener_norms(sym_add(self.sym, sym_scale(other.sym, -1.0)))
        return nw + nw1 + sum(float(np.abs(padded_sum(-p, b)).sum())
                              for b, p in zip(self.blocks, other.blocks))

    def result(self, tol):
        """The sum as a matrix: one truncation, one factoring per block."""
        return self.like.with_parts(
            sym_truncate(self.sym, tol),
            [Correction.from_dense(b, tol, scale=self.mass)
             for b in self.blocks])


def _scalar(a):
    """c when a is c I (constant symbol c, no correction), else None."""
    sym = a.symbol
    if (sym.support_len == 1 and sym.min_deg == 0
            and all(c.is_zero for c in a.corrections)):
        return sym.coeffs[0]
    return None


def _add_parts(a, b, cfg):
    """Add rule of both classes: symbols and paired corrections sum."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    sym = sym_truncate(sym_add(a.symbol, b.symbol), cfg.tol_trunc)
    return a.with_parts(sym, [corr_compress(corr_add(e, f), cfg.tol_trunc)
                              for e, f in zip(a.corrections, b.corrections)])


def _trivial_product(a, b):
    """a @ b when a factor is zero or the identity, else None."""
    if a.is_zero or b.is_zero:
        return a.with_parts(LaurentSymbol.zero(), ())
    if a.is_identity:
        return b
    if b.is_identity:
        return a
    return None


def _scalar_inverse(a):
    """(1/c) I when a is c I, else None; SingularMatrixError when a = 0."""
    if a.is_zero:
        raise SingularMatrixError("zero matrix is not invertible")
    c = _scalar(a)
    return None if c is None else a.with_parts(
        LaurentSymbol.constant(1.0 / c), ())


def _certified(worst, cfg):
    """The inverse residual worst, or CertificateError past tol_stop."""
    if worst > cfg.tol_stop:
        raise CertificateError(
            f"inverse residual {worst:.2e} exceeds tolerance "
            f"{cfg.tol_stop:.2e}")
    return worst


def cqt_norm(a):
    """||a||_W + ||a'||_W + entrywise sum of each correction, in order."""
    nw, nw1 = wiener_norms(a.symbol)
    total = nw + nw1
    for c in a.corrections:
        total += abs_sum_norm(c)
    return total


def qt_norm(a):
    """||a||_W + entrywise sum of each correction (derivative term dropped)."""
    nw, _ = wiener_norms(a.symbol)
    return nw + sum(abs_sum_norm(c) for c in a.corrections)


def toeplitz_section(sym, n):
    """Dense leading n x n block of T(a), in the symbol's dtype."""
    if sym.is_zero:
        return np.zeros((n, n), dtype=sym.coeffs.dtype)
    col = _gather(sym, -np.arange(n))
    row = _gather(sym, np.arange(n))
    return scipy.linalg.toeplitz(col, row)


def _gather(sym, exps):
    """Coefficient of each exponent in ``exps`` (0 outside the support)."""
    out = np.zeros(exps.shape, dtype=sym.coeffs.dtype)
    idx = exps - sym.min_deg
    mask = (idx >= 0) & (idx < sym.coeffs.size)
    out[mask] = sym.coeffs[idx[mask]]
    return out


def finite_section(a, n):
    """Dense leading n x n block of the represented matrix."""
    if n < 1:
        raise ValueError("section size must be at least 1")
    out = toeplitz_section(a.symbol, n).astype(a.dtype, copy=False)
    if not a.corr.is_zero:
        out += a.corr.materialize(n, n)
    return out


def cqt_add(a, b, cfg=DEFAULT_CONFIG):
    """Sum in the algebra; symbol and correction add, then get compressed."""
    return _add_parts(a, b, cfg)


def cqt_mul(a, b, cfg=DEFAULT_CONFIG):
    """Product in the algebra.

    The Toeplitz part carries the product symbol.  The correction is
    ``corr_product`` of the two pairs, compressed: the Hankel-product
    deviation of the two Toeplitz parts together with the cross terms
    involving the input corrections, in factored form.
    """
    short = _trivial_product(a, b)
    if short is not None:
        return short
    return CqtMatrix(
        sym_truncate(sym_mul(a.symbol, b.symbol), cfg.tol_trunc),
        corr_compress(corr_product(a.symbol, a.corr, b.symbol, b.corr),
                      cfg.tol_trunc))


def cqt_inv(a, cfg=DEFAULT_CONFIG, with_info=False):
    """Inverse in the algebra, from the Wiener-Hopf factors of the symbol.

    With b_minus = 1/a_minus and b_plus = 1/a_plus from
    ``sym_inverse_factors``,

        T(a)^-1 = T(b_minus) T(b_plus)
                = T(b_minus b_plus) - H(b_minus^-) H(b_plus^+),

    one ``hankel_product`` (Bini, Massei and Robol, "Quasi-Toeplitz matrix
    arithmetic: a MATLAB toolbox", Numer. Algorithms 81, 2019).  The
    correction E = U V^T enters by Woodbury's identity,

        (T + U V^T)^-1 = T^-1 - T^-1 U (I + V^T T^-1 U)^-1 V^T T^-1,

    whose r x r capacitance matrix is the only one solved.  The Hankel
    product and the Woodbury term form one dense block, factored by
    ``Correction.from_dense`` at ``cfg.tol_trunc``.  The result is
    certified when ``inverse_residual`` is at most ``cfg.tol_stop``.

    ``finite.fqt_inv`` inverts a large finite matrix from two such
    inverses, one per corner (Widom's formula).

    The record holds ``path`` ("factored", or "scalar" for a scalar
    Toeplitz matrix, which inverts exactly), ``certified_n`` (a section of
    a @ result - I that holds every distinct entry) and ``residual`` (the
    certified entrywise max).

    Raises
    ------
    NonzeroWindingError, ZeroOnCircleError  if the symbol is not invertible
    SingularMatrixError                     if the matrix is zero or the
                                            capacitance matrix is singular
    CertificateError                        if the residual exceeds
                                            ``cfg.tol_stop`` (both numbers
                                            are in the message)
    NoConvergenceError                      if the symbol's factors do not
                                            resolve (``sym_inverse_factors``)
    """
    inv = _scalar_inverse(a)
    if inv is not None:
        info = {"path": "scalar", "certified_n": 1, "residual": 0.0}
        return (inv, info) if with_info else inv
    b_minus, b_plus = sym_inverse_factors(a.symbol, cfg.tol_trunc)
    recip = sym_mul(b_minus, b_plus)
    hank = hankel_product(sym_split(b_minus)[0], sym_split(b_plus)[2])
    e = a.corr
    # The leading n x n block of T(a)^-1 holds T(a)^-1 U and V^T T(a)^-1.
    n = max(e.p + recip.n_minus, e.q + recip.n_plus, hank.p, hank.q)
    block = -hank.materialize(n, n)
    if not e.is_zero:
        t_inv = toeplitz_section(recip, n) + block
        x = t_inv[:, :e.p] @ e.u
        capacitance = np.eye(e.rank) + e.v.T @ x[:e.q]
        try:
            block = block - x @ np.linalg.solve(capacitance,
                                                e.v.T @ t_inv[:e.q])
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                "capacitance matrix I + V^T T(a)^-1 U is singular") from exc
    result = CqtMatrix(recip, Correction.from_dense(block, cfg.tol_trunc))
    residual = _certified(inverse_residual(a, result), cfg)
    info = {"path": "factored", "certified_n": _certificate_section(a, result),
            "residual": residual}
    return (result, info) if with_info else result


def _residual_block(a, b):
    """Leading block of a @ b - I outside which it is T(ab - 1)."""
    return (max(a.corr.p, b.corr.p + a.symbol.n_minus),
            max(b.corr.q, a.corr.q + b.symbol.n_plus))


def _certificate_section(a, b):
    """Leading section of a @ b - I that holds all its distinct entries."""
    # The block inverse_residual reads, and past it an entry of each
    # coefficient of ab - 1: its entrywise max is the residual.
    rows, cols = _residual_block(a, b)
    return max(rows, cols) + a.symbol.support_len + b.symbol.support_len + 1


def inverse_residual(a, b):
    """Entrywise max of a @ b - I over the whole matrix, exact.

    The rows x cols block of ``_residual_block`` holds both factors'
    corrections and the Hankel product of their Toeplitz parts; the
    coefficients of ab - 1 hold every other entry.  The block is exact:
    row i < rows of a has no entry past column i + n_plus, nor past column
    a.corr.q, so it is T(a) + E applied to the first k rows of the section
    of b, T(a) applied by ``toeplitz_times_factor``.
    """
    rows, cols = _residual_block(a, b)
    symbol = sym_add(sym_mul(a.symbol, b.symbol), LaurentSymbol.constant(-1.0))
    worst = float(np.abs(symbol.coeffs).max(initial=0.0))
    if rows == 0 or cols == 0:
        return worst
    k = max(rows + a.symbol.n_plus, a.corr.q)
    right = finite_section(b, max(k, cols))[:k, :cols]
    dtype = np.result_type(a.dtype, right)
    if a.symbol.is_zero:
        block = np.zeros((rows, cols), dtype=dtype)
    else:
        block = toeplitz_times_factor(a.symbol, right, row_cap=rows).astype(
            dtype, copy=False)
    if not a.corr.is_zero:
        block[:a.corr.p] += a.corr.u @ (a.corr.v.T @ right[:a.corr.q])
    np.fill_diagonal(block, block.diagonal() - 1.0)
    return max(worst, float(np.abs(block).max()))
