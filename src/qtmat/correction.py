"""Low-rank finite-support corrections stored as factored blocks.

A correction represents the semi-infinite matrix whose leading p x q block
equals ``u @ v.T`` (plain transpose, also for complex data) and which is zero
elsewhere.  The factored form is kept small by ``corr_compress``: thin QR
factorizations, an SVD of the small core and a certified trim.  Sums
concatenate factors, and so do products, by one stacking rule
(``_stacked``): ``corr_product`` writes the correction of
(T(a) + E)(T(b) + F) in one pass as three pairs, the Hankel product,
(T(a) + E) F and E T(b), of rank r_H + r_F + r_E, the E F part added into
T(a) F by the grow-and-add rule ``padded_sum`` that ``cqt.ExactSum``
uses too.  So the rank r often
exceeds min(p, q); the compression then first refactors the block exactly
on its short side, (I_p, v u^T) when p <= q and (u v^T, I_q) otherwise,
and runs a single QR.  Its results never have rank above min(p, q).  An
identity factor is a valid stored form like any other.

Certificate: every SVD truncation here (``corr_compress`` and
``Correction.from_dense``, through ``_truncated_rank``) keeps
the singular values the budget rule needs, an entrywise sum within its
share of ``tol``, but none at or below the rounding floor
ROUNDING_ULPS * eps * s_0 (``config.ROUNDING_ULPS``, s_0 the largest
value), which the SVD cannot resolve.  So the certified error is the
``tol`` budget plus a rounding allowance, at most sqrt(p q) times the
2-norm of the values under the floor.  Where the budget is at most the
floor, as in ``corr_compress`` at tol < ROUNDING_ULPS * eps (about 1.8e-15)
and s_0 >= 1, the floor governs: it drops every value the budget would.

Dtype rule: both factors share one dtype, float64 when every input is real
and complex128 otherwise.  Real factors stay real through compression,
scaling by a real number, sums with other real corrections and products
with real symbols (``hankel_product``, ``toeplitz_times_factor``), so real
data runs real QR and SVD; a complex operand, symbol or scale makes the
result complex.  The rule goes by dtype, not by value: complex factors
whose imaginary parts are zero stay complex.  It is the rule of
``symbol.LaurentSymbol`` too.

Validation: ``Correction(u, v)`` copies the caller's arrays and checks that
every entry is finite.  Values this module makes from checked ones are
built by ``Correction._owned`` without that scan; a non-finite value is
still refused where it can first appear, a non-finite scale factor and the
compressed core of ``corr_compress`` (and the entry mass of a block given
to ``Correction.from_dense``).
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import ROUNDING_ULPS
from .symbol import sym_reverse, sym_split

# Dense materialization above this many entries falls back to row blocks.
_DENSE_BLOCK_ENTRIES = 1 << 21

# Singular values at or below this multiple of the largest are rounding
# noise, never kept (``_truncated_rank``).
_ROUNDING_FLOOR = ROUNDING_ULPS * np.finfo(np.float64).eps


class Correction:
    """Factored correction ``u @ v.T`` with u of shape (p, r), v (q, r).

    Both factors are float64 when the inputs are real and complex128
    otherwise (see the module docstring).  Nothing ties r to p or q, and
    either factor may be an identity: ``corr_compress`` stores a block as
    (I_p, v u^T) or (u v^T, I_q) when that is its short side.
    """

    def __init__(self, u, v):
        u, v = np.atleast_2d(np.asarray(u)), np.atleast_2d(np.asarray(v))
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("correction factors must be finite")
        self._store(u, v, copy=True)

    @classmethod
    def _owned(cls, u, v):
        """Correction over factors this module has just made.

        They must be 2-D arrays of finite entries, and are frozen in place
        instead of copied or scanned (a non-contiguous view or another
        dtype is still copied).  Arrays a caller may hold go through
        ``Correction(u, v)``, which always copies and checks.
        """
        out = cls.__new__(cls)
        out._store(u, v, copy=False)
        return out

    def _store(self, u, v, copy):
        if u.shape[1] != v.shape[1]:
            raise ValueError("factor rank mismatch")
        dtype = np.result_type(u.dtype, v.dtype, np.float64)
        if u.shape[0] == 0 or v.shape[0] == 0 or u.shape[1] == 0:
            u = v = np.zeros((0, 0), dtype=dtype)
        self.u = _frozen(u, dtype, copy)
        self.v = _frozen(v, dtype, copy)

    @classmethod
    def zero(cls):
        return cls._owned(np.zeros((0, 0)), np.zeros((0, 0)))

    @classmethod
    def rank_one(cls, u, v):
        return cls(np.reshape(u, (-1, 1)), np.reshape(v, (-1, 1)))

    @classmethod
    def from_dense(cls, block, tol, scale=None, keep=None, mags=None):
        """Factor a dense block into a compressed correction.

        Trailing rows/columns whose certified entrywise mass fits in half of
        the tolerance budget are trimmed first, then the kept p x q block K
        is factored with the remaining half.  ``scale`` overrides the
        reference magnitude of the budget (useful when the block is one
        piece of a larger matrix whose norm sets the scale).  ``keep``, a
        boolean array of the block's shape, factors only the entries where
        it is True, as if the others were zero; only the trimmed block is
        then cut out and masked.  ``mags`` passes |block| when the caller
        has it already.

        The factoring is one SVD of K, truncated within the other half of
        the budget.  The truncation keeps no value under the rounding floor
        (``_truncated_rank``): the certificate is the budget plus the
        rounding allowance of the module docstring, and the floor governs
        where the budget is at most ROUNDING_ULPS * eps times the largest
        singular value of K.
        """
        block = np.atleast_2d(np.asarray(block))
        if block.size == 0:
            return cls.zero()
        if mags is None:
            mags = np.abs(block)
        if keep is not None:
            mags = np.where(keep, mags, 0.0)
        total = float(mags.sum())
        if not np.isfinite(total):
            raise ValueError("correction block must be finite")
        if total == 0.0:
            return cls.zero()
        budget = tol * max(1.0, total if scale is None else scale)
        if total <= budget:
            return cls.zero()
        row_mass = mags.sum(axis=1)
        col_mass = mags.sum(axis=0)
        p = _kept_length(row_mass, budget / 4)
        q = _kept_length(col_mass, budget / 4)
        if p == 0 or q == 0:
            return cls.zero()
        if keep is None:
            kept = np.ascontiguousarray(block[:p, :q])
        else:
            kept = np.where(keep[:p, :q], block[:p, :q], 0.0)
        w, s, xh = np.linalg.svd(kept, full_matrices=False)
        k = _truncated_rank(s, p, q, budget / 2)
        return cls._owned(w[:, :k] * s[:k], xh[:k].T)

    @property
    def p(self):
        return self.u.shape[0]

    @property
    def q(self):
        return self.v.shape[0]

    @property
    def rank(self):
        return self.u.shape[1]

    @property
    def is_zero(self):
        return self.rank == 0

    def materialize(self, rows=None, cols=None):
        """Dense (rows x cols) leading block of the correction."""
        rows = self.p if rows is None else rows
        cols = self.q if cols is None else cols
        out = np.zeros((rows, cols), dtype=self.u.dtype)
        if not self.is_zero:
            rp = min(self.p, rows)
            cq = min(self.q, cols)
            out[:rp, :cq] = self.u[:rp] @ self.v[:cq].T
        return out

    @property
    def is_real(self):
        """Whether both factors are stored with zero imaginary parts."""
        return not (np.iscomplexobj(self.u)
                    and (np.any(self.u.imag) or np.any(self.v.imag)))

    def scaled(self, alpha):
        if self.is_zero or alpha == 0:
            return Correction.zero()
        return Correction._owned(self.u * _finite_scale(alpha), self.v)

    def __repr__(self):
        return f"Correction(p={self.p}, q={self.q}, rank={self.rank})"


def _frozen(x, dtype, copy):
    """x as a read-only array of dtype, copied unless told it may be kept.

    A kept array must already be of dtype and contiguous (C or F order), so
    it has the layout a copy would have had.
    """
    if copy or x.dtype != dtype or not (x.flags.c_contiguous
                                        or x.flags.f_contiguous):
        x = x.astype(dtype)
    x.setflags(write=False)
    return x


def _finite_scale(alpha):
    """alpha, or ValueError when it is not finite."""
    if not np.isfinite(alpha):
        raise ValueError("scale factor must be finite")
    return alpha


def _kept_length(masses, budget):
    """Smallest prefix length whose dropped tail mass is within budget."""
    # The tail masses summed from the end, in the order a loop would; they
    # never decrease, so the droppable entries are the ones within budget.
    spent = np.cumsum(masses[::-1])
    return masses.size - int(np.searchsorted(spent, budget, side="right"))


def _kept_rank(s, p, q, budget):
    """Singular values kept so the certified entrywise-sum error fits."""
    if s.size == 0:
        return 0
    # tail[k] = ||s[k:]||_2, summed on s / s[0] so squares cannot overflow.
    rel = s[::-1] / s[0]
    tail = s[0] * np.sqrt(np.cumsum(rel * rel))[::-1]
    # tail never increases, so the dropped values are the ones within budget.
    return int(np.count_nonzero(np.sqrt(p * q) * tail > budget))


def _truncated_rank(s, p, q, budget):
    """Kept rank of every SVD truncation: the budget rule's, above the floor.

    At most ``_kept_rank(s, p, q, budget)`` values, and none at or below
    ROUNDING_ULPS * eps * s[0], where the SVD no longer resolves them.  The
    part that the floor alone drops has an entrywise sum of at most
    sqrt(p q) times the 2-norm of its values: the rounding allowance on top
    of ``budget``.
    """
    k = _kept_rank(s, p, q, budget)
    if k == 0:
        return 0
    return min(k, int(np.count_nonzero(s[:k] > _ROUNDING_FLOOR * s[0])))


def abs_sum_norm(e):
    """Entrywise absolute sum of the correction block."""
    if e.is_zero:
        return 0.0
    if e.p * e.q <= _DENSE_BLOCK_ENTRIES:
        return float(np.abs(e.u @ e.v.T).sum())
    total = 0.0
    step = max(1, _DENSE_BLOCK_ENTRIES // e.q)
    vt = e.v.T
    for lo in range(0, e.p, step):
        total += float(np.abs(e.u[lo:lo + step] @ vt).sum())
    return total


def corr_add(e1, e2, scale2=1.0):
    """Correction representing e1 + scale2 * e2 (uncompressed).

    Factors are zero-padded to the common leading block and concatenated
    (``_stacked``), so the returned rank is the sum of the input ranks.
    The result is real only when both operands and ``scale2`` are.
    """
    if e2.is_zero or scale2 == 0:
        return e1
    if e1.is_zero:
        return e2.scaled(scale2)
    return _stacked([(e1.u, e1.v), (e2.u * _finite_scale(scale2), e2.v)])


def _stacked(pairs):
    """Correction sum of the factor pairs (u, v), in one pass.

    Pairs with an empty factor are skipped.  The others are zero-padded to
    the common leading block and concatenated in order into one pair of
    their common dtype; a single one is kept as it is.
    """
    pairs = [(u, v) for u, v in pairs if u.size and v.size]
    if len(pairs) <= 1:
        return Correction._owned(*pairs[0]) if pairs else Correction.zero()
    dtype = np.result_type(*(x for pair in pairs for x in pair), np.float64)
    rank = sum(u.shape[1] for u, _ in pairs)
    out_u = np.zeros((max(u.shape[0] for u, _ in pairs), rank), dtype=dtype)
    out_v = np.zeros((max(v.shape[0] for _, v in pairs), rank), dtype=dtype)
    col = 0
    for u, v in pairs:
        out_u[:u.shape[0], col:col + u.shape[1]] = u
        out_v[:v.shape[0], col:col + u.shape[1]] = v
        col += u.shape[1]
    return Correction._owned(out_u, out_v)


def padded_sum(acc, block):
    """acc + block, each read as zero past its own shape.

    Adds into acc in place when it is large enough and of a wide enough
    dtype, so a caller passes an acc it owns.
    """
    rows, cols = block.shape
    dtype = np.result_type(acc, block)
    if rows > acc.shape[0] or cols > acc.shape[1] or dtype != acc.dtype:
        grown = np.zeros((max(rows, acc.shape[0]), max(cols, acc.shape[1])),
                         dtype)
        grown[:acc.shape[0], :acc.shape[1]] = acc
        acc = grown
    acc[:rows, :cols] += block
    return acc


def corr_compress(e, tol):
    """Reduce rank and support of a correction within a certified budget.

    Pipeline: orthonormal bases of both factors' column spaces and the small
    core between them, u v^T = Q_u C Q_v^T; the SVD of C; then discard
    trailing singular values and trailing rows/columns whose certified
    entrywise-sum contribution stays below ``tol * max(1, scale)`` where the
    scale is the leading singular value (a lower bound for the entrywise-sum
    norm of the correction), half of it for each cut.  The singular value
    cut keeps none under the rounding floor (``_truncated_rank``), so the
    certified error is that budget plus the rounding allowance of the
    module docstring.  Below tol = ROUNDING_ULPS * eps (about 1.8e-15) the
    floor governs the rank of every correction with s_0 >= 1, and at tol 0
    the result keeps exactly the values above it.

    Short-side rule: when the rank r exceeds min(p, q), as it often does
    after ``corr_add`` or ``corr_product``, the pair is first refactored
    exactly as (I_p, v u^T) when p <= q, otherwise (u v^T, I_q).  The
    identity needs no basis, so one QR runs, of width min(p, q), instead of
    one per factor.  When the trim then leaves rank > min(p, q) the result
    takes the same exact refactor (``_short_side``), one matmul and no
    further QR or SVD, so its rank never exceeds min(p, q).
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if e.is_zero:
        return e
    p, q = e.p, e.q
    # u v^T = qu @ core @ qv.T, where None stands for an identity basis.
    if e.rank <= min(p, q):
        qu, ru = np.linalg.qr(e.u, mode="reduced")
        qv, rv = np.linalg.qr(e.v, mode="reduced")
        core = ru @ rv.T
    elif p <= q:
        qu = None
        qv, rv = np.linalg.qr(e.v @ e.u.T, mode="reduced")
        core = rv.T
    else:
        qu, core = np.linalg.qr(e.u @ e.v.T, mode="reduced")
        qv = None
    if not np.isfinite(core).all():
        raise ValueError("compressed correction core must be finite")
    w, s, xh = np.linalg.svd(core, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Correction.zero()
    budget = tol * max(1.0, float(s[0]))
    k = _truncated_rank(s, p, q, budget / 2)
    if k == 0:
        return Correction.zero()
    u = w[:, :k] * s[:k]
    v = xh[:k].T
    out = _trim_factors(u if qu is None else qu @ u,
                        v if qv is None else qv @ v, budget / 2)
    return _short_side(out)


def _short_side(e):
    """e, or when its rank exceeds min(p, q) the same block refactored exactly.

    The refactor is (I_p, v u^T) when p <= q, otherwise (u v^T, I_q): rank
    min(p, q), an identity in the factors' dtype on the short side.
    """
    if e.rank <= min(e.p, e.q):
        return e
    if e.p <= e.q:
        return Correction._owned(np.eye(e.p, dtype=e.u.dtype), e.v @ e.u.T)
    return Correction._owned(e.u @ e.v.T, np.eye(e.q, dtype=e.v.dtype))


def _trim_factors(u, v, budget):
    """Drop negligible trailing rows of both factors.

    |E_ij| <= sum_k |u_ik| |v_jk| certifies the dropped mass.
    """
    au = np.abs(u)
    av = np.abs(v)
    col_u = au.sum(axis=0)
    col_v = av.sum(axis=0)
    row_mass = au @ col_v
    col_mass = av @ col_u
    p = _kept_length(row_mass, budget / 2)
    q = _kept_length(col_mass, budget / 2)
    if p == 0 or q == 0:
        return Correction.zero()
    return Correction._owned(u[:p], v[:q])


def hankel_product(a_minus, b_plus, clip=None):
    """Product of the two Hankel matrices built from one-sided symbols.

    ``a_minus`` stores a_{-i} at exponent i >= 1 and ``b_plus`` stores b_i at
    exponent i >= 1, as produced by ``sym_split``.  The first Hankel factor
    has entries a_{-i-j+1}, the second b_{i+j-1}; their product is returned in
    factored form with inner dimension min(support lengths).  ``clip``
    restricts both Hankel matrices to their leading clip x clip blocks.

    The rank never exceeds the smaller support length.
    """
    if a_minus.is_zero or b_plus.is_zero:
        return Correction.zero()
    if a_minus.min_deg < 1 or b_plus.min_deg < 1:
        raise ValueError("hankel_product expects one-sided split symbols")
    ka = a_minus.max_deg
    kb = b_plus.max_deg
    cm = np.zeros(ka, dtype=a_minus.coeffs.dtype)
    cm[a_minus.min_deg - 1:ka] = a_minus.coeffs
    cp = np.zeros(kb, dtype=b_plus.coeffs.dtype)
    cp[b_plus.min_deg - 1:kb] = b_plus.coeffs
    cap = min(ka, kb) if clip is None else min(ka, kb, clip)
    rows = ka if clip is None else min(ka, clip)
    cols = kb if clip is None else min(kb, clip)
    ii = np.arange(rows)[:, None] + np.arange(cap)[None, :]
    jj = np.arange(cols)[:, None] + np.arange(cap)[None, :]
    u = np.where(ii < ka, cm[np.minimum(ii, ka - 1)], 0.0)
    v = np.where(jj < kb, cp[np.minimum(jj, kb - 1)], 0.0)
    return Correction._owned(u, v)


def toeplitz_times_factor(sym, factor, row_cap=None):
    """Columns of T(a) @ U for a tall factor U.

    Row i of the result is sum_k a_k U[i + k]: with d the lowest exponent
    and t coefficients, rows i + d .. i + d + t - 1 of U (zero outside U),
    one window of a zero-padded copy, times the coefficients.  One batched
    product over all windows serves every column.  The support grows
    downward by the number of negative exponents of the symbol.
    ``row_cap`` clips the output rows (finite sections).  The result is
    real when the symbol and the factor are.
    """
    dtype = np.result_type(sym.coeffs, factor)
    p, r = factor.shape
    if sym.is_zero or p == 0 or r == 0:
        return np.zeros((0, 0), dtype=dtype)
    d = sym.min_deg
    t = sym.coeffs.size
    out_rows = p + max(0, -d)
    if row_cap is not None:
        out_rows = min(out_rows, row_cap)
    if out_rows <= 0:
        return np.zeros((0, 0), dtype=dtype)
    # padded[j] = U[j + d], so window i is padded[i:i + t], a t x r view.
    # as_strided costs a third of sliding_window_view per call, and this
    # runs tens of thousands of times per series.
    padded = np.zeros((out_rows + t - 1, r), dtype=dtype)
    lo = max(0, -d)
    hi = min(padded.shape[0], p - d)
    if lo < hi:
        padded[lo:hi] = factor[lo + d:hi + d]
    row, col = padded.strides
    windows = as_strided(padded, (out_rows, t, r), (row, row, col),
                         writeable=False)
    return sym.coeffs @ windows


def corr_times_corr(e1, e2):
    """Correction E1 @ E2 through the shared inner block."""
    if e1.is_zero or e2.is_zero:
        return Correction.zero()
    inner = min(e1.q, e2.p)
    if inner == 0:
        return Correction.zero()
    mid = e1.v[:inner].T @ e2.u[:inner]
    return Correction._owned(e1.u @ mid, e2.v)


def corr_product(a, e, b, f, cap=None):
    """Correction of (T(a) + E)(T(b) + F) - T(ab), uncompressed.

    T(a) T(b) = T(ab) - H(a^-) H(b^+), so the correction is
    -H(a^-) H(b^+) + (T(a) + E) F + E T(b), three factor pairs of ranks
    r_H = min(support lengths of a^- and b^+), r_F and r_E, written once
    into one pair by ``_stacked``, in that order: rank r_H + r_F + r_E.
    T(a) F and E F share the right factor of F, so their left factors add
    (``padded_sum``): T(a) U_F plus U_E V_E^T U_F, which fills the leading
    p_E rows.  E T(b) = U_E (T(b~) V_E)^T with b~ the reversed symbol, as
    T(b)^T = T(b~).  ``cap`` clips the Hankel and Toeplitz terms to the
    leading cap x cap block, for finite corners, whose E and F fit in it.
    """
    a_minus, _, _ = sym_split(a)
    _, _, b_plus = sym_split(b)
    h = hankel_product(a_minus, b_plus, cap)
    af = padded_sum(toeplitz_times_factor(a, f.u, row_cap=cap),
                    corr_times_corr(e, f).u)
    eb = toeplitz_times_factor(sym_reverse(b), e.v, row_cap=cap)
    return _stacked([(-h.u, h.v), (af, f.v), (e.u, eb)])
