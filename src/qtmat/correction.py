"""Low-rank finite-support corrections stored as factored blocks.

A correction represents the semi-infinite matrix whose leading p x q block
equals ``u @ v.T`` (plain transpose, also for complex data) and which is zero
elsewhere.  The factored form is kept small by a compression step based on
thin QR factorizations and an SVD of the small core.
"""

import numpy as np

from .symbol import sym_reverse

# Dense materialization above this many entries falls back to row blocks.
_DENSE_BLOCK_ENTRIES = 1 << 21


class Correction:
    """Factored correction ``u @ v.T`` with u of shape (p, r), v (q, r)."""

    def __init__(self, u, v):
        u = np.atleast_2d(np.asarray(u, dtype=np.complex128))
        v = np.atleast_2d(np.asarray(v, dtype=np.complex128))
        if u.shape[1] != v.shape[1]:
            raise ValueError("factor rank mismatch")
        if u.shape[0] == 0 or v.shape[0] == 0 or u.shape[1] == 0:
            u = np.zeros((0, 0), dtype=np.complex128)
            v = np.zeros((0, 0), dtype=np.complex128)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("correction factors must be finite")
        u = u.copy()
        v = v.copy()
        u.setflags(write=False)
        v.setflags(write=False)
        self.u = u
        self.v = v

    @classmethod
    def zero(cls):
        return cls(np.zeros((0, 0)), np.zeros((0, 0)))

    @classmethod
    def rank_one(cls, u, v):
        u = np.asarray(u, dtype=np.complex128).reshape(-1, 1)
        v = np.asarray(v, dtype=np.complex128).reshape(-1, 1)
        return cls(u, v)

    @classmethod
    def unit(cls, i, j):
        """Correction with a single 1 at (row i, col j), zero-based."""
        u = np.zeros((i + 1, 1), dtype=np.complex128)
        v = np.zeros((j + 1, 1), dtype=np.complex128)
        u[i, 0] = 1.0
        v[j, 0] = 1.0
        return cls(u, v)

    @classmethod
    def from_dense(cls, block, tol, scale=None):
        """Factor a dense block into a compressed correction.

        Trailing rows/columns whose certified entrywise mass fits in half of
        the tolerance budget are trimmed first, then the kept block is
        factored through an SVD with the remaining budget.  ``scale``
        overrides the reference magnitude of the budget (useful when the
        block is one piece of a larger matrix whose norm sets the scale).
        """
        block = np.atleast_2d(np.asarray(block, dtype=np.complex128))
        if block.size == 0:
            return cls.zero()
        mags = np.abs(block)
        total = float(mags.sum())
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
        kept = block[:p, :q]
        w, s, xh = np.linalg.svd(kept, full_matrices=False)
        k = _kept_rank(s, p, q, budget / 2)
        if k == 0:
            return cls.zero()
        return cls(w[:, :k] * s[:k], xh[:k].T)

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
        out = np.zeros((rows, cols), dtype=np.complex128)
        if not self.is_zero:
            rp = min(self.p, rows)
            cq = min(self.q, cols)
            out[:rp, :cq] = self.u[:rp] @ self.v[:cq].T
        return out

    @property
    def is_real(self):
        """Whether both factors are stored with zero imaginary parts."""
        return not (np.any(self.u.imag) or np.any(self.v.imag))

    def real_part(self):
        """Exact real part, Re(u v^T) = [Re u, -Im u] [Re v, Im v]^T.

        The rank doubles only when both factors are complex, since
        otherwise Im u Im v^T vanishes; the result is not compressed.
        """
        if not (np.any(self.u.imag) and np.any(self.v.imag)):
            return Correction(self.u.real, self.v.real)
        return Correction(np.hstack([self.u.real, -self.u.imag]),
                          np.hstack([self.v.real, self.v.imag]))

    def scaled(self, alpha):
        if self.is_zero or alpha == 0:
            return Correction.zero()
        return Correction(self.u * alpha, self.v)

    def __repr__(self):
        return f"Correction(p={self.p}, q={self.q}, rank={self.rank})"


def _kept_length(masses, budget):
    """Smallest prefix length whose dropped tail mass is within budget."""
    n = masses.size
    spent = 0.0
    while n > 0 and spent + masses[n - 1] <= budget:
        spent += masses[n - 1]
        n -= 1
    return n


def _kept_rank(s, p, q, budget):
    """Singular values kept so the certified entrywise-sum error fits."""
    if s.size == 0:
        return 0
    # tail[k] = ||s[k:]||_2, summed on s / s[0] so squares cannot overflow.
    rel = s[::-1] / s[0]
    tail = s[0] * np.sqrt(np.cumsum(rel * rel))[::-1]
    scale = np.sqrt(p * q)
    k = s.size
    while k > 0 and scale * tail[k - 1] <= budget:
        k -= 1
    return k


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

    Factors are zero-padded to the common leading block and concatenated, so
    the returned rank is the sum of the input ranks.
    """
    if e2.is_zero or scale2 == 0:
        return e1
    if e1.is_zero:
        return e2.scaled(scale2)
    p = max(e1.p, e2.p)
    q = max(e1.q, e2.q)
    u = np.zeros((p, e1.rank + e2.rank), dtype=np.complex128)
    v = np.zeros((q, e1.rank + e2.rank), dtype=np.complex128)
    u[:e1.p, :e1.rank] = e1.u
    u[:e2.p, e1.rank:] = e2.u * scale2
    v[:e1.q, :e1.rank] = e1.v
    v[:e2.q, e1.rank:] = e2.v
    return Correction(u, v)


def corr_compress(e, tol):
    """Reduce rank and support of a correction within a certified budget.

    Pipeline: thin QR of both factors, SVD of the small core, then discard
    trailing singular values and trailing rows/columns whose certified
    entrywise-sum contribution stays below ``tol * max(1, scale)`` where the
    scale is the leading singular value (a lower bound for the entrywise-sum
    norm of the correction).
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if e.is_zero:
        return e
    qu, ru = np.linalg.qr(e.u, mode="reduced")
    qv, rv = np.linalg.qr(e.v, mode="reduced")
    core = ru @ rv.T
    w, s, xh = np.linalg.svd(core, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Correction.zero()
    budget = tol * max(1.0, float(s[0]))
    k = _kept_rank(s, e.p, e.q, budget / 2)
    if k == 0:
        return Correction.zero()
    u = qu @ (w[:, :k] * s[:k])
    v = qv @ xh[:k].T
    out = _trim_factors(u, v, budget / 2)
    if out.rank > min(out.p, out.q):
        out = _reduce_rank(out)
    return out


def _reduce_rank(e):
    """Lossless rank reduction after support trimming left rank > min(p, q)."""
    qu, ru = np.linalg.qr(e.u, mode="reduced")
    qv, rv = np.linalg.qr(e.v, mode="reduced")
    w, s, xh = np.linalg.svd(ru @ rv.T, full_matrices=False)
    k = int(np.count_nonzero(s))
    if k == 0:
        return Correction.zero()
    return Correction(qu @ (w[:, :k] * s[:k]), qv @ xh[:k].T)


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
    return Correction(u[:p], v[:q])


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
    cm = np.zeros(ka, dtype=np.complex128)
    cm[a_minus.min_deg - 1:ka] = a_minus.coeffs
    cp = np.zeros(kb, dtype=np.complex128)
    cp[b_plus.min_deg - 1:kb] = b_plus.coeffs
    cap = min(ka, kb) if clip is None else min(ka, kb, clip)
    rows = ka if clip is None else min(ka, clip)
    cols = kb if clip is None else min(kb, clip)
    ii = np.arange(rows)[:, None] + np.arange(cap)[None, :]
    jj = np.arange(cols)[:, None] + np.arange(cap)[None, :]
    u = np.where(ii < ka, cm[np.minimum(ii, ka - 1)], 0.0)
    v = np.where(jj < kb, cp[np.minimum(jj, kb - 1)], 0.0)
    return Correction(u, v)


def toeplitz_times_factor(sym, factor, row_cap=None):
    """Columns of T(a) @ U for a tall factor U.

    Row i of the result is sum_k a_k U[i + k], a correlation of each column
    with the symbol; the support grows downward by the number of negative
    exponents of the symbol.  ``row_cap`` clips the output rows (finite
    sections).
    """
    factor = np.asarray(factor, dtype=np.complex128)
    p, r = factor.shape
    if sym.is_zero or p == 0 or r == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    d = sym.min_deg
    t = sym.coeffs.size
    out_rows = p + max(0, -d)
    if row_cap is not None:
        out_rows = min(out_rows, row_cap)
    if out_rows <= 0:
        return np.zeros((0, 0), dtype=np.complex128)
    rev = sym.coeffs[::-1]
    out = np.zeros((out_rows, r), dtype=np.complex128)
    offset = d + t - 1
    conv_len = t + p - 1
    lo = max(0, -offset)
    hi = min(out_rows, conv_len - offset)
    if lo >= hi:
        return out
    for k in range(r):
        conv = np.convolve(rev, factor[:, k])
        out[lo:hi, k] = conv[lo + offset:hi + offset]
    return out


def corr_times_toeplitz(e, sym, col_cap=None):
    """Correction E @ T(b) in factored form.

    Uses E T(b) = U (T(b)^T V)^T where T(b)^T is the Toeplitz matrix of the
    reversed symbol, so the column support grows by the number of positive
    exponents of b.
    """
    if e.is_zero or sym.is_zero:
        return Correction.zero()
    w = toeplitz_times_factor(sym_reverse(sym), e.v, row_cap=col_cap)
    if w.size == 0:
        return Correction.zero()
    return Correction(e.u, w)


def toeplitz_times_corr(sym, e, row_cap=None):
    """Correction T(a) @ E in factored form."""
    if e.is_zero or sym.is_zero:
        return Correction.zero()
    w = toeplitz_times_factor(sym, e.u, row_cap=row_cap)
    if w.size == 0:
        return Correction.zero()
    return Correction(w, e.v)


def corr_times_corr(e1, e2):
    """Correction E1 @ E2 through the shared inner block."""
    if e1.is_zero or e2.is_zero:
        return Correction.zero()
    inner = min(e1.q, e2.p)
    if inner == 0:
        return Correction.zero()
    mid = e1.v[:inner].T @ e2.u[:inner]
    return Correction(e1.u @ mid, e2.v)
