"""Finite m x m quasi-Toeplitz matrices with two corner corrections.

A matrix is stored as a banded Toeplitz part plus a top-left correction and
a bottom-right correction.  The bottom-right one is kept in flipped
coordinates (as the top-left correction of J A J, with J the anti-identity)
so both corners share the same factored representation and compression; the
flip is applied only when materializing.  The protocol members, the add
rule and the shortcuts of the product and the inverse are those of the
semi-infinite class (``cqt.QtMatrix``).

A large matrix is inverted by two semi-infinite inverses (``cqt_inv``), one per
corner, by Widom's formula; a small one, or one the formula does not certify,
is solved on its band in every column, by one LAPACK ``?gbsv`` call
(``BandMatrix.solve``) that factors and solves at once.  Either inverse is
certified on sampled columns by the one Toeplitz-apply kernel.

A mirrored matrix (J A J = A, ``_mirrored``: a palindromic symbol and two
equal corners) has its two corners computed once: Widom's formula takes
one ``cqt_inv`` call, the series engines sum on the semi-infinite half
T(a) + E_tl when the series fits (``FiniteQtMatrix.semi_infinite_half``),
and a band solve (``BandMatrix.mirrored``, the same test) solves half the
columns.
"""

import functools

import numpy as np
from scipy.linalg import get_lapack_funcs

from .config import DEFAULT_CONFIG, MIRROR_ULPS
from .correction import (
    Correction,
    corr_add,
    corr_compress,
    corr_product,
    corr_times_corr,
    toeplitz_times_factor,
)
from .cqt import (
    CqtMatrix,
    QtMatrix,
    _add_parts,
    _certified,
    _gather,
    _scalar_inverse,
    _trivial_product,
    cqt_inv,
    toeplitz_section,
)
from .errors import (
    NoConvergenceError,
    NonzeroWindingError,
    SingularMatrixError,
    SizeMismatchError,
    ZeroOnCircleError,
)
from .symbol import (
    LaurentSymbol,
    sym_clip,
    sym_mul,
    sym_reverse,
    sym_truncate,
    wiener_norms,
)


class FiniteQtMatrix(QtMatrix):
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

    @property
    def corrections(self):
        """The stored corrections, in constructor order."""
        return (self.corr_tl, self.corr_br)

    def with_parts(self, symbol, corrections):
        """A matrix of this class and size from a symbol and corrections."""
        return FiniteQtMatrix(self.m, symbol, *corrections)

    def with_symbol(self, symbol):
        """The same corners under a symbol clipped to the band range."""
        return self.with_parts(sym_clip(symbol, self.m - 1),
                               self.corrections)

    def add(self, other, cfg=DEFAULT_CONFIG):
        return fqt_add(self, other, cfg)

    def mul(self, other, cfg=DEFAULT_CONFIG):
        return fqt_mul(self, other, cfg)

    def inv(self, cfg=DEFAULT_CONFIG, with_info=False):
        return fqt_inv(self, cfg, with_info)

    def semi_infinite_half(self, terms):
        """T(a) plus the top-left corner when it stands for the matrix.

        It does when the matrix is mirrored (``_mirrored``) and a series of
        ``terms`` terms fits: 2 reach <= m, with reach = terms
        max(n_minus, n_plus) plus the larger corner dimension.  No corner
        of the first ``terms`` powers then reaches the other one, nor any
        clip to m, so the sum on the half gives the top-left corner
        operation for operation, and the bottom-right one is its mirror.
        Else None.
        """
        sym, tl = self.symbol, self.corr_tl
        reach = terms * max(sym.n_minus, sym.n_plus) + max(tl.p, tl.q)
        if 2 * reach > self.m or not _mirrored(self):
            return None
        return CqtMatrix(sym, tl)

    def columns(self, js):
        """Dense columns js (zero-based), m x len(js), not materialized."""
        m = self.m
        js = np.asarray(js, dtype=int).reshape(-1)
        if js.size and not (0 <= js.min() and js.max() < m):
            raise IndexError("column index out of range")
        cols = _gather(self.symbol, js - np.arange(m)[:, None]).astype(
            self.dtype, copy=False)
        # Each corner u v^T adds its columns ks to the leading rows of out.
        for out, corr, ks in ((cols, self.corr_tl, js),
                              (cols[::-1], self.corr_br, m - 1 - js)):
            sel = np.flatnonzero(ks < corr.q)
            out[:corr.p, sel] += corr.u @ corr.v[ks[sel]].T
        return cols

    def column(self, j):
        """Dense column j (zero-based) without materializing the matrix."""
        return self.columns([j])[:, 0]

    def __repr__(self):
        return (f"FiniteQtMatrix(m={self.m}, symbol={self.symbol!r}, "
                f"tl={self.corr_tl!r}, br={self.corr_br!r})")


def _mirrored(a):
    """Whether J A J = A up to rounding, J the anti-identity, part by part.

    The symbol equals its reverse on the same support, and the two corners,
    of one shape and dtype, agree entry by entry; each part to within
    ``MIRROR_ULPS`` ulps of its largest entry.  It builds no band.
    """
    sym, tl, br = a.symbol, a.corr_tl, a.corr_br
    rev = sym_reverse(sym)
    return (rev.min_deg == sym.min_deg and _agree(sym.coeffs, rev.coeffs)
            and (tl.p, tl.q) == (br.p, br.q) and tl.u.dtype == br.u.dtype
            and _agree(tl.materialize(), br.materialize()))


def _agree(x, y):
    """Whether x and y differ by at most MIRROR_ULPS ulps of their top entry."""
    ulp = np.finfo(np.float64).eps * max(np.abs(x).max(initial=0.0),
                                         np.abs(y).max(initial=0.0))
    return bool(np.abs(x - y).max(initial=0.0) <= MIRROR_ULPS * ulp)


def _check_sizes(a, b):
    if a.m != b.m:
        raise SizeMismatchError(f"sizes differ: {a.m} vs {b.m}")


def fqt_to_dense(a):
    """Dense m x m materialization."""
    m = a.m
    out = toeplitz_section(a.symbol, m).astype(a.dtype, copy=False)
    if not a.corr_tl.is_zero:
        out[:a.corr_tl.p, :a.corr_tl.q] += a.corr_tl.materialize()
    if not a.corr_br.is_zero:
        block = a.corr_br.materialize()
        out[m - a.corr_br.p:, m - a.corr_br.q:] += block[::-1, ::-1]
    return out


def fqt_add(a, b, cfg=DEFAULT_CONFIG):
    """Sum of two matrices of one size; each corner adds on its own."""
    _check_sizes(a, b)
    return _add_parts(a, b, cfg)


def fqt_scale(a, alpha):
    """alpha times a (``a.scale(alpha)``)."""
    return a.scale(alpha)


def fqt_mul(a, b, cfg=DEFAULT_CONFIG):
    """Product of two finite quasi-Toeplitz matrices.

    The Toeplitz part is the product symbol clipped to the representable
    band.  Each corner is ``corr_product`` of its own pair clipped to m x m:
    the top-left one of a and b, the bottom-right one of J a J and J b J,
    whose symbols are reversed.  When the top-left corner of one factor and
    the bottom-right corner of the other meet across the matrix, their
    product is added to the top-left corner exactly, the flipped corner
    embedded by ``_unflipped`` as a top-left correction spanning m.
    """
    _check_sizes(a, b)
    short = _trivial_product(a, b)
    if short is not None:
        return short
    m = a.m
    c = sym_clip(sym_mul(a.symbol, b.symbol), m - 1)
    tl = corr_product(a.symbol, a.corr_tl, b.symbol, b.corr_tl, m)
    br = corr_product(sym_reverse(a.symbol), a.corr_br,
                      sym_reverse(b.symbol), b.corr_br, m)
    if a.corr_tl.q + b.corr_br.p > m:
        tl = corr_add(tl, corr_times_corr(a.corr_tl, _unflipped(b.corr_br, m)))
    if a.corr_br.q + b.corr_tl.p > m:
        tl = corr_add(tl, corr_times_corr(_unflipped(a.corr_br, m), b.corr_tl))
    return FiniteQtMatrix(
        a.m, sym_truncate(c, cfg.tol_trunc),
        corr_compress(tl, cfg.tol_trunc), corr_compress(br, cfg.tol_trunc))


def _unflipped(corr, m):
    """A flipped bottom-right corner as a top-left correction (p = q = m)."""
    u = np.zeros((m, corr.rank), dtype=corr.u.dtype)
    v = np.zeros((m, corr.rank), dtype=corr.v.dtype)
    u[m - corr.p:] = corr.u[::-1]
    v[m - corr.q:] = corr.v[::-1]
    return Correction._owned(u, v)


def fqt_from_dense(dense, cfg=DEFAULT_CONFIG, mass=None):
    """Recover band plus two corner corrections from a dense matrix.

    The Toeplitz coefficient of each diagonal is read from the middle of the
    diagonal; the residual is split along the main anti-diagonal and each
    half is factored into a corner correction.  The round trip through
    ``fqt_to_dense`` reproduces the input up to the compression tolerance.
    Each corner is budgeted ``cfg.tol_trunc`` times ``mass``, by default the
    entry mass of the whole matrix; a caller that has summed the matrix from
    parts passes the parts' total mass, the scale their own splits would
    have spent.  A real input gives a real symbol and real corner factors.
    """
    dense = np.asarray(dense)
    dense = dense.astype(np.complex128 if np.iscomplexobj(dense)
                         else np.float64, copy=False)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError("expected a square matrix")
    m = dense.shape[0]
    mags = np.abs(dense)
    sym = _diagonal_symbol(dense, float(mags.max(initial=0.0)), cfg)
    if sym is None:
        return FiniteQtMatrix.zero(m)
    resid = dense - toeplitz_section(sym, m)
    # Entries with i + j <= m - 1 go to the top-left corner, the others to
    # the bottom-right one, read in flipped coordinates from reversed views
    # of the residual and of its one magnitude pass; only each corner's
    # trimmed block is cut out and masked.
    tl_keep, br_keep = _corner_masks(m)
    resid_mags = np.abs(resid)
    # By default budget the corners against the mass of the whole matrix,
    # so band coefficients dropped by the floor do not linger as corner dust.
    mass = float(mags.sum()) if mass is None else mass
    tl = Correction.from_dense(resid, cfg.tol_trunc, scale=mass, keep=tl_keep,
                               mags=resid_mags)
    br = Correction.from_dense(resid[::-1, ::-1], cfg.tol_trunc, scale=mass,
                               keep=br_keep, mags=resid_mags[::-1, ::-1])
    return FiniteQtMatrix(m, sym, tl, br)


def fqt_split_norm(dense, cfg=DEFAULT_CONFIG):
    """``norm_cqt`` of ``fqt_from_dense(dense)``, corners summed entrywise.

    The symbol is read as ``fqt_from_dense`` reads it, and the corners
    count with the exact entry mass of the residual instead of their
    compressed factors, so nothing is factored.
    """
    dense = np.asarray(dense)
    m = dense.shape[0]
    sym = _diagonal_symbol(dense, float(np.abs(dense).max(initial=0.0)), cfg)
    if sym is None:
        return 0.0
    nw, nw1 = wiener_norms(sym)
    return nw + nw1 + float(np.abs(dense - toeplitz_section(sym, m)).sum())


def _diagonal_symbol(dense, scale, cfg):
    """Middle entry of each diagonal, as a symbol of the matrix's dtype.

    ``scale`` is the largest entry size; entries up to half of
    ``cfg.tol_trunc`` times max(1, scale) are dropped.  None for the zero
    matrix.
    """
    m = dense.shape[0]
    if scale == 0.0:
        return None
    coeff_floor = 0.5 * cfg.tol_trunc * max(1.0, scale)
    # The middle entry of diagonal d, of length m - |d|, in one gather.
    d = np.arange(-(m - 1), m)
    mid = (m - np.abs(d) - 1) // 2
    vals = dense[mid + np.maximum(-d, 0), mid + np.maximum(d, 0)]
    coeffs = np.zeros(2 * m - 1, dtype=np.result_type(dense, np.float64))
    coeffs[d + m - 1] = np.where(np.abs(vals) > coeff_floor, vals, 0.0)
    return LaurentSymbol(coeffs, -(m - 1))


@functools.lru_cache(maxsize=1)
def _corner_masks(m):
    """Top-left entries (i + j <= m - 1) and flipped bottom-right ones."""
    tl_keep = np.ascontiguousarray(np.tri(m, dtype=bool)[::-1])
    br_keep = np.ascontiguousarray(~tl_keep[::-1, ::-1])
    tl_keep.setflags(write=False)
    br_keep.setflags(write=False)
    return tl_keep, br_keep


def _sample_columns(m):
    cols = {0, 1, m // 2, m - 2, m - 1}
    step = max(1, m // 16)
    cols.update(range(0, m, step))
    return sorted(c for c in cols if 0 <= c < m)[:24]


def fqt_inv(a, cfg=DEFAULT_CONFIG, with_info=False):
    """Inverse of a finite quasi-Toeplitz matrix.

    Unless ``solves_every_column``, two ``cqt_inv`` calls give it by
    Widom's formula (Boettcher and Grudsky, "Toeplitz Matrices, Asymptotic
    Linear Algebra, and Functional Analysis", Birkhaeuser, 2000), with an
    error that decays with m, a~ the reversed symbol and W_m = J P_m:

        T_m(a)^-1 ~ T_m(1/a) + P_m (T(a)^-1 - T(1/a)) P_m
                             + W_m (T(a~)^-1 - T(1/a~)) W_m.

    The corners are the corrections of the inverses of T(a) plus the
    top-left corner and of T(a~) plus the flipped bottom-right one, which
    is thus stored flipped already; 1/a, as ``cqt_inv`` gives it, is
    clipped to the matrix.  When ``cqt_inv`` raises, a corner exceeds
    m // 2 rows or columns, or the result misses the certificate, the
    inverse is solved on the band instead, enclosing both corners, by the
    contour engine's node-inverse routine ``BandMatrix.shifted_inverse``
    (one ``?gbsv`` of every column, or of the first ceil(m/2) of a
    centrosymmetric band), and re-split by ``fqt_from_dense``.  Either
    result is certified on sampled columns against the identity, through a
    product with the band.

    The info dict has ``path`` ("factored" for Widom's formula, "banded"
    for the band solve, which adds ``columns``, the inverse columns solved
    in the certified pass, or "scalar" for a multiple of the identity) and
    ``residual``.

    Raises
    ------
    SingularMatrixError   exactly singular band factorization
    CertificateError      the full inverse misses ``cfg.tol_stop`` on the
                          identity; the message names both numbers
    """
    inv = _scalar_inverse(a)
    if inv is not None:
        return (inv, {"path": "scalar", "residual": 0.0}) \
            if with_info else inv
    m = a.m
    band = BandMatrix(a)
    cols = _sample_columns(m)
    result = None if solves_every_column(a) else _widom_inverse(a, cfg)
    if result is not None:
        worst = band.residual(result.columns(cols), cols)
        if worst <= cfg.tol_stop:
            info = {"path": "factored", "residual": worst}
            return (result, info) if with_info else result
    x, _ = band.shifted_inverse(0.0, cfg, half=True)
    result = fqt_from_dense(mirrored_columns(x), cfg)
    worst = _certified(band.residual(result.columns(cols), cols), cfg)
    info = {"path": "banded", "columns": x.shape[1], "residual": worst}
    return (result, info) if with_info else result


def _widom_inverse(a, cfg):
    """Widom's T_m(1/a) plus two semi-infinite corners, None where unfit.

    A corner past m // 2 rows or columns is unfit; the top-left one is
    checked before the bottom-right one is computed.  A mirrored matrix
    (``_mirrored``) has a mirrored inverse, so its top-left corner serves
    as both, from one ``cqt_inv`` call.
    """
    m = a.m
    try:
        tl = cqt_inv(CqtMatrix(a.symbol, a.corr_tl), cfg)
        if max(tl.corr.p, tl.corr.q) > m // 2:
            return None
        br = tl if _mirrored(a) else cqt_inv(
            CqtMatrix(sym_reverse(a.symbol), a.corr_br), cfg)
    except (ZeroOnCircleError, NonzeroWindingError, SingularMatrixError,
            NoConvergenceError):
        return None
    if max(br.corr.p, br.corr.q) > m // 2:
        return None
    return FiniteQtMatrix(m, sym_clip(tl.symbol, m - 1), tl.corr, br.corr)


def solves_every_column(a):
    """Whether ``fqt_inv`` solves every column without trying Widom's formula.

    That is m <= 2 max(128, 2^b), 2^b the least power of two above 2w + 1
    for the wider band width w: m <= 256 for a band narrower than 64.  A
    shift z I - a has the same m and widths, so the same answer.
    """
    width = max(_band_widths(a))
    return a.m <= 2 * max(128, 1 << (2 * width + 1).bit_length())


def _band_widths(a):
    """Lower and upper band widths enclosing the symbol and both corners."""
    m, sym, tl, br = a.m, a.symbol, a.corr_tl, a.corr_br
    return (min(m - 1, max(sym.n_minus, tl.p - 1, br.q - 1)),
            min(m - 1, max(sym.n_plus, tl.q - 1, br.p - 1)))


class BandMatrix:
    """A finite quasi-Toeplitz matrix B in BLAS band storage.

    Entry (i, j) sits at ``band[ku + i - j, j]``.  kl and ku cover the
    symbol and both corners, so the band is the whole matrix.  The band is
    built on first use, by ``solve``; once built, it solves any shift
    z I + B.  ``matrix``, the matrix it was built from, applies B and
    answers the mirror test.
    """

    def __init__(self, a):
        self.kl, self.ku = _band_widths(a)
        self.m, self.matrix = a.m, a

    @functools.cached_property
    def band(self):
        """The band array, (kl + ku + 1) x m, Fortran order."""
        a, kl, ku = self.matrix, self.kl, self.ku
        m, sym, tl, br = a.m, a.symbol, a.corr_tl, a.corr_br
        band = np.zeros((kl + ku + 1, m), dtype=a.dtype, order="F")
        for d, c in zip(range(sym.min_deg, sym.max_deg + 1), sym.coeffs):
            band[ku - d, max(d, 0):m + min(d, 0)] = c
        if not tl.is_zero:
            i, j = np.indices((tl.p, tl.q))
            band[ku + i - j, j] += tl.u @ tl.v.T
        if not br.is_zero:
            # Flipped entry (i, j) is (m - 1 - i, m - 1 - j).
            i, j = np.indices((br.p, br.q))
            band[ku + j - i, m - 1 - j] += br.u @ br.v.T
        return band

    @functools.cached_property
    def mirrored(self):
        """Whether J B J = B up to rounding (``_mirrored``); z I keeps it."""
        return _mirrored(self.matrix)

    def solve(self, shift, js):
        """Columns js of (shift I + B)^-1, m x len(js), by one ``?gbsv``.

        Raises SingularMatrixError on an exact zero pivot.
        """
        kl, ku, m = self.kl, self.ku, self.m
        # ?gbsv wants kl more rows on top for the fill-in.
        ab = np.zeros((2 * kl + ku + 1, m),
                      dtype=np.result_type(self.band, shift), order="F")
        ab[kl:] = self.band
        ab[kl + ku] += shift
        rhs = np.zeros((m, len(js)), dtype=ab.dtype, order="F")
        rhs[js, np.arange(len(js))] = 1.0
        gbsv = get_lapack_funcs("gbsv", (ab,))
        _, _, x, info = gbsv(kl, ku, ab, rhs, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise SingularMatrixError("matrix is numerically singular")
        return x

    def residual(self, x, cols, shift=0.0):
        """Max entry of (shift I + B) x - I on columns cols.

        x holds the columns cols of an inverse, dense, m x len(cols).  B x
        is the Toeplitz part applied by ``toeplitz_times_factor``, capped
        at m rows, plus each corner times the rows of x it meets, the
        flipped one on x and B x read upside down.
        """
        a = self.matrix
        out = np.asarray(shift * x, dtype=np.result_type(x, shift, a.dtype))
        if not a.symbol.is_zero:
            out += toeplitz_times_factor(a.symbol, x, row_cap=self.m)
        for corr, rows, y in ((a.corr_tl, out, x),
                              (a.corr_br, out[::-1], x[::-1])):
            if not corr.is_zero:
                rows[:corr.p] += corr.u @ (corr.v.T @ y[:corr.q])
        out[cols, np.arange(len(cols))] -= 1.0
        return float(np.abs(out).max())

    def shifted_inverse(self, shift, cfg, half=False):
        """Columns of (shift I + B)^-1 and their certified residual.

        Every column, or with ``half`` on a mirrored band the first
        h = ceil(m/2): the inverse of a mirrored matrix is mirrored, so
        column j >= h is column m - 1 - j reversed (``mirrored_columns``).
        The residual is taken on the columns ``fqt_inv`` samples, those
        past h read from their mirrors and multiplied by B itself.  Each
        pass is one ``solve``: a half that misses the certificate is solved
        again in every column and certified whole, so the result has m
        columns then.  Raises SingularMatrixError or CertificateError.
        """
        m = self.m
        cols = _sample_columns(m)
        h = (m + 1) // 2 if half and self.mirrored else m
        x = self.solve(shift, np.arange(h))
        if h < m:
            worst = self.residual(mirrored_columns(x, cols), cols, shift)
            if worst <= cfg.tol_stop:
                return x, worst
            x = self.solve(shift, np.arange(m))
        return x, _certified(self.residual(x[:, cols], cols, shift), cfg)


def mirrored_columns(x, js=None):
    """Columns js of a mirrored m x m matrix X, by default every column.

    x holds the first h = ceil(m/2) columns of X, or all m of them.
    X = J X J, so column j >= h of X is column m - 1 - j reversed; a full
    x is returned as it is when every column is asked for.
    """
    m, h = x.shape
    if h == m:
        return x if js is None else x[:, js]
    js = np.arange(m) if js is None else np.asarray(js)
    out = x[:, np.minimum(js, m - 1 - js)]
    far = js >= h
    out[:, far] = out[::-1, far]
    return out
