"""Matrix functions from truncated power and Laurent series.

Each engine first fixes the last term of each side of its series from the
coefficients and the norm alone (``_series_side``: the positive side on
||A||, the negative one on ||A^{-1}||), so a series that does not converge
within the term cap fails before any product is formed.  Then one term
loop (``_sum_series``) forms the powers A^i (and A^{-i} for a Laurent
series) by the algebra's compressed products, adds each f_i A^i exactly
into the contour engine's running sum (``cqt.ExactSum``), factored once,
and finally, when the spec gives the scalar function, refreshes the
Toeplitz part by evaluating it on the symbol at unit roots and
interpolating.  The same code drives
semi-infinite and finite matrices through the shared algebra protocol.

A mirrored finite matrix (J A J = A, J the anti-identity), such as a
polynomial in the discrete Laplacian, has two corners that are one
computation.  When its series of K terms fits, that is when
2 (K max(n_minus, n_plus) + the larger corner dimension) <= m, no power's
corner reaches the other one and no clip to m fires, so the sum is run
once, on the semi-infinite half T(a) + E_tl (``semi_infinite_half``), and
its correction serves as both corners.  The norm, the term count, the tail
and the record stay those of the finite matrix; a series with an inverse
keeps the finite run.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_CONFIG
from .correction import Correction, corr_compress, corr_product
from .cqt import ExactSum
from .errors import NoConvergenceError, RadiusViolationError
from .symbol import (
    LaurentSymbol,
    eval_at_unit_roots,
    range_samples,
    sym_mul,
    sym_truncate,
    wiener_norms,
)

_MAX_REFRESH_GRID = 1 << 20

# Effective-radius multipliers tried when the disk of analyticity is
# unbounded; each yields a valid geometric majorant of the tail.
_RADIUS_FACTORS = (1.5, 2.0, math.e, 4.0, 8.0, 16.0, 64.0)


@dataclass(frozen=True)
class SeriesSpec:
    """Description of a scalar function given by its series coefficients.

    coeff       callback i -> f_i; one-sided series return 0 for i < 0
    radius      radius of the disk of analyticity (one-sided series)
    annulus     (r_f, R_f) annulus of analyticity for Laurent series
    scalar      optional closed-form scalar map; when given, the symbol
                part of the result is interp(f(a(w))) on a fine grid,
                otherwise the truncated series' own summed symbol
    degree      exact top degree when the series is a polynomial
    neg_degree  exact bottom degree (positive number) for Laurent polynomials
    """

    coeff: Callable[[int], complex]
    radius: float = math.inf
    annulus: Optional[tuple] = None
    scalar: Optional[Callable] = None
    degree: Optional[int] = None
    neg_degree: Optional[int] = None
    name: str = "series"

    def __post_init__(self):
        if self.annulus is None:
            base = self.coeff
            object.__setattr__(
                self, "coeff", lambda i: base(i) if i >= 0 else 0.0)
        else:
            r, big = self.annulus
            if not 0 <= r < big:
                raise ValueError("annulus must satisfy 0 <= r_f < R_f")

    @classmethod
    def exp(cls):
        return cls(coeff=_exp_coeff, radius=math.inf, scalar=np.exp,
                   name="exp")

    @classmethod
    def log1p(cls):
        return cls(coeff=_log1p_coeff, radius=1.0, scalar=np.log1p,
                   name="log1p")

    @classmethod
    def sqrt1p(cls):
        return cls(coeff=_sqrt1p_coeff, radius=1.0,
                   scalar=lambda x: np.sqrt(1.0 + x), name="sqrt1p")

    @classmethod
    def polynomial(cls, coeffs):
        cs = [complex(c) for c in coeffs]
        deg = len(cs) - 1
        return cls(coeff=lambda i: cs[i] if 0 <= i <= deg else 0.0,
                   radius=math.inf, degree=deg,
                   scalar=lambda x: np.polyval(cs[::-1], x),
                   name="polynomial")

    @classmethod
    def laurent(cls, coeff, r_f, big_r, scalar=None, degree=None,
                neg_degree=None, name="laurent"):
        return cls(coeff=coeff, annulus=(float(r_f), float(big_r)),
                   scalar=scalar, degree=degree, neg_degree=neg_degree,
                   name=name)

    @classmethod
    def laurent_polynomial(cls, coeff_map):
        cmap = {int(k): complex(v) for k, v in coeff_map.items()}
        deg = max((k for k in cmap if k > 0), default=0)
        neg = max((-k for k in cmap if k < 0), default=0)

        def scalar(x):
            x = np.asarray(x, dtype=np.complex128)
            out = np.zeros_like(x)
            for k, c in cmap.items():
                out = out + c * x ** k
            return out

        return cls(coeff=lambda i: cmap.get(i, 0.0),
                   annulus=(0.0, math.inf), scalar=scalar, degree=deg,
                   neg_degree=neg, name="laurent-polynomial")


def _exp_coeff(i):
    try:
        return 1.0 / math.factorial(i)
    except OverflowError:
        return 0.0


def _log1p_coeff(i):
    if i < 1:
        return 0.0
    return (-1.0) ** (i + 1) / i


def _sqrt1p_coeff(i):
    # Binomial series of (1 + x)^(1/2).
    c = 1.0
    for j in range(1, i + 1):
        c *= (0.5 - (j - 1)) / j
    return c


def power_corrections(a, e, k, cfg=DEFAULT_CONFIG):
    """Corrections of the powers of T(a) + E, E = 0 when ``e`` is None.

    (T(a) + E)^i = T(a^i) + D_i with D_0 = 0 (the zeroth power is the
    identity) and D_i = ``corr_product(a, E, a^{i-1}, D_{i-1})``, the
    correction of (T(a) + E)(T(a^{i-1}) + D_{i-1}); that is
    D_i = (T(a) + E) D_{i-1} - H(a^-) H((a^{i-1})^+) + E T(a^{i-1}),
    so D_1 = E.

    Returns [D_0, ..., D_k] for a nonzero E.  For a zero one it returns
    [D_1, ..., D_k], the corrections E_i of T(a)^i = T(a^i) + E_i, with
    E_1 = 0.

    Every step is compressed with the configured tolerance.
    """
    if k < 1:
        raise ValueError("power index must be at least 1")
    e = Correction.zero() if e is None else e
    out = [Correction.zero()]
    apow = LaurentSymbol.one()  # a^{i-1} at i = 1
    for _ in range(k):
        out.append(corr_compress(corr_product(a, e, apow, out[-1]),
                                 cfg.tol_trunc))
        apow = sym_truncate(sym_mul(apow, a), cfg.tol_trunc)
    return out[1:] if e.is_zero else out


class _TailFit:
    """Heuristic geometric majorant of sum_{i>k} |f_i| * nrm^i.

    For several candidate effective radii rho it keeps the tightest
    constant gamma with |f_i| <= gamma * rho^{-i} over the coefficients seen
    so far, a running max of |f_i| rho^i, and ``past(coeffs)`` returns the
    smallest resulting geometric tail past the last coefficient.  Each
    coefficient enters the running max once, when a tail past it is first
    asked for, so a side of K terms costs O(K) in all.
    """

    def __init__(self, nrm, radius):
        base = max(nrm, 1e-300)
        if math.isinf(radius):
            rho = base * np.array(_RADIUS_FACTORS)
        else:
            rho = base + (radius - base) * np.array((0.25, 0.5, 0.75, 0.9))
            rho = rho[rho > base]
        self._rho = rho
        self._lam = nrm / rho
        self._gamma = np.zeros(rho.size)
        self._seen = 0

    def past(self, coeffs):
        """The fitted tail past coeffs[-1], with coeffs[i] holding f_i."""
        k = len(coeffs) - 1
        mags = np.abs(np.asarray(coeffs[self._seen:]))
        # One row per candidate radius; a NaN or inf gamma fits no tail.
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = mags * self._rho[:, None] ** np.arange(self._seen, k + 1)
            self._gamma = np.maximum(self._gamma, np.max(scaled, axis=1))
        self._seen = k + 1
        fit = np.isfinite(self._gamma) & (self._lam < 1.0)
        if not fit.any():
            return math.inf
        lam = self._lam[fit]
        return float(np.min(self._gamma[fit] * lam ** (k + 1) / (1.0 - lam)))


def _series_side(f, sign, degree, nrm, radius, cfg):
    """One side of a series: [f_{sign k} for k = 0..K] and its tail.

    The positive side holds f_0 at index 0, the negative side 0.  An exact
    side (``degree`` given) ends at K = ``degree`` with tail 0.  Otherwise
    K ends the first three consecutive negligible terms: a term is
    negligible when its bound |f_k| max(1, nrm)^k, or else the fitted
    geometric tail past it (on ``radius``), is below ``cfg.tol_stop``; an
    exact zero counts as negligible.  The tail is the largest quantity
    compared on those three terms.  NoConvergenceError past
    ``cfg.max_terms``.
    """
    coeffs = [complex(f.coeff(0)) if sign > 0 else 0.0 + 0.0j]
    if degree is not None:
        coeffs += [complex(f.coeff(sign * k)) for k in range(1, degree + 1)]
        return coeffs, 0.0
    log_scale = math.log(max(1.0, nrm))
    fit = _TailFit(nrm, radius)
    checked = []
    for k in range(1, cfg.max_terms + 1):
        coeffs.append(complex(f.coeff(sign * k)))
        fk = abs(coeffs[k])
        if fk == 0.0:
            small, bound = True, 0.0
        else:
            log_term = math.log(fk) + k * log_scale
            small = log_term < math.log(cfg.tol_stop)
            bound = math.exp(log_term) if small else fit.past(coeffs)
            small = small or bound < cfg.tol_stop
        checked = checked[-2:] + [bound] if small else []
        if len(checked) == 3:
            return coeffs, max(checked)
    raise NoConvergenceError(
        f"series did not converge within {cfg.max_terms} terms")


def funm_taylor(matrix, f, cfg=DEFAULT_CONFIG, with_info=False):
    """f(A) for a one-sided power series f.

    Requires the algebra norm of A to lie inside the disk of analyticity;
    for functions whose spectrum-based contour representation applies
    instead, use ``funm_contour``.

    With ``with_info`` the result comes with ``terms``, ``tail_estimate``,
    the largest quantity the stopping rule compared with ``cfg.tol_stop``
    on its last three terms (the term bound |f_k| max(1, ||A||)^k, or the
    fitted geometric tail where that bound was not below the tolerance), so
    below the tolerance; 0 for a polynomial; and ``ranks``, the
    (p, q, rank) of each stored correction of the result, in the order of
    ``corrections``.

    Raises
    ------
    RadiusViolationError  norm hypothesis ||A|| < radius fails
    NoConvergenceError    term cap reached before the stopping rule fired;
                          raised before the first product
    """
    if f.annulus is not None:
        raise ValueError("Laurent series require funm_laurent")
    nrm = matrix.norm_cqt()
    if not nrm < f.radius:
        raise RadiusViolationError(
            f"series norm hypothesis violated: ||A|| = {nrm:.6g} is not "
            f"below the radius of analyticity {f.radius:.6g}")
    pos, tail = _series_side(f, 1, f.degree, nrm, f.radius, cfg)
    return _sum_series(matrix, None, pos, (), tail, f.scalar, cfg, with_info)


def funm_laurent(matrix, f, cfg=DEFAULT_CONFIG, with_info=False):
    """f(A) for a Laurent series f analytic on an annulus.

    Computes the inverse once and then sums
    f_0 I + sum_{i>=1} (f_i A^i + f_{-i} A^{-i}).  Each side stops on its
    own rule, the positive one on ||A|| and R_f, the negative one on
    ||A^{-1}|| and 1/r_f (unbounded when r_f = 0), and the shorter side is
    padded with zeros.  Preconditions: ||A|| below the outer radius,
    ||A^{-1}|| below the reciprocal of the inner radius, and the sampled
    symbol values inside the annulus.

    With ``with_info`` the result comes with ``terms``, the longer side's
    last index; ``tail_estimate``, the fitted geometric tails past each
    side's last term summed, 0 for a side of known degree; and ``ranks`` as
    in ``funm_taylor``.
    """
    if f.annulus is None:
        raise ValueError("power series require funm_taylor")
    r_f, big_r = f.annulus
    nrm = matrix.norm_cqt()
    # Laurent polynomials without negative powers need no inverse at all.
    need_inverse = r_f > 0 or f.neg_degree is None or f.neg_degree > 0
    if not nrm < big_r:
        raise RadiusViolationError(
            f"annulus norm hypothesis violated: ||A|| = {nrm:.6g} is not "
            f"below the outer radius {big_r:.6g}")
    inv = matrix.inv(cfg) if need_inverse else None
    inv_nrm = inv.norm_cqt() if need_inverse else 0.0
    if r_f > 0 and not inv_nrm < 1.0 / r_f:
        raise RadiusViolationError(
            f"annulus norm hypothesis violated: ||A^-1|| = {inv_nrm:.6g} "
            f"is not below 1/r_f = {1.0 / r_f:.6g}")
    vals = np.abs(range_samples(matrix.symbol))
    if np.any(vals >= big_r) or (need_inverse and np.any(vals <= r_f)):
        raise RadiusViolationError(
            "sampled symbol values leave the annulus of analyticity")
    inner = math.inf if r_f == 0 else 1.0 / r_f
    pos, _ = _series_side(f, 1, f.degree, nrm, big_r, cfg)
    neg, _ = ((), 0.0) if inv is None else _series_side(
        f, -1, f.neg_degree, inv_nrm, inner, cfg)
    tail = 0.0
    if f.degree is None:
        tail += _TailFit(nrm, big_r).past(pos)
    if f.neg_degree is None:
        tail += _TailFit(inv_nrm, inner).past(neg)
    return _sum_series(matrix, inv, pos, neg, tail, f.scalar, cfg, with_info)


def _sum_series(matrix, inv, pos, neg, tail, scalar, cfg, with_info):
    """The one series term loop: f_0 I + sum_k (f_k A^k + f_{-k} A^{-k}).

    ``pos`` and ``neg`` hold f_k and f_{-k} at index k; ``neg`` is empty
    when ``inv`` (A^{-1}) is not given.  Term k adds f_k A^k, then
    f_{-k} A^{-k}, each skipped when zero; a side past its last index
    counts as zero and forms no more powers.  The terms add exactly into a
    ``cqt.ExactSum``, factored once after the last term, so only products
    compress.  Without ``inv``, a matrix whose ``semi_infinite_half``
    stands for it sums the terms on that half, whose correction then
    serves as every corner.  With ``scalar`` the symbol is then refreshed
    to interp(f(a(w))) (``_refresh_symbol``); without it the summed symbol
    stays, clipped by ``with_symbol``, since refreshing would only
    re-evaluate the same truncated polynomial on a grid.  With
    ``with_info`` the record of ``funm_taylor`` comes along.

    Real in, real out: when A is stored real and every f_k is real, f maps
    reals to reals, so the coefficients are summed as floats (the powers
    and the sum stay real) and the refreshed symbol keeps its real part.
    """
    real = matrix.dtype == np.float64 and not any(
        c.imag for c in (*pos, *neg))
    if real:
        pos, neg = [c.real for c in pos], [c.real for c in neg]
    terms = max(len(pos), len(neg)) - 1
    half = None if inv is not None else matrix.semi_infinite_half(terms)
    arg = matrix if half is None else half
    acc = ExactSum(arg)
    acc.add(arg.identity_like(), pos[0])
    powers = [arg, inv]
    for k in range(1, terms + 1):
        for i, (base, coeffs) in enumerate(((arg, pos), (inv, neg))):
            if k < len(coeffs):
                powers[i] = powers[i].mul(base, cfg) if k > 1 else base
                if coeffs[k] != 0:
                    acc.add(powers[i], coeffs[k])
    total = acc.result(cfg.tol_trunc)
    if half is not None:
        # The half's one correction is every corner of the matrix.
        total = matrix.with_parts(
            total.symbol, total.corrections * len(matrix.corrections))
    if scalar is None:
        total = total.with_symbol(total.symbol)
    else:
        total = _refresh_symbol(total, matrix.symbol, scalar, cfg, real)
    if not with_info:
        return total
    return total, {"terms": terms, "tail_estimate": tail,
                   "ranks": [(c.p, c.q, c.rank) for c in total.corrections]}


def _refresh_symbol(total, arg_symbol, scalar, cfg, real):
    """Replace the symbol of the accumulated sum by interp(f(a(w))).

    Samples the argument symbol at unit roots, applies the scalar map and
    interpolates back on a grid that doubles until the coefficient mass near
    the wrap-around boundary is negligible.  With ``real`` (a real symbol
    and a map taking reals to reals) the coefficients are real in exact
    arithmetic, and only their real parts are kept.
    """
    span = max(8, total.symbol.support_len, arg_symbol.support_len)
    n = 1 << (4 * span - 1).bit_length()
    if total.symbol.is_zero:
        center = 0
    else:
        center = (total.symbol.min_deg + total.symbol.max_deg) // 2
    while n <= _MAX_REFRESH_GRID:
        va = eval_at_unit_roots(arg_symbol, n)
        vf = np.asarray(scalar(va), dtype=np.complex128)
        ch = np.fft.fft(vf) / n
        lo = center - n // 2
        arranged = ch[np.arange(lo, lo + n) % n]
        edge = n // 8
        total_mass = float(np.abs(arranged).sum())
        edge_mass = float(np.abs(arranged[:edge]).sum()
                          + np.abs(arranged[-edge:]).sum())
        if edge_mass <= cfg.tol_trunc * max(1.0, total_mass):
            if real:
                arranged = arranged.real
            sym = sym_truncate(LaurentSymbol(arranged, lo), cfg.tol_trunc)
            return total.with_symbol(sym)
        n *= 2
    raise NoConvergenceError("symbol interpolation grid exhausted")


def _abs_series_derivative(f, x, order, radius):
    """sum_{i>=order} |f_i| i(i-1)...(i-order+1) x^{i-order}.

    Terms are accumulated until they fall below 1e-16 of the partial sum.
    """
    if not x < radius:
        raise RadiusViolationError(
            f"bound evaluation point {x:.6g} is not inside the "
            f"radius of analyticity {radius:.6g}")
    total = 0.0
    i = order
    while True:
        fall = 1.0
        for j in range(order):
            fall *= (i - j)
        term = abs(f.coeff(i)) * fall * x ** (i - order)
        total += term
        i += 1
        if i > 4 and term < 1e-16 * max(total, 1e-300):
            break
        if i > 100000:
            raise NoConvergenceError("bound series did not settle")
    return total


def bound_correction_toeplitz(f, a):
    """A priori bound on the correction mass of f applied to T(a).

    Evaluates (1/2) ||a'||_W^2 g''(||a||_W) with g the series of absolute
    coefficients of f; requires ||a||_W inside the disk of analyticity.
    """
    nw, nw1 = wiener_norms(a)
    return 0.5 * nw1 ** 2 * _abs_series_derivative(f, nw, 2, f.radius)


def bound_correction_general(f, a, norm_e):
    """A priori bound on the correction mass of f applied to T(a) + E.

    Uses the finite-difference form
    (alpha (g(w + e) - g(w)) / e - beta g'(w)) / e with
    alpha = ||a'||^2 + e, beta = ||a'||^2, w = ||a||_W and e the correction
    mass.  Below e = 1e-10 the Toeplitz-only bound is returned, which the
    finite difference approaches in the limit.
    """
    if norm_e < 0:
        raise ValueError("correction mass must be nonnegative")
    if norm_e < 1e-10:
        return bound_correction_toeplitz(f, a)
    nw, nw1 = wiener_norms(a)
    if not nw + norm_e < f.radius:
        raise RadiusViolationError(
            f"bound evaluation point {nw + norm_e:.6g} is not inside the "
            f"radius of analyticity {f.radius:.6g}")
    alpha = nw1 ** 2 + norm_e
    beta = nw1 ** 2
    g_hi = _abs_series_derivative(f, nw + norm_e, 0, f.radius)
    g_lo = _abs_series_derivative(f, nw, 0, f.radius)
    g1 = _abs_series_derivative(f, nw, 1, f.radius)
    return (alpha * (g_hi - g_lo) / norm_e - beta * g1) / norm_e
