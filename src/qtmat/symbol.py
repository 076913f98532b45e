"""Finitely supported Laurent series ("symbols") with FFT-based arithmetic.

A symbol a(z) = sum_i a_i z^i generates the semi-infinite Toeplitz matrix
T(a) with entry a_{j-i} at position (i, j).  Only finitely many coefficients
are stored, so the Wiener norm sum_i |a_i| is always finite.  Values are
immutable and every function in this module is pure.
"""

import numpy as np

from .errors import NoConvergenceError, NonzeroWindingError, ZeroOnCircleError

# |a(w)| below ZERO_FLOOR * ||a||_W at a sample point counts as a zero on the
# unit circle.
ZERO_FLOOR = 1e-13

# Largest unit-root grid used by adaptive sampling loops.
_MAX_GRID = 1 << 22

# Products up to this size use direct convolution instead of the FFT.
_DIRECT_CONV_LIMIT = 4096


class LaurentSymbol:
    """Coefficient a_{min_deg + t} is stored at position t of ``coeffs``.

    Canonical form: the first and last stored coefficients are nonzero; the
    zero symbol has an empty coefficient vector and ``min_deg == 0``.
    """

    def __init__(self, coeffs, min_deg=0):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
        if arr.ndim != 1:
            raise ValueError("coefficients must form a one-dimensional sequence")
        nz = np.flatnonzero(arr)
        if nz.size == 0:
            arr = arr[:0]
            min_deg = 0
        else:
            lo, hi = int(nz[0]), int(nz[-1]) + 1
            arr = arr[lo:hi].copy()
            min_deg = int(min_deg) + lo
        arr.setflags(write=False)
        self.coeffs = arr
        self.min_deg = min_deg

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def constant(cls, c):
        return cls((c,), 0)

    @classmethod
    def one(cls):
        return cls.constant(1.0)

    @property
    def is_zero(self):
        return self.coeffs.size == 0

    @property
    def is_real(self):
        return not np.any(self.coeffs.imag)

    def real_part(self):
        """Symbol of Re T(a): the real parts of the coefficients."""
        return LaurentSymbol(self.coeffs.real, self.min_deg)

    @property
    def support_len(self):
        return int(self.coeffs.size)

    @property
    def max_deg(self):
        """Largest stored exponent; min_deg - 1 for the zero symbol."""
        return self.min_deg + self.coeffs.size - 1

    @property
    def n_minus(self):
        """Number of strictly negative exponents in the support."""
        return max(0, -self.min_deg) if not self.is_zero else 0

    @property
    def n_plus(self):
        """Largest positive exponent in the support (0 if none)."""
        return max(0, self.max_deg) if not self.is_zero else 0

    def coeff(self, k):
        """Coefficient of z^k (0 outside the stored support)."""
        t = k - self.min_deg
        if 0 <= t < self.coeffs.size:
            return complex(self.coeffs[t])
        return 0.0 + 0.0j

    def __repr__(self):
        if self.is_zero:
            return "LaurentSymbol(zero)"
        return (f"LaurentSymbol(min_deg={self.min_deg}, "
                f"len={self.coeffs.size})")


def norm_w(a):
    """Wiener norm sum_i |a_i|."""
    return float(np.sum(np.abs(a.coeffs)))


def wiener_norms(a):
    """Return (sum_i |a_i|, sum_i |i * a_i|).

    The second value is the Wiener norm of the derivative symbol
    sum_i i * a_i z^{i-1}.
    """
    if a.is_zero:
        return 0.0, 0.0
    mags = np.abs(a.coeffs)
    exps = np.abs(np.arange(a.coeffs.size) + a.min_deg)
    return float(mags.sum()), float((exps * mags).sum())


def sym_add(a, b):
    """Coefficientwise sum of two symbols."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    lo = min(a.min_deg, b.min_deg)
    hi = max(a.max_deg, b.max_deg)
    buf = np.zeros(hi - lo + 1, dtype=np.complex128)
    buf[a.min_deg - lo:a.min_deg - lo + a.coeffs.size] += a.coeffs
    buf[b.min_deg - lo:b.min_deg - lo + b.coeffs.size] += b.coeffs
    return LaurentSymbol(buf, lo)


def sym_scale(a, alpha):
    """Symbol scaled by a complex factor."""
    if a.is_zero or alpha == 0:
        return LaurentSymbol.zero()
    return LaurentSymbol(a.coeffs * alpha, a.min_deg)


def sym_sub(a, b):
    return sym_add(a, sym_scale(b, -1.0))


def sym_mul(a, b):
    """Product symbol c(z) = a(z) b(z).

    Small products are convolved directly; larger ones are evaluated at a
    power-of-two number of unit roots covering the exact support of the
    result and interpolated back, so exponents simply add.
    """
    if a.is_zero or b.is_zero:
        return LaurentSymbol.zero()
    la, lb = a.coeffs.size, b.coeffs.size
    out_len = la + lb - 1
    if la * lb <= _DIRECT_CONV_LIMIT:
        coeffs = np.convolve(a.coeffs, b.coeffs)
    else:
        n = 1 << (out_len - 1).bit_length()
        fa = np.fft.fft(a.coeffs, n)
        fb = np.fft.fft(b.coeffs, n)
        coeffs = np.fft.ifft(fa * fb)[:out_len]
    return LaurentSymbol(coeffs, a.min_deg + b.min_deg)


def sym_eval(a, z):
    """Evaluate a(z) at the given points (scalar or array).

    Points must be nonzero when the symbol has negative exponents.
    """
    z = np.asarray(z, dtype=np.complex128)
    if a.is_zero:
        return np.zeros_like(z)
    vals = np.polyval(a.coeffs[::-1], z)
    if a.min_deg != 0:
        vals = vals * z ** a.min_deg
    return vals


def eval_at_unit_roots(a, n):
    """Values a(w^j) at the n-th unit roots w = exp(2*pi*i/n), j = 0..n-1.

    Exponents are folded modulo n, so choose n at least the support length
    for alias-free values.
    """
    if a.is_zero:
        return np.zeros(n, dtype=np.complex128)
    buf = np.zeros(n, dtype=np.complex128)
    idx = (np.arange(a.coeffs.size) + a.min_deg) % n
    np.add.at(buf, idx, a.coeffs)
    return np.fft.ifft(buf) * n


def sym_split(a):
    """Split a = a0 + a^-(z) + a^+(z).

    Returns ``(a_minus, a0, a_plus)`` where ``a_plus`` keeps the coefficients
    of z^i for i >= 1 in place, and ``a_minus`` stores a_{-i} as the
    coefficient of z^i for i >= 1, so both parts live on positive exponents.
    """
    a0 = a.coeff(0)
    if a.is_zero:
        return LaurentSymbol.zero(), a0, LaurentSymbol.zero()
    start_plus = max(0, 1 - a.min_deg)
    if start_plus < a.coeffs.size:
        a_plus = LaurentSymbol(a.coeffs[start_plus:], a.min_deg + start_plus)
    else:
        a_plus = LaurentSymbol.zero()
    end_minus = min(a.coeffs.size, -a.min_deg)
    if end_minus > 0:
        neg = a.coeffs[:end_minus]
        a_minus = LaurentSymbol(neg[::-1], -(a.min_deg + end_minus - 1))
    else:
        a_minus = LaurentSymbol.zero()
    return a_minus, a0, a_plus


def sym_reverse(a):
    """Symbol of the transposed Toeplitz matrix: coefficients of a(1/z)."""
    if a.is_zero:
        return a
    return LaurentSymbol(a.coeffs[::-1], -a.max_deg)


def sym_clip(a, band):
    """Drop coefficients with |exponent| > band (exact, no tolerance)."""
    if a.is_zero:
        return a
    lo = max(a.min_deg, -band)
    hi = min(a.max_deg, band)
    if lo > hi:
        return LaurentSymbol.zero()
    return LaurentSymbol(a.coeffs[lo - a.min_deg:hi - a.min_deg + 1], lo)


def sym_truncate(a, tol):
    """Drop small leading/trailing coefficients.

    Coefficients are removed greedily from whichever end currently holds the
    smaller magnitude, as long as the total removed mass stays within
    ``tol * max(1, ||a||_W)``.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if a.is_zero or tol == 0:
        return a
    budget = tol * max(1.0, norm_w(a))
    mags = np.abs(a.coeffs)
    lo, hi = 0, a.coeffs.size - 1
    spent = 0.0
    while lo <= hi:
        if mags[lo] <= mags[hi]:
            side, mag = "lo", mags[lo]
        else:
            side, mag = "hi", mags[hi]
        if spent + mag > budget:
            break
        spent += mag
        if side == "lo":
            lo += 1
        else:
            hi -= 1
    if lo > hi:
        return LaurentSymbol.zero()
    return LaurentSymbol(a.coeffs[lo:hi + 1], a.min_deg + lo)


def winding_number(a):
    """Winding number of the closed curve a(e^{i*theta}) around the origin.

    Argument increments are accumulated on a unit-circle grid which is
    refined until all successive increments are below pi/2.
    """
    if a.is_zero:
        raise ZeroOnCircleError("zero symbol has no winding number")
    floor = ZERO_FLOOR * norm_w(a)
    n = max(64, 4 * a.coeffs.size)
    n = 1 << (n - 1).bit_length()
    while n <= _MAX_GRID:
        vals = eval_at_unit_roots(a, n)
        if np.min(np.abs(vals)) < floor:
            raise ZeroOnCircleError(
                "symbol vanishes on the unit circle (sampled)")
        ratios = np.roll(vals, -1) / vals
        incr = np.angle(ratios)
        if np.max(np.abs(incr)) < np.pi / 2:
            total = float(np.sum(incr)) / (2 * np.pi)
            w = int(round(total))
            if abs(total - w) > 0.25:
                raise ZeroOnCircleError(
                    "winding number did not resolve to an integer")
            return w
        n *= 2
    raise ZeroOnCircleError("winding number grid refinement exhausted")


def sym_reciprocal(a, tol):
    """Finitely supported b with ||a * b - 1||_W <= tol.

    Requires a(z) != 0 on the unit circle and winding number zero.  The
    reciprocal is sampled at unit roots on a doubling grid and interpolated;
    the returned candidate is certified against the residual norm.

    Raises
    ------
    ZeroOnCircleError, NonzeroWindingError, NoConvergenceError
    """
    if a.is_zero:
        raise ZeroOnCircleError("cannot invert the zero symbol")
    w = winding_number(a)
    if w != 0:
        raise NonzeroWindingError(f"winding number is {w}, expected 0")
    floor = ZERO_FLOOR * norm_w(a)
    one = LaurentSymbol.one()
    n = max(16, 4 * a.coeffs.size)
    n = 1 << (n - 1).bit_length()
    while n <= _MAX_GRID:
        vals = eval_at_unit_roots(a, n)
        if np.min(np.abs(vals)) < floor:
            raise ZeroOnCircleError(
                "symbol vanishes on the unit circle (sampled)")
        ch = np.fft.fft(1.0 / vals) / n
        half = n // 2
        coeffs = np.concatenate([ch[half:], ch[:half]])
        cand = LaurentSymbol(coeffs, -half)
        cand = sym_truncate(cand, tol * 0.1)
        residual = sym_sub(sym_mul(a, cand), one)
        if norm_w(residual) <= tol:
            return cand
        n *= 2
    raise NoConvergenceError("reciprocal grid refinement exhausted")
