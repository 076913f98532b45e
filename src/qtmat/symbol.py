"""Finitely supported Laurent series ("symbols") with FFT-based arithmetic.

A symbol a(z) = sum_i a_i z^i generates the semi-infinite Toeplitz matrix
T(a) with entry a_{j-i} at position (i, j).  Only finitely many coefficients
are stored, so the Wiener norm sum_i |a_i| is always finite.  Values are
immutable and every function in this module is pure.

Dtype rule, as for ``correction.Correction``: coefficients are stored as
float64 when they are given real and as complex128 otherwise, and every
function here returns real coefficients for real operands (a real scale
factor counts as real).  The rule goes by dtype, not by value: complex
coefficients whose imaginary parts are zero stay complex.  Values on the
unit circle (``eval_at_unit_roots``) are complex either way.
"""

import numpy as np

from .config import MIRROR_ULPS
from .errors import NoConvergenceError, NonzeroWindingError, ZeroOnCircleError

# |a(w)| below ZERO_FLOOR * ||a||_W at a sample point counts as a zero on the
# unit circle.
ZERO_FLOOR = 1e-13

# Largest unit-root grid used by adaptive sampling loops.
_MAX_GRID = 1 << 22

_EPS = np.finfo(np.float64).eps

# Products up to this size use direct convolution instead of the FFT.
_DIRECT_CONV_LIMIT = 4096


class LaurentSymbol:
    """Coefficient a_{min_deg + t} is stored at position t of ``coeffs``.

    Canonical form: the first and last stored coefficients are nonzero; the
    zero symbol has an empty coefficient vector and ``min_deg == 0``.
    """

    def __init__(self, coeffs, min_deg=0):
        arr = np.atleast_1d(np.asarray(coeffs))
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64,
                         copy=False)
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
    def _trimmed(cls, coeffs, min_deg):
        """Symbol over a 1-D float64 or complex128 array this module made.

        Its first and last entries must be nonzero, or it is empty; it is
        frozen in place instead of trimmed and copied.  Arrays a caller may
        hold go through ``LaurentSymbol(coeffs, min_deg)``.
        """
        out = cls.__new__(cls)
        coeffs.setflags(write=False)
        out.coeffs = coeffs
        out.min_deg = int(min_deg) if coeffs.size else 0
        return out

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
        """Whether the coefficients have zero imaginary parts."""
        return not (np.iscomplexobj(self.coeffs) and np.any(self.coeffs.imag))

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


def _canonical(coeffs, min_deg):
    """Symbol over a fresh array or a view of stored coefficients.

    Frozen in place when both ends are nonzero, which is all this costs to
    check; otherwise trimmed by the constructor.
    """
    if coeffs.size == 0 or (coeffs[0] != 0 and coeffs[-1] != 0):
        return LaurentSymbol._trimmed(coeffs, min_deg)
    return LaurentSymbol(coeffs, min_deg)


def sym_add(a, b):
    """Coefficientwise sum of two symbols."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    lo = min(a.min_deg, b.min_deg)
    hi = max(a.max_deg, b.max_deg)
    buf = np.zeros(hi - lo + 1, dtype=np.result_type(a.coeffs, b.coeffs))
    buf[a.min_deg - lo:a.min_deg - lo + a.coeffs.size] += a.coeffs
    buf[b.min_deg - lo:b.min_deg - lo + b.coeffs.size] += b.coeffs
    return _canonical(buf, lo)


def sym_scale(a, alpha):
    """Symbol scaled by a real or complex factor."""
    if a.is_zero or alpha == 0:
        return LaurentSymbol.zero()
    return _canonical(a.coeffs * alpha, a.min_deg)


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
        if np.iscomplexobj(a.coeffs) or np.iscomplexobj(b.coeffs):
            fft, ifft = np.fft.fft, np.fft.ifft
        else:
            fft, ifft = np.fft.rfft, np.fft.irfft
        coeffs = ifft(fft(a.coeffs, n) * fft(b.coeffs, n), n)[:out_len]
    return _canonical(coeffs, a.min_deg + b.min_deg)


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


# Least number of unit-circle samples of the symbol range checks: the
# annulus check of funm_laurent and the enclosure check of funm_contour.
RANGE_SAMPLES = 256


def range_samples(a):
    """Values of a at the unit roots of the symbol range checks.

    The grid is the power of two at or above max(RANGE_SAMPLES, 4 times the
    support length), so the samples are alias-free.
    """
    n = max(RANGE_SAMPLES, 4 * a.support_len)
    return eval_at_unit_roots(a, 1 << (n - 1).bit_length())


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
        a_plus = _canonical(a.coeffs[start_plus:], a.min_deg + start_plus)
    else:
        a_plus = LaurentSymbol.zero()
    end_minus = min(a.coeffs.size, -a.min_deg)
    if end_minus > 0:
        neg = a.coeffs[:end_minus]
        a_minus = _canonical(neg[::-1], -(a.min_deg + end_minus - 1))
    else:
        a_minus = LaurentSymbol.zero()
    return a_minus, a0, a_plus


def sym_reverse(a):
    """Symbol of the transposed Toeplitz matrix: coefficients of a(1/z)."""
    if a.is_zero:
        return a
    return LaurentSymbol._trimmed(a.coeffs[::-1], -a.max_deg)


def sym_clip(a, band):
    """Drop coefficients with |exponent| > band (exact, no tolerance)."""
    if a.is_zero:
        return a
    lo = max(a.min_deg, -band)
    hi = min(a.max_deg, band)
    if lo > hi:
        return LaurentSymbol.zero()
    return _canonical(a.coeffs[lo - a.min_deg:hi - a.min_deg + 1], lo)


def sym_truncate(a, tol):
    """Drop small leading/trailing coefficients.

    Coefficients are removed greedily from whichever end currently holds the
    smaller magnitude, as long as the total removed mass stays within
    ``tol * max(1, ||a||_W)``.  On a tie both ends go together, or neither
    when the pair does not fit, so a palindromic symbol keeps a symmetric
    support.  The ends tie when they differ by at most ``MIRROR_ULPS`` ulps
    of the larger one, the rounding that keeps the two halves of a computed
    palindrome, such as the powers of the symbol of H^10, apart.  The loop
    runs once per removed coefficient, a handful on most calls.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if a.is_zero or tol == 0:
        return a
    mags = np.abs(a.coeffs)
    budget = tol * max(1.0, float(np.sum(mags)))
    m = mags.tolist()
    lo, hi = 0, len(m) - 1
    spent = 0.0
    while lo < hi:
        low, high = m[lo], m[hi]
        if abs(low - high) <= MIRROR_ULPS * _EPS * max(low, high):
            mass, step = spent + low + high, (1, 1)
        elif low < high:
            mass, step = spent + low, (1, 0)
        else:
            mass, step = spent + high, (0, 1)
        if mass > budget:
            break
        spent, lo, hi = mass, lo + step[0], hi - step[1]
    if lo == hi and spent + m[lo] <= budget:
        lo += 1
    if lo > hi:
        return LaurentSymbol.zero()
    if lo == 0 and hi == len(m) - 1:
        return a
    return LaurentSymbol._trimmed(a.coeffs[lo:hi + 1], a.min_deg + lo)


def _circle_grids(a):
    """(vals, |vals|, argument steps, winding number) on resolved grids.

    The one pass round the unit circle, behind ``winding_number`` and
    ``_log_samples``: grids double from the power of two at or above
    max(64, 4 times the support length), each evaluated once, and resolve
    when every step between neighbouring samples (the last to the first
    too) is below pi/2.  The winding number is summed on the first.  A
    sample below ZERO_FLOOR times the Wiener norm raises ZeroOnCircleError,
    and so does a sign change between neighbours for Hermitian coefficients
    (a_{-k} = conj(a_k), compared exactly): such a symbol is real on the
    circle, so that proves a zero, and rounding far below the floor cannot
    fake one.  So does reaching ``_MAX_GRID`` before a grid resolves.
    """
    if a.is_zero:
        raise ZeroOnCircleError("zero symbol has no winding number")
    floor = ZERO_FLOOR * norm_w(a)
    hermitian = (a.min_deg == -a.max_deg
                 and np.array_equal(a.coeffs, np.conj(a.coeffs[::-1])))
    n = 1 << (max(64, 4 * a.coeffs.size) - 1).bit_length()
    w = None
    while n <= _MAX_GRID:
        vals = eval_at_unit_roots(a, n)
        mags = np.abs(vals)
        if mags.min() < floor:
            raise ZeroOnCircleError(
                "symbol vanishes on the unit circle (sampled)")
        neg = np.signbit(vals.real)
        if hermitian and np.any(neg != np.roll(neg, -1)):
            raise ZeroOnCircleError(
                "real symbol changes sign on the unit circle")
        steps = np.angle(np.roll(vals, -1) / vals)
        if np.abs(steps).max() < np.pi / 2:
            if w is None:
                total = float(np.sum(steps)) / (2 * np.pi)
                w = int(round(total))
                if abs(total - w) > 0.25:
                    raise ZeroOnCircleError(
                        "winding number did not resolve to an integer")
            yield vals, mags, steps, w
        n *= 2
    if w is None:
        raise ZeroOnCircleError("winding number grid refinement exhausted")


def winding_number(a):
    """Winding number of the closed curve a(e^{i*theta}) around the origin.

    Read from the first grid of ``_circle_grids``; its errors are this one's.
    """
    return next(_circle_grids(a))[3]


def _log_samples(a, tol):
    """Samples of a, coefficients of log a and their outer mass, one grid.

    The package's one unit-root loop for 1/a: log a is sampled on the grids
    of ``_circle_grids``, along the branch the sample arguments trace, until
    the outer mass (exponents n/4 to n/2 in size, grid n) is at most tol / 2
    or stops falling within rounding, n eps max |log a|.  Coefficient d
    sits at index d mod n.  Raises the errors of ``_circle_grids``,
    NonzeroWindingError, or at the grid cap NoConvergenceError.
    """
    last = np.inf
    for vals, mags, steps, w in _circle_grids(a):
        if w != 0:
            raise NonzeroWindingError(f"winding number is {w}, expected 0")
        n = vals.size
        arg = np.angle(vals[0]) + np.concatenate(([0.0],
                                                  np.cumsum(steps[:-1])))
        logs = np.log(mags) + 1j * arg
        coeffs = np.fft.fft(logs) / n
        outer = float(np.abs(coeffs[n // 4:3 * n // 4 + 1]).sum())
        if outer <= tol / 2 or (
                outer >= last and outer <= n * _EPS * np.abs(logs).max()):
            return vals, coeffs, outer
        last = outer
    raise NoConvergenceError("reciprocal grid refinement exhausted")


def sym_inverse_factors(a, tol):
    """Wiener-Hopf factors of 1/a: (b_minus, b_plus) with b_minus b_plus = 1/a.

    At winding number zero a = a_plus a_minus with a_plus = exp(l_plus) on
    exponents >= 0 and a_minus = exp(l_minus) on exponents <= 0, where log a
    = l_plus + l_minus is split at exponent 0 (the constant goes to
    l_plus).  b_minus = 1/a_minus, with constant term 1, and b_plus =
    1/a_plus are each truncated at ``tol / 10``; both are real for a real
    symbol, whose log has real coefficients.  Then T(a)^-1 =
    T(b_minus) T(b_plus) (Boettcher and Grudsky, "Spectral Properties of
    Banded Toeplitz Matrices", SIAM, 2005).  log a comes from
    ``_log_samples``; an error d in it gives about ||d||_W in a b - 1.  A
    rounding plateau of its outer mass up to tol is left to the caller's
    certificate; above tol, where the factors would carry rounding noise
    over half of a large grid, NoConvergenceError is raised at once.  The
    other errors are those of ``_log_samples``.
    """
    if a.support_len == 1 and a.min_deg == 0:
        return LaurentSymbol.one(), LaurentSymbol.constant(1.0 / a.coeffs[0])
    vals, coeffs, outer = _log_samples(a, tol)
    if outer > tol:
        raise NoConvergenceError(f"log coefficients of the symbol stopped "
                                 f"falling at {outer:.2e}, above {tol:.2e}")
    n, half = vals.size, vals.size // 2
    # l_plus keeps exponents 0 to n/2 - 1; b_minus = 1 / (a b_plus) on grid.
    l_plus = np.zeros(n, dtype=np.complex128)
    l_plus[:half] = coeffs[:half]
    b_plus = np.exp(-np.fft.ifft(l_plus) * n)
    b_plus, b_minus = np.fft.fft(np.stack((b_plus, 1.0 / (vals * b_plus)))) / n
    b_minus = np.concatenate((b_minus[half + 1:], b_minus[:1]))
    b_plus = b_plus[:half]
    if not np.iscomplexobj(a.coeffs):
        # log a, and so each factor, has real coefficients at winding 0.
        b_minus, b_plus = b_minus.real, b_plus.real
    return (sym_truncate(LaurentSymbol(b_minus, 1 - half), tol * 0.1),
            sym_truncate(LaurentSymbol(b_plus), tol * 0.1))


def sym_reciprocal(a, tol):
    """Finitely supported b with ||a * b - 1||_W <= tol.

    Requires a(z) != 0 on the unit circle and winding number zero.  1/a is
    sampled by ``_log_samples`` at tol / 2, as its tail outweighs that of
    log a, and interpolated on the sub-grids of that grid, coarsest (least
    rounding) first; the first that certifies, truncated at tol / 10, is b,
    real for a real symbol.

    Raises
    ------
    ZeroOnCircleError, NonzeroWindingError
    NoConvergenceError  the residual stopped decreasing above tol (the
                        message names the best one) or the grid cap was hit
    """
    if a.is_zero:
        raise ZeroOnCircleError("cannot invert the zero symbol")
    vals, _, _ = _log_samples(a, tol / 2)
    m = 1 << (max(16, 4 * a.coeffs.size) - 1).bit_length()
    best = np.inf
    while m <= vals.size:
        ch = np.fft.fft(1.0 / vals[::vals.size // m]) / m
        if not np.iscomplexobj(a.coeffs):
            ch = ch.real
        b = LaurentSymbol(np.roll(ch, m // 2), -(m // 2))
        b = sym_truncate(b, tol * 0.1)
        residual = norm_w(sym_sub(sym_mul(a, b), LaurentSymbol.one()))
        if residual <= tol:
            return b
        best = min(best, residual)
        m *= 2
    raise NoConvergenceError(
        f"reciprocal residual stopped decreasing at {best:.2e}, "
        f"above tolerance {tol:.2e}")
