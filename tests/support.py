"""Shared random generators and independent dense oracles for the tests.

Oracles here deliberately avoid the package's structured kernels: dense
Toeplitz blocks are assembled entrywise, symbol products by explicit double
loops, Hankel matrices from their definition, so agreement with the package
is meaningful.
"""

import numpy as np

from qtmat import CqtMatrix, Correction, FiniteQtMatrix, LaurentSymbol
from qtmat.oracles import _laplacian_power


def dense_toeplitz_oracle(sym, n):
    """n x n block with entry a_{j-i}, assembled by 2-d coefficient lookup."""
    out = np.zeros((n, n), dtype=complex)
    for d in range(sym.min_deg, sym.max_deg + 1):
        c = sym.coeff(d)
        if c != 0:
            idx = np.arange(max(0, -d), min(n, n - d))
            out[idx, idx + d] = c
    return out


def dense_correction_oracle(corr, n_rows, n_cols):
    """Dense embedding of a factored correction, straight from U @ V^T."""
    out = np.zeros((n_rows, n_cols), dtype=complex)
    if corr.rank:
        block = np.asarray(corr.u) @ np.asarray(corr.v).T
        r = min(corr.p, n_rows)
        c = min(corr.q, n_cols)
        out[:r, :c] = block[:r, :c]
    return out


def dense_cqt_oracle(a, n):
    return dense_toeplitz_oracle(a.symbol, n) \
        + dense_correction_oracle(a.corr, n, n)


def dense_fqt_oracle(a):
    """Dense finite quasi-Toeplitz matrix: band + two flipped corners."""
    m = a.m
    out = dense_toeplitz_oracle(a.symbol, m)
    out += dense_correction_oracle(a.corr_tl, m, m)
    br = dense_correction_oracle(a.corr_br, m, m)
    out += br[::-1, ::-1]
    return out


def centrosymmetric_fqt(m):
    """I + H^10, a centrosymmetric matrix (J A J = A).

    Below m = 3, where H^10 does not fit, a tridiagonal band with equal
    corners instead.
    """
    if m >= 3:
        return _laplacian_power(m).add(FiniteQtMatrix.identity(m))
    corner = Correction.rank_one([0.1], [1.0])
    return FiniteQtMatrix(m, LaurentSymbol([0.2, 1.5, 0.2][2 - m:m + 1],
                                           1 - m), corner, corner)


def convolve_oracle(a, b):
    """Symbol product by explicit double loop over coefficient pairs."""
    if a.is_zero or b.is_zero:
        return {}
    out = {}
    for s, ca in zip(range(a.min_deg, a.max_deg + 1), a.coeffs):
        for t, cb in zip(range(b.min_deg, b.max_deg + 1), b.coeffs):
            out[s + t] = out.get(s + t, 0.0) + ca * cb
    return out


def symbol_to_dict(sym):
    return {sym.min_deg + t: c for t, c in enumerate(sym.coeffs) if c != 0}


def dict_to_symbol(d):
    if not d:
        return LaurentSymbol.zero()
    lo = min(d)
    hi = max(d)
    buf = np.zeros(hi - lo + 1, dtype=complex)
    for k, v in d.items():
        buf[k - lo] = v
    return LaurentSymbol(buf, lo)


def dense_hankel_minus(a_minus, size):
    """Explicit Hankel block with entry a_{-i-j+1} (one-based indices)."""
    out = np.zeros((size, size), dtype=complex)
    for i in range(size):
        for j in range(size):
            out[i, j] = a_minus.coeff(i + j + 1)
    return out


def dense_hankel_plus(b_plus, size):
    """Explicit Hankel block with entry b_{i+j-1} (one-based indices)."""
    out = np.zeros((size, size), dtype=complex)
    for i in range(size):
        for j in range(size):
            out[i, j] = b_plus.coeff(i + j + 1)
    return out


def random_symbol(rng, min_deg_lo=-5, min_deg_hi=0, max_len=10, scale=1.0):
    length = rng.integers(1, max_len + 1)
    min_deg = int(rng.integers(min_deg_lo, min_deg_hi + 1))
    coeffs = scale * (rng.standard_normal(length)
                      + 1j * rng.standard_normal(length))
    coeffs[0] += scale  # keep the ends nonzero
    coeffs[-1] += scale
    return LaurentSymbol(coeffs, min_deg)


def random_correction(rng, p, q, r, scale=1.0):
    u = scale * (rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r)))
    v = rng.standard_normal((q, r)) + 1j * rng.standard_normal((q, r))
    return Correction(u, v)


def random_invertible_symbol(rng, max_side=4, scale=1.0):
    """Symbol with a dominant center coefficient: no zeros, winding 0."""
    n_neg = int(rng.integers(0, max_side + 1))
    n_pos = int(rng.integers(0, max_side + 1))
    coeffs = 0.3 * scale * (rng.standard_normal(n_neg + n_pos + 1)
                            + 1j * rng.standard_normal(n_neg + n_pos + 1))
    total = np.abs(coeffs).sum()
    coeffs[n_neg] = (2.0 * total + scale) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return LaurentSymbol(coeffs, -n_neg)


def random_cqt(rng, max_len=8, corr_dim=8, corr_rank=3, scale=1.0):
    sym = random_symbol(rng, max_len=max_len, scale=scale)
    p = int(rng.integers(1, corr_dim + 1))
    q = int(rng.integers(1, corr_dim + 1))
    r = int(rng.integers(1, corr_rank + 1))
    return CqtMatrix(sym, random_correction(rng, p, q, r, scale=scale))


def random_fqt(rng, m, band=5, corner=8, rank=3, scale=1.0):
    n_neg = int(rng.integers(0, band + 1))
    n_pos = int(rng.integers(0, band + 1))
    n_neg = min(n_neg, m - 1)
    n_pos = min(n_pos, m - 1)
    coeffs = scale * (rng.standard_normal(n_neg + n_pos + 1)
                      + 1j * rng.standard_normal(n_neg + n_pos + 1))
    sym = LaurentSymbol(coeffs, -n_neg)
    corner = min(corner, m)
    p1 = int(rng.integers(1, corner + 1))
    q1 = int(rng.integers(1, corner + 1))
    p2 = int(rng.integers(1, corner + 1))
    q2 = int(rng.integers(1, corner + 1))
    r1 = int(rng.integers(1, rank + 1))
    r2 = int(rng.integers(1, rank + 1))
    return FiniteQtMatrix(m, sym,
                          random_correction(rng, p1, q1, r1, scale=scale),
                          random_correction(rng, p2, q2, r2, scale=scale))
