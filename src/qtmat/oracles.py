"""Independent validation oracles for the benchmark harness and tests.

``_laplacian_power`` builds the paper's test matrix H^10 with the finite
algebra; it is an input, not an oracle.
"""

import numpy as np

from .config import DEFAULT_CONFIG
from .finite import FiniteQtMatrix, fqt_mul
from .symbol import LaurentSymbol


def sine_transform_oracle(m, scalar_f, column):
    """One column of f(p(H)) for the rescaled discrete Laplacian H.

    H is the m x m tridiagonal matrix with stencil (1, 2, 1) divided by
    2 + 2 cos(pi / (m + 1)), whose eigenpairs are known in closed form:
    eigenvalues (2 + 2 cos(j pi / (m+1))) / (2 + 2 cos(pi / (m+1))) with
    eigenvectors sin(i j pi / (m+1)).  ``scalar_f`` must map an eigenvalue
    of H to the corresponding eigenvalue of the target matrix function, so
    for f(p(H)) pass the composition f . p.  ``column`` is one-based.

    The column is assembled by direct summation over the eigenbasis, at a
    cost linear in m per eigenvector.
    """
    if not 1 <= column <= m:
        raise ValueError("column index out of range")
    theta = np.pi / (m + 1)
    j = np.arange(1, m + 1)
    lam = (2.0 + 2.0 * np.cos(j * theta)) / (2.0 + 2.0 * np.cos(theta))
    fvals = np.asarray(scalar_f(lam))
    modes = np.sin(np.outer(np.arange(1, m + 1), j) * theta)
    # ||v_j||^2 = (m + 1) / 2 for every eigenvector.
    weights = fvals * modes[column - 1] * (2.0 / (m + 1))
    return modes @ weights


def laplacian_symbol_coeffs(m):
    """Band coefficients of the rescaled discrete Laplacian H (see above)."""
    scale = 2.0 + 2.0 * np.cos(np.pi / (m + 1))
    return np.array([1.0, 2.0, 1.0]) / scale


def _laplacian_power(m, power=10, cfg=DEFAULT_CONFIG):
    """H^power for the rescaled discrete Laplacian H, by repeated squaring."""
    h = FiniteQtMatrix(m, LaurentSymbol(laplacian_symbol_coeffs(m), -1))
    result = h.identity_like()
    base = h
    exponent = power
    while exponent:
        if exponent & 1:
            result = fqt_mul(result, base, cfg)
        exponent >>= 1
        if exponent:
            base = fqt_mul(base, base, cfg)
    return result
