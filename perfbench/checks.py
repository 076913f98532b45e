"""Independent oracles for benchmark results.

Nothing here calls the engines under test: results are read back from the
serialized output text with a reader of this module, materialized with
plain NumPy, and compared with dense SciPy matrix functions (semi-infinite
inputs) or the closed-form sine-transform eigenbasis of the rescaled
Laplacian (finite inputs).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Semi-infinite results are compared on the leading block of a dense
# function of a larger section, as ``qtmat funm --oracle dense`` does.
SECTION = 600
COMPARE = 80

_DENSE_FUNCS = {"exp": scipy.linalg.expm, "sqrt": scipy.linalg.sqrtm,
                "log": scipy.linalg.logm}
_SCALAR_FUNCS = {"exp": np.exp, "sqrt": np.sqrt, "log": np.log}


@dataclass
class Parsed:
    """A matrix read from the qtmat text format (m is None when semi)."""

    m: object
    coeffs: np.ndarray
    min_deg: int
    corners: list  # (u, v) pairs; finite matrices: top-left, then flipped

    @property
    def entries(self):
        """Stored complex numbers: band plus rank * (p + q) per corner."""
        return self.coeffs.size + sum(u.shape[1] * (u.shape[0] + v.shape[0])
                                      for u, v in self.corners)


def read_matrix(text):
    lines = text.splitlines()
    header = lines[0].split()
    m = int(header[3]) if header[2] == "finite" else None
    pos = 1

    def take(count, width):
        nonlocal pos
        block = np.array(" ".join(lines[pos:pos + count]).split(), float)
        pos += count
        pairs = block.reshape(count, width, 2)
        return pairs[..., 0] + 1j * pairs[..., 1]

    _, min_deg, count = lines[pos].split()
    pos += 1
    coeffs = take(int(count), 1)[:, 0] if int(count) else np.zeros(0, complex)
    corners = []
    for _ in range(1 if m is None else 2):
        _, p, q, r = lines[pos].split()
        pos += 1
        p, q, r = int(p), int(q), int(r)
        corners.append((take(p, r), take(q, r)))
    return Parsed(m, coeffs, int(min_deg), corners)


def _band_entries(a, offsets):
    """Coefficient a_k for each exponent k in ``offsets`` (0 outside)."""
    idx = offsets - a.min_deg
    ok = (idx >= 0) & (idx < a.coeffs.size)
    out = np.zeros(offsets.shape, complex)
    out[ok] = a.coeffs[idx[ok]]
    return out


def semi_section(a, n):
    """Dense leading n x n block of T(a) + E."""
    out = _band_entries(a, np.arange(n)[None, :] - np.arange(n)[:, None])
    u, v = a.corners[0]
    if u.size:
        out[:min(u.shape[0], n), :min(v.shape[0], n)] += u[:n] @ v[:n].T
    return out


def finite_column(a, j):
    """Dense column j (zero-based) of a finite matrix."""
    m = a.m
    col = _band_entries(a, j - np.arange(m))
    (u, v), (fu, fv) = a.corners
    if u.size and j < v.shape[0]:
        col[:u.shape[0]] += u @ v[j]
    jj = m - 1 - j
    if fu.size and jj < fv.shape[0]:
        col[m - fu.shape[0]:] += (fu @ fv[jj])[::-1]
    return col


def _real_if_possible(x):
    return x.real if not np.any(x.imag) else x


def semi_reference(job, parsed_input):
    """Leading COMPARE x COMPARE block of f(A) from a dense SECTION."""
    dense = _real_if_possible(semi_section(parsed_input, SECTION))
    if job.func == "laurent":
        eye = np.eye(SECTION)
        inverse = scipy.linalg.solve(dense, eye)
        ref = np.zeros_like(dense, dtype=complex)
        for k, c in job.laurent:
            if k < 0:
                ref += c * np.linalg.matrix_power(inverse, -k)
            else:
                ref += c * np.linalg.matrix_power(dense, k)
    else:
        ref = _DENSE_FUNCS[job.func](dense)
    return np.asarray(ref)[:COMPARE, :COMPARE]


def finite_reference(job, m, sine_oracle):
    """First column of f(shift * I + p(H)) from the sine-transform oracle."""
    f = _SCALAR_FUNCS[job.func]
    poly = np.asarray(job.poly[::-1])
    return sine_oracle(m, lambda lam: f(job.shift + np.polyval(poly, lam)), 1)


def max_error(job, output_text, sine_oracle):
    """Max-abs error of a job's output against its oracle.

    Returns the error, the largest reference entry (the scale the stated
    accuracy is relative to) and the parsed output.  For finite matrices
    the first and last columns are checked; f(p(H)) is persymmetric, so the
    last column of the reference is the first one reversed.
    """
    out = read_matrix(output_text)
    parsed = read_matrix(job.text)
    if parsed.m is None:
        ref = semi_reference(job, parsed)
        error = np.abs(semi_section(out, COMPARE) - ref).max()
    else:
        ref = finite_reference(job, parsed.m, sine_oracle)
        error = max(np.abs(finite_column(out, 0) - ref).max(),
                    np.abs(finite_column(out, out.m - 1) - ref[::-1]).max())
    return float(error), float(np.abs(ref).max()), out


def digits(error):
    """-log10 of an error, capped at 17 digits for an exact result."""
    return -math.log10(max(error, 1e-17))
