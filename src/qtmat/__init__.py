"""Quasi-Toeplitz matrix algebra and matrix functions.

Semi-infinite matrices of the form T(a) + E, where T(a) is the Toeplitz
matrix of a finitely supported Laurent symbol a and E is a low-rank,
finite-support correction, together with their finite m x m analogue that
carries a correction in each corner.  Two engines compute matrix functions:
truncated (Laurent) series and trapezoidal quadrature of the resolvent
integral on a closed contour.
"""

from .config import DEFAULT_CONFIG, ToleranceConfig
from .contour import ContourSpec, QuadratureLevel, funm_contour, nodes_weights, resolvent
from .correction import (
    Correction,
    abs_sum_norm,
    corr_add,
    corr_compress,
    hankel_product,
)
from .cqt import (
    CqtMatrix,
    cqt_add,
    cqt_inv,
    cqt_mul,
    cqt_norm,
    finite_section,
    qt_norm,
    toeplitz_section,
)
from .errors import (
    CertificateError,
    EnclosureError,
    MalformedFileError,
    NoConvergenceError,
    NonzeroWindingError,
    OnSpectrumError,
    PreconditionError,
    QtError,
    RadiusViolationError,
    SingularMatrixError,
    SizeMismatchError,
    ZeroOnCircleError,
)
from .fileio import parse, read_file, serialize, write_file
from .finite import (
    FiniteQtMatrix,
    fqt_add,
    fqt_from_dense,
    fqt_inv,
    fqt_mul,
    fqt_scale,
    fqt_to_dense,
)
from .oracles import sine_transform_oracle
from .series import (
    SeriesSpec,
    bound_correction_general,
    bound_correction_toeplitz,
    funm_laurent,
    funm_taylor,
    power_corrections,
)
from .symbol import (
    LaurentSymbol,
    sym_add,
    sym_mul,
    sym_reciprocal,
    sym_scale,
    sym_split,
    sym_truncate,
    wiener_norms,
    winding_number,
)

__all__ = [
    "DEFAULT_CONFIG",
    "ToleranceConfig",
    "LaurentSymbol",
    "Correction",
    "CqtMatrix",
    "FiniteQtMatrix",
    "SeriesSpec",
    "ContourSpec",
    "QuadratureLevel",
    "wiener_norms",
    "sym_add",
    "sym_mul",
    "sym_scale",
    "sym_reciprocal",
    "sym_split",
    "sym_truncate",
    "winding_number",
    "abs_sum_norm",
    "corr_add",
    "corr_compress",
    "hankel_product",
    "cqt_add",
    "cqt_mul",
    "cqt_inv",
    "cqt_norm",
    "qt_norm",
    "finite_section",
    "toeplitz_section",
    "fqt_add",
    "fqt_mul",
    "fqt_scale",
    "fqt_inv",
    "fqt_to_dense",
    "fqt_from_dense",
    "power_corrections",
    "funm_taylor",
    "funm_laurent",
    "funm_contour",
    "bound_correction_toeplitz",
    "bound_correction_general",
    "nodes_weights",
    "resolvent",
    "sine_transform_oracle",
    "serialize",
    "parse",
    "read_file",
    "write_file",
    "QtError",
    "CertificateError",
    "PreconditionError",
    "ZeroOnCircleError",
    "NonzeroWindingError",
    "RadiusViolationError",
    "SizeMismatchError",
    "SingularMatrixError",
    "OnSpectrumError",
    "EnclosureError",
    "NoConvergenceError",
    "MalformedFileError",
]
