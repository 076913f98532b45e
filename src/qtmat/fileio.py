"""Text serialization of semi-infinite and finite quasi-Toeplitz matrices.

Format (line oriented, whitespace separated, 17 significant digits so the
round trip is exact on IEEE doubles)::

    cqt 1 semi                  | cqt 1 finite <m>
    symbol <min_deg> <count>
    <re> <im>                   one line per coefficient
    correction <p> <q> <r>
    <2r floats>                 p rows of the left factor
    <2r floats>                 q rows of the right factor

Finite matrices carry two correction blocks: top-left first, then the
bottom-right one in flipped coordinates.

Dtype rule: the text stores every value as a re/im pair, and a real value
is written with the imaginary field ``0``, so real and complex storage of
the same values give the same text.  ``parse`` returns a matrix stored
real (float64 symbol and factors) when every imaginary field of the file
is +0, and complex128 throughout otherwise; a ``-0`` field keeps it
complex, so the text round-trips byte for byte.
"""

import numpy as np

from .correction import Correction
from .cqt import CqtMatrix
from .errors import MalformedFileError
from .finite import FiniteQtMatrix
from .symbol import LaurentSymbol

_TAG = "cqt"
_VERSION = 1


def _emit_block(lines, block):
    """Append one line per row of a block: each entry's re/im pair.

    One ``%.17g`` template formats the interleaved float row of a complex
    block, and a ``%.17g 0`` one per entry the row of a real block, the
    text a complex copy would give; ``%`` and ``format`` share one
    float-to-text routine, so the digits are those of ``f"{x:.17g}"``.
    """
    if np.iscomplexobj(block):
        block = np.ascontiguousarray(block).view(np.float64)
        entry = "%.17g"
    else:
        entry = "%.17g 0"
    template = " ".join([entry] * block.shape[1])
    lines.extend(template % tuple(row) for row in block.tolist())


def serialize(x):
    """Serialize a CqtMatrix or FiniteQtMatrix to text."""
    if isinstance(x, CqtMatrix):
        lines = [f"{_TAG} {_VERSION} semi"]
    elif isinstance(x, FiniteQtMatrix):
        lines = [f"{_TAG} {_VERSION} finite {x.m}"]
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")
    lines.append(f"symbol {x.symbol.min_deg} {x.symbol.coeffs.size}")
    _emit_block(lines, x.symbol.coeffs[:, None])
    # A mirrored finite result holds one Correction in both corners; its
    # lines are formatted once and written twice.
    written = {}
    for corr in x.corrections:
        if id(corr) not in written:
            block = [f"correction {corr.p} {corr.q} {corr.rank}"]
            _emit_block(block, corr.u)
            _emit_block(block, corr.v)
            written[id(corr)] = block
        lines.extend(written[id(corr)])
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def next_fields(self, expected=None, what=""):
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                fields = line.split()
                if expected is not None and len(fields) != expected:
                    raise MalformedFileError(
                        f"line {self.pos}: expected {expected} fields for "
                        f"{what}, got {len(fields)}")
                return fields
        raise MalformedFileError(f"unexpected end of file while reading {what}")

    def done(self):
        return all(not ln.strip() for ln in self.lines[self.pos:])


def _read_int(field, reader, what):
    try:
        return int(field)
    except ValueError as exc:
        raise MalformedFileError(
            f"line {reader.pos}: bad integer for {what}: {field!r}") from exc


def _read_header(reader, word, names):
    """The integers of a ``<word> <int>...`` block header line."""
    fields = reader.next_fields(len(names) + 1, f"{word} header")
    if fields[0] != word:
        raise MalformedFileError(
            f"line {reader.pos}: expected {word!r}, got {fields[0]!r}")
    return [_read_int(f, reader, name) for f, name in zip(fields[1:], names)]


def _read_block(reader, rows, cols, what, number_what=None):
    """A rows x 2 cols block of floats, one line of re/im fields a row.

    Each line converts in one step.  A wrong field count names ``what``; a
    field that is not a number is named with its line as ``number_what``,
    by default ``what``.
    """
    out = np.empty((rows, 2 * cols))
    for i in range(rows):
        fields = reader.next_fields(2 * cols, what)
        try:
            out[i] = list(map(float, fields))
        except ValueError:
            bad = next(f for f in fields if not _is_number(f))
            raise MalformedFileError(
                f"line {reader.pos}: bad number for {number_what or what}: "
                f"{bad!r}") from None
    return out


def _is_number(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


def _parse_correction(reader):
    """The (left, right) factor blocks of a correction, None when empty."""
    p, q, r = _read_header(reader, "correction", ("correction rows",
                                                  "correction cols",
                                                  "correction rank"))
    if min(p, q, r) < 0:
        raise MalformedFileError(f"line {reader.pos}: negative dimension")
    if r == 0 or p == 0 or q == 0:
        if (p, q, r) != (0, 0, 0):
            raise MalformedFileError(
                f"line {reader.pos}: empty correction must be 0 0 0")
        return None
    return (_read_block(reader, p, r, "correction left factor"),
            _read_block(reader, q, r, "correction right factor"))


def _imaginary_fields_set(block):
    """Whether any imaginary field of a re/im block is other than +0."""
    imag = block[:, 1::2]
    return bool(np.any(imag) or np.signbit(imag).any())


def _values(block, real):
    """The real fields of a re/im block, or its complex values."""
    return block[:, ::2] if real else block.view(np.complex128)


def parse(text):
    """Parse serialized text back into a matrix.

    Validates structure and re-canonicalizes (symbol trim, factor shapes).
    The matrix is stored real when every imaginary field is +0 (see the
    module docstring).

    Raises
    ------
    MalformedFileError  with the offending line in the message
    """
    reader = _Reader(text)
    header = reader.next_fields(None, "header")
    if len(header) < 3 or header[0] != _TAG:
        raise MalformedFileError("line 1: not a cqt matrix file")
    if _read_int(header[1], reader, "version") != _VERSION:
        raise MalformedFileError(f"line 1: unsupported version {header[1]}")
    kind = header[2]
    if kind == "semi":
        if len(header) != 3:
            raise MalformedFileError("line 1: trailing fields after 'semi'")
        m = None
    elif kind == "finite":
        if len(header) != 4:
            raise MalformedFileError("line 1: finite kind requires a size")
        m = _read_int(header[3], reader, "size")
    else:
        raise MalformedFileError(f"line 1: unknown kind {kind!r}")
    min_deg, count = _read_header(reader, "symbol",
                                  ("symbol min_deg", "symbol count"))
    if count < 0:
        raise MalformedFileError(f"line {reader.pos}: negative count")
    coeffs = _read_block(reader, count, 1, "symbol coefficient", "coefficient")
    factors = [_parse_correction(reader) for _ in range(1 if m is None else 2)]
    if not reader.done():
        raise MalformedFileError(f"line {reader.pos + 1}: trailing content")
    blocks = [coeffs] + [b for pair in factors if pair for b in pair]
    real = not any(_imaginary_fields_set(b) for b in blocks)
    sym = LaurentSymbol(_values(coeffs, real)[:, 0], min_deg)
    corrections = [Correction.zero() if pair is None
                   else Correction(*(_values(b, real) for b in pair))
                   for pair in factors]
    if m is None:
        return CqtMatrix(sym, *corrections)
    try:
        return FiniteQtMatrix(m, sym, *corrections)
    except ValueError as exc:
        raise MalformedFileError(f"invalid finite matrix: {exc}") from exc


def write_file(path, x):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize(x))


def read_file(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())
