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
    """Append one line per row of a complex block: each entry's re/im pair.

    One ``%.17g`` template formats the interleaved float row; ``%`` and
    ``format`` share one float-to-text routine, so the digits are those of
    ``f"{x:.17g}"``.
    """
    pairs = np.ascontiguousarray(block, dtype=np.complex128).view(np.float64)
    template = " ".join(["%.17g"] * pairs.shape[1])
    lines.extend(template % tuple(row) for row in pairs.tolist())


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
    for corr in x.corrections:
        lines.append(f"correction {corr.p} {corr.q} {corr.rank}")
        _emit_block(lines, corr.u)
        _emit_block(lines, corr.v)
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
    """A complex rows x cols block, one line of 2 * cols re/im fields a row.

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
    return out.view(np.complex128)


def _is_number(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


def _parse_correction(reader):
    p, q, r = _read_header(reader, "correction", ("correction rows",
                                                  "correction cols",
                                                  "correction rank"))
    if min(p, q, r) < 0:
        raise MalformedFileError(f"line {reader.pos}: negative dimension")
    if r == 0 or p == 0 or q == 0:
        if (p, q, r) != (0, 0, 0):
            raise MalformedFileError(
                f"line {reader.pos}: empty correction must be 0 0 0")
        return Correction.zero()
    return Correction(_read_block(reader, p, r, "correction left factor"),
                      _read_block(reader, q, r, "correction right factor"))


def parse(text):
    """Parse serialized text back into a matrix.

    Validates structure and re-canonicalizes (symbol trim, factor shapes).

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
    sym = LaurentSymbol(coeffs[:, 0], min_deg)
    corrections = [_parse_correction(reader)
                   for _ in range(1 if m is None else 2)]
    if not reader.done():
        raise MalformedFileError(f"line {reader.pos + 1}: trailing content")
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
