"""Serialization round trips, the literal format and parse diagnostics."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qtmat import (
    Correction,
    CqtMatrix,
    FiniteQtMatrix,
    LaurentSymbol,
    MalformedFileError,
    parse,
    read_file,
    serialize,
    write_file,
)
import qtmat.fileio

from tests.support import random_cqt, random_fqt

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def identical_semi(a, b):
    return (a.symbol.min_deg == b.symbol.min_deg
            and np.array_equal(a.symbol.coeffs, b.symbol.coeffs)
            and np.array_equal(a.corr.u, b.corr.u)
            and np.array_equal(a.corr.v, b.corr.v))


def identical_finite(a, b):
    return (a.m == b.m
            and a.symbol.min_deg == b.symbol.min_deg
            and np.array_equal(a.symbol.coeffs, b.symbol.coeffs)
            and np.array_equal(a.corr_tl.u, b.corr_tl.u)
            and np.array_equal(a.corr_tl.v, b.corr_tl.v)
            and np.array_equal(a.corr_br.u, b.corr_br.u)
            and np.array_equal(a.corr_br.v, b.corr_br.v))


def test_round_trip_identity():
    a = CqtMatrix.identity()
    assert identical_semi(parse(serialize(a)), a)


def test_round_trip_zero_correction_blocks():
    a = CqtMatrix(LaurentSymbol([1.0, 2.0], -1))
    b = parse(serialize(a))
    assert b.corr.is_zero
    assert identical_semi(a, b)


def test_round_trip_random_semi():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = random_cqt(rng)
        assert identical_semi(parse(serialize(a)), a)


def test_round_trip_random_finite():
    rng = np.random.default_rng(2)
    for _ in range(25):
        a = random_fqt(rng, int(rng.integers(4, 40)))
        assert identical_finite(parse(serialize(a)), a)


def test_round_trip_file(tmp_path):
    rng = np.random.default_rng(3)
    a = random_cqt(rng)
    path = tmp_path / "a.cqt"
    write_file(path, a)
    assert identical_semi(read_file(path), a)


def test_round_trip_exact_17_digits():
    # Value with no short decimal representation survives exactly.
    x = 0.1 + 1.0 / 3.0
    a = CqtMatrix(LaurentSymbol([x, x * 1j], -1))
    b = parse(serialize(a))
    assert b.symbol.coeffs[0] == x


def test_parse_recanonicalizes_symbol():
    text = ("cqt 1 semi\n"
            "symbol -1 3\n"
            "0 0\n"
            "1 0\n"
            "0 0\n"
            "correction 0 0 0\n")
    a = parse(text)
    assert a.symbol.min_deg == 0
    assert a.symbol.coeffs.size == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MalformedFileError, match="line 1"):
        parse("nope\n")
    with pytest.raises(MalformedFileError, match="line 2"):
        parse("cqt 1 semi\nsymbol x 1\n1 0\ncorrection 0 0 0\n")
    with pytest.raises(MalformedFileError, match="line 3"):
        parse("cqt 1 semi\nsymbol 0 1\n1\ncorrection 0 0 0\n")
    with pytest.raises(MalformedFileError, match="end of file"):
        parse("cqt 1 semi\nsymbol 0 1\n1 0\n")
    with pytest.raises(MalformedFileError, match="trailing"):
        parse("cqt 1 semi\nsymbol 0 1\n1 0\ncorrection 0 0 0\nextra\n")
    with pytest.raises(MalformedFileError):
        parse("cqt 2 semi\nsymbol 0 0\ncorrection 0 0 0\n")


def test_parse_finite_validates_band():
    text = ("cqt 1 finite 2\n"
            "symbol -5 11\n" + "1 0\n" * 11
            + "correction 0 0 0\n"
            + "correction 0 0 0\n")
    with pytest.raises(MalformedFileError, match="invalid finite matrix"):
        parse(text)


def test_serialize_rejects_unknown_type():
    with pytest.raises(TypeError):
        serialize(np.eye(3))


def test_finite_blocks_order_tl_then_br():
    a = FiniteQtMatrix(6, LaurentSymbol.one(),
                       Correction.rank_one([1.0], [2.0]),
                       Correction.rank_one([3.0], [4.0]))
    b = parse(serialize(a))
    assert b.corr_tl.u[0, 0] == 1.0
    assert b.corr_br.u[0, 0] == 3.0


@pytest.mark.parametrize("dtype", [float, complex])
def test_a_shared_corner_is_formatted_once(dtype, monkeypatch):
    # A mirrored series result holds one Correction in both corners.
    rng = np.random.default_rng(3)
    corr = Correction(rng.standard_normal((7, 3)).astype(dtype),
                      rng.standard_normal((5, 3)).astype(dtype))
    symbol = LaurentSymbol(np.array([0.5, 2.0, 0.5], dtype=dtype), -1)
    copied = FiniteQtMatrix(20, symbol, corr,
                            Correction(corr.u.copy(), corr.v.copy()))
    want = serialize(copied)
    emit = qtmat.fileio._emit_block
    blocks = []

    def counting(lines, block):
        blocks.append(block.shape)
        return emit(lines, block)

    monkeypatch.setattr(qtmat.fileio, "_emit_block", counting)
    shared = FiniteQtMatrix(20, symbol, corr, corr)
    assert serialize(shared) == want
    assert blocks == [(3, 1), (7, 3), (5, 3)]


def test_real_and_complex_storage_serialize_alike():
    rng = np.random.default_rng(31)
    u = rng.standard_normal((4, 2))
    v = rng.standard_normal((3, 2))
    u[0, 0] = -0.0
    real = Correction(u, v)
    cplx = Correction(u.astype(complex), v.astype(complex))
    assert real.u.dtype == np.float64 and cplx.u.dtype == np.complex128
    sym = LaurentSymbol([0.5, 2.0, -0.25], -1)
    assert serialize(CqtMatrix(sym, real)) == serialize(CqtMatrix(sym, cplx))
    assert serialize(FiniteQtMatrix(9, sym, real, real)) \
        == serialize(FiniteQtMatrix(9, sym, cplx, cplx))


def test_real_text_parses_real():
    rng = np.random.default_rng(32)
    u, v = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
    u[0, 0] = -0.0  # a signed zero in a real field keeps the matrix real
    sym = LaurentSymbol([0.5, -0.0, -0.25], -1)
    for a in (CqtMatrix(sym, Correction(u, v)),
              FiniteQtMatrix(9, sym, Correction(u, v), Correction.zero())):
        b = parse(serialize(a))
        assert b.symbol.coeffs.dtype == np.float64
        assert all(c.u.dtype == c.v.dtype == np.float64
                   for c in b.corrections)
        assert serialize(b) == serialize(a)
    assert np.signbit(parse(serialize(a)).corr_tl.u[0, 0])


def test_a_negative_zero_imaginary_field_keeps_the_text_complex():
    text = ("cqt 1 semi\n"
            "symbol -1 2\n"
            "2 0\n"
            "0.5 0\n"
            "correction 2 1 1\n"
            "1 0\n"
            "0.25 -0\n"
            "3 0\n")
    a = parse(text)
    assert a.symbol.coeffs.dtype == np.complex128
    assert a.corr.u.dtype == a.corr.v.dtype == np.complex128
    assert serialize(a) == text
    real = parse(text.replace("0.25 -0", "0.25 0"))
    assert real.corr.u.dtype == real.symbol.coeffs.dtype == np.float64
    assert np.array_equal(real.corr.u, a.corr.u)


def test_golden_semi_text():
    # A signed zero, a value that needs all 17 digits, complex factors.
    a = CqtMatrix(LaurentSymbol([2.0, complex(-0.0, 0.5), 0.1 + 1 / 3], -1),
                  Correction([[1 + 2j, complex(-0.0, -1.0)], [0.125j, 3.0]],
                             [[0.25, 1e-300 + 0j]]))
    assert serialize(a) == ("cqt 1 semi\n"
                            "symbol -1 3\n"
                            "2 0\n"
                            "-0 0.5\n"
                            "0.43333333333333335 0\n"
                            "correction 2 1 2\n"
                            "1 2 -0 -1\n"
                            "0 0.125 3 0\n"
                            "0.25 0 1e-300 0\n")


def test_golden_finite_text():
    # Real factors with a signed zero, then a zero correction.
    a = FiniteQtMatrix(5, LaurentSymbol([-1.0, 4.0, -1.0], -1),
                       Correction([[-0.0, 1.5], [2.0, 1 / 3]], [[1.0, -2.5]]),
                       Correction.zero())
    assert a.corr_tl.u.dtype == np.float64
    assert serialize(a) == ("cqt 1 finite 5\n"
                            "symbol -1 3\n"
                            "-1 0\n"
                            "4 0\n"
                            "-1 0\n"
                            "correction 2 1 2\n"
                            "-0 0 1.5 0\n"
                            "2 0 0.33333333333333331 0\n"
                            "1 0 -2.5 0\n"
                            "correction 0 0 0\n")


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_benchmark_reader_reads_what_parse_reads():
    # The benchmark oracle reads every output with its own reader.
    checks = _load_checks()
    rng = np.random.default_rng(41)
    mats = [random_cqt(rng) for _ in range(10)]
    mats += [random_fqt(rng, int(rng.integers(4, 40))) for _ in range(10)]
    mats += [CqtMatrix.zero(), FiniteQtMatrix.identity(7)]
    for a in mats:
        text = serialize(a)
        ours, theirs = parse(text), checks.read_matrix(text)
        finite = isinstance(ours, FiniteQtMatrix)
        assert theirs.m == (ours.m if finite else None)
        corrs = (ours.corr_tl, ours.corr_br) if finite else (ours.corr,)
        assert len(theirs.corners) == len(corrs)
        if ours.symbol.is_zero:
            assert theirs.coeffs.size == 0
        else:
            assert theirs.min_deg == ours.symbol.min_deg
            assert np.array_equal(theirs.coeffs, ours.symbol.coeffs)
        for (u, v), corr in zip(theirs.corners, corrs):
            if corr.is_zero:
                assert u.size == v.size == 0
            else:
                assert np.array_equal(u, corr.u)
                assert np.array_equal(v, corr.v)


_FACTOR_TEXT = ("cqt 1 semi\n"
                "symbol 0 1\n"
                "1 0\n"
                "correction 2 1 1\n"
                "{u0}\n"
                "0.5 0\n"
                "{v0}\n")


def test_parse_names_a_bad_left_factor_number():
    text = _FACTOR_TEXT.format(u0="1 zz", v0="2 0")
    with pytest.raises(MalformedFileError,
                       match=r"^line 5: bad number for correction left "
                             r"factor: 'zz'$"):
        parse(text)


def test_parse_names_a_bad_right_factor_number():
    text = _FACTOR_TEXT.format(u0="1 0", v0="2.5e 0")
    with pytest.raises(MalformedFileError,
                       match=r"^line 7: bad number for correction right "
                             r"factor: '2.5e'$"):
        parse(text)


def test_parse_names_a_short_factor_row():
    text = _FACTOR_TEXT.format(u0="1", v0="2 0")
    with pytest.raises(MalformedFileError,
                       match=r"^line 5: expected 2 fields for correction "
                             r"left factor, got 1$"):
        parse(text)
    text = _FACTOR_TEXT.format(u0="1 0", v0="2 0 3")
    with pytest.raises(MalformedFileError,
                       match=r"^line 7: expected 2 fields for correction "
                             r"right factor, got 3$"):
        parse(text)
