"""Matrix construction, parsing, Pfaffian and singularity tests.

Determinant values are cross-checked against the Leibniz permutation
sum in tests/oracles.py, which shares nothing with the package's
cofactor expansion.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from replicator4 import (MatrixFormatError, NotConservative, PayoffMatrix,
                         ZeroMatrix, canonical_matrix, format_matrix,
                         parse_matrix, to_skew)
from replicator4.ensembles import (sample_class_matrix,
                                   sample_cyclic_nonsingular)
from oracles import det_leibniz

M_I_TEXT = "0 1 1 -2 / -1 0 1 -1 / -1 -1 0 1 / 2 1 -1 0"
M_IV_JSON = '{"A": [[0,0,0,0],[0,0,-1,1],[0,1,0,-1],[0,-1,1,0]]}'

frac = st.fractions(min_value=-3, max_value=3, max_denominator=16)
upper6 = st.tuples(frac, frac, frac, frac, frac, frac).filter(
    lambda u: any(v != 0 for v in u))


def test_parse_text_rows_matches_hand_transcription():
    M = parse_matrix(M_I_TEXT)
    assert M.exact
    assert M.rows == canonical_matrix("I").rows


def test_parse_json_matches_hand_transcription():
    M = parse_matrix(M_IV_JSON)
    assert M.exact
    assert M.rows == canonical_matrix("IV").rows


def test_parse_newline_rows_equal_slash_rows():
    assert parse_matrix(M_I_TEXT.replace(" / ", "\n")).rows == \
        parse_matrix(M_I_TEXT).rows


def test_parse_rejects_wrong_token_count():
    with pytest.raises(MatrixFormatError):
        parse_matrix("0 1 1 -2 / -1 0 1 -1 / -1 -1 0 1 / 2 1 -1")


def test_parse_rejects_non_numeric_token():
    with pytest.raises(MatrixFormatError):
        parse_matrix(M_I_TEXT.replace("-2", "x"))


def test_float_view_rejects_exact_entries_that_round_to_zero():
    # 10^-400 has no float; a zero there would drop the edge 1 -> 2
    M = PayoffMatrix.from_upper([Fraction(1, 10 ** 400), 1, -1, 1, -1, 1])
    assert M.exact and M.signs[0][1] == 1
    for view in (M.to_float, lambda: M.array):
        with pytest.raises(MatrixFormatError, match="rounds to 0.0"):
            view()


def test_parse_rational_literals_stay_exact():
    M = parse_matrix("0 1/2 0 0 / -1/2 0 0 0 / 0 0 0 1/3 / 0 0 -1/3 0")
    assert M.exact
    assert M[0, 1] == Fraction(1, 2)
    assert M[2, 3] == Fraction(1, 3)


def test_parse_decimals_take_float_path():
    M = parse_matrix(M_I_TEXT.replace("1 1 -2", "1.0 1.0 -2.0"))
    assert not M.exact
    assert isinstance(M[0, 1], float)


def _negated(tok):
    return tok[1:] if tok[0] == "-" else "-" + tok.lstrip("+")


#: token -> (entry type, entry value, M.exact) or the error, for exact =
#: None, True and False; floats by hex, so the sign of zero counts
_TOKEN_TABLE = {
    "+7": (("Fraction", "7", True), ("Fraction", "7", True),
           ("float", "0x1.c000000000000p+2", False)),
    "-0": (("Fraction", "0", True), ("Fraction", "0", True),
           ("float", "0x0.0p+0", False)),
    "1_000": (("Fraction", "1000", True), ("Fraction", "1000", True),
              ("float", "0x1.f400000000000p+9", False)),
    "1__0": (MatrixFormatError,) * 3,
    "\u0663": (("Fraction", "3", True), ("Fraction", "3", True),
               ("float", "0x1.8000000000000p+1", False)),
    "1e3": (("float", "0x1.f400000000000p+9", False),
            ("Fraction", "1000", True),
            ("float", "0x1.f400000000000p+9", False)),
    ".5": (("float", "0x1.0000000000000p-1", False),
           ("Fraction", "1/2", True),
           ("float", "0x1.0000000000000p-1", False)),
    "-0.0": (("float", "-0x0.0p+0", False), ("Fraction", "0", True),
             ("float", "-0x0.0p+0", False)),
    "3/4": (("Fraction", "3/4", True), ("Fraction", "3/4", True),
            ("float", "0x1.8000000000000p-1", False)),
    "-3/4": (("Fraction", "-3/4", True), ("Fraction", "-3/4", True),
             ("float", "-0x1.8000000000000p-1", False)),
    "3/0": (MatrixFormatError,) * 3,
    "1/2/3": (MatrixFormatError,) * 3,
    "0x10": (MatrixFormatError,) * 3,
    "inf": (MatrixFormatError,) * 3,
    "nan": (MatrixFormatError,) * 3,
}


@pytest.mark.parametrize("tok", list(_TOKEN_TABLE))
def test_parse_types_each_token_as_tabled(tok):
    # the token as a12, its negation as a21, in an otherwise exact matrix
    text = f"0 {tok} 0 0 / {_negated(tok)} 0 0 0 / 0 0 0 1 / 0 0 -1 0"
    for exact, want in zip((None, True, False), _TOKEN_TABLE[tok]):
        if want is MatrixFormatError:
            with pytest.raises(MatrixFormatError):
                parse_matrix(text, exact=exact)
            continue
        M = parse_matrix(text, exact=exact)
        v = M[0, 1]
        assert (type(v).__name__,
                v.hex() if isinstance(v, float) else str(v),
                M.exact) == want
        assert M[1, 0] == -v


@pytest.mark.parametrize("tok", ["nan", "inf", "-inf"])
def test_non_finite_string_entries_are_refused(tok):
    # a JSON string entry is read as a text token is, so a NaN, which
    # passes every skew and bound test, is refused with the infinities
    A = [[0, tok, 1, 1], [tok, 0, 1, 1], [-1, -1, 0, 1], [-1, -1, -1, 0]]
    for read in (lambda: parse_matrix(json.dumps({"A": A})),
                 lambda: PayoffMatrix.from_rows(A)):
        with pytest.raises(MatrixFormatError, match=f"entry {tok} is not "
                           "finite"):
            read()


def test_to_skew_is_identity_on_skew_input(MIV):
    A, shifts = to_skew(MIV.rows)
    assert A.rows == MIV.rows
    assert all(c == 0 for c in shifts)


def test_to_skew_recovers_column_shift(MIV):
    c = (1, 2, 3, 4)
    shifted = [[MIV[i, j] + c[j] for j in range(4)] for i in range(4)]
    A, shifts = to_skew(shifted)
    assert A.rows == MIV.rows
    assert tuple(shifts) == c


def test_to_skew_rejects_non_conservative():
    rows = [[0, 2, 0, 0], [-1, 0, 0, 0],
            [0, 0, 0, 1], [0, 0, -1, 0]]
    with pytest.raises(NotConservative):
        to_skew(rows)


def test_zero_matrix_rejected():
    with pytest.raises(ZeroMatrix):
        PayoffMatrix.from_rows([[0] * 4 for _ in range(4)])
    # constant columns shift away to nothing
    with pytest.raises(ZeroMatrix):
        to_skew([[1, 2, 3, 4]] * 4)


def test_pfaffian_of_canonicals_is_zero():
    for name in ("I", "II", "III", "IV", "V"):
        assert canonical_matrix(name).pfaffian() == 0


def test_pfaffian_single_term():
    M = PayoffMatrix.from_upper([1, 0, 0, 0, 0, 1])
    assert M.pfaffian() == 1
    assert M.determinant() == 1


def test_singularity_verdicts(MIV, MV):
    assert MIV.is_singular()
    bumped = PayoffMatrix.from_upper([0, 1, -1, -1, 2, 0])
    assert bumped.pfaffian() == -1
    assert not bumped.is_singular()


def test_singularity_survives_float_noise(MI):
    noise = 1e-14 * np.array([[0, 1, -2, 3],
                              [-1, 0, 1, -1],
                              [2, -1, 0, 2],
                              [-3, 1, -2, 0]])
    M = PayoffMatrix.from_rows(MI.array + noise)
    assert not M.exact
    assert M.is_singular()


def test_float_skew_check_is_on_the_unit_scale(MI):
    bad = MI.array
    bad[0, 1] += 1e-3  # a12 + a21 is 5e-4 of max|a| at every scale
    for s in (1e-13, 1.0, 1e13):
        PayoffMatrix.from_rows(MI.array * s)
        with pytest.raises(NotConservative):
            PayoffMatrix.from_rows(bad * s)


@given(upper6)
def test_pfaffian_squared_is_determinant(u):
    M = PayoffMatrix.from_upper(u)
    assert M.pfaffian() ** 2 == det_leibniz(M.rows)


@given(upper6)
def test_cofactor_determinant_matches_leibniz(u):
    M = PayoffMatrix.from_upper(u)
    assert M.determinant() == det_leibniz(M.rows)


def _mixed_denominator_matrices():
    """Seeded exact matrices whose entries have unequal denominators:
    free draws, cyclic nonsingular draws and class draws with a solved
    a14 (class I's first draw from seed 0 has a13 = -205/96)."""
    rng = np.random.default_rng(0)
    mats = [sample_class_matrix(c, rng) for c in ("I", "II", "III", "V")
            for _ in range(3)]
    mats += [sample_cyclic_nonsingular(rng) for _ in range(8)]
    for _ in range(20):
        mats.append(PayoffMatrix.from_upper([Fraction(
            int(rng.integers(-60, 61)), int(rng.choice((1, 3, 7, 16, 96))))
            for _ in range(6)]))
    return mats


def test_exact_determinant_is_leibniz_on_mixed_denominators():
    mats = _mixed_denominator_matrices()
    assert Fraction(-205, 96) in mats[0].rows[0]
    nonzero = 0
    for M in mats:
        det = M.determinant()
        assert isinstance(det, Fraction) and det == det_leibniz(M.rows)
        nonzero += det != 0
    assert nonzero >= 8  # every cyclic nonsingular draw, at least
    # orders 2 and 3: det = a12^2, and 0 for odd skew order
    for rows, det in (([[0, Fraction(3, 7)], [Fraction(-3, 7), 0]],
                       Fraction(9, 49)),
                      ([[0, Fraction(1, 6), Fraction(-5, 4)],
                        [Fraction(-1, 6), 0, 2], [Fraction(5, 4), -2, 0]],
                       0)):
        M = PayoffMatrix.from_rows(rows)
        assert M.determinant() == det_leibniz(M.rows) == det


def _float_cofactor(rows):
    """Float-mode cofactor expansion as it stood before exact mode went to
    integers, verbatim."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0] * 0
    sign = 1
    for col in range(n):
        if rows[0][col] != 0:
            minor = [[rows[r][c] for c in range(n) if c != col]
                     for r in range(1, n)]
            total = total + sign * rows[0][col] * _float_cofactor(minor)
        sign = -sign
    return total


def _zero_pattern_matrices(rng, count):
    """Seeded float skew matrices of order 2 to 4 whose upper entries are
    zero with probability 1/2, at least one nonzero; a zero keeps its
    draw's sign, so some are -0.0."""
    mats = []
    while len(mats) < count:
        n = int(rng.integers(2, 5))
        upper = rng.standard_normal(n * (n - 1) // 2)
        upper[rng.random(upper.size) < 0.5] *= 0.0
        if not upper.any():
            continue
        A = np.zeros((n, n))
        A[np.triu_indices(n, 1)] = upper
        mats.append(A - A.T)
    return mats


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
def test_float_determinant_keeps_its_bits(scale):
    mats = [canonical_matrix(c).array
            for c in ("I", "II", "III", "IV", "V")]
    mats += [M.array for M in _mixed_denominator_matrices()]
    mats += _zero_pattern_matrices(np.random.default_rng(28), 200)
    for A in mats:
        F = PayoffMatrix.from_rows(A * scale)
        det = F.determinant()
        assert isinstance(det, float)
        assert det.hex() == _float_cofactor([list(r) for r in F.rows]).hex()


@given(upper6)
def test_text_round_trip_exact(u):
    M = PayoffMatrix.from_upper(u)
    again = parse_matrix(format_matrix(M))
    assert again.exact and again.rows == M.rows


@given(upper6)
def test_json_round_trip_exact(u):
    M = PayoffMatrix.from_upper(u)
    again = parse_matrix(format_matrix(M, style="json"))
    assert again.exact and again.rows == M.rows


def test_float_round_trip_is_bit_exact(MI):
    M = PayoffMatrix.from_rows(MI.array * 0.1)
    again = parse_matrix(format_matrix(M))
    assert not again.exact
    assert again.rows == M.rows


def test_submatrix_keeps_skewness(MI):
    S = MI.submatrix([0, 2, 3])
    assert S.n == 3
    assert S[0, 1] == MI[0, 2]
    assert S[1, 0] == -MI[0, 2]


def test_max_abs(MI):
    assert MI.max_abs() == 2
