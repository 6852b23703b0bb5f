"""Payoff matrices for conservative replicator games.

A conservative game is one whose payoff matrix is skew-symmetric, so the
mean payoff x'Ax vanishes identically on the simplex.  This module owns
parsing, validation, exact and floating entry storage, the Pfaffian, and
the singularity test.  Everything downstream (digraphs, kernel geometry,
dynamics) consumes :class:`PayoffMatrix`.

Arithmetic modes
----------------
Entries are either all exact (``int`` / ``fractions.Fraction``) or all
``float``.  Exact matrices answer sign and singularity questions with no
tolerance at all.  Float matrices decide them on the unit-scale entries
a_ij / max|a|, so that A and sA (s > 0, which only rescales time) get the
same answers: an entry is zero when its unit-scale magnitude is at most
``ZERO_TOL`` = 1e-12, and A is singular when the Pfaffian of the
unit-scale entries is at most ``SINGULAR_TOL`` = 1e-10 in magnitude.
Both rules, and the float view behind ``array``, are computed once per
matrix (:attr:`PayoffMatrix.signs`, :meth:`PayoffMatrix.is_singular`),
and every other module reads them.
The formulas below are plain field arithmetic shared by both modes,
with no numpy on exact entries.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Sequence, Union

import numpy as np

from .errors import (MatrixFormatError, NotConservative, PreconditionFailed,
                     ZeroMatrix)

Scalar = Union[int, float, Fraction]

_ROW_SEP = "/"

#: float mode, on the unit scale: zero entries, |a_ij| / max|a| <= ZERO_TOL;
#: singular A, |pf(A / max|a|)| <= SINGULAR_TOL; skew input, every
#: |a_ij + a_ji| / max|a| <= SKEW_TOL
ZERO_TOL, SINGULAR_TOL, SKEW_TOL = 1e-12, 1e-10, 1e-9
#: largest float max|a| whose determinant bound (2 max|a|)^4 is finite
_MAX_ABS = sys.float_info.max ** 0.25 / 2


def _parse_token(tok: str, exact: bool | None) -> Scalar:
    """Parse one number token.

    Plain integers and ``p/q`` rationals are always exact.  Decimal and
    scientific tokens become floats unless ``exact=True``, in which case
    they are converted to the exact rational they spell.  A token with
    no ``/``, no ``.``, no exponent and no inf or nan spells an integer
    or nothing, so ``int`` alone reads it.
    """
    rational = "/" in tok
    try:
        if not (rational or "." in tok or "e" in tok or "E" in tok
                or "n" in tok or "N" in tok):
            return int(tok)
        return Fraction(tok) if rational or exact else float(tok)
    except (ValueError, ZeroDivisionError) as exc:
        kind = "rational" if rational else "number"
        raise MatrixFormatError(f"bad {kind} token {tok!r}") from exc


def _coerce(value, exact: bool | None) -> Scalar:
    """An entry as int, Fraction or finite float (floats first: an
    ``isinstance(x, Fraction)`` check is slow when x is a float)."""
    if isinstance(value, str):
        value = _parse_token(value, exact)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise MatrixFormatError(f"entry {value!r} is not finite")
        return Fraction(value) if exact else value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise MatrixFormatError(f"unsupported entry type {type(value).__name__}")


def _float_rows(rows) -> tuple:
    """Entries as float lists, and their max|a|; MatrixFormatError past
    ``_MAX_ABS``, or where a nonzero exact entry rounds to 0.0 (the float
    view would lose an edge of the sign digraph)."""
    try:
        out = [[float(v) for v in row] for row in rows]
        m = max(map(abs, chain.from_iterable(out)))
    except OverflowError:  # an exact entry past the float range
        m = math.inf
    if m > _MAX_ABS:
        raise MatrixFormatError(
            f"an entry exceeds {_MAX_ABS:.4g} in magnitude, so the "
            "determinant could overflow; rescale the matrix")
    if any(f == 0.0 and v != 0
           for row, fs in zip(rows, out) for v, f in zip(row, fs)):
        raise MatrixFormatError(
            "a nonzero entry rounds to 0.0 as a float; rescale the matrix")
    return out, m


@dataclass(frozen=True)
class PayoffMatrix:
    """Skew-symmetric payoff matrix with exact or float entries.

    Construct through :meth:`from_rows`, :meth:`from_upper`, or
    :func:`parse_matrix`; the constructor assumes ``rows`` is already
    canonical (zero diagonal, lower triangle the exact negative of the
    upper).

    Attributes
    ----------
    rows : tuple of tuples
        Canonicalized entries, row major, 0-based.
    exact : bool
        True when every entry is an ``int`` or ``Fraction``.
    """

    rows: tuple
    exact: bool

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def array(self) -> np.ndarray:
        """Entries as a fresh float64 array, bounded as :meth:`to_float`."""
        return np.array(self._floats)

    @cached_property
    def _floats(self) -> tuple:
        if not self.exact:  # from_rows has bounded them
            return self.rows
        return tuple(map(tuple, _float_rows(self.rows)[0]))

    @classmethod
    def from_rows(cls, rows, exact: bool | None = None) -> "PayoffMatrix":
        """Validate a square array-like as skew-symmetric and canonicalize.

        Float input may carry rounding noise: skewness is checked on the
        unit scale, |a_ij + a_ji| / max|a| <= ``SKEW_TOL``, and the stored
        matrix mirrors the upper triangle so downstream code sees exact
        skewness either way.

        Raises
        ------
        NotConservative
            If some ``a_ij + a_ji`` or diagonal entry exceeds the
            tolerance (exact entries must cancel exactly).
        MatrixFormatError
            If the input is not square, has an unsupported entry type, a
            float entry that is not finite, or in float mode entries so
            large that the determinant could overflow.
        ZeroMatrix
            If every entry vanishes.
        """
        vals = [[_coerce(v, exact) for v in row] for row in rows]
        n = len(vals)
        if n < 2 or any(len(r) != n for r in vals):
            raise MatrixFormatError("payoff matrix must be square, n >= 2")
        if all(v == 0 for r in vals for v in r):
            raise ZeroMatrix("all payoff entries are zero")
        if exact is None:  # _coerce leaves int, Fraction or float
            exact = not any(type(v) is float for r in vals for v in r)
        bound = 0
        if not exact:
            vals, m = _float_rows(vals)
            bound = SKEW_TOL * m
        for i in range(n):
            for j in range(i, n):
                d = vals[i][i] if i == j else vals[i][j] + vals[j][i]
                if abs(d) > bound:
                    what = (f"diagonal entry a[{i+1}][{i+1}]" if i == j else
                            f"a[{i+1}][{j+1}] + a[{j+1}][{i+1}]")
                    raise NotConservative(
                        f"{what} = {scalar_to_json(d)} is not zero"
                        + ("" if exact else f" to {SKEW_TOL} of max|a|"))
        zero: Scalar = Fraction(0) if exact else 0.0
        canon = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = vals[i][j]
                if exact and type(v) is not Fraction:
                    v = Fraction(v)
                canon[i][j], canon[j][i] = v, -v
        return cls(tuple(tuple(r) for r in canon), exact)

    @classmethod
    def from_upper(cls, upper: Sequence, exact: bool | None = None
                   ) -> "PayoffMatrix":
        """Build a 4x4 matrix from its six upper-triangle entries.

        Order: a12, a13, a14, a23, a24, a34.
        """
        if len(upper) != 6:
            raise MatrixFormatError("expected 6 upper-triangle entries")
        a12, a13, a14, a23, a24, a34 = (_coerce(v, exact) for v in upper)
        rows = [[0, a12, a13, a14],
                [-a12, 0, a23, a24],
                [-a13, -a23, 0, a34],
                [-a14, -a24, -a34, 0]]
        return cls.from_rows(rows, exact=exact)

    def submatrix(self, keep: Sequence[int]) -> "PayoffMatrix":
        """Principal submatrix on the given 0-based positions."""
        rows = tuple(tuple(self.rows[i][j] for j in keep) for i in keep)
        return PayoffMatrix(rows, self.exact)

    def to_float(self) -> "PayoffMatrix":
        """Float view of this matrix (identity if already float), with
        float input's bound on max|a| (MatrixFormatError past it)."""
        if not self.exact:
            return self
        return PayoffMatrix(self._floats, False)

    def max_abs(self) -> Scalar:
        return self._max_abs

    @cached_property
    def _max_abs(self) -> Scalar:
        return max(map(abs, chain.from_iterable(self.rows)))

    def unit(self) -> "PayoffMatrix":
        """A / max|a|: the same game on a rescaled clock, exact when A is."""
        m = self.max_abs()
        return PayoffMatrix(tuple(tuple(v / m for v in row)
                                  for row in self.rows), self.exact)

    @cached_property
    def signs(self) -> tuple:
        """Sign of each entry, -1, 0 or 1, row major (the one zero rule):
        exact in exact mode; 0 in float mode where |a_ij| / max|a| is at
        most ``ZERO_TOL``."""
        if self.exact:  # a Fraction has its numerator's sign, read fast
            rows, tol = [[v.numerator for v in r] for r in self.rows], 0
        else:
            rows, tol = self.rows, ZERO_TOL * self._max_abs
        return tuple([tuple([(v > tol) - (v < -tol) for v in row])
                      for row in rows])

    def pfaffian(self) -> Scalar:
        """Pfaffian of a skew matrix of even order.

        For n = 4 this is the three-term combination
        a12*a34 - a13*a24 + a14*a23, whose square is det(A).  For n = 2
        it is just a12.
        """
        return _pfaffian(self.rows)

    def determinant(self) -> Scalar:
        """Determinant by cofactor expansion.

        Deliberately not computed from the Pfaffian: this is the
        independent route used to cross-check pf(A)^2 = det(A).  Exact
        mode expands the integers D*A, D the lcm of the denominators, and
        divides by D^n: no Pfaffian there either.
        """
        if not self.exact:
            return _det_cofactor(self.rows)
        d = math.lcm(*(v.denominator for row in self.rows for v in row))
        m = [[v.numerator * d // v.denominator for v in r] for r in self.rows]
        return Fraction(_det_cofactor(m), d ** self.n)

    def is_singular(self) -> bool:
        """Whether det(A) = 0 (the one singularity rule): pf == 0 in exact
        mode; |pf(A / max|a|)| <= ``SINGULAR_TOL`` in float mode, on the
        unit-scale entries, since pf(A) itself underflows for tiny A."""
        return self._pf == 0 if self.exact else abs(self._pf) <= SINGULAR_TOL

    @cached_property
    def _pf(self) -> Scalar:
        """pf(A) in exact mode, pf(A / max|a|) in float mode."""
        if self.exact:
            return self.pfaffian()
        m = self._max_abs
        return _pfaffian([[v / m for v in r] for r in self.rows])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]


def _pfaffian(a) -> Scalar:
    if len(a) == 2:
        return a[0][1]
    if len(a) == 4:
        return a[0][1] * a[2][3] - a[0][2] * a[1][3] + a[0][3] * a[1][2]
    raise PreconditionFailed(f"pfaffian needs order 2 or 4, got {len(a)}")


def _det_cofactor(rows, cols=None) -> Scalar:
    """Expansion along the top row, skipping zero entries, of the minor on
    the last len(cols) rows and the columns ``cols`` (default: all)."""
    cols = tuple(range(len(rows))) if cols is None else cols
    top = rows[-len(cols)]
    total, sign = top[cols[0]] * 0, 1
    for k, c in enumerate(cols):
        if top[c] != 0:
            rest = cols[:k] + cols[k + 1:]
            minor = (rows[-1][rest[0]] if len(rest) == 1
                     else _det_cofactor(rows, rest))
            total = total + sign * top[c] * minor
        sign = -sign
    return total


def to_skew(rows, exact: bool | None = None):
    """Strip column shifts from a game matrix and return the skew core.

    Adding a constant c_j to column j of a payoff matrix does not change
    the replicator flow on the simplex.  A conservative game may therefore
    arrive as B with b_ij = a_ij + c_j for skew A.  Since a_jj = 0, the
    shift is read off the diagonal, c_j = b_jj, and removed.

    Returns
    -------
    (PayoffMatrix, shifts)
        The skew matrix and the tuple of recovered column shifts.

    Raises
    ------
    NotConservative
        If B minus its recovered shifts is not skew within tolerance,
        i.e. b_ij + b_ji differs from b_ii + b_jj.
    """
    vals = [[_coerce(v, exact) for v in row] for row in rows]
    n = len(vals)
    if n < 2 or any(len(r) != n for r in vals):
        raise MatrixFormatError("matrix must be square, n >= 2")
    shifts = tuple(vals[j][j] for j in range(n))
    core = [[vals[i][j] - shifts[j] for j in range(n)] for i in range(n)]
    return PayoffMatrix.from_rows(core, exact=exact), shifts


def parse_matrix(src: str, exact: bool | None = None) -> PayoffMatrix:
    """Parse a payoff matrix from text or JSON.

    Text form: 16 whitespace-separated numbers, row major.  A standalone
    ``/`` token may separate rows (``0 1 ... / -1 0 ...``); newlines work
    too.  Number tokens may be integers, decimals, scientific notation,
    or rationals ``p/q``.  Integer and rational tokens are exact; a
    matrix whose tokens are all exact is parsed in exact mode unless
    ``exact=False`` forces floats.

    JSON form (first non-space character ``{``): an object with key
    ``"A"`` holding a 4x4 array; entries may be numbers or rational
    strings.
    """
    stripped = src.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(src)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"bad JSON: {exc}") from exc
        if not isinstance(obj, dict) or "A" not in obj:
            raise MatrixFormatError('JSON matrix must be {"A": [[...], ...]}')
        rows = obj["A"]
        if (not isinstance(rows, list) or len(rows) != 4
                or any(not isinstance(r, list) or len(r) != 4 for r in rows)):
            raise MatrixFormatError('"A" must be a 4x4 array')
        return PayoffMatrix.from_rows(rows, exact=exact)
    toks = [t for t in stripped.split() if t != _ROW_SEP]
    if len(toks) != 16:
        raise MatrixFormatError(
            f"expected 16 entries, got {len(toks)}")
    vals = [_parse_token(t, exact) for t in toks]
    rows = [vals[4 * i:4 * i + 4] for i in range(4)]
    return PayoffMatrix.from_rows(rows, exact=exact)


def scalar_to_json(v: Scalar):
    """JSON value for one entry: exact non-integers become strings.  Its
    ``str`` is the entry's text token (for a float, ``str`` is ``repr``)."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return v.numerator
        return f"{v.numerator}/{v.denominator}"
    return v


def format_matrix(M: PayoffMatrix, style: str = "text") -> str:
    """Serialize a matrix in the accepted input formats.

    ``parse_matrix(format_matrix(M))`` reproduces M exactly in exact
    mode and bit for bit in float mode (floats go through repr).
    """
    if style == "text":
        return f" {_ROW_SEP} ".join(
            " ".join(str(scalar_to_json(v)) for v in row) for row in M.rows)
    if style == "json":
        rows = [[scalar_to_json(v) for v in row] for row in M.rows]
        return json.dumps({"A": rows})
    raise ValueError(f"unknown style {style!r}")
