"""Geometry of the interior equilibrium segment.

For a singular conservative game the null space of A is a plane; its
intersection with the affine hull of the simplex is a line L, and the
interior equilibria form the open segment K = L in the open simplex,
whose closure has two endpoints on the boundary.

One closed form gives them: the Hodge dual A* of a 4x4 skew A has
A A* = -pf(A) I, so when pf(A) = 0 column i of A* is the kernel vector
with x_i = 0.  A column whose nonzero entries share one sign is an
endpoint, and its support is its locus (a face, an edge or a vertex),
so the loci depend on the sign pattern alone.  :func:`section_by_clipping`
recovers the endpoints from a numerical null-space basis clipped against
the simplex, to cross-check the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import EmptyKernelSection, PreconditionFailed, RankError
from .payoff import PayoffMatrix, scalar_to_json
from .signgraph import ClassLabel, _digraph_of_signs, classify

_KIND_RANK = {"face": 0, "edge": 1, "vertex": 2}

#: float mode's relative tolerance: rank, clipped line and unit residual
_RTOL = 1e-10


@dataclass(frozen=True)
class Locus:
    """Boundary location of a segment endpoint.

    ``kind`` is ``"face"``, ``"edge"``, or ``"vertex"``.  For a face the
    single strategy index is the missing one (the face x_i = 0); for an
    edge the pair is the support; for a vertex it is the support.
    Indices are 1-based, as everywhere in reports.
    """

    kind: str
    strategies: tuple

    def to_json(self):
        if self.kind == "face":
            return {"face": self.strategies[0]}
        if self.kind == "edge":
            return {"edge": list(self.strategies)}
        return {"vertex": self.strategies[0]}

    def sort_key(self):
        return (_KIND_RANK[self.kind], self.strategies)


@dataclass(frozen=True)
class NullLineSection:
    """The segment K: two boundary endpoints of the null line clipped to
    the simplex, with their loci and the digraph classification.

    Endpoints are stored in deterministic order (faces before edges
    before vertices, then by index) and keep exact entries when the
    matrix is exact.
    """

    endpoints: tuple
    loci: tuple
    label: ClassLabel
    exact: bool

    def point_at(self, c):
        """Affine parameterization z(c) = (1-c) * a + c * b."""
        a, b = self.endpoints
        return tuple((1 - c) * ai + c * bi for ai, bi in zip(a, b))

    def midpoint(self):
        half = Fraction(1, 2) if self.exact else 0.5
        return self.point_at(half)

    def as_array(self) -> np.ndarray:
        """Endpoints as a (2, 4) float array."""
        return np.array([[float(v) for v in e] for e in self.endpoints])

    def to_json(self) -> dict:
        return {
            "endpoints": [
                {"x": [scalar_to_json(v) for v in e], "locus": l.to_json()}
                for e, l in zip(self.endpoints, self.loci)],
            "K_nonempty": True,
            "class": self.label.name,
            "relabeling": list(self.label.relabeling),
            "arithmetic": "exact" if self.exact else "float",
        }


def kernel_basis(M: PayoffMatrix):
    """Basis of the null space of A, which must be two dimensional.

    Exact matrices give two columns of A* as tuples of Fractions: the
    first nonzero one and the first not proportional to it (A* has A's
    rank, 2 when A is singular).  Float matrices give the SVD's two
    trailing right singular vectors.  A skew matrix has even rank, so
    any rank other than 2 raises ``RankError``.
    """
    if M.exact:
        if not M.is_singular():
            raise RankError("null space has dimension 0, expected 2")
        cols = [tuple(_dual_column(M.rows, i)) for i in range(4)]
        u = next(c for c in cols if any(c))
        return [u, next(c for c in cols if any(
            u[p] * c[q] != u[q] * c[p] for p, q in combinations(range(4), 2)))]
    _, s, vt = np.linalg.svd(M.array)
    s = s.tolist()
    scale = s[0] if s[0] > 0 else 1.0
    rank = sum(v > _RTOL * scale for v in s)
    if rank != 2:
        raise RankError(f"numerical rank {rank}, expected 2 "
                        f"(singular values {s})")
    return [vt[2], vt[3]]


def _dual_column(a, i: int) -> list:
    """Column i (0-based) of the Hodge dual A* of the 4x4 skew ``a``:
    (a_qr, -a_pr, a_pq) at the other strategies p < q < r, and a_ii (a
    zero of a's own type) at i.  On ``M.signs``, the column's signs."""
    p, q, r = (k for k in range(4) if k != i)
    out = [a[i][i]] * 4
    out[p], out[q], out[r] = a[q][r], -a[p][r], a[p][q]
    return out


def _support(signs, i: int) -> tuple:
    """The support of column i of A*, or () unless its nonzero entries
    share one sign."""
    col = _dual_column(signs, i)
    support = tuple(k for k in range(4) if col[k])
    return support if abs(sum(col)) == len(support) else ()


def _endpoint(a, columns: tuple, support: tuple) -> tuple:
    """Of the columns of A* at ``columns``, the one whose sum on
    ``support`` (added in index order) is largest in magnitude, divided
    by it there and zero off it, and that sum: A A* e_i = -pf e_i, so the
    largest sum leaves the least residual, |pf / sum|."""
    col, total = max(((c, sum(c[k] for k in support))
                      for c in (_dual_column(a, i) for i in columns)),
                     key=lambda t: abs(t[1]))
    out = [a[i][i] for i in range(4)]
    for k in support:
        out[k] = col[k] / total
    return tuple(out), total


# Unchecked at run time: on each of the 74 classified patterns, the
# composition test in tests/test_kernelgeom.py finds the class's loci, with
# supports covering all four strategies, so K's midpoint is interior.
@lru_cache(maxsize=3 ** 6)  # one entry per 4x4 skew sign pattern
def _endpoint_columns(signs: tuple) -> tuple:
    """(label, loci, columns) of a classified sign pattern: its class,
    and in locus order K's endpoints, a locus per support of a one-sign
    column of A* and (those columns' indices, support)."""
    label = classify(_digraph_of_signs(signs))
    found = {}
    for i in range(4):
        if support := _support(signs, i):
            found.setdefault(support, []).append(i)
    ends = []
    for s, cols in found.items():
        kind = ("vertex", "edge", "face")[len(s) - 1]
        where = (cols[0] + 1,) if kind == "face" else tuple(k + 1 for k in s)
        ends.append((Locus(kind, where), (tuple(cols), s)))
    ends.sort(key=lambda t: t[0].sort_key())
    return label, tuple(l for l, _ in ends), tuple(c for _, c in ends)


def _on_null_line(M: PayoffMatrix, sums, what: str) -> None:
    """Float mode's one rule for normalized columns of A*, with ``sums``
    their sums: A z = -(pf / sum) e_i, and a unit residual |pf(A / max|a|)|
    / |sum / max|a|| past ``_RTOL`` raises EmptyKernelSection."""
    r = 0.0 if M.exact else abs(M._pf * M.max_abs()) / min(map(abs, sums))
    if r > _RTOL:
        raise EmptyKernelSection(f"{what} misses the null line by "
                                 f"{r:.3e} of max|a|, past {_RTOL:.0e}")


def face_kernel_point(M: PayoffMatrix, i: int):
    """Closed-form equilibrium in the interior of face x_i = 0.

    Column i of A*, (a_qr, -a_pr, a_pq) at the other strategies
    p < q < r, has one strict sign (read from ``M.signs``) exactly when
    the face carries an induced 3-cycle, and normalized it is the face's
    equilibrium for any A, as x_i = 0 there; A z = -(pf / sum) e_i, not
    checked in float mode.  The index is 1-based; the 4-tuple sums to
    one and is exact when M is.
    """
    if M.n != 4 or i not in (1, 2, 3, 4):
        raise PreconditionFailed("face index must be 1..4 on a 4x4 matrix")
    others = tuple(k for k in range(4) if k != i - 1)
    if _support(M.signs, i - 1) != others:
        v = tuple(_dual_column(M.rows, i - 1)[k] for k in others)
        raise PreconditionFailed(
            f"face {i} carries no induced 3-cycle (witness {v})")
    return _endpoint(M.rows, (i - 1,), others)[0]


def edge_kernel_point(M: PayoffMatrix, i: int, j: int):
    """Closed-form equilibrium in the interior of edge conv(e_i, e_j).

    Requires a_ij = 0, a singular A (with a_ij = 0, the ratio
    rho = -a_jk / a_ik is then the same for both off-edge k) and rho > 0:
    then (rho e_i + e_j) / (1 + rho) is the edge's equilibrium, the
    normalized column k or l of A* that :func:`kernel_line_section`
    picks, with its residual rule.  Indices are 1-based; the 4-tuple is
    exact when M is.
    """
    if M.n != 4 or i == j or not all(k in (1, 2, 3, 4) for k in (i, j)):
        raise PreconditionFailed("edge needs two distinct indices in 1..4")
    i, j = sorted((i, j))
    a, sg, ii, jj = M.rows, M.signs, i - 1, j - 1
    if sg[ii][jj] != 0:
        raise PreconditionFailed(f"a[{i}][{j}] = {a[ii][jj]} "
                                 "must vanish for an edge equilibrium")
    k, l = (p for p in range(4) if p not in (ii, jj))
    if sg[ii][k] == 0 or sg[ii][l] == 0:
        raise PreconditionFailed(f"edge ({i},{j}) has a neutral off-edge "
                                 "strategy; no unique interior edge point")
    r1 = -a[jj][k] / a[ii][k]
    if not M.is_singular():
        raise PreconditionFailed(
            f"cross ratios disagree ({r1} vs {-a[jj][l] / a[ii][l]}); "
            "matrix is not singular over this edge")
    if sg[jj][k] * sg[ii][k] >= 0:  # the sign of r1 is -sg[jj][k] sg[ii][k]
        raise PreconditionFailed(f"ratio {r1} is not positive; edge ({i},{j}) "
                                 "carries no interior equilibrium")
    cols = [c for c in (k, l) if _support(sg, c) == (ii, jj)]
    z, total = _endpoint(a, cols, (ii, jj))
    _on_null_line(M, (total,), f"the point of edge ({i},{j})")
    return z


def kernel_line_section(M: PayoffMatrix) -> NullLineSection:
    """Compute K's endpoints and loci from the matrix structure.

    The endpoints are the normalized one-sign columns of A*, whose class
    and loci :func:`_endpoint_columns` reads from ``M.signs`` alone.
    Singularity is read from ``M`` (see :meth:`PayoffMatrix.is_singular`).
    A float endpoint off the null line by more than ``_RTOL`` of max|a|
    raises EmptyKernelSection.
    """
    if not M.is_singular():
        raise PreconditionFailed(
            "matrix is not singular; the null line misses the simplex")
    label, loci, columns = _endpoint_columns(M.signs)
    endpoints, sums = zip(*[_endpoint(M.rows, c, s) for c, s in columns])
    _on_null_line(M, sums, "an endpoint of K")
    return NullLineSection(endpoints, loci, label, M.exact)


def section_by_clipping(M: PayoffMatrix) -> np.ndarray:
    """Endpoints of K by clipping the null line against the simplex.

    Generic route, independent of the per-class closed forms: take a
    numerical null-space basis (u, v), form the direction
    d = (1'v) u - (1'u) v lying in the sum-zero hyperplane, anchor at a
    basis combination with unit coordinate sum, and clip the parameter
    range against x >= 0.  Returns a (2, 4) float array sorted by the
    same locus-free rule used for display (lexicographic).
    """
    u, v = (np.asarray(b, dtype=float) for b in kernel_basis(M.to_float()))
    su, sv = float(u.sum()), float(v.sum())
    if max(abs(su), abs(sv)) <= _RTOL:
        raise EmptyKernelSection("null plane is parallel to the affine "
                                 "hull of the simplex")
    d = [sv * ui - su * vi for ui, vi in zip(u.tolist(), v.tolist())]
    if max(map(abs, d)) <= _RTOL:
        raise EmptyKernelSection("null plane meets the affine simplex "
                                 "hull in a point or not at all")
    p = (u / su if abs(su) >= abs(sv) else v / sv).tolist()
    lo, hi = -math.inf, math.inf
    for pi, di in zip(p, d):
        if abs(di) <= 1e-15:
            if pi < -1e-12:
                raise EmptyKernelSection("null line misses the simplex")
            continue
        t = -pi / di
        if di > 0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
    if not (lo < hi):
        raise EmptyKernelSection("null line misses the simplex interior")
    half = 0.5 * (lo + hi)
    if min(pi + half * di for pi, di in zip(p, d)) <= _RTOL:
        raise EmptyKernelSection("null line touches the simplex only on "
                                 "its boundary")
    ends = ([pi + t * di for pi, di in zip(p, d)] for t in (lo, hi))
    return np.array(sorted([0.0 if abs(x) < 1e-14 else x for x in e]
                           for e in ends))


def distance_to_K(x, section: NullLineSection) -> float:
    """Euclidean distance from a point to the closed segment K."""
    p = np.asarray(x, dtype=float)
    a, b = section.as_array()
    d = b - a
    denom = float(d @ d)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float((p - a) @ d) / denom
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * d)))


def section_residual(M: PayoffMatrix, section: NullLineSection) -> float:
    """max_i |(A z)_i| over the two endpoints, in float arithmetic."""
    A = M.array
    return float(max(np.abs(A @ e).max() for e in section.as_array()))
