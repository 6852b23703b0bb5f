"""Geometry of the interior equilibrium segment.

For a singular conservative game the null space of A is a plane; its
intersection with the affine hull of the simplex is a line L, and the
interior equilibria form the open segment K = L in the open simplex.
The segment's closure has exactly two endpoints on the boundary, and the
five digraph classes pin down where they sit: on face interiors (above
an induced 3-cycle), on edge interiors (above a zero payoff pair whose
cross ratios agree), or at a vertex (when one strategy is neutral
against everything).

Two independent routes to the endpoints live here.  The closed forms
below read them off the matrix entries; :func:`section_by_clipping`
recovers them from a numerical null-space basis clipped against the
simplex and is used only to cross-check the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (EmptyKernelSection, InconsistentClass,
                     PreconditionFailed, RankError)
from .payoff import PayoffMatrix, scalar_to_json
from .signgraph import ClassLabel, build_digraph, classify

_KIND_RANK = {"face": 0, "edge": 1, "vertex": 2}

#: float mode's relative tolerance for the numerical rank, the agreement
#: of an edge's two cross ratios, and the clipped null line's tests
_RTOL = 1e-10

#: endpoint composition (faces, edges, vertices) demanded by each class
_CLASS_COMPOSITION = {
    "I": (2, 0, 0),
    "II": (2, 0, 0),
    "III": (1, 1, 0),
    "IV": (1, 0, 1),
    "V": (0, 2, 0),
}


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

    Exact matrices are reduced over the rationals and return tuples of
    Fractions; float matrices go through the SVD and return the two
    trailing right singular vectors.  A skew matrix has even rank, so
    anything other than rank 2 (the zero matrix, or a nonsingular A)
    raises ``RankError``.
    """
    if M.exact:
        basis = _rational_nullspace([list(r) for r in M.rows])
        if len(basis) != 2:
            raise RankError(f"null space has dimension {len(basis)}, "
                            "expected 2")
        return [tuple(v) for v in basis]
    _, s, vt = np.linalg.svd(M.array)
    s = s.tolist()
    scale = s[0] if s[0] > 0 else 1.0
    rank = sum(v > _RTOL * scale for v in s)
    if rank != 2:
        raise RankError(f"numerical rank {rank}, expected 2 "
                        f"(singular values {s})")
    return [vt[2], vt[3]]


def _rational_nullspace(rows):
    """Null-space basis by Gauss-Jordan elimination over Fraction."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -m[pr][fc]
        basis.append(v)
    return basis


def face_kernel_point(M: PayoffMatrix, i: int):
    """Closed-form equilibrium in the interior of face x_i = 0.

    With (p, q, r) the remaining strategies in increasing order, the
    vector (a_qr, -a_pr, a_pq) has all entries of one strict sign (read
    from ``M.signs``) exactly when the face carries an induced 3-cycle,
    and normalizing it gives the unique face equilibrium.  It lies in
    the null space of the full matrix precisely when A is singular.

    Parameters use 1-based strategy indices.  Returns a 4-tuple summing
    to one, exact when M is exact.
    """
    if M.n != 4 or i not in (1, 2, 3, 4):
        raise PreconditionFailed("face index must be 1..4 on a 4x4 matrix")
    p, q, r = (k for k in range(4) if k != i - 1)
    a, sg = M.rows, M.signs
    v = (a[q][r], -a[p][r], a[p][q])
    if (sg[q][r], -sg[p][r], sg[p][q]) not in ((1, 1, 1), (-1, -1, -1)):
        raise PreconditionFailed(
            f"face {i} carries no induced 3-cycle (witness {v})")
    total = v[0] + v[1] + v[2]
    zero = Fraction(0) if M.exact else 0.0
    out = [zero] * 4
    for pos, c in zip((p, q, r), v):
        out[pos] = c / total
    return tuple(out)


def edge_kernel_point(M: PayoffMatrix, i: int, j: int):
    """Closed-form equilibrium in the interior of edge conv(e_i, e_j).

    Requires a_ij = 0 and a positive ratio rho = -a_jk / a_ik that is the
    same for both off-edge strategies k; then
    (rho e_i + e_j) / (1 + rho) kills both off-edge growth rates.  The
    two ratios agree exactly when the Pfaffian vanishes, so an
    inconsistent pair means the matrix was not singular.

    Indices are 1-based.  Returns a 4-tuple, exact when M is exact.
    """
    if M.n != 4 or i == j or not all(k in (1, 2, 3, 4) for k in (i, j)):
        raise PreconditionFailed("edge needs two distinct indices in 1..4")
    if i > j:
        i, j = j, i
    if M.signs[i - 1][j - 1] != 0:
        raise PreconditionFailed(f"a[{i}][{j}] = {M.rows[i - 1][j - 1]} "
                                 "must vanish for an edge equilibrium")
    z, why = _edge_point(M, i, j)
    if z is None:
        raise PreconditionFailed(why)
    return z


def _edge_point(M: PayoffMatrix, i: int, j: int) -> tuple:
    """:func:`edge_kernel_point` on the zero pair i < j: ``(point, None)``,
    or ``(None, why)`` when the pair carries no interior point."""
    a, sg = M.rows, M.signs
    ii, jj = i - 1, j - 1
    k, l = (p for p in range(4) if p not in (ii, jj))
    if sg[ii][k] == 0 or sg[ii][l] == 0:
        return None, (f"edge ({i},{j}) has a neutral off-edge strategy; "
                      "no unique interior edge point")
    r1 = -a[jj][k] / a[ii][k]
    r2 = -a[jj][l] / a[ii][l]
    if not (r1 == r2 if M.exact else
            abs(r1 - r2) <= _RTOL * max(1.0, abs(r1))):
        return None, (f"cross ratios disagree ({r1} vs {r2}); "
                      "matrix is not singular over this edge")
    if sg[jj][k] * sg[ii][k] >= 0:  # the sign of r1 is -sg[jj][k] sg[ii][k]
        return None, (f"ratio {r1} is not positive; edge ({i},{j}) carries "
                      "no interior equilibrium")
    one = Fraction(1) if M.exact else 1.0
    denom = one + r1
    zero = Fraction(0) if M.exact else 0.0
    out = [zero] * 4
    out[ii] = r1 / denom
    out[jj] = one / denom
    return tuple(out), None


def kernel_line_section(M: PayoffMatrix) -> NullLineSection:
    """Compute K's endpoints and loci from the matrix structure.

    The digraph is classified first; the class dictates how many
    endpoints of each kind must exist (two faces for I and II, face and
    edge for III, face and vertex for IV, two edges for V).  Endpoints
    are then found structurally: faces with induced 3-cycles (read from
    the digraph's 3-cycles), zero pairs with consistent positive cross
    ratios, and identically zero rows.
    A mismatch between structure and class raises InconsistentClass.
    Zero entries and singularity are read from ``M`` (see
    :attr:`PayoffMatrix.signs`).
    """
    if not M.is_singular():
        raise PreconditionFailed(
            "matrix is not singular; the null line misses the simplex")
    G = build_digraph(M)
    label = classify(G)

    found = [(Locus("face", (i,)), face_kernel_point(M, i))
             for i in (1, 2, 3, 4) if any(i not in c for c in G.three_cycles)]
    found += [(Locus("edge", (i, j)), z) for i in (1, 2, 3, 4)
              for j in range(i + 1, 5) if M.signs[i - 1][j - 1] == 0
              and (z := _edge_point(M, i, j)[0]) is not None]
    one = Fraction(1) if M.exact else 1.0
    zero = Fraction(0) if M.exact else 0.0
    found += [(Locus("vertex", (i + 1,)),
               tuple(one if p == i else zero for p in range(4)))
              for i in range(4) if not any(M.signs[i])]

    counts = tuple(map([l.kind for l, _ in found].count,
                       ("face", "edge", "vertex")))
    if counts != _CLASS_COMPOSITION[label.name]:
        raise InconsistentClass(
            f"class {label.name} expects endpoint composition "
            f"{_CLASS_COMPOSITION[label.name]} (faces, edges, vertices) "
            f"but found {counts}")
    found.sort(key=lambda t: t[0].sort_key())
    loci = tuple(l for (l, _) in found)
    endpoints = tuple(z for (_, z) in found)

    mid = [(a + b) / 2 for a, b in zip(*endpoints)]
    if not all(v > 0 for v in mid):
        raise EmptyKernelSection(
            "segment midpoint is not interior; endpoints "
            f"{endpoints} do not bound an interior segment")
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
