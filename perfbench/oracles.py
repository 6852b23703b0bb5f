"""Reference computations the benchmark checks the program against.

Nothing here imports replicator4: every answer is derived again, the
slow and obvious way, from the matrix entries or from how a matrix was
built.  Exact answers use ``fractions.Fraction``; the only floating
point routine is the fixed-step RK4 integrator in share coordinates,
which also serves as the benchmark's reference kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np

#: upper-triangle order used throughout: a12, a13, a14, a23, a24, a34
UPPER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: one representative per class of singular cyclic sign digraphs
CLASS_UPPER = {
    "I": (1, 1, -2, 1, -1, 1),
    "II": (0, 1, -1, 1, -1, 1),
    "III": (0, 1, -1, -1, 1, -1),
    "IV": (0, 0, 0, -1, 1, -1),
    "V": (0, 1, -1, -1, 1, 0),
}
CLASSES = tuple(CLASS_UPPER)


def rows_from_upper(upper) -> list:
    """Skew 4x4 rows (Fractions) from six upper-triangle entries."""
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), v in zip(UPPER, upper):
        rows[i][j] = Fraction(v)
        rows[j][i] = -Fraction(v)
    return rows


def pfaffian(rows):
    """a12 a34 - a13 a24 + a14 a23."""
    return (rows[0][1] * rows[2][3] - rows[0][2] * rows[1][3]
            + rows[0][3] * rows[1][2])


def det_leibniz(rows) -> Fraction:
    """Determinant as the signed sum over all permutations, exact."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if perm[a] > perm[b])
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
            if term == 0:
                break
        total += -term if inversions % 2 else term
    return total


def sign_edges(rows) -> frozenset:
    """Edges i -> j (1-based) of the sign digraph: a_ij > 0."""
    n = len(rows)
    return frozenset((i + 1, j + 1) for i in range(n) for j in range(n)
                     if rows[i][j] > 0)


def has_cycle(edges) -> bool:
    """Directed cycle test by three-colour depth-first search."""
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    colour = dict.fromkeys(succ, 0)

    def dfs(v) -> bool:
        colour[v] = 1
        for w in succ[v]:
            if colour[w] == 1 or (colour[w] == 0 and dfs(w)):
                return True
        colour[v] = 2
        return False

    return any(colour[v] == 0 and dfs(v) for v in list(succ))


_CANONICAL_EDGES = {name: sign_edges(rows_from_upper(up))
                    for name, up in CLASS_UPPER.items()}


def class_of_edges(edges):
    """(class name, relabeling) or (None, reason) for a sign digraph.

    The relabeling pi is the lexicographically first permutation with
    (i, j) an edge iff (pi(i), pi(j)) is an edge of the representative;
    reason is ``"acyclic"`` or ``"unmatched"``.
    """
    if not has_cycle(edges):
        return None, "acyclic"
    for pi in permutations((1, 2, 3, 4)):
        mapped = frozenset((pi[i - 1], pi[j - 1]) for i, j in edges)
        for name in CLASSES:
            if mapped == _CANONICAL_EDGES[name]:
                return name, pi
    return None, "unmatched"


def rational_nullspace(rows) -> list:
    """Basis of {x : A x = 0} over the rationals (row reduction)."""
    m = [[Fraction(v) for v in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivot_cols = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
    basis = []
    for free in (c for c in range(n_cols) if c not in pivot_cols):
        x = [Fraction(0)] * n_cols
        x[free] = Fraction(1)
        for row, pc in enumerate(pivot_cols):
            x[pc] = -m[row][free]
        basis.append(x)
    return basis


def segment_endpoints(rows):
    """Exact endpoints of the null line of A clipped to the simplex.

    Returns a set of two 4-tuples of Fractions, or None when the null
    space is not a plane meeting the open simplex in a segment.
    """
    basis = rational_nullspace(rows)
    if len(basis) != 2:
        return None
    u, v = basis
    su, sv = sum(u), sum(v)
    if su == 0 and sv == 0:
        return None
    anchor = [x / su for x in u] if su != 0 else [x / sv for x in v]
    d = [sv * a - su * b for a, b in zip(u, v)]
    lo = hi = None
    for p, q in zip(anchor, d):
        if q == 0:
            if p < 0:
                return None
            continue
        t = -p / q
        if q > 0:
            lo = t if lo is None else max(lo, t)
        else:
            hi = t if hi is None else min(hi, t)
    if lo is None or hi is None or not lo < hi:
        return None
    mid = [p + (lo + hi) / 2 * q for p, q in zip(anchor, d)]
    if min(mid) <= 0:
        return None
    return {tuple(p + t * q for p, q in zip(anchor, d)) for t in (lo, hi)}


def locus_of(point) -> tuple:
    """("face", i), ("edge", i, j) or ("vertex", i) from a point's support."""
    zeros = [i + 1 for i, v in enumerate(point) if v == 0]
    support = [i + 1 for i, v in enumerate(point) if v != 0]
    if len(zeros) == 1:
        return ("face",) + tuple(zeros)
    if len(support) == 2:
        return ("edge",) + tuple(support)
    return ("vertex",) + tuple(support)


def distance_to_line(x, a, b) -> float:
    """Euclidean distance from x to the line through a and b."""
    x, a, b = (np.asarray(v, dtype=float) for v in (x, a, b))
    d = b - a
    t = float((x - a) @ d) / float(d @ d)
    return float(np.linalg.norm(x - a - t * d))


def rk4_shares(A, x0, t_end: float, n_steps: int):
    """Classical fixed-step RK4 on x' = x (Ax) in share coordinates.

    Each step renormalises the total mass to one.  Returns the node
    times and states, both endpoints included.
    """
    A = np.asarray(A, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    h = t_end / n_steps
    xs = [x]
    for _ in range(n_steps):
        k1 = x * (A @ x)
        y = x + 0.5 * h * k1
        k2 = y * (A @ y)
        y = x + 0.5 * h * k2
        k3 = y * (A @ y)
        y = x + h * k3
        k4 = y * (A @ y)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = x / x.sum()
        xs.append(x)
    return np.linspace(0.0, t_end, n_steps + 1), np.array(xs)


def section_returns(A, x0, ts, xs, lo: float, hi: float,
                    substeps: int = 200) -> list:
    """Returns of an RK4 trajectory from x0 through the section at x0.

    The section is the hyperplane through x0 normal to the field there.
    Each upward crossing between two nodes with ``lo <= t <= hi`` is
    located on a finer RK4 run over that step; returns a list of
    (t, |x(t) - x0|) at the crossings.
    """
    A = np.asarray(A, dtype=float)
    f0 = x0 * (A @ x0)
    s = (xs - x0) @ f0
    h = ts[1] - ts[0]
    out = []
    for k in np.flatnonzero((s[:-1] < 0) & (s[1:] >= 0)):
        if not lo <= ts[k] <= hi:
            continue
        sub_ts, sub_xs = rk4_shares(A, xs[k], h, substeps)
        ss = (sub_xs - x0) @ f0
        ups = np.flatnonzero((ss[:-1] < 0) & (ss[1:] >= 0))
        j = int(ups[0]) if ups.size else substeps - 1
        w = ss[j] / (ss[j] - ss[j + 1])
        x = sub_xs[j] + w * (sub_xs[j + 1] - sub_xs[j])
        out.append((float(ts[k] + sub_ts[j] + w * (h / substeps)),
                    float(np.linalg.norm(x - x0))))
    return out


def time_average(ts, xs) -> np.ndarray:
    """Trapezoid time average of sampled states over [ts[0], ts[-1]]."""
    w = np.diff(ts)
    mids = 0.5 * (xs[1:] + xs[:-1])
    return (w[:, None] * mids).sum(axis=0) / (ts[-1] - ts[0])


#: the reference kernel integrates this fixed field from a fixed start
REF_MATRIX = np.array([[0.0, 1.0, 1.0, -2.0],
                       [-1.0, 0.0, 1.0, -1.0],
                       [-1.0, -1.0, 0.0, 1.0],
                       [2.0, 1.0, -1.0, 0.0]])
REF_START = np.array([0.4, 0.3, 0.2, 0.1])
REF_STEPS = 600


def nearest_distances(points, cloud, block: int = 256) -> np.ndarray:
    """Distance from each point to its nearest cloud point, by brute force."""
    out = np.empty(len(points))
    for s in range(0, len(points), block):
        d2 = ((points[s:s + block, None, :] - cloud[None, :, :]) ** 2)
        out[s:s + block] = np.sqrt(d2.sum(axis=2).min(axis=1))
    return out


def reference_kernel() -> float:
    """Fixed work shaped like the program's: about 30 ms on this host.

    Half is interpreter-bound (600 RK4 steps on 4-vectors), half is
    vectorised (nearest distances from the shifted orbit to the orbit),
    because host drift slows the two kinds of work unequally.
    """
    _, xs = rk4_shares(REF_MATRIX, REF_START, 12.0, REF_STEPS)
    return float(nearest_distances(xs + 1e-3, xs).max())
