"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the slow, obvious way and shares
no code with the package: determinants by the Leibniz permutation sum,
cycle finding by depth-first search, integration by fixed-step RK4 in
the raw share coordinates.  Tests compare package output against these.
"""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np


def det_leibniz(rows):
    """Determinant as the signed permutation sum, exact over Fractions."""
    n = len(rows)
    idx = list(range(n))
    total = Fraction(0)
    for perm in permutations(idx):
        sign = 1
        seen = [False] * n
        # parity via cycle decomposition
        for start in idx:
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = Fraction(1)
        for i in idx:
            term *= Fraction(rows[i][perm[i]])
        total += sign * term
    return total


def in_span(vec, basis):
    """Whether vec lies in the span of basis, exactly: every 3x3 minor of
    the 3x4 stack of the two basis vectors and vec vanishes."""
    rows = [list(b) for b in basis] + [list(vec)]
    return all(det_leibniz([[Fraction(r[c]) for c in keep] for r in rows])
               == 0 for keep in combinations(range(4), 3))


def simple_cycles(edges, length):
    """All directed simple cycles of the given length, brute force.

    Cycles come back as tuples rotated to start at their smallest node,
    one tuple per cyclic equivalence class, sorted.
    """
    eset = set(edges)
    nodes = sorted({v for e in eset for v in e})
    found = set()
    for tup in permutations(nodes, length):
        ok = all(
            (tup[k], tup[(k + 1) % length]) in eset for k in range(length))
        if not ok:
            continue
        m = tup.index(min(tup))
        found.add(tup[m:] + tup[:m])
    return sorted(found)


def has_cycle_dfs(edges):
    """Reachability-based cycle test (white/grey/black DFS)."""
    adj = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, [])
    state = {v: 0 for v in adj}

    def visit(v):
        state[v] = 1
        for w in adj[v]:
            if state[w] == 1:
                return True
            if state[w] == 0 and visit(w):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and visit(v) for v in list(adj))


def relabel_rows(rows, perm):
    """Payoff matrix after renaming strategy i to perm[i-1] (1-based)."""
    n = len(rows)
    out = [[rows[0][0] * 0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i] - 1][perm[j] - 1] = rows[i][j]
    return out


def relabel_edges(edges, perm):
    return sorted((perm[i - 1], perm[j - 1]) for (i, j) in edges)


def segment_distance_grid(p, a, b, n=20001):
    """Min distance from p to segment [a, b] by dense parameter scan."""
    t = np.linspace(0.0, 1.0, n)[:, None]
    pts = (1 - t) * np.asarray(a) + t * np.asarray(b)
    return float(np.linalg.norm(pts - np.asarray(p), axis=1).min())


def rk4_shares(A, x0, t_end, h):
    """Classical RK4 on the replicator field in share coordinates.

    No step control and no positivity tricks; only usable on short
    horizons where the trajectory stays comfortably interior.  Each step
    renormalizes the total mass, matching what the package does.
    """
    A = np.asarray(A, dtype=float)

    def f(x):
        return x * (A @ x)

    x = np.asarray(x0, dtype=float).copy()
    n_steps = int(round(t_end / h))
    for _ in range(n_steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x /= x.sum()
    return x
