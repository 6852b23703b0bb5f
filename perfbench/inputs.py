"""Seeded inputs for the three workloads.

Every matrix is built here from its construction, so its class and its
permanence verdict are known before the program sees it.  The
distributions follow the package's acceptance screen: class matrices
have magnitudes k/16 with k in 8..24, one entry solved so that the
Pfaffian vanishes, and a random relabeling; cyclic contrast matrices
have |pf| >= 1/4; acyclic contrast matrices have pf = 0.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from oracles import (CLASS_UPPER, CLASSES, has_cycle, pfaffian,
                     rows_from_upper, segment_endpoints, sign_edges)


def _magnitude(rng) -> Fraction:
    return Fraction(int(rng.integers(8, 25)), 16)


def _relabel(rows, perm) -> list:
    out = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


def class_rows(name: str, rng, canonical: bool) -> list:
    """A singular matrix of class ``name``, randomly relabeled.

    ``canonical`` keeps the unit representative's magnitudes; otherwise
    magnitudes are drawn and a14 is solved from pf = 0 (class IV is
    singular by its zero pattern).  The representatives' sign patterns
    make the solved entry carry its required sign.
    """
    if canonical:
        upper = list(CLASS_UPPER[name])
    else:
        upper = [(v > 0) - (v < 0) for v in CLASS_UPPER[name]]
        upper = [s * _magnitude(rng) for s in upper]
        a12, a13, _, a23, a24, a34 = upper
        if name != "IV":
            upper[2] = (a13 * a24 - a12 * a34) / a23
    return _relabel(rows_from_upper(upper), rng.permutation(4))


def cyclic_nonsingular_rows(rng, min_pf=Fraction(1, 4)) -> list:
    """Cyclic sign digraph with |pf| >= min_pf: never permanent."""
    while True:
        signs = rng.choice((-1, 0, 1), size=6, p=(0.425, 0.15, 0.425))
        if not signs.any():
            continue
        rows = rows_from_upper([int(s) * _magnitude(rng) for s in signs])
        if has_cycle(sign_edges(rows)) and abs(pfaffian(rows)) >= min_pf:
            return rows


def acyclic_singular_rows(rng) -> list:
    """Nonzero, acyclic sign digraph, pf = 0: never permanent."""
    while True:
        signs = rng.choice((-1, 0, 1), size=6, p=(0.35, 0.3, 0.35))
        if not signs.any():
            continue
        upper = [int(s) * _magnitude(rng) for s in signs]
        rows = rows_from_upper(upper)
        if has_cycle(sign_edges(rows)):
            continue
        if pfaffian(rows) == 0:
            return rows
        a12, a13, a14, a23, a24, a34 = upper
        if a14 != 0 and a23 != 0 and (a12 * a34 != 0 or a13 * a24 != 0):
            pos, need = 2, (a13 * a24 - a12 * a34) / a23
        elif a13 != 0 and a24 != 0 and a12 * a34 != 0:
            pos, need = 1, (a12 * a34 + a14 * a23) / a24
        else:
            continue
        if need == 0 or (need > 0) != (upper[pos] > 0):
            continue
        if not Fraction(1, 4) <= abs(need) <= 4:
            continue
        upper[pos] = need
        rows = rows_from_upper(upper)
        if not has_cycle(sign_edges(rows)):
            return rows


def contrast_rows(kind: str, rng) -> list:
    if kind == "cyclic":
        return cyclic_nonsingular_rows(rng)
    return acyclic_singular_rows(rng)


def exact_text(rows) -> str:
    """Matrix text with integer and p/q tokens: parsed in exact mode."""
    return " / ".join(" ".join(str(v) for v in row) for row in rows)


def float_text(rows, scale: float) -> str:
    """Matrix text of ``scale * A`` with float tokens: float mode."""
    return " / ".join(" ".join(repr(float(v) * scale) for v in row)
                      for row in rows)


def segment_midpoint(rows) -> np.ndarray:
    a, b = segment_endpoints(rows)
    return np.array([float((p + q) / 2) for p, q in zip(a, b)])


def jitter_starts(z, rng, n: int, spread: float = 0.35) -> list:
    """Starts z * exp(spread * N(0, 1)), renormalised (interior)."""
    out = []
    for _ in range(n):
        x = z * np.exp(spread * rng.standard_normal(4))
        out.append(x / x.sum())
    return out


def dirichlet_starts(rng, n: int) -> list:
    return [rng.dirichlet((3.0,) * 4) for _ in range(n)]


def orbit_start(rows, rng, reach: float = 0.3) -> np.ndarray:
    """An interior start a fixed share off the equilibrium segment K.

    The start is the midpoint z of K moved by ``reach * min(z)`` along a
    random unit direction that sums to zero and is orthogonal to K, so
    every orbit sits the same relative distance from K.
    """
    a, b = (np.array([float(v) for v in e])
            for e in sorted(segment_endpoints(rows)))
    z = 0.5 * (a + b)
    basis = np.column_stack((np.ones(4), b - a))
    q, _ = np.linalg.qr(basis)
    while True:
        v = rng.standard_normal(4)
        v -= q @ (q.T @ v)
        norm = float(np.linalg.norm(v))
        if norm > 1e-3:
            return z + reach * float(z.min()) * v / norm


# ---------------------------------------------------------------------------
# per-workload input sets

#: generator seeds of the certify and screen matrices
CERTIFY_MATRIX_SEED = 20261018
SCREEN_MATRIX_SEED = 20261019


def certify_inputs(seed: int) -> list:
    """One round: two matrices of each class I..V, with a start each.

    Each class has its unit representative and one with drawn
    magnitudes, both relabeled.  Matrices and starts are the same on
    every seed, because whether ``orbit`` reports the orbit's period or
    a multiple of it (fault F3) depends on them alone: seeded starts
    would make the failed share depend on the seed.  The seed draws the
    CLI ``--seed`` of each item, which sets the stability probe's
    directions and the boundary simulation's starts.
    """
    fixed = np.random.default_rng(CERTIFY_MATRIX_SEED)
    rng = np.random.default_rng([seed, 1])
    items = []
    for canonical in (True, False):
        for name in CLASSES:
            rows = class_rows(name, fixed, canonical)
            x0 = orbit_start(rows, fixed)
            items.append({
                "kind": name if canonical else f"{name}-sampled",
                "rows": rows,
                "text": exact_text(rows),
                "x0": x0,
                "x0_arg": ",".join(repr(float(v)) for v in x0),
                "probe_seed": int(rng.integers(2 ** 31)),
            })
    return items


SCREEN_ROUND = CLASSES + ("cyclic", "acyclic")


def screen_inputs(seed: int, n_rounds: int = 30) -> list:
    """Rounds of seven matrices: one per class, then the two contrasts.

    The matrices are the same on every seed; the seed draws the starts.
    A screen item's cost follows its matrix's time scale, which varies
    several-fold across the ensemble, so seeded matrices would move the
    median item time from seed to seed more than host drift does.
    Permanent matrices get five starts jittered around K's midpoint,
    contrast matrices five Dirichlet(3, 3, 3, 3) starts, as in the
    acceptance screen.
    """
    fixed = np.random.default_rng(SCREEN_MATRIX_SEED)
    rng = np.random.default_rng([seed, 2])
    items = []
    for _ in range(n_rounds):
        for kind in SCREEN_ROUND:
            if kind in CLASSES:
                rows = class_rows(kind, fixed, canonical=False)
                starts = jitter_starts(segment_midpoint(rows), rng, 5)
            else:
                rows = contrast_rows(kind, fixed)
                starts = dirichlet_starts(rng, 5)
            items.append({"kind": kind, "permanent": kind in CLASSES,
                          "rows": rows, "starts": starts})
    return items


#: fixed matrices of the scale ladder, one per kind
LADDER_UPPER = dict(CLASS_UPPER, cyclic=(1, -1, 1, 1, -1, 1),
                    acyclic=(1, 1, 1, 1, 1, 0))
#: scales of the fixed float twins; the smallest ones reach the absolute
#: thresholds of the float-mode decisions, so some of these items fail
LADDER_SCALES = (3e14, 3e8, 3e2, 3e-4, 3e-7, 3e-9, 3e-11, 3e-13, 3e-15)
ALGEBRA_KINDS = CLASSES + ("cyclic", "acyclic")


def _algebra_item(group: int, kind: str, rows, scale, ladder: bool) -> dict:
    return {"group": group, "kind": kind, "rows": rows, "scale": scale,
            "ladder": ladder,
            "text": exact_text(rows) if scale is None
            else float_text(rows, scale)}


def algebra_round(seed: int, index: int, n_groups: int) -> list:
    """One round: the fixed ladder, then ``n_groups`` seeded pairs.

    Each seeded pair is an exact matrix and its float twin scaled by
    10**U(-3, 15).  The ladder is the same in every round and on every
    seed: the exact representative of each kind and its twins at
    ``LADDER_SCALES``.
    """
    rng = np.random.default_rng([seed, 3, index])
    items = []
    group = 0
    for kind, upper in LADDER_UPPER.items():
        rows = rows_from_upper(upper)
        items.append(_algebra_item(group, kind, rows, None, True))
        for s in LADDER_SCALES:
            items.append(_algebra_item(group, kind, rows, s, True))
        group += 1
    for k in range(n_groups):
        kind = ALGEBRA_KINDS[k % len(ALGEBRA_KINDS)]
        if kind in CLASSES:
            rows = class_rows(kind, rng, canonical=False)
        else:
            rows = contrast_rows(kind, rng)
        scale = float(10.0 ** rng.uniform(-3.0, 15.0))
        items.append(_algebra_item(group, kind, rows, None, False))
        items.append(_algebra_item(group, kind, rows, scale, False))
        group += 1
    return items


def algebra_inputs(seed: int, n_rounds: int = 6,
                   n_groups: int = 210) -> list:
    return [algebra_round(seed, r, n_groups) for r in range(n_rounds)]
