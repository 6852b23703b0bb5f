"""Seeded matrix ensembles and the permanence screen.

Everything here is deterministic given a ``numpy.random.Generator``.
Class ensembles are built in exact arithmetic: magnitudes are rationals
with denominator 16 and one designated entry is solved so the Pfaffian
vanishes identically, which the canonical sign patterns make
sign-consistent automatically (for class IV the Pfaffian vanishes
structurally).  The contrast ensembles supply cyclic digraphs with a
Pfaffian bounded away from zero and acyclic digraphs with a vanishing
one.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import _fastprobe
from .dynamics import check_stack
from .kernelgeom import NullLineSection
from .payoff import PayoffMatrix
from .signgraph import build_digraph

#: upper-triangle entries (a12, a13, a14, a23, a24, a34) of one unit
#: magnitude representative per class; all five are singular
CANONICAL_UPPER = {
    "I": (1, 1, -2, 1, -1, 1),
    "II": (0, 1, -1, 1, -1, 1),
    "III": (0, 1, -1, -1, 1, -1),
    "IV": (0, 0, 0, -1, 1, -1),
    "V": (0, 1, -1, -1, 1, 0),
}

#: signs of the upper-triangle entries per class (0 = structural zero)
SIGN_PATTERNS = {name: tuple(0 if v == 0 else (1 if v > 0 else -1)
                             for v in upper)
                 for name, upper in CANONICAL_UPPER.items()}

_UPPER_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: a contrast sampler's draws and least |pf|; the start samplers' jitter;
#: the permanence screen's end, observation window start and tolerances
MAX_TRIES, MIN_PF, SPREAD, BARYCENTER_ALPHA = 10_000, Fraction(1, 4), 0.35, 3.0
SCREEN_T_END, SCREEN_WINDOW, SCREEN_RTOL, SCREEN_ATOL = 200.0, 50.0, 1e-6, 1e-9


def canonical_matrix(name: str) -> PayoffMatrix:
    """The unit-magnitude exact representative of one class."""
    return PayoffMatrix.from_upper(CANONICAL_UPPER[name], exact=True)


def _rand_magnitude(rng) -> Fraction:
    return Fraction(int(rng.integers(8, 25)), 16)


def _relabel(upper, rng) -> list:
    """Apply a random node relabeling to six upper-triangle entries."""
    a = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), v in zip(_UPPER_INDEX, upper):
        a[i][j] = Fraction(v)
        a[j][i] = -Fraction(v)
    perm = rng.permutation(4)
    b = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            b[perm[i]][perm[j]] = a[i][j]
    return b


def sample_class_matrix(name: str, rng, relabel: bool = True
                        ) -> PayoffMatrix:
    """Random exact singular matrix with the given class's digraph.

    Magnitudes are drawn as k/16 with k in 8..24 and a14 is solved from
    pf = 0 (for class IV nothing needs solving); the canonical sign
    patterns guarantee the solved entry lands on its required sign.
    An optional random relabeling hides the canonical ordering.
    """
    signs = SIGN_PATTERNS[name]
    vals = [s * _rand_magnitude(rng) for s in signs]
    a12, a13, a14, a23, a24, a34 = vals
    if name != "IV":
        a14 = (a13 * a24 - a12 * a34) / a23
    upper = (a12, a13, a14, a23, a24, a34)
    if relabel:
        rows = _relabel(upper, rng)
        return PayoffMatrix.from_rows(rows, exact=True)
    return PayoffMatrix.from_upper(upper, exact=True)


def sample_cyclic_nonsingular(rng) -> PayoffMatrix:
    """Random exact matrix with a cyclic digraph and |pf| >= :data:`MIN_PF`.

    Such games fail the permanence criterion on the determinant side
    while still having a cycle.  Bounding the Pfaffian away from zero
    keeps the float singularity test unambiguous and keeps the spiral
    toward the boundary fast enough to register within the permanence
    probe's default horizon; near-singular draws can linger above the
    screen's share floor for hundreds of time units.
    """
    for _ in range(MAX_TRIES):
        signs = rng.choice((-1, 0, 1), size=6, p=(0.425, 0.15, 0.425))
        if not signs.any():
            continue
        upper = [int(s) * _rand_magnitude(rng) for s in signs]
        M = PayoffMatrix.from_upper(upper, exact=True)
        if not build_digraph(M).has_cycle:
            continue
        if abs(M.pfaffian()) >= MIN_PF:
            return M
    raise RuntimeError("could not sample a cyclic nonsingular matrix")


def sample_acyclic_singular(rng) -> PayoffMatrix:
    """Random exact nonzero matrix, acyclic digraph, pf = 0 exactly.

    Fails permanence on the cycle side.  When the sign pattern leaves
    at least two Pfaffian terms active, one entry is solved for
    cancellation and kept only if the solved value respects the drawn
    sign pattern and a sane magnitude; patterns that zero every term
    are singular as drawn.
    """
    for _ in range(MAX_TRIES):
        signs = rng.choice((-1, 0, 1), size=6, p=(0.35, 0.3, 0.35))
        if not signs.any():
            continue
        upper = [int(s) * _rand_magnitude(rng) for s in signs]
        a12, a13, a14, a23, a24, a34 = upper
        M = PayoffMatrix.from_upper(upper, exact=True)
        if build_digraph(M).has_cycle:
            continue
        terms_active = (a12 != 0 and a34 != 0,
                        a13 != 0 and a24 != 0,
                        a14 != 0 and a23 != 0)
        if not any(terms_active):
            return M
        if M.pfaffian() == 0:
            return M
        if sum(terms_active) < 2:
            continue
        if terms_active[2]:
            need = (a13 * a24 - a12 * a34) / a23
            fixed = (a12, a13, need, a23, a24, a34)
            want = signs[2]
        elif terms_active[1]:
            need = (a12 * a34 + a14 * a23) / a24
            fixed = (a12, need, a14, a23, a24, a34)
            want = signs[1]
        else:
            continue
        if need == 0 or (1 if need > 0 else -1) != want:
            continue
        if not (Fraction(1, 4) <= abs(need) <= 4):
            continue
        M2 = PayoffMatrix.from_upper(fixed, exact=True)
        if build_digraph(M2).has_cycle:
            continue
        return M2
    raise RuntimeError("could not sample an acyclic singular matrix")


def interior_starts(section: NullLineSection, rng, n: int) -> list:
    """Interior starts jittering K's midpoint multiplicatively.

    Multiplicative jitter keeps the relative entropy to the midpoint
    small, so the resulting orbits stay far from the boundary; that
    gives the permanence screen a wide margin over its threshold.
    """
    z = np.array([float(v) for v in section.midpoint()])
    out = []
    for _ in range(n):
        x = z * np.exp(SPREAD * rng.standard_normal(z.size))
        out.append(x / x.sum())
    return out


def barycenter_starts(rng, n: int) -> list:
    """Dirichlet draws concentrated around the barycenter."""
    return [rng.dirichlet((BARYCENTER_ALPHA,) * 4) for _ in range(n)]


def permanence_probe(M, starts) -> list:
    """Cheap trajectory screen for many starts of one or many matrices.

    ``M`` is one matrix, or a (B, n, n) stack with one per start.
    Returns per start the pair (min share inside [:data:`SCREEN_WINDOW`,
    :data:`SCREEN_T_END`], min share at the end), computed on accepted
    integration nodes.  All starts run in one lockstep batch, each with
    its own step control.
    """
    A = M.array if isinstance(M, PayoffMatrix) else np.asarray(M, float)
    check_stack(A, len(starts))
    X0 = np.array(starts, dtype=float).reshape(len(starts), A.shape[-1])
    wmin, fmin = _fastprobe.window_and_final_min(
        A, X0 / X0.sum(axis=1, keepdims=True), SCREEN_T_END, SCREEN_WINDOW,
        SCREEN_RTOL, SCREEN_ATOL)
    return [(float(w), float(f)) for w, f in zip(wmin, fmin)]
