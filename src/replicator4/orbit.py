"""Certification of interior trajectories as periodic orbits.

Interior trajectories of a permanent conservative game lie on joint
level sets of two independent relative entropies and are closed curves.
Certification is numerical and split in three:

1. pick two reference equilibria z', z'' on the segment K whose
   entropies cut the trajectory transversally (the level-set Jacobian
   keeps a safe smallest singular value along the orbit),
2. integrate once at the working tolerance and find the first return to
   a Poincare section through the start point: each upward crossing of
   the section is located by bisection on dense output, and the first
   one whose state lies within ``closure_tol`` of the start is the
   period,
3. probe Lyapunov stability: perturbed starts must stay inside a thin
   tube around the certified orbit for three periods while the
   quadratic level-set function V barely moves.

The section's normal is the initial velocity, so the section is
transversal at the start by construction.  The orbit leaves the start
upward through the section, so crossings inside the first accepted step
are departure, not return, and are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dynamics import Trajectory, check_finite, integrate, integrate_many, \
    phi, phi_gradient, softmax, vector_field
from .errors import (EquilibriumStart, NoClosureFound, PreconditionFailed,
                     ProbeEscaped, SelectionExhausted)
from .kernelgeom import NullLineSection, distance_to_K

#: fixed orthonormal basis of the sum-zero hyperplane in R^4 (columns)
TANGENT_BASIS = np.array([
    [1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(12)],
    [-1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(12)],
    [0.0, -2 / np.sqrt(6), 1 / np.sqrt(12)],
    [0.0, 0.0, -3 / np.sqrt(12)],
])

_CANDIDATES = (0.25, 0.75, 0.4, 0.6, 0.3, 0.7, 0.2, 0.8,
               0.45, 0.55, 0.35, 0.65, 0.15, 0.85, 0.1, 0.9)


@dataclass(frozen=True)
class ReferencePair:
    """Two reference equilibria z(c1), z(c2) on K with their margin.

    ``margin`` is the smallest singular value, along a short arc of the
    actual trajectory, of the 2x3 Jacobian of (phi_z', phi_z'')
    restricted to the simplex tangent plane.  A healthy margin means the
    two entropies are independent constraints near the orbit.
    """

    z1: np.ndarray
    z2: np.ndarray
    c1: float
    c2: float
    margin: float


@dataclass
class StabilityProbe:
    delta: float
    n_probes: int
    max_tube_distance: float
    v_drift_max: float
    probes: tuple
    escaped: tuple

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "n_probes": self.n_probes,
            "max_tube_distance": self.max_tube_distance,
            "v_drift_max": self.v_drift_max,
            "escaped": list(self.escaped),
            "probes": [dict(p) for p in self.probes],
        }


@dataclass
class OrbitReport:
    """Everything the certification produced for one start point."""

    x0: np.ndarray
    period: float
    closure_residual: float
    time_average: np.ndarray
    avg_distance_to_K: float | None
    phi_drift: dict
    refs: ReferencePair | None
    rtol: float
    stability: StabilityProbe | None = None
    sample_ts: np.ndarray = field(default=None, repr=False)
    orbit_samples: np.ndarray = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "x0": [float(v) for v in self.x0],
            "period": self.period,
            "closure_residual": self.closure_residual,
            "time_average": [float(v) for v in self.time_average],
            "avg_distance_to_K": self.avg_distance_to_K,
            "phi_drift": {k: float(v) for k, v in self.phi_drift.items()},
            "rtol": self.rtol,
            "stability": self.stability.to_json() if self.stability
            else None,
        }


def select_reference_points(M, section: NullLineSection, x0,
                            arc_time: float = 2.0, arc_rtol: float = 1e-8,
                            skip_tol: float = 1e-6,
                            margin_tol: float = 1e-8,
                            candidates: Sequence[float] = _CANDIDATES
                            ) -> ReferencePair:
    """Choose z' = z(1/2) and a transversal partner z'' on K.

    The forbidden parameter values are where a candidate's entropy
    cannot separate x0 from the two points where the phi_z' level set
    of x0 meets K; the map c -> phi_z(c)(x0) - phi_z(c)(alpha) is affine
    in c, so each intersection alpha rules out at most one root.
    Candidates near a root (or near 1/2 itself) are skipped, the rest
    are ranked by trying them in order and accepting the first whose
    margin along a short integrated arc clears ``margin_tol``.

    Raises
    ------
    PreconditionFailed
        If x0 is not interior or sits on K (no orbit to certify).
    SelectionExhausted
        If every candidate is skipped or fails the margin.
    """
    p = np.asarray(x0, dtype=float)
    if not np.all(p > 0):
        raise PreconditionFailed("x0 must be interior")
    if distance_to_K(p, section) <= 1e-8:
        raise PreconditionFailed("x0 lies on the equilibrium segment; "
                                 "there is no orbit through it")
    zm, zp = section.as_array()

    def z_of(c: float) -> np.ndarray:
        return (1.0 - c) * zm + c * zp

    z1 = z_of(0.5)
    target = phi(p, z1)

    def g(c: float) -> float:
        return phi(z_of(c), z1) - target

    def bracket_root(c_in: float, c_out_start: float, shrink_toward: float
                     ) -> float:
        # walk c_out toward the endpoint until g changes sign, then bisect
        c_out = c_out_start
        for _ in range(60):
            if g(c_out) > 0:
                break
            c_out = shrink_toward + (c_out - shrink_toward) * 0.5
        else:
            raise PreconditionFailed(
                "could not bracket the level-set intersection with K")
        lo, hi = (c_out, c_in) if c_out < c_in else (c_in, c_out)
        # g(lo) and g(hi) have opposite signs by construction
        glo = g(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if (gm > 0) == (glo > 0):
                lo, glo = mid, gm
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        return 0.5 * (lo + hi)

    c_alpha = (bracket_root(0.5, 0.25, 0.0), bracket_root(0.5, 0.75, 1.0))

    # forbidden c: phi_z(c) cannot separate x0 from alpha
    lx = np.log(p)
    bad = []
    for ca in c_alpha:
        alpha = z_of(ca)
        la = np.log(alpha)
        pc0 = float(-(zm * (lx - la)).sum())
        pc1 = float(-(zp * (lx - la)).sum())
        q = pc1 - pc0
        if abs(q) > 1e-14:
            root = -pc0 / q
            if 0.0 < root < 1.0:
                bad.append(root)

    arc = integrate(M, p, arc_time, rtol=arc_rtol, atol=1e-11)
    xs_arc = softmax(arc.us)
    grad1 = (-z1 / xs_arc) @ TANGENT_BASIS

    for c in candidates:
        if abs(c - 0.5) < skip_tol:
            continue
        if any(abs(c - b) < skip_tol for b in bad):
            continue
        z2 = z_of(c)
        grad2 = (-z2 / xs_arc) @ TANGENT_BASIS
        margin = np.inf
        for g1, g2 in zip(grad1, grad2):
            s = np.linalg.svd(np.stack((g1, g2)), compute_uv=False)
            if s[-1] < margin:
                margin = float(s[-1])
        if margin > margin_tol:
            return ReferencePair(z1=z1, z2=z2, c1=0.5, c2=float(c),
                                 margin=margin)
    raise SelectionExhausted(
        f"no candidate among {len(candidates)} cleared margin "
        f"{margin_tol:.1e} (forbidden roots at {bad})")


#: time units of :func:`detect_period`'s first integration
FIRST_SPAN = 25.0


def section_normal(M, p: np.ndarray) -> np.ndarray:
    """The field at p, the section's normal; EquilibriumStart if zero."""
    f0 = vector_field(M, p)
    if float(np.abs(f0).max()) <= 1e-12:
        raise EquilibriumStart(f"field at {p.tolist()} is numerically zero")
    return f0


def first_closure(traj: Trajectory, p: np.ndarray, f0: np.ndarray,
                  closure_tol: float):
    """Times and residuals |x(t) - p| of the upward crossings of the
    section (x - p) . f0 = 0 after the first accepted step, each located
    by bisection on dense output, and the index of the period: the first
    whose residual is within ``closure_tol`` (None if there is none).

    The brackets are halved together, at most 90 times, and the halving
    stops once every bracket is narrower than 1e-16 relative or no
    midpoint lies strictly inside its bracket: from then on the midpoint,
    which is the crossing time returned, no longer changes.
    """
    ss = (traj.xs - p) @ f0
    k = np.flatnonzero((ss[1:-1] < 0) & (ss[2:] >= 0)) + 1
    lo, hi = traj.ts[k], traj.ts[k + 1]
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break
        below = (softmax(traj.dense(mid)) - p) @ f0 < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= 1e-16 * np.maximum(1.0, hi)):
            break
    t = 0.5 * (lo + hi)
    residuals = np.linalg.norm(softmax(traj.dense(t)) - p, axis=-1)
    closed = np.flatnonzero(residuals <= closure_tol)
    return t, residuals, int(closed[0]) if closed.size else None


def detect_period(M, x0, section: NullLineSection | None = None,
                  refs: ReferencePair | None = None, rtol: float = 1e-10,
                  atol: float = 1e-12, closure_tol: float = 1e-6,
                  horizon: float = 200.0, n_samples: int = 2048
                  ) -> OrbitReport:
    """Certify the trajectory through x0 as a closed orbit.

    One integration at the requested tolerance, with the reference
    entropies monitored, runs for :data:`FIRST_SPAN` time units (or
    ``horizon`` if shorter).  The period follows :func:`first_closure`;
    while no return closes, the run is repeated over twice the span, up to
    ``horizon``.  The report carries the period, the closure residual
    |x(T) - x0|, the trapezoid time average with its distance to K, and
    the entropy drifts monitored over the whole run.

    Raises
    ------
    PreconditionFailed
        If ``horizon`` or ``closure_tol`` is not finite and positive.
    EquilibriumStart
        If the field at x0 is numerically zero.
    NoClosureFound
        If no return closes within ``closure_tol`` inside the horizon;
        the best candidate period and residual ride on the exception.
    """
    check_finite("horizon", horizon)
    check_finite("closure_tol", closure_tol)
    p = np.asarray(x0, dtype=float)
    f0 = section_normal(M, p)

    monitors = []
    if refs is not None:
        monitors = [("z1", refs.z1), ("z2", refs.z2)]
    span = min(FIRST_SPAN, horizon)
    while True:
        traj = integrate(M, p, span, rtol=rtol, atol=atol,
                         monitors=monitors)
        returns, residuals, first = first_closure(traj, p, f0, closure_tol)
        if first is not None or span >= horizon:
            break
        span = min(2.0 * span, horizon)
    if first is None:
        if not returns.size:
            raise NoClosureFound(
                f"no section return inside horizon {horizon}")
        best = int(np.argmin(residuals))
        period, residual = float(returns[best]), float(residuals[best])
        raise NoClosureFound(
            f"no section return inside horizon {horizon} closes; the best, "
            f"at t = {period:.6g}, misses x0 by {residual:.3e} "
            f"(tolerance {closure_tol:.1e})",
            candidate_period=period, candidate_residual=residual)
    period = float(returns[first])
    residual = float(residuals[first])

    grid = np.linspace(0.0, period, n_samples + 1)
    samples = softmax(traj.dense(grid))
    w = np.ones(len(grid))
    w[0] = w[-1] = 0.5
    x_avg = (w[:, None] * samples).sum(axis=0) / w.sum()
    dist = distance_to_K(x_avg, section) if section is not None else None

    return OrbitReport(
        x0=p, period=period, closure_residual=residual,
        time_average=x_avg, avg_distance_to_K=dist,
        phi_drift=dict(traj.drift), refs=refs, rtol=rtol,
        sample_ts=grid, orbit_samples=samples)


def _min_distance_to_samples(points: np.ndarray,
                             ref: np.ndarray) -> np.ndarray:
    """For each row of ``points``, min euclidean distance to ``ref`` rows.

    The nearest ref row is the argmin of the augmented product
    [P, 1] [-2 R^T; |R|^2] = |r - p|^2 - |p|^2, over blocks of 64 points
    that stay in cache; its distance is then taken directly, since the
    expanded form cancels (5e-9 relative at 1e-4 on a simplex orbit).
    """
    R = np.vstack((-2.0 * ref.T, (ref ** 2).sum(axis=1)))
    P = np.hstack((points, np.ones((len(points), 1))))
    nearest = np.concatenate([(P[i:i + 64] @ R).argmin(axis=1)
                              for i in range(0, len(P), 64)])
    return np.sqrt(((points - ref[nearest]) ** 2).sum(axis=1))


def _max_distance_to_samples(points: np.ndarray, ref: np.ndarray,
                             phase: np.ndarray) -> float:
    """``_min_distance_to_samples(points, ref).max()``, bit for bit, from
    the exact search on as few points as a phase guess allows.

    ``phase`` holds, for each point, the index of the ref row it is
    expected to sit near.  The direct distance to the ref rows within 8
    of that index, cyclically, bounds each point's distance from above.
    The exact search runs on blocks of 64 points in descending order of
    that bound, and stops once the next block's largest bound is clearly
    below the running max.  The margin, 1e-9 relative and 1e-14 on the
    squares, covers the rounding of the augmented product's argmin, so a
    pruned point cannot hold the max.  A bad guess only makes the bounds
    loose and the search longer.
    """
    # near[i] holds ref rows i - 8 ... i + 8, cyclically
    pad = ref.take(np.arange(-8, len(ref) + 8), axis=0, mode="wrap")
    near = sliding_window_view(pad, (17, ref.shape[1]))[:, 0]
    diff = points[:, None, :] - near[np.asarray(phase) % len(ref)]
    bound_sq = np.einsum("ijk,ijk->ij", diff, diff).min(axis=1)
    order = np.argsort(-bound_sq, kind="stable")
    best = 0.0
    for i in range(0, len(order), 64):
        rows = order[i:i + 64]
        best = max(best, float(_min_distance_to_samples(points[rows],
                                                        ref).max()))
        if (i + 64 < len(order) and bound_sq[order[i + 64]] + 1e-14
                < (best * (1.0 - 1e-9)) ** 2):
            break
    return best


def stability_probe(M, report: OrbitReport, refs: ReferencePair,
                    delta: float = 1e-3, n_probes: int = 16, seed: int = 0,
                    rtol: float = 1e-10, atol: float = 1e-12,
                    acceptance_factor: float = 50.0,
                    samples_per_period: int = 512) -> StabilityProbe:
    """Integrate perturbed starts for three periods and measure escape.

    Perturbations are ``delta`` times random unit vectors in the simplex
    tangent plane (seeded, reproducible).  All probes run as one batch
    (:func:`replicator4.dynamics.integrate_many`), each with its own
    step size and accept decision.  For each probe the report
    records the worst distance to the certified orbit's sample cloud and
    the drift of V(x) = (phi_z'(x) - c')^2 + (phi_z''(x) - c'')^2, whose
    level c', c'' values are pinned at the unperturbed start.  The worst
    distance is exact; the search skips the probe points that a phase
    guess, the sample time modulo the period, shows cannot hold it
    (:func:`_max_distance_to_samples`).

    Raises
    ------
    PreconditionFailed
        If ``n_probes < 1``, or if some perturbed start leaves the open
        simplex (delta too large for this orbit's clearance).
    ProbeEscaped
        If a probe's tube distance exceeds ``acceptance_factor * delta``.
        The full probe record is attached to the exception.
    """
    if n_probes < 1:
        raise PreconditionFailed(f"n_probes = {n_probes}; a stability "
                                 "probe needs at least one start")
    x0 = report.x0
    T = report.period
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_probes, TANGENT_BASIS.shape[1]))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    dirs = g @ TANGENT_BASIS.T

    c1 = phi(x0, refs.z1)
    c2 = phi(x0, refs.z2)
    # The tube distance is measured against a discrete sample cloud, so
    # even an unperturbed start sits a fraction of one sample gap away
    # from it.  Allow that much on top of the acceptance bound, else
    # delta = 0 would be rejected on discretization noise alone.
    ref = report.orbit_samples
    gaps = np.linalg.norm(np.diff(ref, axis=0), axis=1)
    slack = float(gaps.max(initial=0.0))
    starts = x0 + delta * dirs
    outside = np.flatnonzero(~np.all(starts > 0, axis=1))
    if outside.size:
        raise PreconditionFailed(
            f"probe {outside[0]} start leaves the simplex; delta = {delta} "
            "is too large for this orbit")
    trajs = integrate_many(M, starts, 3.0 * T, rtol=rtol, atol=atol)
    records = []
    escaped = []
    max_tube = 0.0
    max_vdrift = 0.0
    for k, traj in enumerate(trajs):
        ts, xs = traj.sample(3.0 * T / (3 * samples_per_period))
        v = (phi(xs, refs.z1) - c1) ** 2 + (phi(xs, refs.z2) - c2) ** 2
        v_drift = float(np.abs(v - v[0]).max())
        phase = np.rint(np.mod(ts, T) / T * (len(ref) - 1)).astype(int)
        tube = _max_distance_to_samples(xs, ref, phase)
        records.append({"probe": k, "v0": float(v[0]),
                        "v_drift": v_drift, "tube_distance": tube})
        max_tube = max(max_tube, tube)
        max_vdrift = max(max_vdrift, v_drift)
        if tube > acceptance_factor * delta + slack:
            escaped.append(k)
    probe = StabilityProbe(delta=delta, n_probes=n_probes,
                           max_tube_distance=max_tube,
                           v_drift_max=max_vdrift,
                           probes=tuple(records), escaped=tuple(escaped))
    if escaped:
        raise ProbeEscaped(
            f"{len(escaped)} of {n_probes} probes left the "
            f"{acceptance_factor} * delta tube", probe=probe)
    return probe
