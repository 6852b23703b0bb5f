"""Certification of interior trajectories as periodic orbits.

Interior trajectories of a permanent conservative game lie on joint
level sets of two independent relative entropies and are closed curves.
Certification is numerical and split in three:

1. integrate once at the working tolerance and find the first return to
   a Poincare section through the start point: each upward crossing of
   the section is located by bisection on dense output, and the first
   one whose state lies within ``closure_tol`` of the start is the
   period,
2. pick two reference equilibria z', z'' on K whose entropies cut the
   certified orbit transversally (the level-set Jacobian keeps a safe
   smallest singular value over its samples), and bound their drift,
3. probe Lyapunov stability: perturbed starts, riding along step 1's
   run (:func:`certify_orbit`), must stay in a thin tube around the
   certified orbit for three periods while the quadratic level-set
   function V of step 2's pair barely moves.

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

from . import _rk
from .dynamics import (Trajectory, _as_array, _integrate, check_finite,
                       entropy_drift, integrate, integrate_many, phi,
                       phi_gradient, sample_grid, softmax, vector_field)
from .errors import (EquilibriumStart, NoClosureFound, PreconditionFailed,
                     ProbeEscaped, SelectionExhausted, StepSizeUnderflow)
from .kernelgeom import NullLineSection, distance_to_K
from .payoff import ZERO_TOL

#: fixed orthonormal basis of the sum-zero hyperplane in R^4 (columns)
TANGENT_BASIS = np.array([
    [1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(12)],
    [-1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(12)],
    [0.0, -2 / np.sqrt(6), 1 / np.sqrt(12)],
    [0.0, 0.0, -3 / np.sqrt(12)],
])

#: partners z(c) that select_reference_points tries, in order; its skip
#: radius and least margin accepted
CANDIDATES = (0.25, 0.75, 0.4, 0.6, 0.3, 0.7, 0.2, 0.8,
              0.45, 0.55, 0.35, 0.65, 0.15, 0.85, 0.1, 0.9)
SKIP_TOL, MARGIN_TOL = 1e-6, 1e-8
#: intervals of the certified period's grid; stability samples per period
N_SAMPLES, SAMPLES_PER_PERIOD = 2048, 512
#: acceptance bounds, the table ``verify`` reads: closure residual, tube
#: radius over delta, time average to K, entropy and V drift, and its
#: algebra checks on U = A / max|a|: pf(U)^2 - det(U), |U z| on K, clipping
CLOSURE_TOL, TUBE_FACTOR, K_DISTANCE_TOL = 1e-6, 50.0, 1e-4
PHI_DRIFT_TOL, V_DRIFT_TOL, ALGEBRA_TOL = 1e-8, 1e-8, 1e-10


@dataclass(frozen=True)
class ReferencePair:
    """Two reference equilibria z(c1), z(c2) on K with their margin.

    ``margin`` is the smallest singular value, over the certified
    orbit's sample cloud (``OrbitReport.orbit_samples``), of the 2x3
    Jacobian of (phi_z', phi_z'') restricted to the simplex tangent
    plane.  A healthy margin means the two entropies are independent
    constraints all along the orbit.
    """

    z1: np.ndarray
    z2: np.ndarray
    c1: float
    c2: float
    margin: float

    def to_json(self) -> dict:
        return dict(vars(self), z1=[float(v) for v in self.z1],
                    z2=[float(v) for v in self.z2])


@dataclass
class StabilityProbe:
    delta: float
    n_probes: int
    max_tube_distance: float
    v_drift_max: float
    probes: tuple
    escaped: tuple

    def to_json(self) -> dict:
        return dict(vars(self), escaped=list(self.escaped),
                    probes=[dict(p) for p in self.probes])


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


def _candidates(section: NullLineSection, x0) -> tuple:
    """z', the partners (c, z(c)) :func:`select_reference_points` tries for
    x0, in order, and the forbidden roots: x0's alone, so before any run."""
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
        la = np.log(z_of(ca))
        pc0 = float(-(zm * (lx - la)).sum())
        pc1 = float(-(zp * (lx - la)).sum())
        q = pc1 - pc0
        if abs(q) > 1e-14:
            root = -pc0 / q
            if 0.0 < root < 1.0:
                bad.append(root)
    return z1, [(c, z_of(c)) for c in CANDIDATES if abs(c - 0.5) >= SKIP_TOL
                and all(abs(c - b) >= SKIP_TOL for b in bad)], bad


def _pick(candidates: tuple, samples: np.ndarray) -> ReferencePair:
    """The first of :func:`_candidates`' partners whose margin over the
    points ``samples`` clears :data:`MARGIN_TOL`."""
    z1, partners, bad = candidates
    grad1 = phi_gradient(samples, z1) @ TANGENT_BASIS
    for c, z2 in partners:
        grad2 = phi_gradient(samples, z2) @ TANGENT_BASIS
        margin = float(np.linalg.svd(np.stack((grad1, grad2), axis=1),
                                     compute_uv=False)[:, -1].min())
        if margin > MARGIN_TOL:
            return ReferencePair(z1=z1, z2=z2, c1=0.5, c2=float(c),
                                 margin=margin)
    raise SelectionExhausted(
        f"no candidate among {len(CANDIDATES)} cleared margin "
        f"{MARGIN_TOL:.1e} (forbidden roots at {bad})")


def select_reference_points(section: NullLineSection, x0,
                            samples) -> ReferencePair:
    """Choose z' = z(1/2) and a transversal partner z'' on K for the orbit
    through x0, sampled at the points ``samples``.

    The forbidden parameter values are where a candidate's entropy
    cannot separate x0 from the two points where the phi_z' level set
    of x0 meets K; the map c -> phi_z(c)(x0) - phi_z(c)(alpha) is affine
    in c, so each intersection alpha rules out at most one root.
    :data:`CANDIDATES` within :data:`SKIP_TOL` of a root (or of 1/2
    itself) are skipped, the rest are tried in order, and the first whose
    margin, the least over ``samples``, clears :data:`MARGIN_TOL` is
    accepted.

    Raises
    ------
    PreconditionFailed
        If x0 is not interior or sits on K (no orbit to certify).
    SelectionExhausted
        If every candidate is skipped or fails the margin.
    """
    return _pick(_candidates(section, x0), samples)


#: time units of :func:`detect_period`'s first integration, and the
#: horizon up to which a run that does not close is repeated
FIRST_SPAN, HORIZON = 25.0, 200.0


def section_normal(M, p: np.ndarray) -> np.ndarray:
    """The field at p, the section's normal; EquilibriumStart if it is
    zero on the unit scale, as :meth:`PayoffMatrix.signs` decides."""
    A = _as_array(M)
    f0 = vector_field(A, p)
    if float(np.abs(f0).max()) <= ZERO_TOL * float(np.abs(A).max()):
        raise EquilibriumStart(f"field at {p.tolist()} is numerically zero")
    return f0


def first_closure(trajs: Sequence[Trajectory], ps, f0s,
                  closure_tol: float) -> list:
    """For each trajectory ``trajs[j]``, from ``ps[j]`` with section normal
    ``f0s[j]``: the times and residuals |x(t) - p| of its upward crossings
    of the section (x - p) . f0 = 0 after the first accepted step, each
    located by bisection on DOP853's continuous extension
    (:func:`replicator4._rk.interpolate`), and the index of the period,
    the first within ``closure_tol`` (None if there is none).

    A trajectory's brackets are halved, at most 90 times, until each is
    narrower than 1e-16 relative or none has a midpoint strictly inside:
    from then on the midpoint, the time returned, no longer changes.  The
    trajectories still halving share one dense evaluation per halving;
    each takes the section sign on its own rows, so keeps its bits alone."""
    ss = [(traj.xs - p) @ f0 for traj, p, f0 in zip(trajs, ps, f0s)]
    ks = [np.flatnonzero((s[1:-1] < 0) & (s[2:] >= 0)) + 1 for s in ss]
    counts = np.array([len(k) for k in ks], dtype=int)
    owner = np.repeat(np.arange(len(trajs)), counts)
    # a bracket stays on its step
    nodes = [np.concatenate(v) for v in zip(*(
        traj.pieces(k) for traj, k in zip(trajs, ks)))]
    lo, hi, halving = nodes[0].copy(), nodes[1].copy(), counts > 0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        halving &= np.bincount(owner, (lo < mid) & (mid < hi),
                               minlength=len(trajs)) > 0
        if not halving.any():
            break
        rows = halving[owner]
        x = softmax(_rk.interpolate(mid[rows], *(v[rows] for v in nodes)))
        below = np.concatenate([
            (x[end - counts[j]:end] - ps[j]) @ f0s[j] for j, end in zip(
                np.flatnonzero(halving), np.cumsum(counts[halving]))]) < 0
        lo[rows] = np.where(below, mid[rows], lo[rows])
        hi[rows] = np.where(below, hi[rows], mid[rows])
        wide = ~(hi - lo <= 1e-16 * np.maximum(1.0, hi))
        halving &= np.bincount(owner, wide, minlength=len(trajs)) > 0
    t = 0.5 * (lo + hi)
    r = np.linalg.norm(softmax(_rk.interpolate(t, *nodes)) - np.repeat(
        np.reshape(ps, (len(trajs), -1)), counts, axis=0), axis=-1)
    splits = np.cumsum(counts)[:-1]
    return [(t, r, next((int(i) for i in np.flatnonzero(r <= closure_tol)),
                        None))
            for t, r in zip(np.split(t, splits), np.split(r, splits))]


def close_orbits(Ms, ps, f0s, trajs, closure_tol: float,
                 horizon: float) -> list:
    """``(run, t, residual, closed)`` for each start ``ps[j]`` of ``Ms[j]``,
    with normal ``f0s[j]`` and first run ``trajs[j]``: the period, or if
    none closes inside ``horizon`` the best return (None if none).  Open
    starts run again (:func:`integrate`) over twice the span, up to it."""
    trajs, out, todo = list(trajs), [None] * len(ps), range(len(ps))
    while todo:
        for j, (returns, residuals, first) in zip(todo, first_closure(
                *([v[j] for j in todo] for v in (trajs, ps, f0s)),
                closure_tol)):
            k = first if first is not None or not returns.size \
                else int(np.argmin(residuals))
            out[j] = (trajs[j], None, None, False) if k is None else (
                trajs[j], float(returns[k]), float(residuals[k]),
                first is not None)
        todo = [j for j in todo if not out[j][3] and trajs[j].t_end < horizon]
        for j in todo:
            trajs[j] = integrate(
                Ms[j], ps[j], min(2 * trajs[j].t_end, horizon),
                rtol=trajs[j].rtol, atol=trajs[j].atol)
    return out


def _period(M, p, section, cands, rtol, atol, closure_tol, horizon, starts):
    """:func:`detect_period`'s report, its pair from p's :func:`_candidates`
    ``cands``, and the runs of the probe ``starts`` from p's batch, ended
    at 3T once T is known (or where they stand)."""
    check_finite("horizon", horizon)
    check_finite("closure_tol", closure_tol)
    f0 = section_normal(M, p)
    traj, end = _integrate(_as_array(M), p, min(FIRST_SPAN, horizon), rtol,
                           atol, starts)
    (traj, period, residual, closed), = close_orbits(
        [M], [p], [f0], [traj], closure_tol, horizon)
    if period is None:
        raise NoClosureFound(f"no section return inside horizon {horizon}")
    if not closed:
        raise NoClosureFound(
            f"no section return inside horizon {horizon} closes; the best, "
            f"at t = {period:.6g}, misses x0 by {residual:.3e} "
            f"(tolerance {closure_tol:.1e})",
            candidate_period=period, candidate_residual=residual)

    grid = np.linspace(0.0, period, N_SAMPLES + 1)
    samples = traj.x_at(grid)
    w = np.ones(len(grid))
    w[0] = w[-1] = 0.5
    x_avg = (w[:, None] * samples).sum(axis=0) / w.sum()
    refs, dist, drift = None, None, {}
    if section is not None:
        dist = distance_to_K(x_avg, section)
        refs = _pick(cands, samples)
        drift = entropy_drift(traj, p, (("z1", refs.z1), ("z2", refs.z2)))

    return OrbitReport(
        x0=p, period=period, closure_residual=residual,
        time_average=x_avg, avg_distance_to_K=dist, phi_drift=drift,
        refs=refs, rtol=rtol, orbit_samples=samples), end(3.0 * period)


def detect_period(M, x0, section: NullLineSection | None = None,
                  rtol: float = 1e-10, atol: float = 1e-12,
                  closure_tol: float = CLOSURE_TOL,
                  horizon: float = HORIZON) -> OrbitReport:
    """Certify the trajectory through x0 as a closed orbit.

    One integration at the requested tolerance runs for
    :data:`FIRST_SPAN` time units (or ``horizon`` if shorter).  The period
    follows :func:`first_closure`; while no return closes, the run is
    repeated over twice the span, up to ``horizon`` (:func:`close_orbits`).
    The report carries the period, the closure residual |x(T) - x0|, and
    the trapezoid time average over the :data:`N_SAMPLES` intervals of the
    orbit's sample cloud; with a ``section``, also the average's distance
    to K, the reference pair :func:`select_reference_points` takes from
    the cloud, and both entropies' drift over the run.

    Raises
    ------
    PreconditionFailed
        If ``horizon`` or ``closure_tol`` is not finite and positive, or,
        before any run, if x0 is not interior or sits on K.
    EquilibriumStart
        If the field at x0 is numerically zero (:func:`section_normal`).
    NoClosureFound
        If no return closes within ``closure_tol`` inside the horizon;
        the best candidate period and residual ride on the exception.
    SelectionExhausted
        If no partner on K clears the margin over the sample cloud.
    """
    p = np.asarray(x0, dtype=float)
    cands = None if section is None else _candidates(section, p)
    return _period(M, p, section, cands, rtol, atol, closure_tol, horizon,
                   ())[0]


def _augmented(ref: np.ndarray) -> np.ndarray:
    """[-2 ref^T; |ref|^2], so that [p, 1] times it is |r - p|^2 - |p|^2."""
    return np.vstack((-2.0 * ref.T, (ref ** 2).sum(axis=1)))


def _min_distance_to_samples(points: np.ndarray, ref: np.ndarray,
                             R: np.ndarray | None = None) -> np.ndarray:
    """For each row of ``points``, min euclidean distance to ``ref`` rows.

    The nearest ref row is the argmin of the augmented product [P, 1] R,
    R = :func:`_augmented` (ref) unless passed, over blocks of 64 points
    that stay in cache; its distance is then taken directly, since the
    expanded form cancels (5e-9 relative at 1e-4 on a simplex orbit).
    """
    R = _augmented(ref) if R is None else R
    P = np.hstack((points, np.ones((len(points), 1))))
    nearest = np.concatenate([(P[i:i + 64] @ R).argmin(axis=1)
                              for i in range(0, len(P), 64)])
    return np.sqrt(((points - ref[nearest]) ** 2).sum(axis=1))


def _max_distance_to_samples(points: np.ndarray, ref: np.ndarray,
                             phase: np.ndarray):
    """``_min_distance_to_samples(p, ref).max()``, bit for bit, for each
    set p of the (..., m, n) stack ``points`` (a float for one set), from
    the exact search on as few points as a phase guess allows.

    ``phase`` holds, for each of a set's m points, the index of the ref
    row it is expected to sit near.  The direct distance to the ref rows
    within 8 of that index, cyclically, bounds each point's distance from
    above.  The exact search runs on blocks of 64 points in descending
    order of that bound, and stops once the next block's largest bound is
    clearly below the running max.  The margin, 1e-9 relative and 1e-14
    on the squares, covers the rounding of the augmented product's
    argmin, so a pruned point cannot hold the max.  A bad guess only
    makes the bounds loose and the search longer.
    """
    # window[i] holds ref rows phase[i] - 8 ... phase[i] + 8, cyclically
    pad = ref.take(np.arange(-8, len(ref) + 8), axis=0, mode="wrap")
    window = sliding_window_view(pad, (17, ref.shape[1]))[
        np.asarray(phase) % len(ref), 0]
    R = _augmented(ref)
    best = np.zeros(points.shape[:-2])
    for j in np.ndindex(best.shape):
        diff = points[j][:, None, :] - window
        bound_sq = np.einsum("ijk,ijk->ij", diff, diff).min(axis=1)
        order = np.argsort(-bound_sq, kind="stable")
        for i in range(0, len(order), 64):
            best[j] = max(best[j], float(_min_distance_to_samples(
                points[j][order[i:i + 64]], ref, R).max()))
            if (i + 64 < len(order) and bound_sq[order[i + 64]] + 1e-14
                    < (best[j] * (1.0 - 1e-9)) ** 2):
                break
    return best[()]


def _probe_starts(x0, delta, n_probes, seed) -> np.ndarray:
    """:func:`stability_probe`'s starts, or its PreconditionFailed."""
    check_finite("delta", delta, strict=False)
    if n_probes < 1:
        raise PreconditionFailed(f"n_probes = {n_probes}; a stability "
                                 "probe needs at least one start")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_probes, TANGENT_BASIS.shape[1]))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    starts = x0 + delta * (g @ TANGENT_BASIS.T)
    outside = np.flatnonzero(~np.all(starts > 0, axis=1))
    if outside.size:
        raise PreconditionFailed(
            f"probe {outside[0]} start leaves the simplex; delta = {delta} "
            "is too large for this orbit")
    return starts


def _graded(report, delta, trajs) -> StabilityProbe:
    """:func:`stability_probe`'s record of the probe runs ``trajs``."""
    x0, refs = report.x0, report.refs
    T = report.period
    c1 = phi(x0, refs.z1)
    c2 = phi(x0, refs.z2)
    # The tube distance is measured against a discrete sample cloud, so
    # even an unperturbed start sits a fraction of one sample gap away
    # from it.  Allow that much on top of the acceptance bound, else
    # delta = 0 would be rejected on discretization noise alone.
    ref = report.orbit_samples
    gaps = np.linalg.norm(np.diff(ref, axis=0), axis=1)
    slack = float(gaps.max(initial=0.0))
    ts = sample_grid(3.0 * T, 3.0 * T / (3 * SAMPLES_PER_PERIOD))
    xs = np.array([traj.x_at(ts) for traj in trajs])
    v = (phi(xs, refs.z1) - c1) ** 2 + (phi(xs, refs.z2) - c2) ** 2
    v_drift = np.abs(v - v[:, :1]).max(axis=1)
    phase = np.rint(np.mod(ts, T) / T * (len(ref) - 1)).astype(int)
    tube = _max_distance_to_samples(xs, ref, phase)
    escaped = tuple(int(k) for k in np.flatnonzero(
        tube > TUBE_FACTOR * delta + slack))
    n_probes = len(trajs)
    probe = StabilityProbe(
        delta=delta, n_probes=n_probes, max_tube_distance=float(tube.max()),
        v_drift_max=float(v_drift.max()), escaped=escaped,
        probes=tuple({"probe": k, "v0": float(v[k, 0]),
                      "v_drift": float(v_drift[k]),
                      "tube_distance": float(tube[k])}
                     for k in range(n_probes)))
    if escaped:
        raise ProbeEscaped(
            f"{len(escaped)} of {n_probes} probes left the "
            f"{TUBE_FACTOR} * delta tube", probe=probe)
    return probe


_NO_REFS = "a stability probe needs reference points: certify with a section"


def stability_probe(M, report: OrbitReport, delta: float = 1e-3,
                    n_probes: int = 16, seed: int = 0, rtol: float = 1e-10,
                    atol: float = 1e-12) -> StabilityProbe:
    """Integrate perturbed starts for three periods and measure escape.

    Perturbations are ``delta`` times random unit vectors in the simplex
    tangent plane (seeded, reproducible).  All probes run as one batch
    (:func:`replicator4.dynamics.integrate_many`), each with its own
    step size and accept decision, to exactly 3T, and each is sampled on
    one grid over [0, 3T] with one dense evaluation.  For each probe the
    report records the worst distance to the certified orbit's sample
    cloud and the drift of
    V(x) = (phi_z'(x) - c')^2 + (phi_z''(x) - c'')^2, whose level c',
    c'' values are pinned at the unperturbed start and z', z'' are the
    report's reference pair (``report.refs``).  The worst distance
    is exact; the search skips the probe points that a phase guess, the
    sample time modulo the period, shows cannot hold it
    (:func:`_max_distance_to_samples`).

    Raises
    ------
    PreconditionFailed
        If the report has no reference pair (certified without a
        section), ``delta`` is not finite and nonnegative, ``n_probes <
        1``, or some perturbed start leaves the open simplex (delta too
        large for this orbit's clearance).
    ProbeEscaped
        If a probe's tube distance exceeds :data:`TUBE_FACTOR` times
        ``delta``, plus one sample gap.
        The full probe record is attached to the exception.
    """
    if report.refs is None:
        raise PreconditionFailed(_NO_REFS)
    starts = _probe_starts(report.x0, delta, n_probes, seed)
    return _graded(report, delta, integrate_many(
        M, starts, 3.0 * report.period, rtol=rtol, atol=atol))


def certify_orbit(M, x0, section: NullLineSection, rtol: float = 1e-10,
                  atol: float = 1e-12, closure_tol: float = CLOSURE_TOL,
                  horizon: float = HORIZON, delta: float = 1e-3,
                  n_probes: int = 16, seed: int = 0) -> OrbitReport:
    """:func:`detect_period`'s report with :func:`stability_probe`'s record
    as ``stability``, the probes riding along the period's run; the record
    is the same unless 3T ends near or inside the first span.  x0 and the
    probes' arguments are checked before any run; after a step underflow
    the two run apart, so that the error is the one they raise."""
    p = np.asarray(x0, dtype=float)
    if section is None:
        raise PreconditionFailed(_NO_REFS)
    cands = _candidates(section, p)
    starts = _probe_starts(p, delta, n_probes, seed)
    try:
        report, trajs = _period(M, p, section, cands, rtol, atol,
                                closure_tol, horizon, starts)
    except StepSizeUnderflow:
        report = detect_period(M, p, section, rtol, atol, closure_tol,
                               horizon)
        report.stability = stability_probe(M, report, delta, n_probes, seed,
                                           rtol, atol)
        return report
    report.stability = _graded(report, delta, trajs)
    return report
