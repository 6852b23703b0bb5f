"""Certification of interior trajectories as periodic orbits.

Interior trajectories of a permanent conservative game lie on joint
level sets of two independent relative entropies and are closed curves.
Certification is numerical and split in three:

1. integrate once at the working tolerance and find the first return to
   a Poincare section through the start point: each upward crossing of
   the section is located by bisection on dense output, and the first
   one whose state lies within ``closure_tol`` of the start is the
   period,
2. pick two reference equilibria from K and the orbit's samples alone:
   z' = z(1/2) and the first partner z'' of a fixed list such that the
   two entropies cut the certified orbit transversally (the level-set
   Jacobian keeps a safe smallest singular value over the samples), and
   bound their drift,
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

from . import _rk
# integrate is unused; perfbench's tracer patches it
from .dynamics import (MAX_SAMPLES, Trajectory, _as_array,  # noqa: F401
                       _integrate, by_columns, check_finite, check_order,
                       dense_together, entropy_drift, integrate,
                       integrate_many, phi, phi_gradient, sample_grid,
                       softmax, vector_field)
from .errors import (EquilibriumStart, NoClosureFound, PreconditionFailed,
                     SelectionExhausted, StepSizeUnderflow)
from .kernelgeom import NullLineSection, distance_to_K
from .payoff import ZERO_TOL

#: fixed orthonormal basis of the sum-zero hyperplane in R^4 (columns)
TANGENT_BASIS = np.array([
    [1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(12)],
    [-1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(12)],
    [0.0, -2 / np.sqrt(6), 1 / np.sqrt(12)],
    [0.0, 0.0, -3 / np.sqrt(12)],
])

#: partners z(c) that select_reference_points tries, in order, and the
#: least margin it accepts
CANDIDATES = (0.25, 0.75, 0.4, 0.6, 0.3, 0.7, 0.2, 0.8,
              0.45, 0.55, 0.35, 0.65, 0.15, 0.85, 0.1, 0.9)
MARGIN_TOL = 1e-8
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

    ``margin`` is the least smallest singular value, over the certified
    orbit's samples (``OrbitReport.orbit_samples``), of the 2x3 Jacobian
    of (phi_z', phi_z'') on the simplex tangent plane: LAPACK's, on the
    samples a closed-form bound cannot rule out (:func:`_pick`).  A
    healthy margin means the entropies are independent along the orbit.
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


def _check_start(section: NullLineSection, x0) -> None:
    """PreconditionFailed unless x0 is interior and off K: x0's own checks,
    so they run before any run."""
    p = np.asarray(x0, dtype=float)
    if not np.all(p > 0):
        raise PreconditionFailed("x0 must be interior")
    if distance_to_K(p, section) <= 1e-8:
        raise PreconditionFailed("x0 lies on the equilibrium segment; "
                                 "there is no orbit through it")


def _pick(section: NullLineSection, samples: np.ndarray) -> ReferencePair:
    """z' = z(1/2) and the first partner z(c), c in :data:`CANDIDATES` in
    order, whose margin over the points ``samples``, LAPACK's least
    smallest singular value, bit for bit, clears :data:`MARGIN_TOL`.  The
    closed form sigma_min^2 = |a x b|^2 / sigma_max^2 (Cauchy-Binet) for
    rows a, b errs by a few eps sigma_max, as LAPACK does (2.7 at most
    between the two on I-V), so only samples within 1e-9 relative plus
    1e-13 times the cloud's sigma_max of its least value, or that
    overflow, go to LAPACK."""
    zm, zp = section.as_array()
    z1 = 0.5 * zm + 0.5 * zp
    grad1 = phi_gradient(samples, z1) @ TANGENT_BASIS
    for c in CANDIDATES:
        z2 = (1.0 - c) * zm + c * zp
        grad2 = phi_gradient(samples, z2) @ TANGENT_BASIS
        with np.errstate(over="ignore", invalid="ignore"):
            g11, g22, g12 = (np.einsum("ij,ij->i", u, v) for u, v in (
                (grad1, grad1), (grad2, grad2), (grad1, grad2)))
            smax = np.sqrt(0.5 * (g11 + g22 + np.hypot(g11 - g22, 2 * g12)))
            bound = np.linalg.norm(np.cross(grad1, grad2), axis=1) / smax
            near = ~(bound > bound.min() * (1.0 + 1e-9) + 1e-13 * smax.max()
                     ) | np.isinf(bound)
        margin = float(np.linalg.svd(np.stack((grad1[near], grad2[near]), 1),
                                     compute_uv=False)[:, -1].min())
        if margin > MARGIN_TOL:
            return ReferencePair(z1=z1, z2=z2, c1=0.5, c2=float(c),
                                 margin=margin)
    raise SelectionExhausted(f"no candidate among {len(CANDIDATES)} "
                             f"cleared margin {MARGIN_TOL:.1e}")


def select_reference_points(section: NullLineSection, x0,
                            samples) -> ReferencePair:
    """Choose z' = z(1/2) and a transversal partner z'' on K for the orbit
    through x0, sampled at the points ``samples``.

    The pair depends on K and ``samples`` alone: the partners z(c), c in
    :data:`CANDIDATES`, are tried in order, and the first whose margin,
    the least over ``samples`` (taken by LAPACK where a bound says it can
    sit, :func:`_pick`), clears :data:`MARGIN_TOL` is accepted.  No
    partner needs skipping for x0: every interior orbit off K is periodic,
    so the only c whose entropy cannot tell x0 from the points where x0's
    phi_z' level set meets K is 1/2, z' itself.

    Raises
    ------
    PreconditionFailed
        Before any work, if x0 is not one point or ``samples`` no stack
        of interior points; then if x0 is not interior or sits on K.
    SelectionExhausted
        If every candidate fails the margin.
    """
    n, cloud = section.as_array().shape[1], np.asarray(samples, dtype=float)
    if cloud.shape[1:] != (n,) or not len(cloud) or not np.all(
            np.isfinite(cloud) & (cloud > 0)):
        raise PreconditionFailed(f"samples, shape {cloud.shape}, must be a "
                                 f"nonempty stack of interior points in R^{n}")
    _check_start(section, check_order(x0, n))
    return _pick(section, cloud)


#: time units of :func:`close_orbits`' first span, and the default
#: horizon up to which a run that does not close continues
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
    from then on the midpoint, the time returned, no longer changes.  One
    dense evaluation serves six halvings, at each midpoint of a heap whose
    node q has halves 2q + 1 (hi = mid) and 2q + 2 (lo = mid); the signs
    of a trajectory's nodes are one stacked product, whose (brackets, n)
    slices round as one halving's would, and the rules above walk it."""
    ss = [(traj.xs - p) @ f0 for traj, p, f0 in zip(trajs, ps, f0s)]
    ks = [np.flatnonzero((s[1:-1] < 0) & (s[2:] >= 0)) + 1 for s in ss]
    counts = np.array([len(k) for k in ks], dtype=int)
    splits = np.cumsum(counts)[:-1]
    # a bracket stays on its step
    nodes = [np.concatenate(v) for v in zip(*(
        traj.pieces(k) for traj, k in zip(trajs, ks)))]
    lo, hi = nodes[0].tolist(), nodes[1].tolist()
    own = [r.tolist() for r in np.split(np.arange(len(lo)), splits)]
    live, level = [j for j in range(len(trajs)) if counts[j]], 0
    while level < 90 and (live := [j for j in live if any(
            lo[i] < 0.5 * (lo[i] + hi[i]) < hi[i] for i in own[j])]):
        rows = [i for j in live for i in own[j]]
        L, H = np.empty((2, 63, len(rows)))
        L[0], H[0] = [lo[i] for i in rows], [hi[i] for i in rows]
        for a in (0, 1, 3, 7, 15):
            # nodes q = a .. 2a, one level, and their halves 2q + 1, 2q + 2
            lk, hk = L[2 * a + 1:4 * a + 3], H[2 * a + 1:4 * a + 3]
            lk[::2], hk[1::2] = L[a:2 * a + 1], H[a:2 * a + 1]
            lk[1::2] = hk[::2] = 0.5 * (L[a:2 * a + 1] + H[a:2 * a + 1])
        mids = 0.5 * (L + H)
        x = softmax(_rk.interpolate(mids, *(v[rows] for v in nodes)))
        still, col = [], 0
        for j in live:
            cols, col = slice(col, col + counts[j]), col + counts[j]
            below = ((x[:, cols] - ps[j]) @ f0s[j] < 0).tolist()
            m, q = mids[:, cols].tolist(), [0] * counts[j]
            for d in range(6):  # the while checks level 0 and level 6
                for c, i in enumerate(own[j]):
                    b = below[q[c]][c]
                    (lo if b else hi)[i], q[c] = m[q[c]][c], 2 * q[c] + 1 + b
                if all(hi[i] - lo[i] <= 1e-16 * max(1.0, hi[i])
                       for i in own[j]) or d < 5 and not any(
                           lo[i] < m[q[c]][c] < hi[i]
                           for c, i in enumerate(own[j])):
                    break
            else:
                still.append(j)
        live, level = still, level + 6
    t = 0.5 * (np.array(lo) + np.array(hi))
    r = np.linalg.norm(softmax(_rk.interpolate(t, *nodes)) - np.repeat(
        np.reshape(ps, (len(trajs), -1)), counts, axis=0), axis=-1)
    return [(t, r, next((int(i) for i in np.flatnonzero(r <= closure_tol)),
                        None))
            for t, r in zip(np.split(t, splits), np.split(r, splits))]


def close_orbits(until, ps, f0s, closure_tol: float, horizon: float) -> list:
    """``(run, t, residual, closed)`` for each start ``ps[j]``, row j of
    ``until`` (:func:`replicator4.dynamics._integrate`), with normal
    ``f0s[j]``: the period, or if none closes inside ``horizon`` the best
    return (None if none).  The rows' ends go to :data:`FIRST_SPAN` (or
    ``horizon`` if shorter) before they take a step, so a caller seeds
    them with anything no shorter, ``horizon`` say; open rows run on to
    twice the span, four times, ... up to ``horizon``."""
    out, todo, span = [None] * len(ps), list(range(len(ps))), FIRST_SPAN
    while todo:
        trajs = until(todo, min(span, horizon))
        found = first_closure(trajs, [ps[j] for j in todo],
                              [f0s[j] for j in todo], closure_tol)
        for j, traj, (returns, residuals, first) in zip(todo, trajs, found):
            k = first if first is not None or not returns.size \
                else int(np.argmin(residuals))
            out[j] = (traj, None, None, False) if k is None else (
                traj, float(returns[k]), float(residuals[k]),
                first is not None)
        todo = [j for j in todo if not out[j][3] and span < horizon]
        span *= 2
    return out


def _period(M, p, section, rtol, atol, closure_tol, horizon, starts):
    """:func:`detect_period`'s report and the runs of the probe ``starts``
    from p's batch, ended at 3T once T is known (or where they stand)."""
    check_finite("horizon", horizon)
    check_finite("closure_tol", closure_tol)
    f0 = section_normal(M, p)
    until = _integrate(_as_array(M), [p, *starts],
                       [horizon] + [np.inf] * len(starts), rtol, atol)
    (traj, period, residual, closed), = close_orbits(
        until, [p], [f0], closure_tol, horizon)
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
        refs = _pick(section, samples)
        drift = entropy_drift(traj, p, (("z1", refs.z1), ("z2", refs.z2)))

    report = OrbitReport(
        x0=p, period=period, closure_residual=residual,
        time_average=x_avg, avg_distance_to_K=dist, phi_drift=drift,
        refs=refs, rtol=rtol, orbit_samples=samples)
    return report, until(range(1, 1 + len(starts)), 3.0 * period)


def detect_period(M, x0, section: NullLineSection | None = None,
                  rtol: float = 1e-10, atol: float = 1e-12,
                  closure_tol: float = CLOSURE_TOL,
                  horizon: float = HORIZON) -> OrbitReport:
    """Certify the trajectory through x0 as a closed orbit.

    One integration at the requested tolerance runs until the orbit
    closes (:func:`close_orbits`): for :data:`FIRST_SPAN` time units (or
    ``horizon`` if shorter), and while no return closes, on to twice the
    span, up to ``horizon``.  The period follows :func:`first_closure`.
    The report carries the period, the closure residual |x(T) - x0|, and
    the trapezoid time average over the :data:`N_SAMPLES` intervals of the
    orbit's sample cloud; with a ``section``, also the average's distance
    to K, the reference pair :func:`select_reference_points` takes from
    the cloud, and both entropies' drift over the run.

    Raises
    ------
    PreconditionFailed
        If ``horizon`` or ``closure_tol`` is not finite and positive, or,
        before any run, if x0 has the wrong shape, is not interior or, with
        a ``section``, lies on K (:func:`_check_start`; the pair asks
        nothing more of x0).
    EquilibriumStart
        If the field at x0 is numerically zero (:func:`section_normal`).
    NoClosureFound
        If no return closes within ``closure_tol`` inside the horizon;
        the best candidate period and residual ride on the exception.
    SelectionExhausted
        If no partner on K clears the margin over the sample cloud.
    """
    p = check_order(x0, _as_array(M).shape[-1])
    if section is not None:
        _check_start(section, p)
    return _period(M, p, section, rtol, atol, closure_tol, horizon, ())[0]


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
    return np.sqrt(by_columns((points - ref[nearest]) ** 2))


def _max_distance_to_samples(points: np.ndarray, ref: np.ndarray,
                             phase: np.ndarray):
    """``_min_distance_to_samples(p, ref).max()``, bit for bit, for each
    set p of the (..., m, n) stack ``points`` (a float for one set), from
    one exact search on as few points as a phase guess allows.

    ``phase`` holds, for each point (broadcast over the stack), the index
    of the ref row it is expected to sit near.  From there each point
    follows its own phase: twice, its guess moves by its offset along the
    cloud's tangent, in rows (``np.gradient`` of ref), which on a smooth
    cloud lands on the nearest row, and the direct distance to the row it
    lands on bounds the point's distance from above.  The exact search
    runs on the 4 largest bounds of each set and then, in one more call
    for all sets, on every point whose bound is not clearly below its
    set's running max.  The margin, 1e-9 relative and 1e-14 on the
    squares, covers the rounding of the augmented product's argmin, so a
    pruned point cannot hold the max.  A bad guess only makes the bounds
    loose and the search longer.  Bounds are taken over chunks of 2**13
    points, 256 kB per temporary at n = 4.
    """
    m, n = points.shape[-2:]
    flat = points.reshape(-1, n)
    guess = np.broadcast_to(phase, points.shape[:-1]).ravel()
    tangent = np.gradient(ref, axis=0)
    sq = by_columns(tangent ** 2)
    refT = ref.T.copy()
    stepT = np.divide(tangent.T, sq, out=np.zeros_like(refT), where=sq > 0)
    bound = np.empty(len(flat))
    for lo in range(0, len(flat), 1 << 13):
        chunk = slice(lo, lo + (1 << 13))
        xs, k = flat[chunk].T, guess[chunk]
        for _ in range(2):
            k = k + np.rint(np.einsum("ij,ij->j", xs - refT.take(
                k, 1, mode="wrap"), stepT.take(k, 1, mode="wrap"))).astype(int)
        d = xs - refT.take(k, 1, mode="wrap")
        bound[chunk] = np.einsum("ij,ij->j", d, d)
    bound = bound.reshape(-1, m)
    top = min(4, m)
    todo = bound >= np.partition(bound, m - top, axis=1)[:, m - top, None]
    R, best = _augmented(ref), np.zeros(len(bound))
    while todo.any():
        j, i = np.nonzero(todo)
        np.maximum.at(best, j, _min_distance_to_samples(flat[j * m + i],
                                                        ref, R))
        bound[j, i] = -np.inf
        todo = bound + 1e-14 >= ((best * (1.0 - 1e-9)) ** 2)[:, None]
    return best.reshape(points.shape[:-2])[()]


def _probe_starts(x0, delta, n_probes, seed) -> np.ndarray:
    """:func:`stability_probe`'s starts, or its PreconditionFailed."""
    check_finite("delta", delta, strict=False)
    if n_probes < 1:
        raise PreconditionFailed(f"n_probes = {n_probes}; a stability "
                                 "probe needs at least one start")
    if n_probes * (3 * SAMPLES_PER_PERIOD + 1) > MAX_SAMPLES:
        raise PreconditionFailed(
            f"n_probes = {n_probes}; the probes' sample grids would hold "
            f"more than {MAX_SAMPLES:.0e} points")
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
    slack = float(np.sqrt(by_columns(np.diff(ref, axis=0) ** 2)).max(
        initial=0.0))
    ts = sample_grid(3.0 * T, 3.0 * T / (3 * SAMPLES_PER_PERIOD))
    dense_together(trajs)
    xs = np.empty((len(trajs), len(ts), len(x0)))
    for traj, x in zip(trajs, xs):
        softmax(traj.dense(ts), out=x)
    v = (phi(xs, refs.z1) - c1) ** 2 + (phi(xs, refs.z2) - c2) ** 2
    v_drift = np.abs(v - v[:, :1]).max(axis=1)
    phase = np.rint(np.mod(ts, T) / T * (len(ref) - 1)).astype(int)
    tube = _max_distance_to_samples(xs, ref, phase)
    escaped = tuple(int(k) for k in np.flatnonzero(
        tube > TUBE_FACTOR * delta + slack))
    return StabilityProbe(
        delta=delta, n_probes=len(trajs), max_tube_distance=float(tube.max()),
        v_drift_max=float(v_drift.max()), escaped=escaped,
        probes=tuple({"probe": k, "v0": float(v[k, 0]),
                      "v_drift": float(v_drift[k]),
                      "tube_distance": float(tube[k])}
                     for k in range(len(trajs))))


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
    is exact: from the sample time modulo the period, each probe point
    follows its own phase to a nearby sample, whose distance bounds its
    own, and one search for all probes skips the points whose bound shows
    they cannot hold a probe's worst (:func:`_max_distance_to_samples`).
    ``escaped`` lists the probes past :data:`TUBE_FACTOR` times ``delta``
    plus one sample gap; an escape is the record's verdict, not an error.

    Raises
    ------
    PreconditionFailed
        If the report has no reference pair (certified without a
        section), ``delta`` is not finite and nonnegative, ``n_probes <
        1`` or ``n_probes * (3 * SAMPLES_PER_PERIOD + 1) > MAX_SAMPLES``
        (the probes' sample grids), or some perturbed start leaves the
        open simplex (delta too large for this orbit's clearance).
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
    as ``stability``, the probes riding along the period's whole run; the
    record is the same unless 3T ends near or inside that run.  x0 and the
    probes' arguments are checked before any run; after a step underflow
    the two run apart, so that the error is the one they raise.  It raises
    as the two do (PreconditionFailed before any run without a ``section``);
    escaped probes raise nothing, they fill the record's ``escaped``."""
    p = check_order(x0, _as_array(M).shape[-1])
    if section is None:
        raise PreconditionFailed(_NO_REFS)
    _check_start(section, p)
    starts = _probe_starts(p, delta, n_probes, seed)
    try:
        report, trajs = _period(M, p, section, rtol, atol, closure_tol,
                                horizon, starts)
    except StepSizeUnderflow:
        report = detect_period(M, p, section, rtol, atol, closure_tol,
                               horizon)
        report.stability = stability_probe(M, report, delta, n_probes, seed,
                                           rtol, atol)
        return report
    report.stability = _graded(report, delta, trajs)
    return report
