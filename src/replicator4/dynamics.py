"""Replicator flow integration in log-simplex coordinates.

The replicator field on the simplex is x_i' = x_i (Ax)_i.  Integrating
x directly risks stepping through the boundary; in log coordinates
u = log x the field becomes u' = A softmax(u) and the state space is all
of R^n, with softmax(u) interior and unit-sum by construction.  For a
skew matrix the mean payoff x'Ax vanishes, so logsumexp(u) is conserved
by the exact flow; after each accepted step the gauge is renormalized,
u <- u - logsumexp(u), which keeps x = exp(u) literally.

The field and the gauge take exp(u) without the usual max shift.
:func:`batch_field` stacks A on a row of ones once, so one multiply-sum
of e = exp(u) against [A; 1^T] gives A e and sum(e), and the field is
their quotient: 4 array passes instead of 7.  This is safe because
accepted states are gauged, so u <= 0 and the largest share is at
least 1/n.  A trial stage moves u by at most about 96 h max|a| (the
largest DOP853 row sums to 96.1 in absolute value), so exp overflows
only on a trial with h max|a| above about 7.  Its error estimate is
NaN, and the driver rejects it and shrinks the step by the lower clip,
as it would any grossly oversized trial, with numpy's warnings off.

Relative entropy with respect to any interior equilibrium z,

    phi_z(x) = - sum_i z_i log(x_i / z_i),

is a first integral of the flow.  Its numerical drift is the integration
quality signal everything downstream trusts, so :func:`entropy_drift`
checks a set of monitor points over a run and raises past a drift
budget.  :func:`integrate_many` runs a batch of starts and returns one
trajectory per start.

There is one pair, DOP853, one driver, :func:`replicator4._rk.lockstep`,
and one field, :func:`batch_field`, with three consumers:
:func:`integrate_many`, the orbit certification run of
:mod:`replicator4.orbit` and the permanence screen
(:func:`replicator4._fastprobe.window_and_final_min`).
:func:`integrate` is the one-start case of :func:`integrate_many`, the
same bits, with its monitors checked after the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _rk
from .errors import (DriftBudgetExceeded, PreconditionFailed,
                     StepSizeUnderflow)
from .payoff import PayoffMatrix

#: how far from 1 a simplex point's coordinate sum may be
SIMPLEX_ATOL = 1e-9


def softmax(u: np.ndarray) -> np.ndarray:
    m = u.max(axis=-1, keepdims=True)
    e = np.exp(u - m)
    return e / e.sum(axis=-1, keepdims=True)


def gauge(u: np.ndarray) -> np.ndarray:
    """Log-gauge projection u - logsumexp(u) over the last axis, with no
    max shift (see the module docstring)."""
    return u - np.log(np.add.reduce(np.exp(u), -1, keepdims=True))


def batch_field(A):
    """Log-space field u -> A softmax(u) on a (B, n) batch, row by row;
    ``A`` is one matrix or a (B, n, n) stack, one per row.

    One multiply-sum of exp(u) against ``[A; 1^T]`` (see the module
    docstring), broadcast, not BLAS, whose rounding depends on the
    batch size: so each row's result does not depend on the others.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    aug = np.concatenate((A, np.ones(A.shape[:-2] + (1, n))), axis=-2)

    def fun(u):
        y = np.add.reduce(np.exp(u)[:, None, :] * aug, -1)
        return y[:, :n] / y[:, n:]
    return fun


def check_finite(name: str, value, strict: bool = True) -> None:
    """Raise PreconditionFailed unless ``value`` is finite and positive
    (nonnegative when not ``strict``)."""
    if not (np.isfinite(value) and (value > 0 if strict else value >= 0)):
        raise PreconditionFailed(f"{name} = {value} must be finite and "
                                 + ("positive" if strict else "nonnegative"))


def check_simplex_point(x, require_interior: bool = False) -> np.ndarray:
    """Validate and return x as a float simplex point.

    Coordinates must be nonnegative (positive when interior is required)
    and sum to one within :data:`SIMPLEX_ATOL`.  The returned copy is
    renormalized to unit sum exactly (to rounding).
    """
    p = np.asarray(x, dtype=float).copy()
    if p.ndim != 1:
        raise PreconditionFailed("a simplex point is a 1-d vector")
    if require_interior:
        if not np.all(p > 0):
            raise PreconditionFailed(f"point {p.tolist()} is not interior")
    elif not np.all(p >= 0):
        raise PreconditionFailed(f"point {p.tolist()} has a negative "
                                 "coordinate")
    s = float(p.sum())
    if abs(s - 1.0) > SIMPLEX_ATOL:
        raise PreconditionFailed(f"coordinates sum to {s!r}, not 1")
    return p / s


def _as_array(M) -> np.ndarray:
    if isinstance(M, PayoffMatrix):
        return M.array
    return np.asarray(M, dtype=float)


def check_stack(A: np.ndarray, count: int) -> None:
    """Raise PreconditionFailed unless A is one matrix or ``count`` of them."""
    if A.ndim == 3 and len(A) != count:
        raise PreconditionFailed(f"{len(A)} matrices for {count} starts")


def vector_field(M, x) -> np.ndarray:
    """Replicator field x * (Ax) at one simplex point."""
    A = _as_array(M)
    p = np.asarray(x, dtype=float)
    return p * (A @ p)


def phi(x, z):
    """Relative entropy -sum z_i log(x_i / z_i).

    Defined for interior x; coordinates where z_i = 0 contribute
    nothing.  Strictly convex in x with minimum 0 at x = z, and tends to
    infinity as x approaches a part of the boundary that z does not
    share, which is what makes joint level sets compact.  ``x`` may hold
    points along leading axes, shape (..., n); one point gives a float.
    """
    xv = np.asarray(x, dtype=float)
    zv = np.asarray(z, dtype=float)
    mask = zv > 0
    xm = xv[..., mask]
    if np.any(xm <= 0):
        raise PreconditionFailed(
            "phi needs positive shares wherever z is supported")
    vals = -(zv[mask] * np.log(xm / zv[mask])).sum(axis=-1)
    return float(vals) if vals.ndim == 0 else vals


def phi_gradient(x, z) -> np.ndarray:
    """Gradient of phi_z at x, which is -z / x."""
    xv = np.asarray(x, dtype=float)
    zv = np.asarray(z, dtype=float)
    return -zv / xv


#: largest number of grid steps :meth:`Trajectory.sample` will produce
MAX_SAMPLES = 10 ** 7


@dataclass
class Trajectory:
    """Accepted integration nodes plus dense evaluation between them.

    ``ts`` and ``us`` hold time and log state at every accepted step
    (including t0), and ``ks`` the DOP853 stages of each step, whose
    first and last are the log-space derivative at its ends.  Dense
    evaluation is DOP853's order-7 continuous extension on the
    bracketing step (:meth:`dense`), built for all steps on first use,
    so a run read only at its nodes never pays for it.  It is the one
    sampling path: :meth:`x_at`, :meth:`sample`, the certified orbit's
    sample cloud and the stability probes in :mod:`replicator4.orbit` go
    through it.
    """

    A: np.ndarray
    ts: np.ndarray
    us: np.ndarray
    ks: np.ndarray = field(repr=False)
    naccept: int
    nreject: int
    rtol: float
    atol: float
    drift: dict = field(default_factory=dict)

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def xs(self) -> np.ndarray:
        return softmax(self.us)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """:func:`replicator4._rk.dense_coefficients` of every step."""
        return _rk.dense_coefficients(batch_field(self.A), self.ts, self.us,
                                      self.ks)

    def pieces(self, k) -> tuple:
        """:func:`replicator4._rk.interpolate`'s arguments on steps k."""
        return (self.ts[k], self.ts[k + 1], self.us.take(k, axis=0),
                *self.coefficients.take(k, axis=1))

    def dense(self, t):
        """Dense log-state at time(s) t inside the integrated range.

        ``t`` is a scalar or an array; the result has shape
        ``np.shape(t) + (n,)``.  Each point is interpolated on its own
        bracketing step.
        """
        ts = self.ts
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        return _rk.interpolate(t, *self.pieces(k))

    def x_at(self, t) -> np.ndarray:
        """Dense shares at time(s) t, shaped as :meth:`dense`."""
        return softmax(self.dense(t))

    def sample(self, dt: float):
        """Uniform grid (ts, xs) with spacing dt (:func:`sample_grid`)."""
        grid = sample_grid(self.t_end, dt)
        return grid, self.x_at(grid)


def sample_grid(t_end: float, dt: float) -> np.ndarray:
    """Times 0, dt, 2 dt, ... up to and including t_end; dt is finite,
    positive and gives at most MAX_SAMPLES steps."""
    check_finite("sampling step dt", dt)
    if not t_end / dt <= MAX_SAMPLES:
        raise PreconditionFailed(f"sampling step dt = {dt} gives more "
                                 f"than {MAX_SAMPLES:.0e} grid steps")
    grid = np.arange(int(round(t_end / dt)) + 1) * dt
    if grid[-1] > t_end:
        grid[-1] = t_end
    return grid


def default_drift_budget(rtol: float, t_end: float, A: np.ndarray) -> float:
    """100 * rtol * t_end * |A|_inf, floored at 100 * rtol."""
    norm = float(np.abs(A).sum(axis=1).max())
    return 100.0 * rtol * max(1.0, t_end) * max(1.0, norm)


def _check_run(A: np.ndarray, starts, t_end: float, rtol: float,
               atol: float) -> np.ndarray:
    """Validated interior starts of matching dimension, one per row,
    for a run to t_end at the given tolerances."""
    n = A.shape[-1]
    P = []
    for x0 in starts:
        p = check_simplex_point(x0, require_interior=True)
        if p.size != n:
            raise PreconditionFailed(f"x0 has {p.size} coordinates, "
                                     f"matrix order is {n}")
        P.append(p)
    if not P:
        raise PreconditionFailed("a run needs at least one start")
    check_stack(A, len(P))
    check_finite("t_end", t_end)
    check_finite("rtol", rtol)
    check_finite("atol", atol, strict=False)
    return np.array(P)


def integrate(M, x0, t_end: float, rtol: float = 1e-10,
              atol: float = 1e-12, monitors: Sequence = (),
              drift_budget: float | None = None) -> Trajectory:
    """Integrate the replicator flow from an interior point: the
    one-start case of :func:`integrate_many`, the same bits.

    Parameters
    ----------
    M : PayoffMatrix or array-like
        Payoff matrix; any order n >= 2 (boundary subsystems reuse this).
    x0 : array-like
        Strictly interior simplex point of matching dimension.
    monitors : sequence of (label, z)
        Interior or boundary equilibria whose relative entropy
        :func:`entropy_drift` checks at every accepted node against
        ``drift_budget`` (default :func:`default_drift_budget`) once the
        run reaches t_end; the largest drifts go to ``Trajectory.drift``.

    Raises
    ------
    PreconditionFailed
        When x0 is not an interior point of matching dimension, t_end
        or rtol is not finite and positive, or atol is not finite and
        nonnegative.
    StepSizeUnderflow
        When the controller cannot resolve the flow above the minimum
        step (state heading into the boundary too fast).
    DriftBudgetExceeded
        See above; signals the tolerance was too loose for this run.
    """
    traj = _integrate(_as_array(M), x0, t_end, rtol, atol, ())[0]
    traj.drift = entropy_drift(traj, x0, monitors, drift_budget)
    return traj


def entropy_drift(traj: Trajectory, x0, monitors: Sequence,
                  budget: float | None = None) -> dict:
    """The largest drift |phi_z(x) - phi_z(x0)| over the accepted nodes of
    ``traj``, the run from x0, for each ``(label, z)`` of ``monitors``;
    DriftBudgetExceeded for the first node where one passes ``budget``
    (default: :func:`default_drift_budget` of the run)."""
    if budget is None:
        budget = default_drift_budget(traj.rtol, traj.t_end, traj.A)
    mon = [(str(label), check_simplex_point(z)) for (label, z) in monitors]
    p, xs = check_simplex_point(x0), traj.xs[1:]
    d = np.abs([phi(xs, z) - phi(p, z) for _, z in mon]).reshape(
        len(mon), len(xs))
    over = (d > budget).any(axis=0)
    if over.any():
        k = int(np.argmax(over))
        i = int(np.argmax(d[:, k] > budget))
        label, t_new = mon[i][0], float(traj.ts[k + 1])
        raise DriftBudgetExceeded(
            f"monitor {label!r} drifted {d[i, k]:.3e} past budget "
            f"{budget:.3e} at t = {t_new:.6g}", label=label,
            drift=float(d[i, k]), budget=budget, t=t_new)
    return {l: float(v) for (l, _), v in zip(mon, d.max(axis=1, initial=0.0))}


def _integrate(A, x0, t_end, rtol, atol, riders):
    """:func:`integrate`'s trajectory from x0, unchecked, and ``end(t)``,
    which runs the ``riders``, started in x0's lockstep batch with an open
    end, on to t and returns their trajectories (errors keep the row)."""
    ends = np.full(1 + len(riders), np.inf)
    ends[0] = t_end
    run = _history(A, _check_run(A, [x0, *riders], t_end, rtol, atol), ends,
                   rtol, atol)
    hist = [next(run)]
    try:
        while hist[-1][0][0] < t_end:
            hist.append(next(run))
    except StepSizeUnderflow as err:
        if err.row:
            raise
        raise StepSizeUnderflow(
            f"step size {err.h:.3e} fell below {_rk.MIN_STEP:.1e} at "
            f"t = {err.t:.6g}", t=err.t, h=err.h, state=err.state) from None
    traj = _trajectories(A, hist, rtol, atol)[0]

    def end(t: float) -> list[Trajectory]:
        ends[1:] = t
        hist.extend(run)
        return _trajectories(A, hist, rtol, atol)[1:]
    return traj, end


def _history(A, P, t_end, rtol, atol):
    """The lockstep run of starts P as (t, u, ok, rejected, stages)
    entries, with no stages in the first."""
    u = gauge(np.log(P))
    t, no = np.zeros(len(u)), np.zeros(len(u), dtype=bool)
    yield t, u, ~no, no, None
    for t_new, u, ok, K in _rk.lockstep(batch_field(A), u, t_end, rtol, atol,
                                        gauge):
        yield t_new, u, ok, (t < t_end) & ~ok, K.copy()
        t = t_new


def _trajectories(A, hist, rtol, atol) -> list[Trajectory]:
    """One :class:`Trajectory` per row of :func:`_history`'s entries."""
    *nodes, ks = zip(*hist)
    ts, us, oks, rej = (np.array(v) for v in nodes)
    ks = np.array(ks[1:])
    A = np.broadcast_to(A, (oks.shape[1],) + A.shape[-2:])
    return [Trajectory(A=A[b], ts=ts[k, b], us=us[k, b], ks=ks[k[1:], :, b],
                       naccept=int(k.sum()) - 1,
                       nreject=int(rej[:, b].sum()), rtol=rtol, atol=atol)
            for b, k in enumerate(oks.T)]


def integrate_many(M, X0, t_end: float, rtol: float = 1e-10,
                   atol: float = 1e-12) -> list[Trajectory]:
    """One :class:`Trajectory` per interior start (row of X0), without
    monitors, from one lockstep run (:func:`replicator4._rk.lockstep`).

    ``M`` is one matrix, or a (B, n, n) stack with one per start, which
    becomes that start's ``Trajectory.A``.  Each start keeps its own
    steps, accepted nodes and accept and reject counts.  A 4-strategy
    start's trajectory is the same bits alone, in a batch or from
    :func:`integrate`; with 2 or 3 strategies its bits may depend on the
    batch, because :func:`replicator4._rk.attempt` makes each stage sum
    one BLAS product whose rounding depends on a column's place in it
    (its dense output, built from its own steps, adds no such dependence).
    It raises PreconditionFailed as :func:`integrate` does, for any start,
    an empty batch or a stack of the wrong length, and StepSizeUnderflow
    with the ``row`` of the start whose step fell below the floor.
    """
    A = _as_array(M)
    P = _check_run(A, X0, t_end, rtol, atol)
    return _trajectories(A, _history(A, P, t_end, rtol, atol), rtol, atol)


def phi_drift(traj: Trajectory, z) -> float:
    """Max deviation of phi_z from its initial value over accepted nodes."""
    vals = phi(traj.xs, check_simplex_point(z))
    return float(np.abs(vals - vals[0]).max())
