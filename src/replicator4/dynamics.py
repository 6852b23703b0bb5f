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

numpy reduces a short last axis in one inner loop per row, slow on the
thousands of points a run is read at.  :func:`by_columns` takes the n
columns as whole arrays, with the same bits, for :func:`softmax`, :func:`phi`
and the post-run sums over shares.  The field lays its product out
strategy-major, (n, B, n + 1), and reduces the first axis: whole-batch
adds, ((p0 + p1) + p2) + p3, the order numpy sums a short last axis in,
so the bits are unchanged.  :func:`gauge` and the error norm cost about
a microsecond either way at a lockstep iteration's few rows.

Relative entropy with respect to any interior equilibrium z,

    phi_z(x) = - sum_i z_i log(x_i / z_i),

is a first integral of the flow.  Its numerical drift is the integration
quality signal everything downstream trusts, so :func:`entropy_drift`
checks a set of monitor points over a run and raises past a drift
budget.  :func:`integrate_many` runs a batch of starts and returns one
trajectory per start.

There is one pair, DOP853, one driver, :func:`replicator4._rk.lockstep`,
and one field, :func:`batch_field`, with two consumers: the permanence
screen (:func:`replicator4._fastprobe.window_and_final_min`) and
:func:`_integrate`, the one run handle that makes trajectories, whose rows
continue on a raised end: :func:`integrate_many`, every row to one end,
:func:`integrate`, its one-start case with its monitors checked after the
run, the certified orbits and their probes, and every boundary region,
one batch per subsystem order.
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


def by_columns(a: np.ndarray, op=np.add) -> np.ndarray:
    """``op``, np.add or np.maximum, over the last axis from 0 or -inf, a
    column at a time.  For n < 8, as here, numpy's reduce sums a row in
    order, ((0 + a0) + a1) + ..., so the bits agree (a NaN's sign aside)."""
    out = np.full(a.shape[:-1], 0.0 if op is np.add else -np.inf)
    for j in range(a.shape[-1]):
        op(out, a[..., j], out=out)
    return out


def softmax(u: np.ndarray, out=None) -> np.ndarray:
    e = np.subtract(u, by_columns(u, np.maximum)[..., None], out=out)
    np.exp(e, out=e)
    return np.divide(e, by_columns(e)[..., None], out=e)


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
    The exp, the strategy-major product and the sums go into scratch this
    field holds, one set per input shape; ``fun(u, out)`` fills ``out``
    when given, else returns a fresh (B, n) array.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    aug = np.concatenate((A, np.ones(A.shape[:-2] + (1, n))), axis=-2)
    augT = np.moveaxis(aug.reshape(-1, n + 1, n), -1, 0)
    scratch = {}

    def fun(u, out=None):
        if u.shape not in scratch:
            e, y = np.empty(u.shape), np.empty((len(u), n + 1))
            scratch[u.shape] = (e, e.T[:, :, None], np.empty(
                (n, len(u), n + 1)), y, y[:, :n], y[:, n:])
        e, eT, prod, y, num, den = scratch[u.shape]
        np.exp(u, out=e)
        np.add.reduce(np.multiply(eT, augT, out=prod), 0, out=y)
        return np.divide(num, den, out=out)
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
    """Raise PreconditionFailed unless A is one matrix or ``count`` of
    them, with finite entries."""
    if A.ndim == 3 and len(A) != count:
        raise PreconditionFailed(f"{len(A)} matrices for {count} starts")
    if not np.isfinite(A).all():
        raise PreconditionFailed("matrix entries must be finite")


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
    xm = np.asarray(x, dtype=float)
    zm = np.asarray(z, dtype=float)
    if not (zm > 0).all():
        xm, zm = xm[..., zm > 0], zm[zm > 0]
    if np.any(xm <= 0):
        raise PreconditionFailed(
            "phi needs positive shares wherever z is supported")
    q = xm / zm  # reused: each fresh large array faults its pages in
    vals = -by_columns(np.multiply(zm, np.log(q, out=q), out=q))
    return float(vals) if vals.ndim == 0 else vals


def phi_gradient(x, z) -> np.ndarray:
    """Gradient of phi_z at x, which is -z / x."""
    xv = np.asarray(x, dtype=float)
    zv = np.asarray(z, dtype=float)
    return -zv / xv


#: largest number of grid steps :meth:`Trajectory.sample` will produce
MAX_SAMPLES = 10 ** 7
#: most bytes a run's history may hold: 2.1 times the largest measured
#: (``verify`` on canonical I times 1000, 487 MiB), 12 times canonical I's
#: boundary run at 1,000 starts per region; a long t_end or a large payoff
#: scale is refused as well as a large sample count
MAX_HISTORY_BYTES = 1 << 30


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
    nreject: int
    rtol: float
    drift: dict = field(default_factory=dict)

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def naccept(self) -> int:
        """Accepted steps, one per node after t0."""
        return len(self.ts) - 1

    @property
    def xs(self) -> np.ndarray:
        return softmax(self.us)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """:func:`replicator4._rk.dense_coefficients` of every step."""
        return dense_together([self])[0]

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


def dense_together(trajs: Sequence[Trajectory]) -> list:
    """The ``coefficients`` of runs ``trajs``, set on each, from one
    :func:`replicator4._rk.dense_coefficients` call: those of each run's
    own for 4 strategies, whose stage columns sit at multiples of 4; batch
    no 2- or 3-strategy runs, whose BLAS stage sums round by place."""
    counts = [traj.naccept for traj in trajs]
    splits = np.cumsum(counts)[:-1]
    out = np.split(_rk.dense_coefficients(batch_field(np.repeat(
        [t.A for t in trajs], counts, axis=0)), *map(np.concatenate, zip(*(
            (np.diff(t.ts), t.us[:-1], np.diff(t.us, axis=0), t.ks)
            for t in trajs))), splits), splits, axis=1)
    for traj, f in zip(trajs, out):
        traj.__dict__["coefficients"] = f
    return out


def sample_grid(t_end: float, dt: float) -> np.ndarray:
    """Times 0, dt, 2 dt, ..., K dt with K = round(t_end / dt), the last
    clipped to t_end: the grid ends before t_end when t_end / dt rounds
    down (``sample_grid(1.0, 0.3)`` ends at 0.9).  dt is finite, positive
    and gives at most MAX_SAMPLES steps."""
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


def check_order(x0, n: int) -> np.ndarray:
    """x0 as an array; PreconditionFailed unless it is one point in R^n."""
    p = np.asarray(x0, dtype=float)
    if p.ndim != 1:
        raise PreconditionFailed("a simplex point is a 1-d vector")
    if p.size != n:
        raise PreconditionFailed(f"x0 has {p.size} coordinates, "
                                 f"matrix order is {n}")
    return p


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
    traj = integrate_many(M, [x0], t_end, rtol, atol)[0]
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


def _integrate(A, starts, ends, rtol, atol):
    """The checked lockstep run of ``starts`` to ``ends`` (one for all or
    one per row; inf: riding along), as ``until(rows, end)``: it sets the
    end of ``rows`` (indices or a slice) to ``end``, one for all or an
    array with one per row, runs the batch on until they reach it and
    returns the trajectories of ``rows``, in their order.  The starts are
    checked as :func:`integrate_many` states; the first ends as ``t_end``
    is, through their least (NaN if any end is NaN), so each is finite and
    positive, or inf, and one is finite; ``until`` does not check the ends
    it sets.  One row raises :func:`integrate`'s StepSizeUnderflow; a
    batch, its row; a history that would pass :data:`MAX_HISTORY_BYTES`,
    PreconditionFailed."""
    P = [check_simplex_point(check_order(x0, A.shape[-1]),
                             require_interior=True) for x0 in starts]
    if not P:
        raise PreconditionFailed("a run needs at least one start")
    check_stack(A, len(P))
    check_finite("t_end", np.min(ends))
    check_finite("rtol", rtol)
    check_finite("atol", atol, strict=False)
    ends = np.full(len(P), ends, dtype=float)
    u0 = gauge(np.log(P))
    run = _rk.lockstep(batch_field(A), u0, ends, rtol, atol, gauge)
    # (t, u, ok, rejected, stages) of each iteration, the first at t = 0
    # with no stages, in arrays of 64 iterations, or as many as the bound
    # holds, whose capacity doubles when they fill and the bound allows
    B, n = u0.shape

    def too_long(t):
        return PreconditionFailed(
            f"a run of {B} rows, each at t >= {t:.6g}, would keep a "
            f"history past {MAX_HISTORY_BYTES} bytes")
    row_bytes = 10 + 8 * n * (1 + len(_rk.ROWS))  # one row's iteration
    cap = min(64, MAX_HISTORY_BYTES // (B * row_bytes))
    if cap < 1:
        raise too_long(0.0)
    hist = [np.zeros((cap, B)), np.empty((cap, B, n)), np.ones((cap, B), bool),
            np.zeros((cap, B), bool), np.empty((cap, len(_rk.ROWS), B, n))]
    hist[1][0], size = u0, 1
    stack = np.broadcast_to(A, (B, n, n))

    def until(rows, end) -> list[Trajectory]:
        nonlocal hist, size
        rows = np.arange(B)[rows]
        ends[rows] = end
        try:
            while (hist[0][size - 1, rows] < end).any():
                t, u, ok, K = next(run)
                if size == len(hist[0]):
                    if 2 * sum(a.nbytes for a in hist) > MAX_HISTORY_BYTES:
                        raise too_long(t.min())
                    hist = [np.concatenate((a, a)) for a in hist]
                rej = (hist[0][size - 1] < ends) & ~ok
                for a, v in zip(hist, (t, u, ok, rej, K)):
                    a[size] = v
                size += 1
        except StepSizeUnderflow as e:
            if B > 1:
                raise
            raise StepSizeUnderflow(
                f"step size {e.h:.3e} fell below {_rk.MIN_STEP:.1e} at "
                f"t = {e.t:.6g}", t=e.t, h=e.h, state=e.state) from None
        ts, us, oks, rej, ks = (a[:size] for a in hist)
        return [Trajectory(A=stack[b], ts=ts[k, b], us=us[k, b],
                           ks=ks[1:][k[1:], :, b],
                           nreject=int(np.count_nonzero(rej[:, b])), rtol=rtol)
                for b, k in zip(rows, oks[:, rows].T)]
    return until


def integrate_many(M, X0, t_end: float, rtol: float = 1e-10,
                   atol: float = 1e-12) -> list[Trajectory]:
    """One :class:`Trajectory` per interior start (row of X0), without
    monitors, from one :func:`_integrate` run of every start to t_end.

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
    as :func:`_integrate` does: with the ``row`` of the start whose step
    fell below the floor, or for one start, :func:`integrate`'s.
    """
    return _integrate(_as_array(M), X0, t_end, rtol, atol)(
        range(len(X0)), t_end)


def phi_drift(traj: Trajectory, z) -> float:
    """Max deviation of phi_z from its initial value over accepted nodes:
    :func:`entropy_drift` from the run's first node, with no budget."""
    return entropy_drift(traj, traj.xs[0], (("z", z),), np.inf)["z"]
