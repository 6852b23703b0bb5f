"""Embedded Dormand-Prince 5(4) stepping machinery.

Generic over the state dimension; knows nothing about the simplex.  The
drivers supply the vector field in log coordinates and renormalize the
gauge after every accepted step, which is why this is hand-rolled rather
than a wrapper: off-the-shelf steppers expose no per-accepted-step
projection, and the drift accounting downstream depends on it.

The tableau, the trial step (:func:`attempt`), the step-size
controller (:func:`control`) and the driver (:func:`lockstep`) exist
once.  :func:`lockstep` advances a (B, n) batch of independent runs,
each row with its own time, step, accept decision and end.  Its
consumers, all on the field :func:`replicator4.dynamics.batch_field`:
:func:`replicator4.dynamics.integrate_many` (one trajectory per row), the
orbit run of :func:`replicator4.orbit.certify_orbit` (a start and its
probes, whose ends are set once the period is known) and the permanence
screen (:func:`replicator4._fastprobe.window_and_final_min`).

That field and the projection take exp of the log state without a
max shift (28 array passes per iteration instead of 49; see
:mod:`replicator4.dynamics`), so a grossly oversized trial can
overflow; :func:`control` rejects its NaN error estimate, and
:func:`lockstep` keeps numpy's overflow and invalid-value warnings off
around the trial step and projection.

Characteristics
---------------
* order 5 propagation, order 4 embedded error estimate
* PI step-size controller (safety 0.9, exponents 0.17 / 0.04, factor
  clipped to [0.2, 5]); a NaN error estimate, from a trial whose exp
  overflowed, rejects the step and shrinks it by the factor 0.2
* cubic Hermite dense output on accepted intervals
* first same as last: the seventh stage is the field at the new state,
  and the projection hook is a gauge shift the field ignores, so it
  serves as the derivative at the accepted point (6 evaluations per
  trial step, plus one at the start)

References
----------
Dormand, Prince: "A family of embedded Runge-Kutta formulae" (1980).
Hairer, Norsett, Wanner: "Solving ODEs I", sections II.4 and II.5 for
the controller and the FSAL stage.
"""

from __future__ import annotations

import numpy as np

from .errors import StepSizeUnderflow

# Butcher tableau (stage coefficients row by row, then the two weight
# rows); the field is autonomous, so the nodes are not needed.  The last
# stage row is B5, so the seventh stage state is the order-5 solution.
A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
               11 / 84, 0.0])
B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
               -92097 / 339200, 187 / 2100, 1 / 40])
ERR = B5 - B4
# stage and error rows as (1, s) matrices: each weighted stage sum is one
# matrix product with the stages flattened to (s, size)
_A_ROWS = tuple(np.array(row).reshape(1, -1) for row in A)
_ERR_ROW = ERR.reshape(1, 7)

_SAFETY = 0.9
_ALPHA = 0.17
_BETA = 0.04
_FAC_MIN = 0.2
_FAC_MAX = 5.0
MIN_STEP = 1e-13


def attempt(fun, u, f, h, rtol, atol, K):
    """One trial step of size h from state u with derivative f = fun(u).

    ``u`` and ``f`` have shape (..., n) and ``h`` shape (..., 1), one
    step per leading index; ``K`` is scratch of shape (7,) + u.shape
    and ends up holding the stages, ``K[6]`` being ``fun(u_new)``.
    Returns the order-5 state and the error estimate's RMS over the last
    axis, weighted by ``atol + rtol * max(1, |u_new|)``; the step is
    acceptable where that is at most one.
    """
    K[0] = f
    Kf = K.reshape(7, -1)
    for s in range(1, 7):
        u_new = u + h * np.dot(_A_ROWS[s], Kf[:s]).reshape(u.shape)
        K[s] = fun(u_new)
    err_vec = h * np.dot(_ERR_ROW, Kf).reshape(u.shape)
    w = atol + rtol * np.maximum(1.0, np.abs(u_new))
    return u_new, np.sqrt(((err_vec / w) ** 2).sum(axis=-1) / u.shape[-1])


def control(h, err, err_prev):
    """Accept decision and next step size after trial steps of size h.

    Elementwise over ``h``, ``err`` and ``err_prev`` (floats or arrays
    of one shape).  A step is accepted when ``err <= 1``.  The next step
    is h times ``0.9 err^-0.17 err_prev^0.04`` after an accepted step
    and ``0.9 err^-0.17`` after a rejected one, clipped to [0.2, 5] (a
    rejected step has err > 1, so its factor stays below 0.9).  A NaN
    error estimate rejects the step and shrinks it by the factor 0.2.

    Returns ``(accept, h_next, err_prev_next)``, where the error carried
    to the next PI factor is the accepted one, floored at 1e-10.
    """
    accept = err <= 1.0
    # The 1e-300 keeps err = 0 finite (any err below 1e-284 gets the
    # largest factor either way); err_prev ** 0 = 1 drops the PI term
    # after a rejection.
    fac = _SAFETY * (err + 1e-300) ** -_ALPHA * err_prev ** (_BETA * accept)
    # NaN guard: fmax ignores NaN, so a NaN estimate gets _FAC_MIN
    fac = np.minimum(np.fmax(fac, _FAC_MIN), _FAC_MAX)
    return accept, h * fac, np.where(accept, np.fmax(err, 1e-10), err_prev)


def lockstep(fun, u0, t_end, rtol, atol, project):
    """Advance a (B, n) batch of runs of u' = fun(u) from t = 0 to t_end.

    ``t_end`` is a scalar or a (B,) array read on every iteration, which
    a consumer may change between iterations (inf: no end yet).  Rows
    keep their own time, step, PI memory and accept decision; a row at
    or past its end takes no step, and keeps its step and PI memory for
    a raised end.  A row is projected, and takes the last stage as its
    derivative, only after a step it accepts.  A step that would leave
    less than :data:`MIN_STEP` to go takes the whole rest, so every row
    ends at exactly its end.  Yields ``(t, u, f, ok)`` per iteration,
    ``ok`` marking the rows that accepted.  A live step below
    :data:`MIN_STEP` raises StepSizeUnderflow with the row, its time,
    step and state.
    """
    u = u0
    f = fun(u)
    t = np.zeros(len(u))
    # crude scale-based first step
    h = np.minimum(0.1, 0.01 / np.maximum(1e-6, np.abs(f).max(axis=-1)))
    err_prev = np.full(len(u), 1e-4)
    K = np.empty((7,) + u.shape)
    per_row = np.ndim(t_end) > 0
    while True:
        rest = t_end - t
        live = rest > 0
        if not live.any():
            return
        # the whole rest where h would leave less than MIN_STEP; control
        # shrinks a rejected step below _SAFETY times it, so no rest is
        # retried after a rejection: the run ends or underflows
        whole = h > np.maximum(rest - MIN_STEP, _SAFETY * rest)
        step = np.where(whole, rest, h)
        low = live & (step < MIN_STEP)
        if low.any():
            i = int(np.argmax(low))
            raise StepSizeUnderflow(
                f"batch row {i}: step size {step[i]:.3e} fell below "
                f"{MIN_STEP:.1e} at t = {t[i]:.6g}",
                t=float(t[i]), h=float(step[i]), state=u[i].copy(), row=i)
        # an oversized trial can overflow exp in the shift-free field;
        # its error estimate is then NaN, and control rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            u_new, err = attempt(fun, u, f, step[:, None], rtol, atol, K)
            u_new = project(u_new)
        ok, h_next, err_next = control(step, err, err_prev)
        if per_row:  # a scalar end never moves: no idle row to keep
            h_next = np.where(live, h_next, h)
            err_next = np.where(live, err_next, err_prev)
        h, err_prev = h_next, err_next
        ok &= live
        t = np.where(ok, np.where(whole, t_end, t + step), t)
        u = np.where(ok[:, None], u_new, u)
        f = np.where(ok[:, None], K[6], f)
        yield t, u, f, ok


def hermite(t, t0, t1, u0, u1, f0, f1):
    """Cubic Hermite interpolant on accepted steps.

    ``t``, ``t0`` and ``t1`` broadcast together, so each point may sit on
    its own interval; states carry one more trailing axis.  Interpolation
    error is O(h^4), far below the closure tolerances used at the working
    rtol, so refining section crossings on the interpolant is safe.  Two
    consumers: :meth:`replicator4.dynamics.Trajectory.dense`, every
    sample of a trajectory, and the batched section bisection of
    :func:`replicator4.orbit.first_closure`.
    """
    h = np.asarray(t1 - t0, dtype=float)[..., None]
    s = (np.asarray(t, dtype=float) - t0)[..., None] / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * u0 + (h * h10) * f0 + h01 * u1 + (h * h11) * f1
