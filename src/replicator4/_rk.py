"""Embedded Dormand-Prince 5(4) stepping machinery.

Generic over the state dimension; knows nothing about the simplex.  The
drivers supply the vector field in log coordinates and renormalize the
gauge after every accepted step, which is why this is hand-rolled rather
than a wrapper: off-the-shelf steppers expose no per-accepted-step
projection, and the drift accounting downstream depends on it.

The tableau, the trial step (:func:`attempt`) and the step-size
controller (:func:`control`) exist once.  They work on states of shape
(..., n) with a float step or one step per leading index.
:class:`DormandPrince54` drives one run with a float step for
:func:`replicator4.dynamics.integrate`.  :func:`lockstep`, the one batch
loop, advances a (B, n) batch of independent runs, each row with its
own time, step and accept decision, for the permanence screen
(:func:`replicator4._fastprobe.window_and_final_min`) and the stability
probes (:func:`replicator4.dynamics.integrate_many`).

Characteristics
---------------
* order 5 propagation, order 4 embedded error estimate
* PI step-size controller (safety 0.9, exponents 0.17 / 0.04, factor
  clipped to [0.2, 5]); a NaN error estimate rejects the step and
  shrinks it by the factor 0.2
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


def initial_step(f, max_step=np.inf):
    """Crude scale-based first step from the derivative(s) f, (..., n)."""
    scale = np.maximum(1e-6, np.abs(f).max(axis=-1))
    return np.minimum(np.minimum(0.1, 0.01 / scale), max_step)


def attempt(fun, u, f, h, rtol, atol, K):
    """One trial step of size h from state u with derivative f = fun(u).

    ``u`` and ``f`` have shape (..., n) and ``h`` is a float or holds
    one step per leading index; ``K`` is scratch of shape (7,) + u.shape
    and ends up holding the stages, ``K[6]`` being ``fun(u_new)``.
    Returns the order-5 state and the error estimate's RMS over the last
    axis, weighted by ``atol + rtol * max(1, |u_new|)``; the step is
    acceptable where that is at most one.
    """
    hb = h if isinstance(h, float) else h[..., None]
    K[0] = f
    Kf = K.reshape(7, -1)
    for s in range(1, 7):
        u_new = u + hb * np.dot(_A_ROWS[s], Kf[:s]).reshape(u.shape)
        K[s] = fun(u_new)
    err_vec = hb * np.dot(_ERR_ROW, Kf).reshape(u.shape)
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
    # after a rejection.  The powers are plain operators so that float
    # inputs get the C library's pow: numpy's array pow can differ from
    # it in the last bit, which would move every single-run result.
    fac = _SAFETY * (err + 1e-300) ** -_ALPHA * err_prev ** (_BETA * accept)
    # NaN guard: fmax ignores NaN, so a NaN estimate gets _FAC_MIN
    fac = np.minimum(np.fmax(fac, _FAC_MIN), _FAC_MAX)
    return accept, h * fac, np.where(accept, np.fmax(err, 1e-10), err_prev)


class DormandPrince54:
    """Adaptive stepper for u' = fun(u) (autonomous), one run.

    Parameters
    ----------
    fun : callable
        Vector field, ndarray -> ndarray of the same shape.
    t0, u0 : float, array
        Initial time and state.
    rtol, atol : float
        Error weights, see :func:`attempt`.
    project : callable, optional
        Applied to the accepted state before it is stored.  Must not
        change ``fun``'s value there (a gauge choice): the last stage,
        evaluated before projection, is kept as the new derivative.
    h0 : float, optional
        Initial step; :func:`initial_step` when omitted.
    min_step : float
        Floor below which StepSizeUnderflow is raised.
    """

    def __init__(self, fun, t0, u0, rtol, atol, project=None, h0=None,
                 max_step=np.inf, min_step=MIN_STEP):
        self.fun = fun
        self.t = float(t0)
        self.u = np.asarray(u0, dtype=float).copy()
        self.f = fun(self.u)
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.project = project
        self.max_step = float(max_step)
        self.min_step = float(min_step)
        if h0 is None:
            h0 = initial_step(self.f, self.max_step)
        self.h = float(h0)
        self.naccept = 0
        self.nreject = 0
        self._err_prev = 1e-4
        self._K = np.zeros((7,) + self.u.shape)

    def step(self, t_bound):
        """Advance by one accepted step, not passing t_bound.

        Returns ``(t_old, u_old, f_old, t_new, u_new, f_new)``; the
        six-tuple is everything cubic Hermite dense output needs.
        """
        if self.t >= t_bound:
            raise ValueError("step called at or beyond t_bound")
        while True:
            h = min(self.h, self.max_step, t_bound - self.t)
            if h < self.min_step:
                raise StepSizeUnderflow(
                    f"step size {h:.3e} fell below {self.min_step:.1e} "
                    f"at t = {self.t:.6g}", t=self.t, h=h,
                    state=self.u.copy())
            u_new, err = attempt(self.fun, self.u, self.f, h, self.rtol,
                                 self.atol, self._K)
            accept, h_next, err_prev = control(h, float(err),
                                               self._err_prev)
            self.h = float(h_next)
            if accept:
                break
            self.nreject += 1
        self._err_prev = float(err_prev)
        t_old, u_old, f_old = self.t, self.u, self.f
        self.t = self.t + h
        if self.project is not None:
            u_new = self.project(u_new)
        self.u = u_new
        self.f = self._K[6].copy()
        self.naccept += 1
        return t_old, u_old, f_old, self.t, self.u, self.f


def lockstep(fun, u0, t_end, rtol, atol, project):
    """Advance a (B, n) batch of runs of u' = fun(u) from t = 0 to t_end.

    Rows keep their own time, step, PI memory and accept decision; a row
    at t_end takes zero steps, and a row is projected, and takes the last
    stage as its derivative, only after a step it accepts.  Yields
    ``(t, u, f, ok)`` per iteration, ``ok`` marking the rows that
    accepted.  A live step below :data:`MIN_STEP` raises
    StepSizeUnderflow with the row, its time, step and state.
    """
    u = u0
    f = fun(u)
    t = np.zeros(len(u))
    h = initial_step(f)
    err_prev = np.full(len(u), 1e-4)
    K = np.empty((7,) + u.shape)
    while True:
        rest = t_end - t
        live = rest > 0
        if not live.any():
            return
        step = np.minimum(h, rest)
        low = live & (step < MIN_STEP)
        if low.any():
            i = int(np.argmax(low))
            raise StepSizeUnderflow(
                f"batch row {i}: step size {step[i]:.3e} fell below "
                f"{MIN_STEP:.1e} at t = {t[i]:.6g}",
                t=float(t[i]), h=float(step[i]), state=u[i].copy(), row=i)
        u_new, err = attempt(fun, u, f, step, rtol, atol, K)
        ok, h, err_prev = control(step, err, err_prev)
        ok &= live
        t = np.where(ok, np.where(step < rest, t + step, t_end), t)
        u = np.where(ok[:, None], project(u_new), u)
        f = np.where(ok[:, None], K[6], f)
        yield t, u, f, ok


def hermite(t, t0, t1, u0, u1, f0, f1):
    """Cubic Hermite interpolant on accepted steps.

    ``t``, ``t0`` and ``t1`` broadcast together, so each point may sit on
    its own interval; states carry one more trailing axis.  Interpolation
    error is O(h^4), far below the closure tolerances used at the working
    rtol, so refining section crossings on the interpolant is safe.
    """
    h = np.asarray(t1 - t0, dtype=float)[..., None]
    s = (np.asarray(t, dtype=float) - t0)[..., None] / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * u0 + (h * h10) * f0 + h01 * u1 + (h * h11) * f1
