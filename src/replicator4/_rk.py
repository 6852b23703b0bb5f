"""Embedded Dormand-Prince 5(4) stepping machinery.

Generic over the state dimension; knows nothing about the simplex.  The
driver in :mod:`replicator4.dynamics` supplies the vector field in log
coordinates and a projection hook that renormalizes the gauge after
every accepted step, which is why this is hand-rolled rather than a
wrapper: off-the-shelf steppers expose no per-accepted-step projection,
and the drift accounting downstream depends on it.

Characteristics
---------------
* order 5 propagation, order 4 embedded error estimate
* PI step-size controller (safety 0.9, exponents 0.17 / 0.04)
* cubic Hermite dense output on accepted intervals
* the projection hook invalidates the FSAL stage, so the derivative at
  an accepted point is recomputed there (7 evaluations per step)

References
----------
Dormand, Prince: "A family of embedded Runge-Kutta formulae" (1980).
Hairer, Norsett, Wanner: "Solving ODEs I", section II.4 for the
controller.
"""

from __future__ import annotations

import numpy as np

from .errors import StepSizeUnderflow

# Butcher tableau (stage coefficients row by row, then the two weight rows)
C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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

_SAFETY = 0.9
_ALPHA = 0.17
_BETA = 0.04
_FAC_MIN = 0.2
_FAC_MAX = 5.0


class DormandPrince54:
    """Adaptive stepper for u' = fun(u) (autonomous).

    Parameters
    ----------
    fun : callable
        Vector field, ndarray -> ndarray of the same shape.
    t0, u0 : float, array
        Initial time and state.
    rtol, atol : float
        Error weights are ``atol + rtol * max(1, |u_i|)`` and the
        estimate is accepted when its weighted RMS is at most one.
    project : callable, optional
        Applied to the accepted state before it is stored.  Must not
        change ``fun``'s value there (a gauge choice); the derivative is
        recomputed after projection regardless.
    h0 : float, optional
        Initial step; a crude scale-based guess when omitted.
    min_step : float
        Floor below which StepSizeUnderflow is raised.
    """

    def __init__(self, fun, t0, u0, rtol, atol, project=None, h0=None,
                 max_step=np.inf, min_step=1e-13):
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
            scale = max(1e-6, float(np.abs(self.f).max()))
            h0 = min(0.1, 0.01 / scale, self.max_step)
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
        K = self._K
        while True:
            h = min(self.h, self.max_step, t_bound - self.t)
            if h < self.min_step:
                raise StepSizeUnderflow(
                    f"step size {h:.3e} fell below {self.min_step:.1e} "
                    f"at t = {self.t:.6g}")
            K[0] = self.f
            for s in range(1, 7):
                acc = self.u + (h * A[s][0]) * K[0]
                for j in range(1, s):
                    if A[s][j] != 0.0:
                        acc = acc + (h * A[s][j]) * K[j]
                K[s] = self.fun(acc)
            u_new = self.u + h * np.tensordot(B5, K, axes=1)
            err_vec = h * np.tensordot(ERR, K, axes=1)
            w = self.atol + self.rtol * np.maximum(1.0, np.abs(u_new))
            err = float(np.sqrt(np.mean((err_vec / w) ** 2)))
            if err <= 1.0:
                break
            self.nreject += 1
            fac = max(_FAC_MIN, _SAFETY * err ** -_ALPHA)
            self.h = h * min(1.0, fac)
        t_old, u_old, f_old = self.t, self.u, self.f
        self.t = self.t + h
        if self.project is not None:
            u_new = self.project(u_new)
        self.u = u_new
        self.f = self.fun(u_new)
        self.naccept += 1
        if err > 0.0:
            fac = _SAFETY * err ** -_ALPHA * self._err_prev ** _BETA
        else:
            fac = _FAC_MAX
        self.h = h * min(_FAC_MAX, max(_FAC_MIN, fac))
        self._err_prev = max(err, 1e-10)
        return t_old, u_old, f_old, self.t, self.u, self.f


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
