"""Lockstep driver for the permanence screen.

The screen integrates several starts of one matrix to t = 200 and only
needs two numbers per start: the smallest strategy share seen on
accepted nodes inside an observation window, and the smallest share at
the end.  :func:`window_and_final_min` advances all starts together as
one (B, n) batch in log coordinates, on the Dormand-Prince trial step
and step-size controller of :mod:`replicator4._rk` and the log-gauge
projection of :func:`replicator4.dynamics.integrate`.  Every row keeps
its own time, step size and accept decision: each iteration updates all
rows with ``np.where`` selects, rows that have reached t_end take zero
steps, and each row is projected only after a step it accepts.  No
dense output or trajectory is stored.
"""

from __future__ import annotations

import numpy as np

from . import _rk
from .dynamics import gauge, softmax
from .errors import StepSizeUnderflow


def window_and_final_min(A, X0, t_end, win_lo, rtol, atol):
    """Per start (row of X0): min share over accepted nodes with
    t >= win_lo, and min share at t_end, as two arrays.

    Raises StepSizeUnderflow, with the row, its time, step and log
    state, when a row's step falls below :data:`_rk.MIN_STEP`.
    """
    A = np.asarray(A, dtype=float)

    def fun(u):
        # A x row by row without BLAS, whose rounding depends on the
        # batch size: each start's result does not depend on the others
        return (softmax(u)[:, None, :] * A).sum(axis=-1)

    u = gauge(np.log(np.asarray(X0, dtype=float)))
    f = fun(u)
    t = np.zeros(len(u))
    h = _rk.initial_step(f)
    err_prev = np.full(len(u), 1e-4)
    wmin = np.ones(len(u))
    K = np.empty((7,) + u.shape)
    while True:
        rest = t_end - t
        live = rest > 0
        if not live.any():
            break
        step = np.minimum(h, rest)
        low = live & (step < _rk.MIN_STEP)
        if low.any():
            i = int(np.argmax(low))
            raise StepSizeUnderflow(
                f"permanence probe start {i}: step size {step[i]:.3e} fell "
                f"below {_rk.MIN_STEP:.1e} at t = {t[i]:.6g}",
                t=float(t[i]), h=float(step[i]), state=u[i].copy(), row=i)
        u_new, err = _rk.attempt(fun, u, f, step, rtol, atol, K)
        ok, h, err_prev = _rk.control(step, err, err_prev)
        ok &= live
        t = np.where(ok, np.where(step < rest, t + step, t_end), t)
        u = np.where(ok[:, None], gauge(u_new), u)
        f = fun(u)
        wmin = np.where(ok & (t >= win_lo),
                        np.minimum(wmin, np.exp(u.min(axis=-1))), wmin)
    return wmin, np.exp(u.min(axis=-1))


# perfbench/workloads.py reads this name to tell a compiled loop from
# the Python one; the alias keeps it valid until the benchmark drops it.
_probe_impl = window_and_final_min
