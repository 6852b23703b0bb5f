"""Permanence screen as a reduction over :func:`replicator4._rk.lockstep`.

The screen needs two numbers per start: the smallest strategy share on
accepted nodes inside an observation window, and the smallest share at
the end.  :func:`window_and_final_min` runs all starts (one matrix or
one each) as one lockstep batch on :func:`replicator4.dynamics.batch_field`,
the run :func:`replicator4.dynamics.integrate` makes of each start alone,
and reduces each iteration to those two minima; nothing else is stored.
"""

from __future__ import annotations

import numpy as np

from . import _rk
from .dynamics import batch_field, gauge


def window_and_final_min(A, X0, t_end, win_lo, rtol, atol):
    """Per start (row of X0): min share over accepted nodes with
    t >= win_lo, and min share at t_end, as two arrays.

    Raises StepSizeUnderflow, with the row, its time, step and log
    state, when a row's step falls below :data:`_rk.MIN_STEP`.
    """
    u = gauge(np.log(np.asarray(X0, dtype=float)))
    wmin = np.ones(len(u))
    for t, u, ok, _ in _rk.lockstep(batch_field(A), u, t_end, rtol, atol,
                                    gauge):
        np.minimum(wmin, np.exp(u.min(axis=-1)), out=wmin,
                   where=ok & (t >= win_lo))
    return wmin, np.exp(u.min(axis=-1))


# perfbench/workloads.py reads this name to tell a compiled loop from
# the Python one; the alias keeps it valid until the benchmark drops it.
_probe_impl = window_and_final_min
