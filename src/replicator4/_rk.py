"""Embedded explicit Runge-Kutta stepping with DOP853.

Generic over the state dimension; knows nothing about the simplex.  The
drivers supply the vector field in log coordinates and renormalize the
gauge after every accepted step, which is why this is hand-rolled rather
than a wrapper: off-the-shelf steppers expose no per-accepted-step
projection, and the drift accounting downstream depends on it.

One pair, Dormand-Prince 8(5,3) (DOP853) as module constants, one trial
step (:func:`attempt`), one controller (:func:`control`) and one driver,
:func:`lockstep`, which advances a (B, n) batch of independent runs,
each row with its own time, step, accept decision and end.  Its two
consumers, both on :func:`replicator4.dynamics.batch_field`:
:func:`replicator4.dynamics._integrate`, the one run that makes a
:class:`replicator4.dynamics.Trajectory`, and the permanence screen
(:func:`replicator4._fastprobe.window_and_final_min`).
The field takes exp without a max shift (see :mod:`replicator4.dynamics`),
so a grossly oversized trial can overflow: :func:`control` rejects its
NaN error estimate, and :func:`lockstep` keeps numpy's warnings off
around it.

Characteristics
---------------
* order 8, error estimate from the order-5 and order-3 embedded formulae
  combined as in Hairer's code, 12 evaluations per trial step
* no allocation in the stage loop: the field fills each stage in place,
  and a run holds its stages, their views and a state buffer (:func:`_views`)
* PI controller: factor 0.9 err^-0.117 err_prev^0.04 clipped to
  [0.333, 6]
* order-7 continuous extension, 3 more evaluations per accepted step,
  paid after the run by a run that is interpolated
  (:func:`dense_coefficients`, :func:`interpolate`)
* first same as last: the last stage is the field at the new state,
  and the projection hook is a gauge shift the field ignores, so it
  serves as the derivative at the accepted point (plus one evaluation
  at the start)

References
----------
Prince, Dormand: "High order embedded Runge-Kutta formulae", J. Comput.
Appl. Math. 7 (1981).
Hairer, Norsett, Wanner: "Solving ODEs I", sections II.4 and II.5 for
the controller, the FSAL stage and DOP853, II.6 for dense output.
"""

from __future__ import annotations

import numpy as np

from .errors import StepSizeUnderflow

MIN_STEP = 1e-13

#: the controller's factor, SAFETY err^-ALPHA err_prev^BETA, clipped to
#: [FAC_MIN, FAC_MAX]
SAFETY, ALPHA, BETA, FAC_MIN, FAC_MAX = 0.9, 0.117, 0.04, 0.333, 6.0


def _rows(A) -> tuple:
    return tuple(np.array(row, dtype=float).reshape(1, -1) for row in A)


def _norm(e):
    """Hairer's |e5|^2 / sqrt(n (|e5|^2 + 0.01 |e3|^2)), 0 for e = 0:
    one estimate per step from the (2, ..., n) weighted error vectors."""
    e5, e3 = np.add.reduce(np.square(e), -1)
    return e5 / np.sqrt(e.shape[-1] * (e5 + 0.01 * e3) + 1e-300)


# DOP853 as printed in Hairer's dop853.f.  ROWS[s], stage s's row as a
# (1, s) matrix, so that each stage sum is one matrix product with the
# stages flattened to (s, size): stage rows 2-12, then the order-8
# weights, which give the new state, whose field is the last stage.
# ERR, the order-5 error row and the order-3 weights subtracted from the
# order-8 ones.  EXTRA and DENSE, the continuous extension's stage rows
# 14-16 and its four coefficient rows.
_B8 = (5.42937341165687622380535766363e-2, 0, 0, 0, 0,
       4.45031289275240888144113950566, 1.89151789931450038304281599044,
       -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
       -1.52160949662516078556178806805e-1,
       2.01365400804030348374776537501e-1,
       4.47106157277725905176885569043e-2)
ROWS = _rows(((), (5.26001519587677318785587544488e-2,), (
        1.97250569845378994544595329183e-2,
        5.91751709536136983633785987549e-2), (
        2.95875854768068491816892993775e-2, 0,
        8.87627564304205475450678981324e-2), (
        2.41365134159266685502369798665e-1, 0,
        -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1), (
        3.7037037037037037037037037037e-2, 0, 0,
        1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1), (
        3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2, -1.7578125e-2), (
        3.70920001185047927108779319836e-2, 0, 0,
        1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1,
        -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3), (
        6.24110958716075717114429577812e-1, 0, 0,
        -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1,
        2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1,
        -4.34898841810699588477366255144e1), (
        4.77662536438264365890433908527e-1, 0, 0,
        -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1,
        2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1,
        -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2), (
        -9.3714243008598732571704021658e-1, 0, 0,
        5.18637242884406370830023853209, 1.09143734899672957818500254654,
        -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
        -3.0467644718982195003823669022), (
        2.27331014751653820792359768449, 0, 0,
        -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444,
        -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674,
        -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1), _B8))
ERR = np.array([[
        0.1312004499419488073250102996e-1, 0, 0, 0, 0,
        -0.1225156446376204440720569753e+1,
        -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
        -0.3503288487499736816886487290, 0.3341791187130174790297318841,
        0.8192320648511571246570742613e-1,
        -0.2235530786388629525884427845e-1, 0], _B8 + (0,)]) - np.array([
        [0] * 13, [0.244094488188976377952755905512, 0, 0, 0, 0, 0, 0, 0,
                   0.733846688281611857341361741547, 0, 0,
                   0.220588235294117647058823529412e-1, 0]])
EXTRA = _rows(((
        5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0,
        2.53500210216624811088794765333e-1,
        -2.46239037470802489917441475441e-1,
        -1.24191423263816360469010140626e-1,
        1.5329179827876569731206322685e-1,
        8.20105229563468988491666602057e-3,
        7.56789766054569976138603589584e-3, -8.298e-3), (
        3.18346481635021405060768473261e-2, 0, 0, 0, 0,
        2.83009096723667755288322961402e-2,
        5.35419883074385676223797384372e-2,
        -5.49237485713909884646569340306e-2, 0, 0,
        -1.08347328697249322858509316994e-4,
        3.82571090835658412954920192323e-4,
        -3.40465008687404560802977114492e-4,
        1.41312443674632500278074618366e-1), (
        -4.28896301583791923408573538692e-1, 0, 0, 0, 0,
        -4.69762141536116384314449447206, 7.68342119606259904184240953878,
        4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
        0, 0, 0, -1.39902416515901462129418009734e-3,
        2.9475147891527723389556272149, -9.15095847217987001081870187138)))
DENSE = np.array([[
        -0.84289382761090128651353491142e+1, 0, 0, 0, 0,
        0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
        0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
        -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
        0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
        0.18148505520854727256656404962e+2,
        -0.91946323924783554000451984436e+1,
        -0.44360363875948939664310572000e+1], [
        0.10427508642579134603413151009e+2, 0, 0, 0, 0,
        0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
        -0.37454675472269020279518312152e+3,
        -0.22113666853125306036270938578e+2,
        0.77334326684722638389603898808e+1,
        -0.30674084731089398182061213626e+2,
        -0.93321305264302278729567221706e+1,
        0.15697238121770843886131091075e+2,
        -0.31139403219565177677282850411e+2,
        -0.93529243588444783865713862664e+1,
        0.35816841486394083752465898540e+2], [
        0.19985053242002433820987653617e+2, 0, 0, 0, 0,
        -0.38703730874935176555105901742e+3,
        -0.18917813819516756882830838328e+3,
        0.52780815920542364900561016686e+3,
        -0.11573902539959630126141871134e+2,
        0.68812326946963000169666922661e+1,
        -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
        -0.27782057523535084065932004339e+1,
        -0.60196695231264120758267380846e+2,
        0.84320405506677161018159903784e+2,
        0.11992291136182789328035130030e+2], [
        -0.25693933462703749003312586129e+2, 0, 0, 0, 0,
        -0.15418974869023643374053993627e+3,
        -0.23152937917604549567536039109e+3,
        0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
        -0.37458323136451633156875139351e+2,
        0.10409964950896230045147246184e+3,
        0.29840293426660503123344363579e+2,
        -0.43533456590011143754432175058e+2,
        0.96324553959188282948394950600e+2,
        -0.39177261675615439165231486172e+2,
        -0.14972683625798562581422125276e+3]])
_ALL_ROWS = ROWS + EXTRA


def _views(K):
    """A run's scratch on stages K: the flat heads K[:s] and the views
    K[s], and one stage state buffer with its flat (1, size) view."""
    Kf, v = K.reshape(len(K), -1), np.empty(K.shape[1:])
    return [Kf[:s] for s in range(len(K))], list(K), v, v.reshape(1, -1)


def _stages(fun, u, h, K, first, views=None):
    """K[s] = fun(u + h ROWS[s] K[:s]), written by ``fun(v, K[s])``, for s
    from ``first`` to the end of K, going on with EXTRA past ROWS, each
    state summed in place, in the same order, in the buffer of ``views``
    (:func:`_views` of K, built here if not given), which it returns
    holding the last state."""
    heads, stages, v, flat = views or _views(K)
    h = np.repeat(h, v.shape[-1], axis=-1)  # the same products, unbroadcast
    for s in range(first, len(K)):
        np.dot(_ALL_ROWS[s], heads[s], out=flat)
        np.multiply(h, v, out=v)
        np.add(u, v, out=v)
        fun(v, stages[s])
    return v


def attempt(fun, u, f, h, rtol, atol, K, views=None):
    """One trial step of size h from state u with derivative f = fun(u).

    ``u`` and ``f`` have shape (..., n) and ``h`` shape (..., 1), one
    step per leading index; ``K``, scratch of shape (len(ROWS),) +
    u.shape, ends up holding the stages, ``K[-1]`` being ``fun(u_new)``.
    Returns the new state, in the buffer of K's ``views`` (as
    :func:`_stages`), and the norm of the error vectors weighted by
    ``atol + rtol * max(1, |u_new|)``; the step is acceptable where that
    is at most one.
    """
    K[0] = f
    u_new = _stages(fun, u, h, K, 1, views)
    err = h * np.dot(ERR, K.reshape(len(K), -1)).reshape((-1,) + u.shape)
    w = atol + rtol * np.maximum(1.0, np.abs(u_new))
    return u_new, _norm(err / w)


def control(h, err, err_prev):
    """Accept decision and next step size after trial steps of size h.

    Elementwise over ``h``, ``err`` and ``err_prev`` (floats or arrays
    of one shape).  A step is accepted when ``err <= 1``.  The next step
    is h times ``SAFETY err^-ALPHA err_prev^BETA`` after an accepted step
    and ``SAFETY err^-ALPHA`` after a rejected one, clipped to
    [FAC_MIN, FAC_MAX] (a rejected step has err > 1, so its factor stays
    below SAFETY).  A NaN error estimate rejects the step and shrinks it
    by FAC_MIN.

    Returns ``(accept, h_next, err_prev_next)``, where the error carried
    to the next PI factor is the accepted one, floored at 1e-10.
    """
    accept = err <= 1.0
    # The 1e-300 keeps err = 0 finite (any err below 1e-284 gets the
    # largest factor either way); err_prev ** 0 = 1 drops the PI term
    # after a rejection.
    fac = SAFETY * (err + 1e-300) ** -ALPHA * err_prev ** (BETA * accept)
    # NaN guard: fmax ignores NaN, so a NaN estimate gets FAC_MIN
    fac = np.minimum(np.fmax(fac, FAC_MIN), FAC_MAX)
    return accept, h * fac, np.where(accept, np.fmax(err, 1e-10), err_prev)


def lockstep(fun, u0, t_end, rtol, atol, project):
    """Advance a (B, n) batch of runs of u' = fun(u) from t = 0 to t_end,
    ``fun(u, out)`` writing the field into ``out``.

    ``t_end`` is a scalar or a (B,) array read on every iteration, which
    a consumer may change between iterations (inf: no end yet); one end
    rule serves both, so an array of one value takes a scalar's steps.
    Rows keep their own time, step, PI memory and accept decision; a row
    at or past its end takes no step, and keeps its step and PI memory
    for a raised end.  A row is projected, and takes the last stage as its
    derivative, only after a step it accepts (``project`` returns a new
    array: the trial's buffer is reused), and when every row accepts a
    step short of its end, takes the trial as it is, without selects.  A
    step that would leave less than :data:`MIN_STEP` to go takes the
    whole rest, so every row ends at exactly its end.  Yields ``(t, u,
    ok, K)`` per iteration, ``ok`` marking the rows that accepted and
    ``K`` the trial's stages, scratch (viewed once per call, :func:`_views`)
    overwritten by the next iteration.  A live step not at least
    :data:`MIN_STEP` (NaN too) raises StepSizeUnderflow with the row,
    its time, step and state.
    """
    u = u0
    f = fun(u)
    t = np.zeros(len(u))
    # crude scale-based first step
    h = np.minimum(0.1, 0.01 / np.maximum(1e-6, np.abs(f).max(axis=-1)))
    err_prev = np.full(len(u), 1e-4)
    K = np.empty((len(ROWS),) + u.shape)
    V = _views(K)
    while True:
        rest = t_end - t
        live = rest > 0
        nlive = np.count_nonzero(live)
        if not nlive:
            return
        # the whole rest where h would leave less than MIN_STEP; control
        # shrinks a rejected step below SAFETY times it, so no rest is
        # retried after a rejection: the run ends or underflows
        whole = h > np.maximum(rest - MIN_STEP, SAFETY * rest)
        step = np.where(whole, rest, h)
        low = live & ~(step >= MIN_STEP)  # a NaN step too
        if low.any():
            i = int(np.argmax(low))
            raise StepSizeUnderflow(
                f"batch row {i}: step size {step[i]:.3e} fell below "
                f"{MIN_STEP:.1e} at t = {t[i]:.6g}",
                t=float(t[i]), h=float(step[i]), state=u[i].copy(), row=i)
        # an oversized trial can overflow exp in the shift-free field;
        # its error estimate is then NaN, and control rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            u_new, err = attempt(fun, u, f, step[:, None], rtol, atol, K, V)
            u_new = project(u_new)
        ok, h_next, err_next = control(step, err, err_prev)
        if nlive < len(t):  # an idle row keeps its step and PI memory
            h_next = np.where(live, h_next, h)
            err_next = np.where(live, err_next, err_prev)
        h, err_prev = h_next, err_next
        ok &= live
        if ok.all() and not whole.any():  # the values the selects take
            t, u, f = t + step, u_new, K[-1].copy()
        else:
            t = np.where(ok, np.where(whole, t_end, t + step), t)
            u = np.where(ok[:, None], u_new, u)
            f = np.where(ok[:, None], K[-1], f)
        yield t, u, ok, K


def dense_coefficients(fun, h, u, du, ks, splits):
    """The continuous extension on m steps of runs laid end to end, the
    later runs from the step indices ``splits``: each step's size h, (m,),
    start state u and change du, (m, n), and stages ks, (m, len(ROWS), n).

    The EXTRA stages are evaluated for all steps at once, DENSE run by run
    (BLAS rounds a product's last columns by its width).  Returns the
    (7, m, n) coefficients of :func:`interpolate`: the state change, the
    two Hermite terms from the end derivatives, and h DENSE applied to
    all stages (Hairer, Norsett, Wanner, section II.6).
    """
    s, h = len(ROWS), h[:, None]
    K = np.empty((len(_ALL_ROWS),) + u.shape)
    K[:s] = ks.transpose(1, 0, 2)
    _stages(fun, u, h, K, s)
    F = np.empty((7,) + u.shape)
    F[0] = du
    F[1] = h * K[0] - du
    F[2] = 2.0 * du - h * (K[s - 1] + K[0])
    for k, f in zip(*(np.split(a, splits, axis=1) for a in (K, F[3:]))):
        f[...] = np.dot(DENSE, k.reshape(len(K), -1)).reshape(f.shape)
    F[3:] *= h
    return F


def interpolate(t, t0, t1, u0, *F):
    """The continuous extension at ``t`` on steps from (t0, u0) to t1
    with the seven coefficients F (:func:`dense_coefficients`).

    ``t``, ``t0`` and ``t1`` broadcast together, so each point may sit
    on its own step; ``u0`` and each of F carry one more trailing axis.
    The one dense evaluator: :meth:`replicator4.dynamics.Trajectory.dense`
    and the bisection of :func:`replicator4.orbit.first_closure`.
    """
    x = ((np.asarray(t, dtype=float) - t0) / (t1 - t0))[..., None]
    x1 = 1.0 - x
    y = F[6] * x
    for j in range(5, -1, -1):
        y += F[j]
        y *= x if j % 2 == 0 else x1
    return u0 + y
