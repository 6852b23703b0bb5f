"""Vector field, conserved quantities, and the log-coordinate integrator.

The integrator is cross-checked against a plain fixed-step RK4 in share
coordinates (tests/oracles.py) on a short horizon, and against itself
under time reversal on a longer one.
"""

import itertools
import math

import numpy as np
import pytest

from replicator4 import (DriftBudgetExceeded, PayoffMatrix,
                         PreconditionFailed, StepSizeUnderflow,
                         canonical_matrix, integrate, kernel_line_section,
                         phi, phi_drift, vector_field)
from replicator4 import _rk
from replicator4 import dynamics
from replicator4.dynamics import (batch_field, check_simplex_point, gauge,
                                  integrate_many, softmax)
from oracles import rk4_shares

X0 = np.array([0.4, 0.3, 0.2, 0.1])
STARTS = np.array([X0, [0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25],
                   [0.7, 0.1, 0.1, 0.1]])


def test_vector_field_frozen_value(MV):
    f = vector_field(MV, [0.4, 0.1, 0.3, 0.2])
    assert np.allclose(f, [0.04, -0.01, -0.09, 0.06], atol=1e-15)


def test_vector_field_vanishes_at_equilibria(MIV):
    z = np.array([0.5, 1 / 6, 1 / 6, 1 / 6])
    assert np.abs(vector_field(MIV, z)).max() <= 1e-16
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        assert np.abs(vector_field(MIV, e)).max() == 0.0


def test_vector_field_mass_conservation(rng):
    # skewness keeps the field tangent to the simplex
    for name in ("I", "II", "III", "IV", "V"):
        A = canonical_matrix(name).array
        xs = rng.dirichlet(np.ones(4), size=10_000)
        f = xs * (xs @ A.T)
        assert np.abs(f.sum(axis=1)).max() <= 1e-14


def test_phi_minimum_and_frozen_value():
    z = np.full(4, 0.25)
    assert phi(z, z) == 0.0
    x = np.array([0.5, 1 / 6, 1 / 6, 1 / 6])
    expected = -(0.25 * np.log(2.0) + 0.75 * np.log(2.0 / 3.0))
    assert phi(x, z) == pytest.approx(expected, abs=1e-15)
    assert f"{phi(x, z):.6f}" == "0.130812"
    xs = np.array([z, x, [0.1, 0.2, 0.3, 0.4]])
    assert np.array_equal(phi(xs, z), [phi(row, z) for row in xs])


def test_phi_monotone_blowup_toward_boundary():
    z = np.full(4, 0.25)
    vals = []
    for eps in (0.2, 0.1, 0.01, 1e-4, 1e-8):
        x = np.array([eps, 1 - eps - 0.4, 0.2, 0.2])
        vals.append(phi(x, z))
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 4.0


def test_phi_rejects_boundary_argument():
    z = np.full(4, 0.25)
    with pytest.raises(PreconditionFailed):
        phi([0.0, 0.5, 0.3, 0.2], z)


def test_phi_masks_unsupported_coordinates():
    z = np.array([0.5, 0.5, 0.0, 0.0])
    x = np.array([0.25, 0.25, 0.5, 0.0])
    # x4 = 0 is fine: z puts no weight there
    assert np.isfinite(phi(x, z))


def _hex(a):
    return [v.hex() for v in np.ravel(a).tolist()]


def _reductions_cases():
    """(n, u) for n = 2, 3 and 4 on 1-, 2- and 3-d inputs: gauge-sized
    log states and states down to -700, whose shares stay positive."""
    rng = np.random.default_rng(29)
    for n in (2, 3, 4):
        for shape in ((n,), (9, n), (3, 5, n)):
            yield n, rng.standard_normal(shape)
            yield n, rng.uniform(-700.0, 0.0, shape)


def test_softmax_and_phi_keep_numpys_reductions():
    # softmax and phi as numpy's max and sum over the last axis give
    # them, bit for bit, with z of full support and with a zero share
    for n, u in _reductions_cases():
        m = u.max(axis=-1, keepdims=True)
        e = np.exp(u - m)
        x = e / e.sum(axis=-1, keepdims=True)
        assert _hex(softmax(u)) == _hex(x)
        z = np.arange(1.0, n + 1.0) / (n * (n + 1) / 2)
        for zz in (z, np.concatenate(([0.0], z[1:] / z[1:].sum()))):
            keep = zz > 0
            want = -(zz[keep] * np.log(x[..., keep] / zz[keep])).sum(axis=-1)
            assert _hex(phi(x, zz)) == _hex(want)


def test_column_reductions_are_numpys():
    # a column at a time: numpy's sum and max over a short last axis, bit
    # for bit, signed zeros too
    for n, u in _reductions_cases():
        for a in (u, np.exp(u), -np.zeros_like(u)):
            assert _hex(dynamics.by_columns(a)) == _hex(a.sum(axis=-1))
            assert _hex(dynamics.by_columns(a, np.maximum)) == _hex(
                a.max(axis=-1))


def test_check_simplex_point_contracts():
    with pytest.raises(PreconditionFailed):
        check_simplex_point([0.5, 0.5, 0.1, -0.1])
    with pytest.raises(PreconditionFailed):
        check_simplex_point([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(PreconditionFailed):
        check_simplex_point([0.0, 0.5, 0.3, 0.2], require_interior=True)
    p = check_simplex_point([0.4, 0.3, 0.2, 0.1])
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def _field_ulps(A, U, f):
    """Largest error of a field value f against softmax(U) A^T, row by
    row, in units of the spacing of max|a| of that row's matrix."""
    A = np.broadcast_to(A, (len(U),) + np.shape(A)[-2:])
    ref = np.einsum("bij,bj->bi", A, softmax(U))
    return (np.abs(f - ref).max(axis=-1)
            / np.spacing(np.abs(A).max(axis=(-2, -1)))).max()


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_batch_field_matches_softmax_product(name, rng):
    # the shift-free multiply-sum against [A; 1^T] agrees with the
    # shifted softmax product to a few ulps of max|a|, on gauged states
    # and on states with shares down to 1e-300
    A = canonical_matrix(name).array
    U = gauge(np.log(rng.dirichlet(np.ones(4), size=500)))
    assert _field_ulps(A, U, batch_field(A)(U)) <= 4
    tiny = 10.0 ** -rng.uniform(0, 300, size=(500, 4))
    tiny[0] = [1e-300, 1e-200, 1e-100, 1.0]
    U = gauge(np.log(tiny))
    assert np.exp(U).min() < 1e-299
    assert _field_ulps(A, U, batch_field(A)(U)) <= 4


def test_batch_field_on_a_stack_matches_each_matrix(rng):
    mats = np.array([canonical_matrix(name).array * s for name, s in
                     (("I", 1.0), ("II", 3.7), ("III", 1e-3), ("IV", 250.0),
                      ("V", 1.0))])
    U = gauge(np.log(rng.dirichlet(np.ones(4), size=len(mats))))
    U[4] = gauge(np.log([1e-300, 1e-12, 0.5, 0.5]))
    f = batch_field(mats)(U)
    assert _field_ulps(mats, U, f) <= 4
    for A, u, row in zip(mats, U, f):
        assert np.array_equal(batch_field(A)(u[None, :])[0], row)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_trial_is_rejected_quietly(monkeypatch):
    # class IV times 1e4, started next to its equilibrium: the field is
    # small there, so the first steps are large and one trial stage's
    # log state exceeds log(max float), where exp overflows; its error
    # estimate is NaN, the step is rejected and shrunk by the lower clip
    M = canonical_matrix("IV")
    z = np.asarray(kernel_line_section(M).midpoint(), dtype=float)
    x0 = z + 1e-6 * np.array([1.0, -1.0, 1.0, -1.0])
    A, t_end = M.array * 1e4, 0.1
    big = np.log(np.finfo(float).max)
    field, overflows = batch_field(A), []

    def fun(u, out=None):
        overflows.append(bool((u > big).any()))
        return field(u, out)

    attempt, trials = _rk.attempt, []

    def recorded(fun, u, f, h, *args):
        u_new, err = attempt(fun, u, f, h, *args)
        trials.append((h[0, 0], err[0]))
        return u_new, err

    monkeypatch.setattr(_rk, "attempt", recorded)
    # each step with its last stage, the derivative an accepted one keeps
    steps = [(t, u, ok, K[-1].copy()) for t, u, ok, K in _rk.lockstep(
        fun, gauge(np.log(x0))[None, :], t_end, 1e-6, 1e-12, gauge)]
    # one field evaluation per stage row of a trial step, after one at
    # the start
    s = len(_rk.ROWS) - 1
    over = [any(overflows[1 + s * k:1 + s * (k + 1)])
            for k in range(len(steps))]
    assert 0 < over.count(True) < len(steps)
    for k, (t, u, ok, f) in enumerate(steps):
        if over[k]:
            assert np.isnan(trials[k][1]) and not ok[0]
            assert trials[k + 1][0] == _rk.FAC_MIN * trials[k][0]
        assert np.isfinite(u).all()
        assert not ok[0] or np.isfinite(f).all()
    assert steps[-1][0][0] == t_end
    monkeypatch.undo()
    for traj in (integrate(A, x0, t_end, rtol=1e-6),
                 integrate_many(A, [x0, X0], t_end, rtol=1e-6)[0]):
        assert traj.t_end == t_end
        assert np.isfinite(traj.us).all()


def test_integrate_constant_at_equilibrium(MIV):
    z = np.array([0.5, 1 / 6, 1 / 6, 1 / 6])
    traj = integrate(MIV, z, 10.0, monitors=[("z", z)])
    assert np.abs(traj.xs - z).max() <= 1e-12
    assert traj.drift["z"] <= 1e-12


def test_integrate_matches_fixed_step_oracle(MI):
    traj = integrate(MI, X0, 5.0, rtol=1e-12, atol=1e-14)
    ref = rk4_shares(MI.array, X0, 5.0, 1e-4)
    assert np.abs(traj.x_at(5.0) - ref).max() <= 1e-9


def test_interior_minimum_stays_bounded(MI):
    traj = integrate(MI, [0.1, 0.3, 0.3, 0.3], 50.0, rtol=1e-8)
    ts, xs = traj.sample(0.05)
    assert xs.min() >= 1e-3


def test_nonpermanent_matrix_decays():
    bumped = PayoffMatrix.from_upper([0, 1, -1, -1, 2, 0])
    traj = integrate(bumped, np.full(4, 0.25), 200.0, rtol=1e-8)
    assert traj.x_at(200.0).min() <= 1e-4


def test_unit_mass_and_positivity_along_flow(MI):
    traj = integrate(MI, X0, 100.0, rtol=1e-10)
    assert np.abs(traj.xs.sum(axis=1) - 1.0).max() <= 1e-12
    assert traj.xs.min() > 0.0
    assert np.all(np.diff(traj.ts) > 0)


def test_time_reversal_returns_home(MI):
    traj = integrate(MI, X0, 20.0, rtol=1e-10)
    x1 = traj.x_at(20.0)
    neg = PayoffMatrix.from_rows([[-v for v in row] for row in MI.rows],
                                 exact=True)
    back = integrate(neg, x1, 20.0, rtol=1e-10)
    assert np.abs(back.x_at(20.0) - X0).max() <= 1e-6


def test_phi_drift_over_five_periods(MIV):
    # the orbit of X0 has period near 20.4; five of them
    section = kernel_line_section(MIV)
    z = np.asarray(section.midpoint(), dtype=float)
    traj = integrate(MIV, X0, 102.0, rtol=1e-10, monitors=[("z", z)])
    assert traj.drift["z"] <= 1e-8
    assert phi_drift(traj, z) <= 1e-8


def test_phi_drift_scales_with_tolerance(MIV):
    section = kernel_line_section(MIV)
    z = np.asarray(section.midpoint(), dtype=float)
    loose = integrate(MIV, X0, 102.0, rtol=1e-6, atol=1e-9,
                      monitors=[("z", z)])
    assert loose.drift["z"] <= 1e-4


def test_drift_budget_enforced(MIV):
    section = kernel_line_section(MIV)
    z = np.asarray(section.midpoint(), dtype=float)
    with pytest.raises(DriftBudgetExceeded) as exc:
        integrate(MIV, X0, 102.0, rtol=1e-6, atol=1e-9,
                  monitors=[("z", z)], drift_budget=1e-12)
    assert exc.value.label == "z"
    assert exc.value.drift > exc.value.budget


@pytest.mark.parametrize("budget", [1e-12, None])
def test_drift_budget_raises_at_first_node_over_it(MIV, budget):
    section = kernel_line_section(MIV)
    mon = [("z1", np.asarray(section.point_at(0.25), dtype=float)),
           ("z2", np.asarray(section.point_at(0.75), dtype=float))]
    free = integrate(MIV, X0, 102.0, rtol=1e-6, atol=1e-9, monitors=mon,
                     drift_budget=np.inf)
    p = check_simplex_point(X0)
    d = np.array([np.abs(phi(free.xs[1:], z) - phi(p, z)) for _, z in mon])
    if budget is None:
        # one that the first half of the run stays within
        budget = float(d[:, :d.shape[1] // 2].max())
    k = int(np.argmax((d > budget).any(axis=0)))
    i = int(np.argmax(d[:, k] > budget))
    with pytest.raises(DriftBudgetExceeded) as exc:
        integrate(MIV, X0, 102.0, rtol=1e-6, atol=1e-9, monitors=mon,
                  drift_budget=budget)
    assert exc.value.t == free.ts[k + 1]
    assert exc.value.label == mon[i][0]
    assert exc.value.drift == d[i, k]
    assert exc.value.budget == budget


@pytest.mark.parametrize("name, x0, t_end", [
    ("IV", [0.1, 0.2, 0.3, 0.4], 0.05),
    ("II", [0.25, 0.25, 0.25, 0.25], 0.4901267511674449),
])
def test_runs_end_exactly_at_t_end(name, x0, t_end):
    # the controller's last step falls within the step floor of t_end;
    # it takes the whole rest instead of leaving a sliver below the floor
    M = canonical_matrix(name)
    one = integrate(M, x0, t_end, rtol=1e-6)
    many = integrate_many(M, [x0, X0], t_end, rtol=1e-6)
    assert one.t_end == t_end
    assert [traj.t_end for traj in many] == [t_end, t_end]


def test_rejected_last_step_is_not_retaken_without_end():
    # near t_end the controller rejects the whole rest and asks for a
    # step that would leave less than the floor to go; retaking the rest
    # would be rejected again at every iteration (inputs from a seeded scan
    # over scale, t_end, rtol and Dirichlet starts)
    A = canonical_matrix("V").array * 3307081010733.2573
    x0 = [0.29846879960674905, 0.3153295686305692, 0.1905172562864277,
          0.19568437547625403]
    t_end = 1.3197973312030568e-11
    with pytest.raises(StepSizeUnderflow) as exc:
        for n, _ in enumerate(_rk.lockstep(
                batch_field(A), gauge(np.log(x0))[None, :], t_end,
                2.2762298686515608e-10, 1e-12, gauge)):
            assert n < 10_000
    assert 0.0 < exc.value.h < 1e-13
    assert t_end - 1e-12 < exc.value.t < t_end


#: DOP853's stage nodes c_2, c_3, ... in closed form (Hairer, Norsett,
#: Wanner, sections II.5 and II.6): the last of ROWS is the weights' sum,
#: 1; then come the extension's three stages
NODES = ((12 - 2 * math.sqrt(6)) / 135, (6 - math.sqrt(6)) / 45,
         (6 - math.sqrt(6)) / 30, (6 + math.sqrt(6)) / 30, 1 / 3, 1 / 4,
         4 / 13, 127 / 195, 3 / 5, 6 / 7, 1, 1, 1 / 10, 1 / 5, 7 / 9)


def _sums_to(row, value):
    """fsum(row) is value to a few ulps of the row's magnitude."""
    return abs(math.fsum(row) - value) <= 1e-15 * np.abs(row).sum()


def test_tableau_consistency_sums():
    # every stage row sums to its node, the last row (the weights) to 1,
    # every error row to 0; the extension rows sum to their nodes and the
    # coefficient rows to 0, so that a constant field gives the linear
    # interpolant
    rows = [r[0] for r in _rk.ROWS[1:] + _rk.EXTRA]
    assert len(rows) == len(NODES)
    assert all(_sums_to(row, c) for row, c in zip(rows, NODES))
    assert all(_sums_to(row, 0.0) for row in _rk.ERR)
    assert _rk.ERR.shape[1] == len(_rk.ROWS)
    assert _rk.DENSE.shape == (4, len(_rk.ROWS) + len(_rk.EXTRA))
    assert all(_sums_to(row, 0.0) for row in _rk.DENSE)


def _logistic_steps(t_end, n):
    """n fixed steps through attempt, the controller bypassed,
    on the 2-strategy skew game in shares: x1' = x1 (1 - x1), logistic.
    Returns the times, states and stages."""
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def fun(x, out=None):
        return np.multiply(x, x @ A.T, out=out)

    x = np.array([[0.1, 0.9]])
    f, K = fun(x), np.empty((len(_rk.ROWS), 1, 2))
    xs, ks = [x[0]], []
    for _ in range(n):
        x, _ = _rk.attempt(fun, x, f, np.full((1, 1), t_end / n), 1.0, 1.0,
                           K)
        f = K[-1].copy()
        xs.append(x[0])
        ks.append(K[:, 0].copy())
    return fun, np.linspace(0.0, t_end, n + 1), np.array(xs), np.array(ks)


def _logistic(t):
    e = 0.1 * np.exp(t)
    return e / (0.9 + e)


def test_convergence_order():
    # fixed steps over 10 time units, halved from 2 to 0.25: the error's
    # log2 ratio per halving is the observed order.  Measured: the nodes
    # 9.95, 8.03, 8.41 and the continuous extension at quarter steps
    # 8.05, 8.11, 8.16 (an order-7 extension errs O(h^8) per step, below
    # the order-8 node error it inherits).  A wrong digit in any stage,
    # weight or extension row fails these bounds, one in an error row the
    # consistency sums.
    counts = (5, 10, 20, 40)
    err = []
    for n in counts:
        _, ts, xs, _ = _logistic_steps(10.0, n)
        err.append(np.abs(xs[:, 0] - _logistic(ts)).max())
    assert (np.log2(np.divide(err[:-1], err[1:])) >= 7.8).all(), err
    err = []
    for n in counts:
        fun, ts, xs, ks = _logistic_steps(10.0, n)
        F = _rk.dense_coefficients(fun, np.diff(ts), xs[:-1],
                                   np.diff(xs, axis=0), ks, [])
        k = np.repeat(np.arange(n), 3)
        t = ts[k] + np.tile([0.25, 0.5, 0.75], n) * (ts[k + 1] - ts[k])
        x = _rk.interpolate(t, ts[k], ts[k + 1], xs[k], *F[:, k])
        err.append(np.abs(x[:, 0] - _logistic(t)).max())
        # exact at the step's start, and at its end to rounding
        assert np.array_equal(_rk.interpolate(ts[:-1], ts[:-1], ts[1:],
                                              xs[:-1], *F), xs[:-1])
        assert np.abs(_rk.interpolate(ts[1:], ts[:-1], ts[1:], xs[:-1], *F)
                      - xs[1:]).max() <= 1e-15
    assert (np.log2(np.divide(err[:-1], err[1:])) >= 7.8).all(), err


def test_dense_output_consistency(MI):
    traj = integrate(MI, X0, 10.0, rtol=1e-10)
    # dense evaluation reproduces the stored nodes exactly
    k = len(traj.ts) // 2
    assert np.abs(traj.x_at(traj.ts[k]) - traj.xs[k]).max() <= 1e-14
    ts, xs = traj.sample(0.25)
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(10.0)
    assert np.abs(xs[0] - X0).max() <= 1e-12
    # vectorised dense output agrees with point-by-point evaluation
    grid = np.concatenate((ts, traj.ts[::7]))
    assert np.array_equal(traj.dense(grid),
                          [traj.dense(t) for t in grid])


def test_integrate_rejects_boundary_start(MI):
    with pytest.raises(PreconditionFailed):
        integrate(MI, [0.0, 0.5, 0.3, 0.2], 1.0)


@pytest.mark.parametrize("t_end, rtol, atol", [
    (float("nan"), 1e-10, 0.0), (float("inf"), 1e-10, 0.0),
    (-1.0, 1e-10, 0.0), (1.0, -1.0, 0.0), (1.0, 0.0, 0.0),
    (1.0, float("nan"), 0.0), (1.0, float("inf"), 0.0),
    (1.0, 1e-10, -1.0), (1.0, 1e-10, float("nan")),
])
def test_integrate_rejects_bad_horizon_and_tolerances(MI, t_end, rtol,
                                                      atol):
    with pytest.raises(PreconditionFailed):
        integrate(MI, X0, t_end, rtol=rtol, atol=atol)


def test_step_size_underflow_carries_state(MI):
    with pytest.raises(StepSizeUnderflow) as exc:
        integrate(MI.array * 1e15, X0, 1.0)
    err = exc.value
    assert err.t == 0.0
    assert 0.0 < err.h < 1e-13
    assert np.allclose(np.exp(err.state), X0)
    assert err.row is None


def test_controller_is_elementwise_and_guards_nan():
    h = np.array([0.01, 0.02, 0.03, 0.04])
    err = np.array([np.nan, 0.0, 2.0, 0.5])
    prev = np.array([1e-4, 1e-3, 1e-2, 1e-1])
    accept, h_next, prev_next = _rk.control(h, err, prev)
    assert accept.tolist() == [False, True, False, True]
    # NaN rejects and shrinks by the minimum factor, err = 0 grows by the
    # maximum, a rejection keeps the PI memory
    assert h_next[0] == _rk.FAC_MIN * h[0]
    assert h_next[1] == _rk.FAC_MAX * h[1]
    assert _rk.FAC_MIN * h[2] < h_next[2] < h[2]
    assert prev_next.tolist() == [1e-4, 1e-10, 1e-2, 0.5]
    for k in range(4):
        one = _rk.control(float(h[k]), float(err[k]), float(prev[k]))
        assert one[0] == accept[k]
        assert float(one[1]) == h_next[k]
        assert float(one[2]) == prev_next[k]
    assert (_rk.FAC_MIN, _rk.FAC_MAX) == (0.333, 6.0)


def test_integrate_many_rows_match_integrate(MI):
    trajs = integrate_many(MI, STARTS, 20.0, rtol=1e-10, atol=1e-12)
    assert len(trajs) == len(STARTS)
    for start, traj in zip(STARTS, trajs):
        one = integrate(MI, start, 20.0, rtol=1e-10, atol=1e-12)
        assert traj.t_end == 20.0
        # one field, one driver: the same bits alone or in a batch
        for name in ("ts", "us", "ks"):
            assert np.array_equal(getattr(traj, name), getattr(one, name))
        ts, xs = traj.sample(0.05)
        ts1, xs1 = one.sample(0.05)
        assert np.array_equal(ts, ts1)
        assert np.abs(xs - xs1).max() <= 1e-12


def test_integrate_many_row_is_batch_independent(MIII):
    batch = integrate_many(MIII, STARTS, 10.0, rtol=1e-8)
    for start, traj in zip(STARTS, batch):
        alone = integrate_many(MIII, [start], 10.0, rtol=1e-8)[0]
        for name in ("ts", "us", "ks"):
            assert np.array_equal(getattr(traj, name), getattr(alone, name))
        assert (traj.naccept, traj.nreject) == (alone.naccept,
                                                alone.nreject)


def test_integrate_many_stacked_rows_match_one_row_runs():
    mats = np.array([canonical_matrix(name).array
                     for name in ("I", "III", "IV", "V")])
    batch = integrate_many(mats, STARTS, 10.0, rtol=1e-8)
    for A, start, traj in zip(mats, STARTS, batch):
        alone = integrate_many(A, [start], 10.0, rtol=1e-8)[0]
        assert np.array_equal(traj.A, A)
        for name in ("ts", "us", "ks"):
            assert np.array_equal(getattr(traj, name), getattr(alone, name))
        assert (traj.naccept, traj.nreject) == (alone.naccept,
                                                alone.nreject)


def test_integrate_many_counts_steps_per_row(MI):
    # loose tolerance, so that some rows reject steps
    trajs = integrate_many(MI, STARTS, 20.0, rtol=1e-4, atol=1e-12)
    assert sum(traj.nreject for traj in trajs) > 0
    for start, traj in zip(STARTS, trajs):
        # a row advances alone for as many iterations as it is live in
        # the batch, one trial step each
        u0 = gauge(np.log(start))[None, :]
        iterations = sum(1 for _ in _rk.lockstep(
            batch_field(MI.array), u0, 20.0, 1e-4, 1e-12, gauge))
        assert traj.naccept + traj.nreject == iterations
        assert traj.naccept == len(traj.ts) - 1


def _counted(fun, calls):
    def counted(u, out=None):
        calls.append(len(u))
        return fun(u, out)
    return counted


def test_field_evaluations_per_trial_step(MI, monkeypatch):
    # first same as last: one evaluation at the start, then one per stage
    # row of each trial step, accepted or rejected, twelve, in lockstep
    # alone and under integrate; rtol 1e-4 so that some steps are rejected
    calls = []
    oks = [ok[0] for *_, ok, _ in _rk.lockstep(
        _counted(batch_field(MI.array), calls), gauge(np.log(X0))[None, :],
        20.0, 1e-4, 1e-12, gauge)]
    assert 0 < oks.count(False)
    assert len(calls) == 1 + 12 * len(oks)

    lockstep = _rk.lockstep
    monkeypatch.setattr(_rk, "lockstep", lambda fun, *args: lockstep(
        _counted(fun, calls), *args))
    calls.clear()
    traj = integrate(MI, X0, 20.0, rtol=1e-4, atol=1e-12)
    assert traj.nreject > 0
    assert len(calls) == 1 + 12 * (traj.naccept + traj.nreject)

    # the dense output's three extra stages are evaluated once, on the
    # first interpolation, each in one call over all accepted steps
    monkeypatch.setattr(dynamics, "batch_field",
                        lambda A: _counted(batch_field(A), calls))
    calls.clear()
    traj.x_at(7.0)
    traj.sample(0.1)
    assert calls == [traj.naccept] * 3


def test_integrate_many_underflow_carries_row(MI):
    # the equilibrium row resolves at any scale; the other cannot
    z = np.asarray(kernel_line_section(MI).midpoint(), dtype=float)
    with pytest.raises(StepSizeUnderflow) as exc:
        integrate_many(MI.array * 1e15, [z, X0], 1.0)
    err = exc.value
    assert err.row == 1
    assert err.t == 0.0
    assert 0.0 < err.h < 1e-13
    assert np.allclose(np.exp(err.state), X0)
    # alone, that start raises integrate's one-run error, with no row
    errors = []
    for run, x0 in ((integrate_many, [X0]), (integrate, X0)):
        with pytest.raises(StepSizeUnderflow) as exc:
            run(MI.array * 1e15, x0, 1.0)
        errors.append(exc.value)
    many, one = errors
    assert many.row is None and str(many).startswith("step size")
    assert str(many) == str(one) and (many.t, many.h) == (one.t, one.h)


def test_integrate_many_validates_every_start(MI):
    with pytest.raises(PreconditionFailed):
        integrate_many(MI, [X0, [0.0, 0.5, 0.3, 0.2]], 1.0)
    with pytest.raises(PreconditionFailed):
        integrate_many(MI, [X0], float("inf"))
    with pytest.raises(PreconditionFailed):
        integrate_many(MI, [], 1.0)
    with pytest.raises(PreconditionFailed):
        integrate_many(np.array([MI.array] * 3), STARTS, 1.0)


@pytest.mark.parametrize("ends", [[50.0, math.nan], [math.nan, 50.0],
                                  [50.0, -1.0], [math.inf, math.inf]])
def test_every_run_end_is_checked(MI, ends):
    # a NaN end after the first was accepted, and its row never ran
    with pytest.raises(PreconditionFailed, match="must be finite and "
                       "positive"):
        dynamics._integrate(MI.array, [X0, X0], ends, 1e-10, 1e-12)


def _accepted(steps, b):
    """Row b's accepted times and states from lockstep."""
    return [np.array(v) for v in zip(*[(t[b], u[b])
                                       for t, u, ok, _ in steps if ok[b]])]


def _scalar_run(A, x0, end, rtol):
    """One start's accepted times, states and stages, and its accept and
    reject counts, from lockstep alone with a scalar end."""
    u0 = gauge(np.log([check_simplex_point(x0)]))
    steps = [(t[0], u[0], ok[0], K[:, 0].copy()) for t, u, ok, K in
             _rk.lockstep(batch_field(A), u0, end, rtol, 1e-12, gauge)]
    kept = [step for step in steps if step[2]]
    ts, us, _, ks = zip(*kept)
    return (np.array((0.0, *ts)), np.array((u0[0], *us)), np.array(ks),
            len(kept), len(steps) - len(kept))


def test_lockstep_end_array_matches_scalar_runs(MI):
    # a per-row end runs each row as a scalar end runs it alone, with the
    # same accept and reject counts; rtol 1e-4 so that steps are rejected
    ends = np.array([7.5, 20.0, 3.0, 12.5])
    trajs = dynamics._integrate(MI.array, STARTS, ends, 1e-4, 1e-12)(
        slice(None), ends)
    assert sum(traj.nreject for traj in trajs) > 0
    for x0, end, traj in zip(STARTS, ends, trajs):
        ts, us, ks, naccept, nreject = _scalar_run(MI.array, x0, float(end),
                                                   1e-4)
        assert (traj.naccept, traj.nreject) == (naccept, nreject)
        for name, want in (("ts", ts), ("us", us), ("ks", ks)):
            assert _same_bits(getattr(traj, name), want)


def test_until_builds_only_the_rows_it_is_asked_for(MI, monkeypatch):
    # a subset of rows makes one trajectory per row asked for, in that
    # order, the same bits as the batch's every-row answer
    built, make = [], dynamics.Trajectory

    def counted(**fields):
        built.append(fields)
        return make(**fields)

    monkeypatch.setattr(dynamics, "Trajectory", counted)
    ends = np.array([7.5, 20.0, 3.0, 12.5])
    until = dynamics._integrate(MI.array, STARTS, ends, 1e-4, 1e-12)
    some = until([3, 1], ends[[3, 1]])
    assert len(built) == 2
    every = until(slice(None), ends)
    assert len(built) == 2 + len(STARTS)
    for traj, want in zip(some, (every[3], every[1]), strict=True):
        assert traj.nreject == want.nreject
        for name in ("ts", "us", "ks"):
            assert _same_bits(getattr(traj, name), getattr(want, name))


def test_until_in_several_calls_is_one_call(MI):
    # rows ride along (end inf) and are ended one call at a time, over
    # hundreds of iterations, so the history's capacity doubles between
    # and inside calls: each row's run is the one-call and alone run
    ends = (10.0, 60.0, 150.0)
    until = dynamics._integrate(MI.array, STARTS[:3], [ends[0], np.inf,
                                                      np.inf], 1e-10, 1e-12)
    several = [until([k], end)[0] for k, end in enumerate(ends)]
    assert several[-1].naccept + several[-1].nreject > 2 * 64
    once = dynamics._integrate(MI.array, STARTS[:3], ends, 1e-10, 1e-12)(
        range(3), ends)
    for k, traj in enumerate(several):
        alone = integrate_many(MI, STARTS[k:k + 1], ends[k])[0]
        for other in (once[k], alone):
            assert traj.nreject == other.nreject
            for name in ("ts", "us", "ks"):
                assert _same_bits(getattr(traj, name), getattr(other, name))


def test_probe_coefficients_together_are_each_runs_own(MI):
    # one dense_coefficients call over 16 four-strategy runs gives each
    # run's own coefficients, bit for bit, odd step counts too, whose last
    # step one DENSE product over all runs would round by its place
    starts = X0 + 1e-2 * np.random.default_rng(3).dirichlet(
        np.ones(4), 16) - 2.5e-3
    runs = [integrate_many(MI, starts, 25.0) for _ in range(2)]
    assert {traj.naccept % 2 for traj in runs[0]} == {0, 1}
    together = dynamics.dense_together(runs[0])
    for F, traj, alone in zip(together, *runs, strict=True):
        assert traj.coefficients is F
        assert _same_bits(F, alone.coefficients)


def test_lockstep_has_one_end_rule(MI):
    # a scalar end and a per-row array of the same value take the same
    # steps, iteration by iteration, also once some rows stand idle
    u0 = gauge(np.log(STARTS))
    scalar, array = (_rk.lockstep(batch_field(MI.array), u0, end, 1e-4, 1e-12,
                                  gauge) for end in (20.0, np.full(4, 20.0)))
    idle = 0
    for (t, u, ok, K), (t1, u1, ok1, K1) in zip(scalar, array, strict=True):
        assert _same_bits(t, t1) and _same_bits(u, u1)
        assert _same_bits(ok, ok1) and _same_bits(K, K1)
        idle += 0 < (t == 20.0).sum() < len(t)
    assert idle > 1


def test_lockstep_raised_end_continues_the_run(MI):
    fun, u0 = batch_field(MI.array), gauge(np.log(STARTS[:2]))

    def run(raise_at, old_end=5.0, new_end=12.0):
        """Row 0's nodes when its end goes from old_end to new_end at the
        first iteration for which raise_at(t0, iterations idle) holds."""
        ends, steps, idle = np.array([old_end, 20.0]), [], 0
        for step in _rk.lockstep(fun, u0, ends, 1e-6, 1e-12, gauge):
            steps.append(step)
            if ends[0] == old_end and raise_at(step[0][0], idle):
                ends[0] = new_end
            idle += step[0][0] == old_end
        return _accepted(steps, 0)

    # raised while still more than a step short of its end: one run
    alone = _accepted(list(_rk.lockstep(fun, u0[:1], 12.0, 1e-6, 1e-12,
                                        gauge)), 0)
    early = run(lambda t, idle: t > 2.5)
    # riding along with no end (inf) until one is set: the same run
    riding = run(lambda t, idle: t > 2.5, old_end=np.inf)
    # raised after it stopped: it goes on from its own step and PI
    # memory, however long it stood idle (its last step was cut to land
    # on the old end, so it is not the run above)
    late = [run(lambda t, idle, n=n: idle == n) for n in (1, 4)]
    for got in (early, riding, *late):
        assert got[0][-1] == 12.0
    for a, b, r, c, d in zip(alone, early, riding, *late):
        assert np.array_equal(a, b) and np.array_equal(c, d)
        assert _same_bits(a, r)
    assert 5.0 in late[0][0] and 5.0 not in alone[0]


def test_nan_field_raises_instead_of_spinning(monkeypatch):
    # a NaN field gives a NaN first step, which `step < MIN_STEP` let
    # through, and t never advanced; each run is bounded so that a spin
    # fails the test instead of hanging it
    lockstep = _rk.lockstep

    def bounded(*args):
        for n, step in enumerate(lockstep(*args)):
            assert n < 1_000
            yield step

    monkeypatch.setattr(_rk, "lockstep", bounded)
    bad = np.array([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(StepSizeUnderflow) as exc:
        for _ in _rk.lockstep(batch_field(bad), gauge(np.log([[0.5, 0.5]])),
                              1.0, 1e-10, 1e-12, gauge):
            pass
    assert exc.value.row == 0 and np.isnan(exc.value.h)
    assert exc.value.t == 0.0
    for entry in (np.nan, np.inf):
        A = np.array([[0.0, entry], [-1.0, 0.0]])
        with pytest.raises(PreconditionFailed, match="must be finite"):
            integrate(A, [0.5, 0.5], 1.0)
        with pytest.raises(PreconditionFailed, match="must be finite"):
            integrate_many(np.array([A, -A]), [[0.5, 0.5]] * 2, 1.0)


# The stage loop, its trial step, the field and lockstep as they were
# before the stage states, the field's exp, product and sums and the
# stages' views were held for a whole run, and before an all-accepted
# iteration skipped its selects: kept as the bit-for-bit reference.

def _allocating_stages(fun, u, h, K, first):
    Kf = K.reshape(len(K), -1)
    for s in range(first, len(K)):
        v = u + h * np.dot(_rk._ALL_ROWS[s], Kf[:s]).reshape(u.shape)
        K[s] = fun(v)
    return v


def _allocating_attempt(fun, u, f, h, rtol, atol, K):
    K[0] = f
    u_new = _allocating_stages(fun, u, h, K, 1)
    err = h * np.dot(_rk.ERR, K.reshape(len(K), -1)).reshape((-1,) + u.shape)
    w = atol + rtol * np.maximum(1.0, np.abs(u_new))
    return u_new, _rk._norm(err / w)


def _allocating_field(A):
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    aug = np.concatenate((A, np.ones(A.shape[:-2] + (1, n))), axis=-2)

    def fun(u):
        y = np.add.reduce(np.exp(u)[:, None, :] * aug, -1)
        return y[:, :n] / y[:, n:]
    return fun


def _selecting_lockstep(fun, u0, t_end, rtol, atol, project):
    u = u0
    f = fun(u)
    t = np.zeros(len(u))
    h = np.minimum(0.1, 0.01 / np.maximum(1e-6, np.abs(f).max(axis=-1)))
    err_prev = np.full(len(u), 1e-4)
    K = np.empty((len(_rk.ROWS),) + u.shape)
    per_row = np.ndim(t_end) > 0
    while True:
        rest = t_end - t
        live = rest > 0
        if not live.any():
            return
        whole = h > np.maximum(rest - _rk.MIN_STEP, _rk.SAFETY * rest)
        step = np.where(whole, rest, h)
        assert not (live & (step < _rk.MIN_STEP)).any()
        with np.errstate(over="ignore", invalid="ignore"):
            u_new, err = _allocating_attempt(fun, u, f, step[:, None], rtol,
                                             atol, K)
            u_new = project(u_new)
        ok, h_next, err_next = _rk.control(step, err, err_prev)
        if per_row:
            h_next = np.where(live, h_next, h)
            err_next = np.where(live, err_next, err_prev)
        h, err_prev = h_next, err_next
        ok &= live
        t = np.where(ok, np.where(whole, t_end, t + step), t)
        u = np.where(ok[:, None], u_new, u)
        f = np.where(ok[:, None], K[-1], f)
        yield t, u, ok, K


def _skew(rng, n, size=()):
    M = rng.normal(size=size + (n, n))
    return M - np.swapaxes(M, -1, -2)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _kernel_cases():
    """(A, starts, ends, rtol): seeded runs of order 2, 3 and 4 with
    per-row ends, a stack with one end, and class IV at 1e4 times, whose
    trials overflow.  Row 2 of the second class I run lands on its end in
    an iteration that every row accepts, from a t with t + (end - t) !=
    end."""
    rng = np.random.default_rng(23)
    ends = np.array([20.0, 7.5, 12.0, 20.0, 3.0])
    duel = [[0.5, 0.5], [0.9, 0.1], [0.1, 0.9], [0.999, 1e-3], [1e-6, 1.0]]
    rps = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 1.5], [2.0, -1.5, 0.0]])
    stack = np.array([canonical_matrix(c).array * s for c, s in
                      (("I", 1.0), ("II", 2.0), ("III", 0.5), ("V", 3.0))])
    M = canonical_matrix("IV")
    z = np.asarray(kernel_line_section(M).midpoint(), dtype=float)
    return [(np.array([[0.0, 3.0], [-3.0, 0.0]]), duel, ends, 1e-4),
            (rps, rng.dirichlet(np.ones(3), size=5), ends, 1e-4),
            (canonical_matrix("I").array, rng.dirichlet(np.ones(4), size=5),
             ends, 1e-4),
            (canonical_matrix("I").array, STARTS,
             np.array([20.0, 7.5, 0.0515, 12.0]), 1e-4),
            (stack, rng.dirichlet(np.ones(4), size=4), 20.0, 1e-4),
            (M.array * 1e4, [z + 1e-6 * np.array([1, -1, 1, -1]), X0],
             np.array([0.1, 0.05]), 1e-6)]


def test_lockstep_keeps_the_allocating_kernels_bits():
    # every iteration's times, states, accept flags and last stage are the
    # bits of the allocating stage loop, field and selects, through
    # all-accepted iterations (one where a row lands on its end), rejected
    # steps, rows idle at their ends and, on class IV, overflowing trials
    seen = np.zeros(4, dtype=int)
    for A, starts, ends, rtol in _kernel_cases():
        u0 = gauge(np.log(np.asarray(starts)))
        got = _rk.lockstep(batch_field(A), u0, ends, rtol, 1e-12, gauge)
        want = _selecting_lockstep(_allocating_field(A), u0, ends, rtol,
                                   1e-12, gauge)
        t0 = np.zeros(len(u0))
        for (t, u, ok, K), (t1, u1, ok1, K1) in zip(got, want, strict=True):
            assert _same_bits(t, t1) and _same_bits(u, u1)
            assert _same_bits(ok, ok1) and _same_bits(K[-1], K1[-1])
            landed = (t == ends) & (t0 + (ends - t0) != ends)
            seen += (ok.all(), (~ok & (t0 < ends)).any(),
                     (t0 >= ends).any(), ok.all() and landed.any())
            t0 = t
    assert seen.all(), seen


def test_field_result_is_not_its_scratch(rng):
    # the field keeps its exp, product and sums per input shape, and each
    # call returns a fresh array with the allocating field's bits
    for A in (canonical_matrix("III").array, _skew(rng, 3, (6,))):
        n = A.shape[-1]
        fun, ref = batch_field(A), _allocating_field(A)
        U = [gauge(np.log(rng.dirichlet(np.ones(n), size=6)))
             for _ in range(3)]
        first = fun(U[0])
        kept = first.copy()
        second = fun(U[1])
        if A.ndim == 2:
            other = fun(U[2][:2])
            assert _same_bits(other, ref(U[2][:2]))
        assert _same_bits(first, kept) and _same_bits(first, ref(U[0]))
        assert _same_bits(second, ref(U[1]))
        assert not np.shares_memory(first, second)
        assert _same_bits(fun(U[0]), kept)


def _hexes(a):
    return [float(x).hex() for x in np.ravel(a)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_strategy_major_field_keeps_the_row_reduce_bits(n, rng):
    # the field sums its product over the strategy axis, whole batches at a
    # time: the additions and the order of the reduce over each row it
    # replaced, for one matrix and a stack with signed zero entries, on
    # gauged states, on states down to exp's underflow at -745 and on trial
    # states past log(max float), whose exp overflows to a NaN field row
    big = np.log(np.finfo(float).max)
    for B in (1, 5, 17):
        low = rng.uniform(-745.0, 0.0, size=(B, n))
        high = low.copy()
        high[:, -1] = big + rng.uniform(0.1, 10.0, size=B)
        states = (gauge(np.log(rng.dirichlet(np.ones(n), size=B))), low, high)
        for A in (_skew(rng, n), _skew(rng, n, (B,))):
            A[rng.random(A.shape) < 0.2] = -0.0
            fun, ref = batch_field(A), _allocating_field(A)
            for u in states:
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = fun(u), ref(u)
                assert _hexes(got) == _hexes(want)
            assert np.isnan(want).all(axis=-1).all()


def test_field_fills_out_when_given(rng):
    # fun(u, out) writes the field into out and returns it, the bits of a
    # fresh result, for one matrix and a stack
    for A in (canonical_matrix("III").array, _skew(rng, 4, (6,))):
        U = gauge(np.log(rng.dirichlet(np.ones(4), size=6)))
        fun, out = batch_field(A), np.full((6, 4), np.nan)
        assert fun(U, out) is out
        assert _hexes(out) == _hexes(_allocating_field(A)(U))
        assert _hexes(fun(U)) == _hexes(out)


def test_history_past_its_bound_is_refused(MI, monkeypatch):
    # the history's first block holds 64 iterations, or as many as
    # MAX_HISTORY_BYTES admits: 54 of the 4 rows' 1,832 bytes in 100,000;
    # a doubling past the bound is refused, with the row count, the time
    # every row reached and the bound, at the 54th iteration
    monkeypatch.setattr(dynamics, "MAX_HISTORY_BYTES", 100_000)
    until = dynamics._integrate(MI.array, STARTS, 400.0, 1e-10, 1e-12)
    with pytest.raises(PreconditionFailed) as exc:
        until(slice(None), 400.0)
    u0 = gauge(np.log([check_simplex_point(x0) for x0 in STARTS]))
    *_, (t, *_) = itertools.islice(_rk.lockstep(
        batch_field(MI.array), u0, 400.0, 1e-10, 1e-12, gauge), 54)
    assert str(exc.value) == (f"a run of 4 rows, each at t >= {t.min():.6g}, "
                              "would keep a history past 100000 bytes")


def test_history_bound_holds_before_the_first_step(MI, monkeypatch):
    # a bound that holds not even one iteration of the batch (458 bytes a
    # row at n = 4) is refused when the run is set up, before any step
    monkeypatch.setattr(dynamics, "MAX_HISTORY_BYTES", 4 * 458 - 1)
    with pytest.raises(PreconditionFailed) as exc:
        dynamics._integrate(MI.array, STARTS, 400.0, 1e-10, 1e-12)
    assert str(exc.value) == ("a run of 4 rows, each at t >= 0, would keep "
                              "a history past 1831 bytes")
