"""Vector field, conserved quantities, and the log-coordinate integrator.

The integrator is cross-checked against a plain fixed-step RK4 in share
coordinates (tests/oracles.py) on a short horizon, and against itself
under time reversal on a longer one.
"""

import numpy as np
import pytest

from replicator4 import (DriftBudgetExceeded, PayoffMatrix,
                         PreconditionFailed, StepSizeUnderflow,
                         canonical_matrix, integrate, kernel_line_section,
                         phi, phi_drift, vector_field)
from replicator4 import _rk
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
    # estimate is NaN, the step is rejected and shrunk by the factor 0.2
    M = canonical_matrix("IV")
    z = np.asarray(kernel_line_section(M).midpoint(), dtype=float)
    x0 = z + 1e-6 * np.array([1.0, -1.0, 1.0, -1.0])
    A, t_end = M.array * 1e4, 0.1
    big = np.log(np.finfo(float).max)
    field, overflows = batch_field(A), []

    def fun(u):
        overflows.append(bool((u > big).any()))
        return field(u)

    attempt, trials = _rk.attempt, []

    def recorded(fun, u, f, h, *args):
        u_new, err = attempt(fun, u, f, h, *args)
        trials.append((h[0, 0], err[0]))
        return u_new, err

    monkeypatch.setattr(_rk, "attempt", recorded)
    steps = list(_rk.lockstep(fun, gauge(np.log(x0))[None, :], t_end, 1e-6,
                              1e-12, gauge))
    # six field evaluations per trial step, after one at the start
    over = [any(overflows[1 + 6 * k:7 + 6 * k]) for k in range(len(steps))]
    assert 0 < over.count(True) < len(steps)
    for k, (t, u, f, ok) in enumerate(steps):
        if over[k]:
            assert np.isnan(trials[k][1]) and not ok[0]
            assert trials[k + 1][0] == 0.2 * trials[k][0]
        assert np.isfinite(u).all() and np.isfinite(f).all()
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
    # would be rejected again at every iteration
    A = canonical_matrix("V").array * 404035249566.62714
    x0 = [0.10526295621627181, 0.2752705560774696, 0.24483724444336802,
          0.37462924326289077]
    t_end = 1.1328429245160266e-10
    with pytest.raises(StepSizeUnderflow) as exc:
        for n, _ in enumerate(_rk.lockstep(
                batch_field(A), gauge(np.log(x0))[None, :], t_end,
                2.463896714689186e-10, 1e-12, gauge)):
            assert n < 10_000
    assert 0.0 < exc.value.h < 1e-13
    assert t_end - 1e-12 < exc.value.t < t_end


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
    # NaN rejects and shrinks by the minimum factor, err = 0 grows by
    # the maximum, a rejection keeps the PI memory
    assert h_next[0] == 0.2 * h[0] and h_next[1] == 5.0 * h[1]
    assert 0.2 * h[2] < h_next[2] < h[2]
    assert prev_next.tolist() == [1e-4, 1e-10, 1e-2, 0.5]
    for k in range(4):
        one = _rk.control(float(h[k]), float(err[k]), float(prev[k]))
        assert one[0] == accept[k]
        assert float(one[1]) == h_next[k]
        assert float(one[2]) == prev_next[k]


def test_integrate_many_rows_match_integrate(MI):
    trajs = integrate_many(MI, STARTS, 20.0, rtol=1e-10, atol=1e-12)
    assert len(trajs) == len(STARTS)
    for start, traj in zip(STARTS, trajs):
        one = integrate(MI, start, 20.0, rtol=1e-10, atol=1e-12)
        assert traj.t_end == 20.0
        # one field, one driver: the same bits alone or in a batch
        for name in ("ts", "us", "fs"):
            assert np.array_equal(getattr(traj, name), getattr(one, name))
        ts, xs = traj.sample(0.05)
        ts1, xs1 = one.sample(0.05)
        assert np.array_equal(ts, ts1)
        assert np.abs(xs - xs1).max() <= 1e-12


def test_integrate_many_row_is_batch_independent(MIII):
    batch = integrate_many(MIII, STARTS, 10.0, rtol=1e-8)
    for start, traj in zip(STARTS, batch):
        alone = integrate_many(MIII, [start], 10.0, rtol=1e-8)[0]
        for name in ("ts", "us", "fs"):
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
        for name in ("ts", "us", "fs"):
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
    def counted(u):
        calls.append(len(u))
        return fun(u)
    return counted


def test_field_evaluations_per_trial_step(MI, monkeypatch):
    # first same as last: one evaluation at the start, then six per trial
    # step, accepted or rejected, in lockstep alone and under integrate
    # (whose history takes the start's derivative with one more call,
    # outside the driver); rtol 1e-4 so that some steps are rejected
    calls = []
    u0 = gauge(np.log(X0))[None, :]
    oks = [ok[0] for *_, ok in _rk.lockstep(
        _counted(batch_field(MI.array), calls), u0, 20.0, 1e-4, 1e-12,
        gauge)]
    assert 0 < oks.count(False)
    assert len(calls) == 1 + 6 * len(oks)

    lockstep = _rk.lockstep
    monkeypatch.setattr(_rk, "lockstep", lambda fun, *args: lockstep(
        _counted(fun, calls), *args))
    calls.clear()
    traj = integrate(MI, X0, 20.0, rtol=1e-4, atol=1e-12)
    assert traj.nreject > 0
    assert len(calls) == 1 + 6 * (traj.naccept + traj.nreject)


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


def test_integrate_many_validates_every_start(MI):
    with pytest.raises(PreconditionFailed):
        integrate_many(MI, [X0, [0.0, 0.5, 0.3, 0.2]], 1.0)
    with pytest.raises(PreconditionFailed):
        integrate_many(MI, [X0], float("inf"))
    with pytest.raises(PreconditionFailed):
        integrate_many(MI, [], 1.0)
    with pytest.raises(PreconditionFailed):
        integrate_many(np.array([MI.array] * 3), STARTS, 1.0)
