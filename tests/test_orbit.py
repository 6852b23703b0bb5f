"""Closed-orbit certification: reference points, period, stability.

Period values asserted with tight absolute windows are regression
constants recorded from the first certified run; everything else is a
contract bound (closure, drift, tube radius) rather than a frozen
number.
"""

import numpy as np
import pytest

from replicator4 import (EquilibriumStart, NoClosureFound, PayoffMatrix,
                         PreconditionFailed, ProbeEscaped, StepSizeUnderflow,
                         boundary_prediction, canonical_matrix, detect_period,
                         distance_to_K, face_subsystem, integrate,
                         kernel_line_section, phi, phi_gradient,
                         select_reference_points, stability_probe)
from replicator4 import _rk, orbit
from replicator4.boundary import _face_starts
from replicator4.cli import _seeded_starts
from replicator4.dynamics import integrate_many, softmax
from replicator4.ensembles import CANONICAL_UPPER
from replicator4.orbit import (_max_distance_to_samples,
                               _min_distance_to_samples, certify_orbit,
                               first_closure, section_normal)

X_IV = np.array([0.4, 0.3, 0.2, 0.1])
X_I = np.array([0.1, 0.2, 0.3, 0.4])


@pytest.fixture(scope="module")
def certified_MIV():
    M = canonical_matrix("IV")
    section = kernel_line_section(M)
    report = detect_period(M, X_IV, section=section)
    return M, section, report.refs, report


def test_reference_points_MIV(certified_MIV):
    M, section, refs, _ = certified_MIV
    assert np.allclose(refs.z1, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)
    assert distance_to_K(refs.z1, section) <= 1e-10
    assert distance_to_K(refs.z2, section) <= 1e-10
    assert np.abs(refs.z1 - refs.z2).max() > 1e-3
    assert refs.margin > 1e-8


def test_reference_points_MV(MV):
    section = kernel_line_section(MV)
    refs = detect_period(MV, [0.4, 0.1, 0.3, 0.2], section=section).refs
    assert np.allclose(refs.z1, [0.25] * 4, atol=1e-12)
    assert refs.margin > 1e-8


def test_reference_selection_rejects_point_on_K(MIV):
    section = kernel_line_section(MIV)
    on_K = [0.5, 1 / 6, 1 / 6, 1 / 6]
    with pytest.raises(PreconditionFailed):
        select_reference_points(section, on_K, [on_K])


def test_period_MIV_regression(certified_MIV):
    _, _, _, report = certified_MIV
    assert report.period == pytest.approx(19.315607, abs=1e-3)
    assert report.closure_residual <= 1e-6
    assert report.avg_distance_to_K <= 1e-4
    assert report.time_average.min() > 0.0
    assert max(report.phi_drift.values()) <= 1e-8


def test_period_MI_regression(MI):
    section = kernel_line_section(MI)
    report = detect_period(MI, X_I, section=section)
    assert report.period == pytest.approx(9.761204, abs=1e-3)
    assert report.closure_residual <= 1e-6
    assert report.avg_distance_to_K <= 1e-4


def test_period_is_one_lap_not_several():
    # the orbit through this start closes after one lap; the reported
    # period must be that lap, not a multiple of it
    M = PayoffMatrix.from_rows([[0, -1, 0, 1], [1, 0, 1, -1],
                                [0, -1, 0, 1], [-1, 1, -1, 0]], exact=True)
    x0 = [0.14542760064790927, 0.33592289133440484, 0.14542760064790927,
          0.3732219073697766]
    report = detect_period(M, x0)
    assert report.period == pytest.approx(10.9204, abs=1e-3)
    assert report.closure_residual <= 1e-6


def test_equilibrium_start_raises(MIV):
    with pytest.raises(EquilibriumStart):
        detect_period(MIV, [0.5, 1 / 6, 1 / 6, 1 / 6])


@pytest.mark.parametrize("s", [1e-13, 1.0, 1e13])
def test_equilibrium_start_is_scale_free(MI, s):
    # the field is zero on K's midpoint at any scale, and nowhere else:
    # not 0.1 min(z) off K, nor at the seeded starts
    section = kernel_line_section(MI)
    z = np.asarray(section.midpoint(), dtype=float)
    with pytest.raises(EquilibriumStart):
        section_normal(s * MI.array, z)
    off = z + 0.1 * z.min() * np.array([1.0, -1.0, 0.0, 0.0])
    for x in (off, *_seeded_starts(section, 0, 3)):
        assert np.abs(section_normal(s * MI.array, x)).max() > 0.0


def test_closure_residual_monotone_under_rtol(MI):
    residuals = []
    for rtol in (1e-6, 1e-8, 1e-10):
        rep = detect_period(MI, X_I, rtol=rtol,
                            atol=rtol * 1e-2)
        residuals.append(rep.closure_residual)
    assert residuals[0] >= residuals[1] >= residuals[2]


def test_no_closure_for_nonsingular_matrix():
    bumped = PayoffMatrix.from_upper([0, 1, -1, -1, 2, 0])
    with pytest.raises(NoClosureFound):
        detect_period(bumped, [0.25, 0.25, 0.25, 0.25], horizon=60.0)


def test_orbit_report_json(certified_MIV):
    _, _, _, report = certified_MIV
    out = report.to_json()
    assert set(out) == {"x0", "period", "closure_residual", "time_average",
                        "avg_distance_to_K", "phi_drift", "rtol",
                        "stability"}
    assert out["stability"] is None
    assert len(out["time_average"]) == 4


def test_stability_probe_MIV(certified_MIV):
    M, _, _, report = certified_MIV
    probe = stability_probe(M, report, delta=1e-3, n_probes=16)
    assert probe.max_tube_distance <= 5e-2
    assert probe.v_drift_max <= 1e-8
    assert probe.escaped == ()
    assert len(probe.probes) == 16


def test_tube_distance_matches_brute_force(certified_MIV, rng):
    ref = certified_MIV[3].orbit_samples
    picks = ref[rng.integers(0, len(ref), 300)]
    steps = rng.standard_normal((300, 4))
    steps -= steps.mean(axis=1, keepdims=True)
    steps *= np.logspace(-4, -2, 300)[:, None] / np.linalg.norm(
        steps, axis=1, keepdims=True)
    points = picks + steps
    brute = np.array([np.linalg.norm(ref - p, axis=1).min()
                      for p in points])
    assert brute.min() >= 1e-5
    far = brute >= 1e-4
    assert far.sum() >= 250
    got = _min_distance_to_samples(points, ref)
    assert np.all(np.abs(got[far] / brute[far] - 1.0) <= 1e-10)


def test_pruned_tube_distance_is_exact(certified_MIV, rng, monkeypatch):
    M, _, _, report = certified_MIV
    ref, T = report.orbit_samples, report.period
    n = len(ref) - 1
    searched = []

    def counted(points, samples, R=None):
        searched.append(len(points))
        return _min_distance_to_samples(points, samples, R)

    monkeypatch.setattr(orbit, "_min_distance_to_samples", counted)
    # a perturbed run over three periods, phase guessed from its time
    start = X_IV + 1e-3 * np.array([0.5, -0.2, -0.1, -0.2])
    ts, probe = integrate_many(M, [start], 3 * T)[0].sample(T / 512)
    phase = np.rint(np.mod(ts, T) / T * n).astype(int)
    # a noisy cloud around the samples, phase known exactly
    picks = rng.integers(0, n, 2000)
    steps = rng.standard_normal((2000, 4))
    steps -= steps.mean(axis=1, keepdims=True)
    cloud = ref[picks] + 1e-3 * steps
    far = np.full((300, 4), 0.01) + np.eye(4)[rng.integers(0, 4, 300)] * 0.96
    cases = [(probe, phase), (probe, (phase + n // 2) % n),
             (probe, np.zeros_like(phase)), (cloud, picks),
             (cloud, (picks + n // 2) % n), (far, rng.integers(0, n, 300))]
    for k, (points, guess) in enumerate(cases):
        searched.clear()
        got = _max_distance_to_samples(points, ref, guess)
        assert got == _min_distance_to_samples(points, ref).max()
        if k in (0, 3):
            # a good guess leaves most points unsearched
            assert sum(searched) < len(points) / 4
    # a sample cloud shorter than the window
    few = ref[::512]
    assert (_max_distance_to_samples(probe, few, phase // 512)
            == _min_distance_to_samples(probe, few).max())


def _reference_crossings(traj, p, f0):
    """Upward section crossings after the first step, halved 90 times."""
    ss = (traj.xs - p) @ f0
    k = np.flatnonzero((ss[1:-1] < 0) & (ss[2:] >= 0)) + 1
    lo, hi = traj.ts[k], traj.ts[k + 1]
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        below = (softmax(traj.dense(mid)) - p) @ f0 < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _counting_dense(monkeypatch):
    """Patch the package's dense evaluator; returns its call list."""
    calls = []
    interpolate = _rk.interpolate

    def counted(t, *nodes):
        calls.append(np.shape(t))
        return interpolate(t, *nodes)

    monkeypatch.setattr(_rk, "interpolate", counted)
    return calls


def test_bisection_stops_at_float_resolution(monkeypatch):
    for name in ("I", "II", "III", "IV", "V"):
        M = canonical_matrix(name)
        traj = integrate(M, X_I, 25.0)
        f0 = section_normal(M, X_I)
        want = _reference_crossings(traj, X_I, f0)
        calls = _counting_dense(monkeypatch)
        (got, _, first), = first_closure([traj], [X_I], [f0], 1e-6)
        monkeypatch.undo()
        assert first == 0
        assert np.array_equal(got, want)
        assert len(calls) <= 64


def test_batched_closure_matches_one_element_calls(monkeypatch, rng):
    # periodic face runs of canonical I-IV, in one batch to t = 25
    subs, starts = [], []
    for name in ("I", "II", "III", "IV"):
        M = canonical_matrix(name)
        for f in boundary_prediction(M).faces:
            if f.kind == "periodic":
                sub = face_subsystem(M, f.face).to_float()
                for x0 in _face_starts(f, sub, rng, 2):
                    subs.append(sub)
                    starts.append(x0)
    trajs = integrate_many(np.array([s.array for s in subs]), starts, 25.0,
                           rtol=1e-8, atol=1e-10)
    ps = list(starts)
    f0s = [section_normal(s, x0) for s, x0 in zip(subs, starts)]
    # a run shorter than one lap: no return at all
    trajs.append(integrate(subs[0], starts[0], 1.0))
    ps.append(starts[0])
    f0s.append(f0s[0])
    # a section through a point off the orbit: returns that never close
    trajs.append(trajs[0])
    ps.append(starts[0] + np.array([1e-3, -1e-3, 0.0]))
    f0s.append(section_normal(subs[0], ps[-1]))
    calls = _counting_dense(monkeypatch)
    batch = first_closure(trajs, ps, f0s, 1e-6)
    monkeypatch.undo()
    assert len(trajs) >= 10
    assert len(calls) <= 64
    for traj, p, f0, (t, r, first) in zip(trajs, ps, f0s, batch):
        (t1, r1, first1), = first_closure([traj], [p], [f0], 1e-6)
        assert np.array_equal(t, t1) and np.array_equal(r, r1)
        assert first == first1
        assert np.array_equal(t, _reference_crossings(traj, p, f0))
    assert [b[2] is None for b in batch] == [False] * (len(trajs) - 2) + [
        True, True]
    assert batch[-2][0].size == 0 and batch[-1][0].size > 0


@pytest.fixture(scope="module")
def certified_from_X_I():
    """(M, refs, report) of canonical I-V from X_I, certified once."""
    out = {}
    for name in ("I", "II", "III", "IV", "V"):
        M = canonical_matrix(name)
        section = kernel_line_section(M)
        report = detect_period(M, X_I, section=section)
        out[name] = M, report.refs, report
    return out


def test_reference_margin_is_taken_over_the_certified_orbit(
        certified_from_X_I):
    # the least smallest singular value of the tangent-plane Jacobian of
    # (phi_z', phi_z'') over the whole sample cloud, not over a short arc
    _, refs, report = certified_from_X_I["I"]
    samples = report.orbit_samples
    assert len(samples) == orbit.N_SAMPLES + 1
    jac = np.stack([phi_gradient(samples, z) @ orbit.TANGENT_BASIS
                    for z in (refs.z1, refs.z2)], axis=1)
    want = min(np.linalg.svd(j, compute_uv=False)[-1] for j in jac)
    assert refs.margin == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_entropy_monitors_drift_as_one_number(certified_from_X_I, name):
    # Runge-Kutta methods keep linear invariants (Hairer, Lubich, Wanner,
    # "Geometric Numerical Integration", section IV.1), and z.u is a
    # linear invariant for every z on K; the gauge then moves z.u by the
    # same shift for every z, since sum(z) = 1.  So the two monitors'
    # drifts are one number to rounding (measured at rtol 1e-10: at most
    # 3.8e-16)
    _, _, report = certified_from_X_I[name]
    drift = report.phi_drift
    assert report.rtol == 1e-10
    assert abs(drift["z1"] - drift["z2"]) <= 1e-12


@pytest.mark.parametrize("delta, n_probes", [(1e-3, 3), (1e-2, 1)])
@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_probe_records_match_probes_sampled_alone(
        certified_from_X_I, name, delta, n_probes, monkeypatch):
    M, refs, report = certified_from_X_I[name]
    runs = []

    def kept(*args, **kwargs):
        runs.extend(integrate_many(*args, **kwargs))
        return runs

    monkeypatch.setattr(orbit, "integrate_many", kept)
    calls = _counting_dense(monkeypatch)
    probe = stability_probe(M, report, delta=delta, n_probes=n_probes)
    monkeypatch.undo()
    # each probe's samples come from one dense evaluation
    assert len(calls) == n_probes
    T, ref = report.period, report.orbit_samples
    c1, c2 = phi(X_I, refs.z1), phi(X_I, refs.z2)
    assert len(runs) == len(probe.probes) == n_probes
    for k, (traj, record) in enumerate(zip(runs, probe.probes)):
        ts, xs = traj.sample(3.0 * T / (3 * 512))
        v = (phi(xs, refs.z1) - c1) ** 2 + (phi(xs, refs.z2) - c2) ** 2
        assert record == {
            "probe": k, "v0": float(v[0]),
            "v_drift": float(np.abs(v - v[0]).max()),
            "tube_distance": float(_min_distance_to_samples(xs, ref).max())}


def test_stability_probe_zero_delta(certified_MIV):
    M, _, _, report = certified_MIV
    probe = stability_probe(M, report, delta=0.0, n_probes=3)
    gaps = np.linalg.norm(np.diff(report.orbit_samples, axis=0), axis=1)
    assert probe.max_tube_distance <= gaps.max()
    assert probe.v_drift_max <= 1e-8


def test_stability_probe_large_delta(certified_MIV):
    M, _, _, report = certified_MIV
    with pytest.raises((PreconditionFailed, ProbeEscaped)):
        stability_probe(M, report, delta=0.3, n_probes=16)


def _apart(M, x0, section, seed, delta=1e-3, horizon=orbit.HORIZON):
    """detect_period, then stability_probe on its report."""
    report = detect_period(M, x0, section, horizon=horizon)
    report.stability = stability_probe(M, report, delta, seed=seed)
    return report


@pytest.mark.parametrize("name", ["I", "IV", "V"])
def test_probes_riding_along_keep_every_bit(name):
    # at this start IV's period lies past the first span, so its run
    # closes only on close_orbits' rerun, while the probes wait
    M = canonical_matrix(name)
    section = kernel_line_section(M)
    x0 = _seeded_starts(section, 3, 1)[0]
    fused = certify_orbit(M, x0, section, seed=3)
    apart = _apart(M, x0, section, 3)
    assert fused.to_json() == apart.to_json()
    assert np.array_equal(fused.orbit_samples, apart.orbit_samples)
    assert (fused.period > orbit.FIRST_SPAN) == (name == "IV")


def test_short_period_probes_agree_within_bound():
    # canonical I at four times its payoffs: 3T ~ 7 ends inside the first
    # span, so the probes are sampled from runs longer than their own.
    # Measured on seeds 0-5 at scales 3, 4 and 8: v_drift moved by at
    # most 2e-14, nothing else moved
    M = PayoffMatrix.from_upper([4 * v for v in CANONICAL_UPPER["I"]],
                                exact=True)
    section = kernel_line_section(M)
    x0 = _seeded_starts(section, 3, 1)[0]
    fused = certify_orbit(M, x0, section, seed=3)
    apart = _apart(M, x0, section, 3)
    assert 3.0 * fused.period < orbit.FIRST_SPAN
    a, b = fused.to_json(), apart.to_json()
    sa, sb = a.pop("stability"), b.pop("stability")
    assert a == b
    for key in ("delta", "n_probes", "escaped"):
        assert sa[key] == sb[key]
    for ra, rb in zip(sa["probes"], sb["probes"]):
        assert ra["probe"] == rb["probe"]
        for key in ("v0", "v_drift", "tube_distance"):
            assert abs(ra[key] - rb[key]) <= 1e-12
    for key in ("max_tube_distance", "v_drift_max"):
        assert abs(sa[key] - sb[key]) <= 1e-12


def test_riding_probe_errors_are_the_separate_runs_errors(MI):
    # canonical I near K at large scales, its horizon four periods: at
    # 1e12 the start's steps clear the floor and the probes' do not, at
    # 1e14 neither do (at 1e13 the start's DOP853 steps still clear it);
    # either way the error is the one that detect_period then
    # stability_probe raise, with the probe's own index or integrate's
    # one-start message
    section = kernel_line_section(MI)
    z = np.asarray(section.midpoint(), dtype=float)
    x0 = z + 1e-7 * np.array([1.0, -1.0, 0.0, 0.0])
    T = detect_period(MI, x0, section).period
    for s, row in ((1e12, 0), (1e14, None)):
        errors = []
        for run in (certify_orbit, _apart):
            with pytest.raises(StepSizeUnderflow) as exc:
                run(s * MI.array, x0, section, seed=0, delta=1e-2,
                    horizon=4.0 * T / s)
            errors.append(exc.value)
        fused, apart = errors
        assert fused.row == apart.row == row
        assert str(fused) == str(apart)
        assert (fused.t, fused.h) == (apart.t, apart.h)
        assert str(fused).startswith("step size" if row is None
                                     else f"batch row {row}:")
