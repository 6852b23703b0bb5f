"""Closed-orbit certification: reference points, period, stability.

Period values asserted with tight absolute windows are regression
constants recorded from the first certified run; everything else is a
contract bound (closure, drift, tube radius) rather than a frozen
number.
"""

import numpy as np
import pytest

from replicator4 import (EquilibriumStart, NoClosureFound, PayoffMatrix,
                         PreconditionFailed, ProbeEscaped, canonical_matrix,
                         detect_period, distance_to_K, integrate,
                         kernel_line_section, select_reference_points,
                         stability_probe)
from replicator4 import orbit
from replicator4.dynamics import Trajectory, integrate_many, softmax
from replicator4.orbit import (_max_distance_to_samples,
                               _min_distance_to_samples, first_closure,
                               section_normal)

X_IV = np.array([0.4, 0.3, 0.2, 0.1])
X_I = np.array([0.1, 0.2, 0.3, 0.4])


@pytest.fixture(scope="module")
def certified_MIV():
    M = canonical_matrix("IV")
    section = kernel_line_section(M)
    refs = select_reference_points(M, section, X_IV)
    report = detect_period(M, X_IV, section=section, refs=refs)
    return M, section, refs, report


def test_reference_points_MIV(certified_MIV):
    M, section, refs, _ = certified_MIV
    assert np.allclose(refs.z1, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)
    assert distance_to_K(refs.z1, section) <= 1e-10
    assert distance_to_K(refs.z2, section) <= 1e-10
    assert np.abs(refs.z1 - refs.z2).max() > 1e-3
    assert refs.margin > 1e-8


def test_reference_points_MV(MV):
    section = kernel_line_section(MV)
    refs = select_reference_points(MV, section, [0.4, 0.1, 0.3, 0.2])
    assert np.allclose(refs.z1, [0.25] * 4, atol=1e-12)
    assert refs.margin > 1e-8


def test_reference_selection_rejects_point_on_K(MIV):
    section = kernel_line_section(MIV)
    with pytest.raises(PreconditionFailed):
        select_reference_points(MIV, section,
                                [0.5, 1 / 6, 1 / 6, 1 / 6])


def test_period_MIV_regression(certified_MIV):
    _, _, _, report = certified_MIV
    assert report.period == pytest.approx(19.315607, abs=1e-3)
    assert report.closure_residual <= 1e-6
    assert report.avg_distance_to_K <= 1e-4
    assert report.time_average.min() > 0.0
    assert max(report.phi_drift.values()) <= 1e-8


def test_period_MI_regression(MI):
    section = kernel_line_section(MI)
    refs = select_reference_points(MI, section, X_I)
    report = detect_period(MI, X_I, section=section, refs=refs)
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
    M, _, refs, report = certified_MIV
    probe = stability_probe(M, report, refs, delta=1e-3, n_probes=16)
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

    def counted(points, samples):
        searched.append(len(points))
        return _min_distance_to_samples(points, samples)

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


def test_bisection_stops_at_float_resolution(monkeypatch):
    def reference_crossings(traj, p, f0):
        ss = (traj.xs - p) @ f0
        k = np.flatnonzero((ss[1:-1] < 0) & (ss[2:] >= 0)) + 1
        lo, hi = traj.ts[k], traj.ts[k + 1]
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            below = (softmax(traj.dense(mid)) - p) @ f0 < 0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    calls = []
    dense = Trajectory.dense

    def counted(self, t):
        calls.append(np.shape(t))
        return dense(self, t)

    for name in ("I", "II", "III", "IV", "V"):
        M = canonical_matrix(name)
        traj = integrate(M, X_I, 25.0)
        f0 = section_normal(M, X_I)
        want = reference_crossings(traj, X_I, f0)
        monkeypatch.setattr(Trajectory, "dense", counted)
        calls.clear()
        got, _, first = first_closure(traj, X_I, f0, 1e-6)
        monkeypatch.undo()
        assert first == 0
        assert np.array_equal(got, want)
        assert len(calls) <= 64


def test_stability_probe_zero_delta(certified_MIV):
    M, _, refs, report = certified_MIV
    probe = stability_probe(M, report, refs, delta=0.0, n_probes=3)
    gaps = np.linalg.norm(np.diff(report.orbit_samples, axis=0), axis=1)
    assert probe.max_tube_distance <= gaps.max()
    assert probe.v_drift_max <= 1e-8


def test_stability_probe_large_delta(certified_MIV):
    M, _, refs, report = certified_MIV
    with pytest.raises((PreconditionFailed, ProbeEscaped)):
        stability_probe(M, report, refs, delta=0.3, n_probes=16)
