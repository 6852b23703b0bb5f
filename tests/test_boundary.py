"""Boundary case tables and their empirical verification.

The edge rule asserted here follows the restricted dynamics: on
conv(e_i, e_j) the share of i obeys x_i' = x_i x_j a_ij, so a positive
a_ij drives the edge toward vertex i.  The simulation-backed
verification below and the face dominance checks agree with that
orientation, which is what settles it.
"""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from replicator4 import (PayoffMatrix, PredictionViolated, boundary_prediction,
                         canonical_matrix, detect_period, face_subsystem,
                         integrate, kernel_line_section, predict_edge,
                         predict_face, verify_boundary)
from replicator4 import boundary
from replicator4.boundary import _face_starts, face_nodes, unstable_vertices
from replicator4.dynamics import integrate_many
from replicator4.ensembles import CANONICAL_UPPER
from oracles import relabel_rows


def test_face_subsystem_MI_1(MI):
    S = face_subsystem(MI, 1)
    assert S.rows == ((0, 1, -1), (-1, 0, 1), (1, -1, 0))


def test_face_subsystem_MIV_2(MIV):
    S = face_subsystem(MIV, 2)
    assert S.rows == ((0, 0, 0), (0, 0, -1), (0, 1, 0))


def test_face_subsystem_skewness(MI, MIII):
    for M in (MI, MIII):
        for i in (1, 2, 3, 4):
            S = face_subsystem(M, i)
            assert all(S[a, b] == -S[b, a] for a in range(3)
                       for b in range(3))


def test_edge_rule_follows_restricted_dynamics(MI, MIV, MV):
    out = predict_edge(MI, 2, 3)  # a_23 = 1: share of 2 grows
    assert out.kind == "vertex" and out.vertex == 2
    out = predict_edge(MIV, 2, 3)  # a_23 = -1: share of 3 grows
    assert out.kind == "vertex" and out.vertex == 3
    out = predict_edge(MV, 1, 2)  # a_12 = 0: every edge point is fixed
    assert out.kind == "all_equilibria"


def test_edge_rule_agrees_with_simulation(MI):
    # one honest integration per sign, on the 2-strategy subsystem
    for (i, j), winner in (((2, 3), 2), ((1, 4), 4)):
        sub = MI.submatrix([i - 1, j - 1]).to_float()
        traj = integrate(sub, [0.5, 0.5], 60.0, rtol=1e-8)
        x = traj.x_at(60.0)
        share = dict(zip((i, j), x))
        assert share[winner] >= 1.0 - 1e-4


FACE_TABLES = {
    "I": {1: ("periodic",), 2: ("periodic",),
          3: ("vertex", 4), 4: ("vertex", 1)},
    "II": {1: ("periodic",), 2: ("periodic",),
           3: ("vertex", 4), 4: ("ratio", (1, 2))},
    "III": {1: ("periodic",), 2: ("vertex", 4),
            3: ("interval", (1, 2), 2, Fraction(1, 2)),
            4: ("interval", (1, 2), 1, Fraction(1, 2))},
    "IV": {1: ("periodic",), 2: ("coordinate", (1, 4), 1),
           3: ("coordinate", (1, 2), 1), 4: ("coordinate", (1, 3), 1)},
    "V": {1: ("interval", (3, 4), 3, Fraction(1, 2)),
          2: ("interval", (3, 4), 4, Fraction(1, 2)),
          3: ("interval", (1, 2), 2, Fraction(1, 2)),
          4: ("interval", (1, 2), 1, Fraction(1, 2))},
}


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_face_tables(name):
    M = canonical_matrix(name)
    for i, want in FACE_TABLES[name].items():
        out = predict_face(M, i)
        if want[0] == "periodic":
            assert out.kind == "periodic"
        elif want[0] == "vertex":
            assert out.kind == "vertex" and out.vertex == want[1]
        elif want[0] == "ratio":
            assert out.kind == "edge_point"
            assert (out.constraint.num, out.constraint.den) == want[1]
        elif want[0] == "coordinate":
            assert out.kind == "edge_point"
            assert out.edge == want[1]
            assert out.constraint.strategy == want[2]
        else:
            assert out.kind == "edge_point"
            assert out.edge == want[1]
            assert out.constraint.strategy == want[2]
            assert out.constraint.lower == want[3]


def test_interval_bound_formula(MIII):
    # face x_3 = 0 of the class III representative: the bound is
    # a_14/(a_14 - a_24) = 1/2
    out = predict_face(MIII, 3)
    a14, a24 = MIII[0, 3], MIII[1, 3]
    assert out.constraint.lower == a14 / (a14 - a24) == Fraction(1, 2)


def test_predictions_commute_with_relabeling(MIV):
    for perm in permutations((1, 2, 3, 4)):
        R = PayoffMatrix.from_rows(relabel_rows(MIV.rows, perm), exact=True)
        # the conserved-coordinate face keeps pointing at the zero row
        for i in (2, 3, 4):
            out = predict_face(R, perm[i - 1])
            assert out.kind == "edge_point"
            assert out.constraint.strategy == perm[0]
        assert predict_face(R, perm[0]).kind == "periodic"


UNSTABLE = {"I": (1, 2, 3, 4), "II": (1, 2, 3, 4), "III": (1, 2, 3, 4),
            "IV": (2, 3, 4), "V": (1, 2, 3, 4)}


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_unstable_vertices(name):
    assert unstable_vertices(canonical_matrix(name)) == UNSTABLE[name]


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_unstable_vertices_repel_nearby_face_starts(name):
    M = canonical_matrix(name)
    for k in unstable_vertices(M):
        repelled = False
        for i in (j for j in (1, 2, 3, 4) if j != k):
            nodes = face_nodes(i)
            pos = nodes.index(k)
            x0 = np.full(3, 5e-4)
            x0[pos] = 1.0 - 1e-3
            traj = integrate(face_subsystem(M, i).to_float(), x0, 200.0,
                             rtol=1e-8)
            _, xs = traj.sample(0.5)
            if (1.0 - xs[:, pos]).max() > 0.1:
                repelled = True
                break
        assert repelled, f"vertex {k} of M_{name} never left the 0.1 ball"


def test_stable_vertex_of_MIV_stays_put(MIV):
    # vertex 1 has a zero payoff row; x_1 is conserved on every face
    # around it, so nearby starts stay nearby
    for i in (2, 3, 4):
        nodes = face_nodes(i)
        pos = nodes.index(1)
        x0 = np.full(3, 5e-4)
        x0[pos] = 1.0 - 1e-3
        traj = integrate(face_subsystem(MIV, i).to_float(), x0, 200.0,
                         rtol=1e-8)
        _, xs = traj.sample(0.5)
        assert (1.0 - xs[:, pos]).max() <= 2e-3


def test_equilibrium_zero_set_MV(MV):
    A = MV.array
    section = kernel_line_section(MV)

    def field_norm(x):
        return np.abs(x * (A @ x)).max()

    for c in np.linspace(0.0, 1.0, 9):
        z = np.asarray([float(v) for v in section.point_at(float(c))])
        assert field_norm(z) <= 1e-12
    for t in np.linspace(0.0, 1.0, 9):
        assert field_norm(np.array([t, 1 - t, 0.0, 0.0])) <= 1e-12
        assert field_norm(np.array([0.0, 0.0, t, 1 - t])) <= 1e-12
    # off the claimed set the field is genuinely nonzero
    assert field_norm(np.array([0.4, 0.1, 0.3, 0.2])) > 1e-3
    assert field_norm(np.array([0.0, 0.5, 0.4, 0.1])) > 1e-3


def test_verify_boundary_MII_includes_measured_ratio(MII):
    report = verify_boundary(MII, seed=7)
    assert report.passed
    by_region = {r.region: r for r in report.regions}
    assert len(by_region) == 10
    ratio_region = by_region["face:-4"]
    assert ratio_region.status == "measured"
    assert ratio_region.measured["max_off_edge_mass"] <= 1e-4
    for rec in ratio_region.measured["ratios"]:
        # the claim happens to hold on this matrix; record, don't grade
        assert rec["limit_ratio"] == pytest.approx(rec["start_ratio"],
                                                   rel=1e-6)
    graded = [r for r in report.regions if r.status != "measured"]
    assert all(r.status == "pass" for r in graded)


def test_verify_boundary_flags_wrong_prediction(MIV):
    pred = boundary_prediction(MIV)
    edges = list(pred.edges)
    k = next(i for i, e in enumerate(edges) if e.kind == "vertex")
    wrong = edges[k].__class__(edge=edges[k].edge, kind="vertex",
                               vertex=edges[k].edge[0]
                               if edges[k].vertex != edges[k].edge[0]
                               else edges[k].edge[1])
    edges[k] = wrong
    doctored = pred.__class__(edges=tuple(edges), faces=pred.faces,
                              equilibria=pred.equilibria,
                              unstable_vertices=pred.unstable_vertices)
    with pytest.raises(PredictionViolated) as exc:
        verify_boundary(MIV, doctored, t_end=60.0)
    failed = [r for r in exc.value.report.regions if r.status == "fail"]
    assert len(failed) == 1
    report = verify_boundary(MIV, doctored, t_end=60.0,
                             raise_on_violation=False)
    assert not report.passed


def _periodic_face_starts(M, seed, samples=3):
    """Each periodic face's subsystem and starts, drawn as
    verify_boundary draws them: every face in order from one rng."""
    rng = np.random.default_rng(seed)
    out = {}
    for f in boundary_prediction(M).faces:
        sub = face_subsystem(M, f.face).to_float()
        starts = _face_starts(f, sub, rng, samples)
        if f.kind == "periodic":
            out[f"face:-{f.face}"] = (sub, starts)
    return out


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_batched_boundary_periods_match_detect_period(name, monkeypatch):
    M = canonical_matrix(name)
    batches = []

    def counted(*args, **kwargs):
        batches.append(args)
        return integrate_many(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a serial run inside verify_boundary")

    monkeypatch.setattr(boundary, "integrate_many", counted)
    monkeypatch.setattr(boundary, "integrate", forbidden)
    monkeypatch.setattr(boundary, "detect_period", forbidden)
    report = verify_boundary(M, seed=0)
    monkeypatch.undo()
    assert 1 <= len(batches) <= 4
    by_region = {r.region: r for r in report.regions}
    for region, (sub, starts) in _periodic_face_starts(M, 0).items():
        periods = by_region[region].measured["periods"]
        assert len(periods) == len(starts)
        for x0, period in zip(starts, periods):
            rep = detect_period(sub, x0, rtol=1e-8, atol=1e-10,
                                closure_tol=1e-6)
            assert period == pytest.approx(rep.period, rel=1e-9, abs=0.0)


def test_periodic_face_beyond_first_span_falls_back(monkeypatch):
    # a quarter of class I's payoffs: face periods near 44, past the
    # batch's 25 time units, so every periodic start needs the fallback
    M = PayoffMatrix.from_upper([Fraction(v, 4) for v in CANONICAL_UPPER["I"]],
                                exact=True)
    reports = []

    def recorded(*args, **kwargs):
        reports.append(detect_period(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(boundary, "detect_period", recorded)
    report = verify_boundary(M, seed=0, raise_on_violation=False)
    by_region = {r.region: r for r in report.regions}
    faces = _periodic_face_starts(M, 0)
    periods = [p for region in faces
               for p in by_region[region].measured["periods"]]
    assert len(reports) == len(periods) == 6
    assert periods == [rep.period for rep in reports]
    assert min(periods) > 25.0
    assert all(by_region[region].status == "pass" for region in faces)
