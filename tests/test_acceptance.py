"""Acceptance battery: one test per headline guarantee.

Each test is a single pass/fail line under ``pytest -v`` and holds the
stated tolerance with no slack.  The randomized ensembles and the nine
certified interior runs are module fixtures shared across tests so the
whole battery stays at desk scale.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from replicator4 import (PayoffMatrix, UnclassifiableSignPattern, ZeroMatrix,
                         boundary_prediction, canonical_matrix,
                         classify_matrix, detect_period, integrate,
                         interior_starts, is_permanent, kernel_line_section,
                         permanence_probe, sample_acyclic_singular,
                         sample_class_matrix, sample_cyclic_nonsingular,
                         section_by_clipping, stability_probe,
                         verify_boundary)
from replicator4 import boundary
from replicator4.ensembles import barycenter_starts

SEED = 20260814
CLASS_NAMES = ("I", "II", "III", "IV", "V")
UPPER_INDEX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

Run = namedtuple("Run", "name M section x0 traj coarse fine")


@pytest.fixture(scope="module")
def class_ensembles():
    out = {}
    for k, name in enumerate(CLASS_NAMES):
        rng = np.random.default_rng(SEED + k)
        out[name] = [sample_class_matrix(name, rng) for _ in range(100)]
    return out


@pytest.fixture(scope="module")
def contrast_ensembles():
    rng = np.random.default_rng(SEED + 10)
    cyclic = [sample_cyclic_nonsingular(rng) for _ in range(100)]
    acyclic = [sample_acyclic_singular(rng) for _ in range(100)]
    return cyclic, acyclic


@pytest.fixture(scope="module")
def certified_runs():
    """Nine interior runs: M_I, M_IV, M_V with three seeded starts each.

    Every run carries a drift-monitored trajectory over [0, 100] plus
    the orbit certificates at rtol 1e-8 and 1e-10.
    """
    runs = []
    for name in ("I", "IV", "V"):
        M = canonical_matrix(name)
        section = kernel_line_section(M)
        rng = np.random.default_rng(SEED)
        for x0 in interior_starts(section, rng, 3):
            fine = detect_period(M, x0, section=section, rtol=1e-10)
            refs = fine.refs
            traj = integrate(M, x0, 100.0, rtol=1e-10,
                             monitors=[("z1", refs.z1), ("z2", refs.z2)])
            coarse = detect_period(M, x0, section=section, rtol=1e-8,
                                   atol=1e-10)
            runs.append(Run(name, M, section, x0, traj, coarse, fine))
    return runs


def test_permanence_verdict_matches_long_run_simulation(class_ensembles,
                                                        contrast_ensembles):
    """Graph criterion vs simulation on 500 + 100 + 100 matrices.

    Permanent games must keep every share above 1e-3 on t in [50, 200]
    from five interior starts; non-permanent games must push some share
    below 1e-4 by t = 200 from at least one start.
    """
    mismatches = []
    owners, matrices, starts = [], [], []
    for name, batch in class_ensembles.items():
        for k, M in enumerate(batch):
            assert is_permanent(M)
            section = kernel_line_section(M)
            rng = np.random.default_rng(SEED + 100 + k)
            owners.append((name, k))
            matrices += [M.array] * 5
            starts += interior_starts(section, rng, 5)
    windows = [w for w, _ in permanence_probe(np.array(matrices), starts)]
    for j, (name, k) in enumerate(owners):
        floor = min(windows[5 * j:5 * j + 5])
        if floor < 1e-3:
            mismatches.append((name, k, floor))
    cyclic, acyclic = contrast_ensembles
    for tag, batch in (("cyclic", cyclic), ("acyclic", acyclic)):
        matrices, starts = [], []
        for k, M in enumerate(batch):
            assert not is_permanent(M)
            rng = np.random.default_rng(SEED + 200 + k)
            matrices += [M.array] * 5
            starts += barycenter_starts(rng, 5)
        finals = [f for _, f in permanence_probe(np.array(matrices), starts)]
        for k in range(len(batch)):
            worst = min(finals[5 * k:5 * k + 5])
            if worst > 1e-4:
                mismatches.append((tag, k, worst))
    assert mismatches == []


def test_kernel_endpoints_annihilate_payoffs_and_match_loci(class_ensembles):
    """Closed-form endpoints of K for all 500 class matrices.

    Both endpoints must satisfy ||A x||_inf <= 1e-10, carry the locus
    combination of their class (up to the relabeling), keep an interior
    midpoint, and agree with the line-clipping fallback to 1e-10.
    """
    composition = {"I": ("face", "face"), "II": ("face", "face"),
                   "III": ("edge", "face"), "IV": ("face", "vertex"),
                   "V": ("edge", "edge")}
    for name, batch in class_ensembles.items():
        for M in batch:
            section = kernel_line_section(M)
            pts = [np.array([float(v) for v in e])
                   for e in section.endpoints]
            for x in pts:
                assert np.abs(M.array @ x).max() <= 1e-10
            kinds = tuple(sorted(l.kind for l in section.loci))
            assert kinds == tuple(sorted(composition[name]))
            strat = {l.kind: l.strategies for l in section.loci}
            if name in ("I", "II"):
                faces = [l.strategies for l in section.loci]
                assert faces[0] != faces[1]
            elif name == "IV":
                assert strat["face"] == strat["vertex"]
            elif name == "V":
                a, b = (l.strategies for l in section.loci)
                assert not set(a) & set(b)
            assert np.mean(pts, axis=0).min() > 0
            for c in section_by_clipping(M):
                assert min(np.linalg.norm(c - p) for p in pts) <= 1e-10


def test_relative_entropy_conserved_along_interior_flow(certified_runs):
    """phi drift <= 1e-8 against both reference points over [0, 100]."""
    assert len(certified_runs) == 9
    for run in certified_runs:
        assert max(run.traj.drift.values()) <= 1e-8, run.name


def test_interior_orbits_close_and_tighten_with_rtol(certified_runs):
    """Finite period, closure residual <= 1e-6, monotone under rtol."""
    for run in certified_runs:
        assert np.isfinite(run.fine.period) and run.fine.period > 0
        assert run.fine.closure_residual <= 1e-6, run.name
        assert run.fine.closure_residual <= run.coarse.closure_residual


def test_orbit_time_averages_lie_on_equilibrium_segment(certified_runs):
    for run in certified_runs:
        assert run.fine.avg_distance_to_K <= 1e-4, run.name


def test_certified_orbits_survive_stability_probe(certified_runs):
    """16 probes at delta = 1e-3: tube <= 50 delta, V drift <= 1e-8."""
    for k, run in enumerate(certified_runs):
        probe = stability_probe(run.M, run.fine, delta=1e-3,
                                n_probes=16, seed=SEED + k)
        assert probe.max_tube_distance <= 50 * probe.delta, run.name
        assert probe.v_drift_max <= 1e-8, run.name
        assert probe.escaped == ()


def test_boundary_predictions_hold_in_simulation():
    """Every edge and face prediction for M_I, M_IV, M_V is graded and
    passes at 1e-4 off-edge mass and 1e-3 constraint slack."""
    assert (boundary.OFF_EDGE_TOL, boundary.CONSTRAINT_TOL) == (1e-4, 1e-3)
    for name in ("I", "IV", "V"):
        M = canonical_matrix(name)
        report = verify_boundary(M, boundary_prediction(M), seed=SEED,
                                 t_end=200.0, rtol=1e-8,
                                 raise_on_violation=False)
        assert report.passed, name
        for region in report.regions:
            assert region.status == "pass", (name, region.region)


def _pattern_outcome(signs):
    try:
        M = PayoffMatrix.from_upper(signs, exact=True)
    except ZeroMatrix:
        return ("zero",)
    try:
        return ("class", classify_matrix(M).name)
    except UnclassifiableSignPattern as exc:
        return ("unclassifiable", exc.reason)


def test_all_sign_patterns_classify_and_are_relabeling_invariant():
    """All 729 ternary sign patterns end in a typed outcome, and the
    outcome is unchanged by each of the 24 node relabelings."""
    outcomes = {s: _pattern_outcome(s)
                for s in product((-1, 0, 1), repeat=6)}
    seen = {v[1] for v in outcomes.values() if v[0] == "class"}
    assert seen == set(CLASS_NAMES)
    assert sum(1 for v in outcomes.values() if v == ("zero",)) == 1
    for signs, outcome in outcomes.items():
        S = np.zeros((4, 4), dtype=int)
        for (i, j), s in zip(UPPER_INDEX, signs):
            S[i, j], S[j, i] = s, -s
        for perm in permutations(range(4)):
            p = np.array(perm)
            B = np.empty_like(S)
            B[np.ix_(p, p)] = S
            relabeled = tuple(int(B[i, j]) for i, j in UPPER_INDEX)
            assert outcomes[relabeled] == outcome, (signs, perm)


def test_exact_mode_agrees_with_float_mode(class_ensembles):
    """Rational inputs give exact pfaffian, class, and endpoints (no
    tolerance anywhere); float mode lands within 1e-10 of them."""
    for name, batch in class_ensembles.items():
        for M in batch[:10]:
            assert M.exact
            pf = M.pfaffian()
            assert isinstance(pf, Fraction) and pf == 0
            label = classify_matrix(M)
            section = kernel_line_section(M)
            for e in section.endpoints:
                assert all(isinstance(v, Fraction) for v in e)
                for row in M.rows:
                    assert sum(a * v for a, v in zip(row, e)) == 0
            Mf = PayoffMatrix.from_rows(
                [[float(v) for v in row] for row in M.rows], exact=False)
            assert not Mf.exact
            assert abs(float(pf) - Mf.pfaffian()) <= 1e-10
            flabel = classify_matrix(Mf)
            assert (flabel.name, flabel.relabeling) == (label.name,
                                                        label.relabeling)
            fsec = kernel_line_section(Mf)
            exact_pts = [np.array([float(v) for v in e])
                         for e in section.endpoints]
            for fe in fsec.endpoints:
                fp = np.array([float(v) for v in fe])
                assert min(np.linalg.norm(fp - p)
                           for p in exact_pts) <= 1e-10
