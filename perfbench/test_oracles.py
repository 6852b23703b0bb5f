"""Tests of the benchmark's own oracles and input generators.

    python3 -m pytest perfbench

None of this imports replicator4: the oracles must stand on their own.
"""

import json
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import inputs
import oracles
import run
from workloads import PREDICTION_DIFFERS, VERDICT_DIFFERS, Algebra

COMPOSITION = {"I": ["face", "face"], "II": ["face", "face"],
               "III": ["edge", "face"], "IV": ["face", "vertex"],
               "V": ["edge", "edge"]}


def random_skew(rng):
    upper = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
             for _ in range(6)]
    return oracles.rows_from_upper(upper)


def test_pfaffian_squared_is_leibniz_determinant():
    rng = np.random.default_rng(0)
    for _ in range(200):
        rows = random_skew(rng)
        assert oracles.pfaffian(rows) ** 2 == oracles.det_leibniz(rows)


def test_leibniz_determinant_of_known_matrices():
    assert oracles.det_leibniz([[2, 0], [0, 3]]) == 6
    assert oracles.det_leibniz([[0, 1], [1, 0]]) == -1
    cyc = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert oracles.det_leibniz(cyc) == 1
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert oracles.det_leibniz(rows) == round(np.linalg.det(rows))


def test_rational_nullspace_is_exact_and_complete():
    rng = np.random.default_rng(1)
    for _ in range(100):
        rows = random_skew(rng)
        basis = oracles.rational_nullspace(rows)
        rank = np.linalg.matrix_rank(np.array(rows, dtype=float))
        assert len(basis) == 4 - rank
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0
                       for row in rows)


def test_dfs_cycle_test():
    assert oracles.has_cycle({(1, 2), (2, 3), (3, 1)})
    assert oracles.has_cycle({(1, 2), (2, 3), (3, 4), (4, 1)})
    assert not oracles.has_cycle({(1, 2), (1, 3), (2, 3), (3, 4)})
    assert not oracles.has_cycle(set())


@pytest.mark.parametrize("name", oracles.CLASSES)
def test_class_representatives_are_singular_and_relabeling_invariant(name):
    rows = oracles.rows_from_upper(oracles.CLASS_UPPER[name])
    assert oracles.det_leibniz(rows) == 0
    edges = oracles.sign_edges(rows)
    assert oracles.class_of_edges(edges)[0] == name
    for pi in permutations((1, 2, 3, 4)):
        moved = {(pi[i - 1], pi[j - 1]) for i, j in edges}
        assert oracles.class_of_edges(moved)[0] == name


@pytest.mark.parametrize("name", oracles.CLASSES)
def test_segment_endpoints_are_equilibria_with_class_loci(name):
    rng = np.random.default_rng(2)
    for canonical in (True, False, False):
        rows = inputs.class_rows(name, rng, canonical)
        ends = oracles.segment_endpoints(rows)
        assert len(ends) == 2
        for e in ends:
            assert sum(e) == 1 and min(e) >= 0
            assert all(sum(a * z for a, z in zip(row, e)) == 0
                       for row in rows)
        assert sorted(oracles.locus_of(e)[0] for e in ends) == \
            COMPOSITION[name]


def test_generators_match_their_construction():
    rng = np.random.default_rng(3)
    for _ in range(30):
        for name in oracles.CLASSES:
            rows = inputs.class_rows(name, rng, canonical=False)
            assert oracles.pfaffian(rows) == 0
            assert oracles.class_of_edges(oracles.sign_edges(rows))[0] == name
        cyc = inputs.cyclic_nonsingular_rows(rng)
        assert oracles.has_cycle(oracles.sign_edges(cyc))
        assert abs(oracles.pfaffian(cyc)) >= Fraction(1, 4)
        acyc = inputs.acyclic_singular_rows(rng)
        assert not oracles.has_cycle(oracles.sign_edges(acyc))
        assert oracles.det_leibniz(acyc) == 0


def test_inputs_repeat_for_a_seed():
    a, b = inputs.certify_inputs(7), inputs.certify_inputs(7)
    assert [i["text"] for i in a] == [i["text"] for i in b]
    assert [i["x0_arg"] for i in a] == [i["x0_arg"] for i in b]
    assert [i["probe_seed"] for i in a] == [i["probe_seed"] for i in b]
    c = inputs.algebra_round(7, 0, 10)
    assert [i["text"] for i in c] == \
        [i["text"] for i in inputs.algebra_round(7, 0, 10)]


def first_return(A, x0, h, t_max):
    """Linear-interpolated first upward crossing, near x0, of the section
    through x0 normal to the field."""
    ts, xs = oracles.rk4_shares(A, x0, t_max, int(round(t_max / h)))
    s = (xs - x0) @ (x0 * (A @ x0))
    near = np.linalg.norm(xs - x0, axis=1) < 1e-3
    up = np.flatnonzero((s[:-1] < 0) & (s[1:] >= 0) & near[:-1])
    k = int(up[0])
    return ts[k] + h * s[k] / (s[k] - s[k + 1])


@pytest.mark.parametrize("name", oracles.CLASSES)
def test_rk4_closes_canonical_orbits_and_conserves_entropy(name):
    rows = oracles.rows_from_upper(oracles.CLASS_UPPER[name])
    A = np.array(rows, dtype=float)
    x0 = inputs.orbit_start(rows, np.random.default_rng(4))
    period = first_return(A, x0, 0.002, 60.0)
    ts, xs = oracles.rk4_shares(A, x0, period, int(period / 0.002))
    assert np.linalg.norm(xs[-1] - x0) <= 1e-5
    a, b = (np.array([float(v) for v in e])
            for e in oracles.segment_endpoints(rows))
    z = 0.5 * (a + b)
    phi = -(z * np.log(xs / z)).sum(axis=1)
    assert np.abs(phi - phi[0]).max() <= 1e-9
    avg = oracles.time_average(ts, xs)
    assert oracles.distance_to_line(avg, a, b) <= 1e-4


def zero_matrix_answer(item):
    """What the algebra chain returns for a float twin whose edges were
    all dropped (F1): right pf and det, no edges, all equilibria."""
    s, rows = item["scale"], item["rows"]
    all_eq = SimpleNamespace(kind="all_equilibria")
    return {"M": None, "pf": s * s * float(oracles.pfaffian(rows)),
            "det": s ** 4 * float(oracles.det_leibniz(rows)),
            "permanent": False, "label": "acyclic", "section": None,
            "clip": None,
            "prediction": SimpleNamespace(edges=[all_eq] * 6,
                                          faces=[all_eq] * 4)}


RAISED_IN_KERNEL = {"error": "RankError", "stage": "kernel",
                    "permanent": True}


def test_fault_attribution_of_the_scale_ladder():
    wl = Algebra(0)
    items = {(i["kind"], i["scale"]): i for i in wl.items[:wl.round_size]}
    f1, f2 = items["I", 3e-13], items["cyclic", 3e-9]
    zero = zero_matrix_answer(f1)
    assert wl.fault(f1, zero, VERDICT_DIFFERS) == "F1"
    acyclic = items["acyclic", 3e-15]
    assert wl.fault(acyclic, zero_matrix_answer(acyclic),
                    PREDICTION_DIFFERS) == "F1"
    assert wl.fault(f2, RAISED_IN_KERNEL, "raised RankError") == "F2"
    # the same answers outside the thresholds' reach, or on seeded items
    assert wl.fault(items["I", 3e-11], zero_matrix_answer(items["I", 3e-11]),
                    VERDICT_DIFFERS) is None
    assert wl.fault(items["cyclic", 3e-4], RAISED_IN_KERNEL,
                    "raised RankError") is None
    seeded = [i for i in items.values() if not i["ladder"]]
    assert seeded and all(
        wl.fault(i, RAISED_IN_KERNEL, "raised RankError") is None
        for i in seeded)


def test_other_failures_on_fault_items_are_not_blamed_on_the_fault():
    wl = Algebra(0)
    items = {(i["kind"], i["scale"]): i for i in wl.items[:wl.round_size]}
    f1, f2 = items["I", 3e-13], items["cyclic", 3e-9]
    zero = zero_matrix_answer(f1)
    # F1 items: another reason, another answer, or an exception
    assert wl.fault(f1, zero, "float pfaffian differs from the exact "
                    "one") is None
    assert wl.fault(f1, dict(zero, label="II"), VERDICT_DIFFERS) is None
    assert wl.fault(f1, dict(zero, pf=1.0), VERDICT_DIFFERS) is None
    periodic = SimpleNamespace(kind="periodic")
    assert wl.fault(f1, dict(zero, prediction=SimpleNamespace(
        edges=zero["prediction"].edges, faces=[periodic] * 4)),
        VERDICT_DIFFERS) is None
    assert wl.fault(f1, RAISED_IN_KERNEL, "raised RankError") is None
    # F2 items: another error, or one raised before the kernel step
    assert wl.fault(f2, dict(RAISED_IN_KERNEL, error="ZeroMatrix"),
                    "raised ZeroMatrix") is None
    assert wl.fault(f2, dict(RAISED_IN_KERNEL, stage="parse",
                             permanent=None), "raised RankError") is None
    assert wl.fault(f2, zero_matrix_answer(f2), VERDICT_DIFFERS) is None
    # an exception outside the program's own types is never a known fault
    correct, failed, faults, _ = run.check_all(
        wl, [(f2, run.Crash(TypeError("boom")), 0.0, 0)])
    assert (correct, failed, faults) == (False, 1, {})


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
