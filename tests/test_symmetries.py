"""The runs' symmetries: relabeling and time reversal, with no oracle.

Naming strategy i perm[i - 1] turns A into P A P' and x0 into P x0, so
every answer is permuted; the flow of -A = A' is the flow of A run
backwards, so -A has A's closed orbits and the opposite edge winners.
This is metamorphic testing (Chen, Kuo, Liu & Tse, "Metamorphic testing:
a review of challenges and opportunities", ACM Computing Surveys 51,
2018).  K's relations are in test_kernelgeom, the classification's in
test_signgraph; these cover the period and the boundary runs on the
exact canonical classes.
"""

from functools import cache
from itertools import permutations

import numpy as np
import pytest

from replicator4 import PayoffMatrix, canonical_matrix, detect_period
from replicator4.boundary import boundary_prediction, verify_boundary
from oracles import relabel_rows

CLASSES = ("I", "II", "III", "IV", "V")
X0 = (0.1, 0.2, 0.3, 0.4)
PERMS = list(permutations((1, 2, 3, 4)))


def _relabeled(M, perm):
    return PayoffMatrix.from_rows(relabel_rows(M.rows, perm))


def _moved(x, perm):
    """The point x after naming strategy i perm[i - 1]."""
    y = [None] * 4
    for i, v in enumerate(x):
        y[perm[i] - 1] = v
    return tuple(y)


def _reversed(M):
    return PayoffMatrix.from_rows([[-v for v in row] for row in M.rows])


def _renamed(region, perm):
    """A boundary region's name after naming strategy i perm[i - 1]."""
    kind, where = region.split(":")
    if kind == "edge":
        i, j = sorted(perm[int(k) - 1] for k in where.split("-"))
        return f"edge:{i}-{j}"
    return f"face:-{perm[int(where[1:]) - 1]}"


@cache
def _period(name):
    return detect_period(canonical_matrix(name), X0).period


@cache
def _regions(name):
    """(status, predicted kind) of each region of the seed-0 boundary run."""
    report = verify_boundary(canonical_matrix(name), seed=0)
    return {r.region: (r.status, r.predicted["kind"]) for r in report.regions}


@pytest.mark.parametrize("name", CLASSES)
def test_relabeled_orbit_has_the_same_period(name):
    # the relabeled run adds its field in another order, so the periods
    # agree to rounding (measured: at most 8.6e-15 relative over all 115)
    M, period = canonical_matrix(name), _period(name)
    for perm in PERMS[1:]:
        moved = detect_period(_relabeled(M, perm), _moved(X0, perm))
        assert moved.period == pytest.approx(period, rel=4e-14, abs=0.0), \
            perm


@pytest.mark.parametrize("name", CLASSES)
def test_relabeled_boundary_regions_keep_their_statuses(name):
    # three seeded relabelings per class (all 24 matched, 1,200 of 1,200
    # statuses); the face starts come from one rng in face order, so the
    # renamed faces draw other starts: each region's status and predicted
    # kind are compared, not the face runs' measured outcomes
    M, base = canonical_matrix(name), _regions(name)
    assert {status for status, _ in base.values()} <= {"pass", "measured"}
    rng = np.random.default_rng(12)
    for k in rng.choice(np.arange(1, 24), 3, replace=False):
        perm = PERMS[k]
        report = verify_boundary(_relabeled(M, perm), seed=0)
        got = {r.region: (r.status, r.predicted["kind"])
               for r in report.regions}
        assert got == {_renamed(region, perm): v
                       for region, v in base.items()}, perm


@pytest.mark.parametrize("name", CLASSES)
def test_time_reversal_keeps_orbits_and_swaps_edge_winners(name):
    M = canonical_matrix(name)
    back = _reversed(M)
    # both runs close at rtol 1e-10 (measured: at most 3.5e-11 relative)
    assert detect_period(back, X0).period == pytest.approx(
        _period(name), rel=1e-10, abs=0.0)
    ahead, behind = boundary_prediction(M), boundary_prediction(back)
    for e, f in zip(ahead.edges, behind.edges):
        assert (f.edge, f.kind) == (e.edge, e.kind)
        if e.kind == "vertex":
            assert {e.vertex, f.vertex} == set(e.edge)
    for e, f in zip(ahead.faces, behind.faces):
        assert (e.kind == "periodic") == (f.kind == "periodic"), e.face
    assert verify_boundary(back, seed=0).passed
