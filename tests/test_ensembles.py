"""Randomized matrix generators and the fast permanence probe."""

from fractions import Fraction

import numpy as np
import pytest

from replicator4 import (PayoffMatrix, PreconditionFailed, StepSizeUnderflow,
                         build_digraph, canonical_matrix, classify_matrix,
                         kernel_line_section,
                         sample_acyclic_singular, sample_class_matrix,
                         sample_cyclic_nonsingular)
from replicator4.ensembles import (CANONICAL_UPPER, barycenter_starts,
                                   interior_starts, permanence_probe)

EXPECTED_UPPER = {
    "I": (1, 1, -2, 1, -1, 1),
    "II": (0, 1, -1, 1, -1, 1),
    "III": (0, 1, -1, -1, 1, -1),
    "IV": (0, 0, 0, -1, 1, -1),
    "V": (0, 1, -1, -1, 1, 0),
}


def test_canonical_upper_triangles():
    assert {k: tuple(v) for k, v in CANONICAL_UPPER.items()} == EXPECTED_UPPER
    for name, u in EXPECTED_UPPER.items():
        assert canonical_matrix(name).rows == \
            PayoffMatrix.from_upper(u).rows


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_class_samples_are_singular_and_classify_back(name, rng):
    for _ in range(20):
        M = sample_class_matrix(name, rng)
        assert M.exact
        assert M.pfaffian() == 0
        assert classify_matrix(M).name == name


def test_class_samples_without_relabeling_keep_pattern(rng):
    for _ in range(5):
        M = sample_class_matrix("V", rng, relabel=False)
        G = build_digraph(M)
        assert set(G.edges) == {(1, 3), (2, 4), (3, 2), (4, 1)}


def test_class_samples_have_interior_kernel_segment(rng):
    for name in ("I", "II", "III", "IV", "V"):
        M = sample_class_matrix(name, rng)
        section = kernel_line_section(M)
        assert min(section.midpoint()) > 0


def test_cyclic_nonsingular_samples(rng):
    for _ in range(30):
        M = sample_cyclic_nonsingular(rng)
        assert M.exact
        assert abs(M.pfaffian()) >= Fraction(1, 4)
        assert build_digraph(M).has_cycle


def test_acyclic_singular_samples(rng):
    for _ in range(30):
        M = sample_acyclic_singular(rng)
        assert M.exact
        assert M.pfaffian() == 0
        assert not build_digraph(M).has_cycle


def test_interior_starts_are_interior(MIV, rng):
    section = kernel_line_section(MIV)
    starts = interior_starts(section, rng, 8)
    for x in starts:
        assert x.min() > 0
        assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_barycenter_starts_are_interior(rng):
    for x in barycenter_starts(rng, 8):
        assert x.min() > 0
        assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_probe_separates_permanent_from_decaying(MI, rng):
    section = kernel_line_section(MI)
    starts = interior_starts(section, rng, 3)
    for window_min, final_min in permanence_probe(MI, starts):
        assert window_min >= 1e-3
        assert final_min >= 1e-3
    bumped = PayoffMatrix.from_upper([0, 1, -1, -1, 2, 0])
    finals = [f for _, f in permanence_probe(bumped, starts)]
    assert min(finals) <= 1e-4


@pytest.mark.parametrize("contrast", [False, True])
def test_probe_rows_are_independent(contrast, rng):
    if contrast:
        M = sample_cyclic_nonsingular(rng)
        starts = barycenter_starts(rng, 4)
    else:
        M = sample_class_matrix("III", rng)
        starts = interior_starts(kernel_line_section(M), rng, 4)
    batch = permanence_probe(M, starts)
    singles = [permanence_probe(M, [s])[0] for s in starts]
    assert np.allclose(batch, singles, rtol=1e-9, atol=0.0)


def test_stacked_probe_matches_per_matrix_calls(MI, rng):
    matrices = [MI, sample_class_matrix("III", rng),
                sample_cyclic_nonsingular(rng), sample_acyclic_singular(rng)]
    starts = barycenter_starts(rng, 2 * len(matrices))
    stack = np.array([M.array for M in matrices for _ in range(2)])
    singles = [pair for k, M in enumerate(matrices)
               for pair in permanence_probe(M, starts[2 * k:2 * k + 2])]
    assert permanence_probe(stack, starts) == singles
    with pytest.raises(PreconditionFailed):
        permanence_probe(stack[::2], starts)


def test_probe_step_underflow_carries_start_row(MI, rng):
    starts = interior_starts(kernel_line_section(MI), rng, 3)
    with pytest.raises(StepSizeUnderflow) as exc:
        permanence_probe(MI.array * 1e15, starts)
    err = exc.value
    assert err.row in (0, 1, 2)
    assert err.t >= 0.0
    assert 0.0 < err.h < 1e-13
    assert np.allclose(np.exp(err.state), starts[err.row])
