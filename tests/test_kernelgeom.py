"""Null-space geometry: basis, endpoint witnesses, the segment K.

Endpoint coordinates asserted here were worked out by hand from the
defining linear systems and double-checked by the exact residual
A z = 0 below; the exact basis is checked against hand-derived spans
with the Leibniz minors of ``oracles``, which share no code with the
columns of the Hodge dual that give both the basis and the endpoints.
"""

from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from replicator4 import (EmptyKernelSection, PayoffMatrix,
                         PreconditionFailed, RankError,
                         UnclassifiableSignPattern, canonical_matrix,
                         classify_matrix, distance_to_K, edge_kernel_point,
                         face_kernel_point, is_permanent, kernel_basis,
                         kernel_line_section, section_by_clipping,
                         section_residual)
from replicator4.ensembles import (sample_class_matrix,
                                   sample_cyclic_nonsingular)
from replicator4.kernelgeom import _endpoint_columns
from oracles import in_span, relabel_rows, segment_distance_grid

SPEC_SPANS = {
    "I": ((0, 1, 1, 1), (1, 0, 2, 1)),
    "V": ((1, 1, 0, 0), (0, 0, 1, 1)),
}


@pytest.mark.parametrize("name", ["I", "V"])
def test_kernel_basis_matches_hand_elimination(name):
    M = canonical_matrix(name)
    basis = kernel_basis(M)
    assert len(basis) == 2
    for b in basis:
        assert all(sum(M[i, j] * b[j] for j in range(4)) == 0
                   for i in range(4))
    for v in SPEC_SPANS[name]:
        assert in_span(v, basis)


def test_kernel_basis_rejects_nonsingular():
    bumped = PayoffMatrix.from_upper([0, 1, -1, -1, 2, 0])
    with pytest.raises(Exception):
        kernel_basis(bumped)
    rng = np.random.default_rng(31)
    for _ in range(20):
        with pytest.raises(RankError):
            kernel_basis(sample_cyclic_nonsingular(rng))


def test_face_point_MI_2(MI):
    z = face_kernel_point(MI, 2)
    assert z == (Fraction(1, 4), 0, Fraction(1, 2), Fraction(1, 4))


def test_face_point_MI_1(MI):
    z = face_kernel_point(MI, 1)
    assert z == (0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_face_point_requires_induced_cycle(MI):
    # faces 3 and 4 of the class I representative carry dominated
    # subgames, not cycles
    for i in (3, 4):
        with pytest.raises(PreconditionFailed):
            face_kernel_point(MI, i)


def test_edge_points_MV(MV):
    assert edge_kernel_point(MV, 1, 2) == \
        (Fraction(1, 2), Fraction(1, 2), 0, 0)
    assert edge_kernel_point(MV, 3, 4) == \
        (0, 0, Fraction(1, 2), Fraction(1, 2))


def test_edge_point_requires_zero_payoff(MV):
    with pytest.raises(PreconditionFailed):
        edge_kernel_point(MV, 1, 3)


def test_edge_point_refusals_keep_their_messages():
    # kernel_line_section skips the zero pairs that carry no point;
    # edge_kernel_point refuses each with its own message, exact and float
    refused = {
        ("V", 1, 3): "a[1][3] = 1{} must vanish for an edge equilibrium",
        ("II", 1, 2): "ratio -1{} is not positive; edge (1,2) carries no "
                      "interior equilibrium",
        **{("IV", 1, k): f"edge (1,{k}) has a neutral off-edge strategy; "
                         "no unique interior edge point" for k in (2, 3, 4)}}
    for (name, i, j), message in refused.items():
        for M in (canonical_matrix(name), canonical_matrix(name).to_float()):
            with pytest.raises(PreconditionFailed) as exc:
                edge_kernel_point(M, j, i)
            assert str(exc.value) == message.format("" if M.exact else ".0")
            if name != "V":
                loci = kernel_line_section(M).loci
                assert all(locus.kind != "edge" for locus in loci)


EXPECTED_LOCI = {
    "I": [("face", (1,)), ("face", (2,))],
    "II": [("face", (1,)), ("face", (2,))],
    "III": [("face", (1,)), ("edge", (1, 2))],
    "IV": [("face", (1,)), ("vertex", (1,))],
    "V": [("edge", (1, 2)), ("edge", (3, 4))],
}


COMPOSITION = {"I": (2, 0, 0), "II": (2, 0, 0), "III": (1, 1, 0),
               "IV": (1, 0, 1), "V": (0, 2, 0)}


def test_every_classified_sign_pattern_gives_its_class_composition():
    # K's loci come from the sign pattern alone, so each of the 74 patterns
    # that classify must give its class's (faces, edges, vertices), with
    # supports that cover every strategy, which makes K's midpoint interior
    classified = 0
    for upper in product((-1, 0, 1), repeat=6):
        if not any(upper):
            continue
        M = PayoffMatrix.from_upper(upper)
        try:
            name = classify_matrix(M).name
        except UnclassifiableSignPattern:
            continue
        classified += 1
        label, loci, columns = _endpoint_columns(M.signs)
        assert label.name == name
        kinds = [locus.kind for locus in loci]
        assert tuple(map(kinds.count, ("face", "edge", "vertex"))) == \
            COMPOSITION[name], upper
        assert {k + 1 for _, support in columns for k in support} == \
            {1, 2, 3, 4}, upper
    assert classified == 74


def test_float_K_takes_the_one_singularity_rule():
    # permanent and class III under payoff's singularity rule, while the
    # cross ratios of the zero pair (1, 2), 1 and 1 + 5e-10, differ past
    # a relative 1e-10: K must not rest on a second tolerance
    M = PayoffMatrix.from_upper([0.0, 0.1, -0.1, -0.1, 0.1 + 5e-11, -1.0])
    assert is_permanent(M) and classify_matrix(M).name == "III"
    section = kernel_line_section(M)
    assert [(l.kind, l.strategies) for l in section.loci] == \
        [("face", (1,)), ("edge", (1, 2))]
    for z in section.as_array():
        assert np.abs(M.array @ z).max() <= 1e-10


#: float, permanent, class I, faces 1 and 3: face 3's column of A* has
#: entries below 1e-10 of max|a|, so normalized it is pf's rounding
OFF_NULL_LINE = (-9.631989729333228e-12, 1.1692037223800513,
                 7.23289934637477e-11, 0.6828428789547006,
                 -5.418466159685832e-12, 0.8783693804086546)


def test_float_K_off_the_null_line_is_refused():
    M = PayoffMatrix.from_upper(OFF_NULL_LINE)
    assert is_permanent(M) and classify_matrix(M).name == "I"
    assert [(l.kind, l.strategies) for l in _endpoint_columns(M.signs)[1]] \
        == [("face", (1,)), ("face", (3,))]
    with pytest.raises(EmptyKernelSection, match="misses the null line"):
        kernel_line_section(M)


def test_every_float_K_lies_on_the_null_line():
    # signs +-1, magnitudes U(0.5, 1.5), one to three entries times
    # 10^U(-11.9, -9): pf may round to 1e-10 of max|a|^2 while a column
    # of A* is that small; A z = -(pf / sum) e_i then leaves the line
    rng = np.random.default_rng(34)
    found = 0
    for _ in range(4000):
        upper = rng.choice([-1.0, 1.0], 6) * rng.uniform(0.5, 1.5, 6)
        small = rng.choice(6, rng.integers(1, 4), replace=False)
        upper[small] *= 10.0 ** rng.uniform(-11.9, -9.0, len(small))
        M = PayoffMatrix.from_upper(upper.tolist())
        try:
            section = kernel_line_section(M)
        except (PreconditionFailed, UnclassifiableSignPattern,
                EmptyKernelSection):
            continue
        found += 1
        U = M.array / np.abs(M.array).max()
        assert np.abs(U @ section.as_array().T).max() <= 1e-10
    assert found >= 40


#: float and singular, a_23 = 0: edge (2, 3)'s column of A* sums to about
#: 1e-10 of max|a|, so normalized it is pf's rounding, (0, 0.4576, 0.5424,
#: 0) with unit residual 0.98
EDGE_OFF_NULL_LINE = (7.611430429061647e-11, -6.421665447232475e-11,
                      1.0901090519403267, 0.0, 1.3996859441892213,
                      1.4548135574123422)


def test_float_edge_point_off_the_null_line_is_refused():
    M = PayoffMatrix.from_upper(EDGE_OFF_NULL_LINE)
    assert M.is_singular()
    with pytest.raises(EmptyKernelSection, match=r"^the point of edge \(2,3\) "
                       r"misses the null line by 9\.827e-01 of max\|a\|"):
        edge_kernel_point(M, 3, 2)


def test_every_float_edge_point_lies_on_the_null_line():
    # the draws of test_every_float_K_lies_on_the_null_line with one entry
    # set to 0, on every edge: the edge point takes K's residual rule
    # (measured: 204 points, the largest unit residual 9.6e-11)
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(3000):
        upper = rng.choice([-1.0, 1.0], 6) * rng.uniform(0.5, 1.5, 6)
        small = rng.choice(6, rng.integers(1, 4), replace=False)
        upper[small] *= 10.0 ** rng.uniform(-11.9, -9.0, len(small))
        upper[rng.integers(6)] = 0.0
        M = PayoffMatrix.from_upper(upper.tolist())
        U = M.array / np.abs(M.array).max()
        for i, j in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
            try:
                z = edge_kernel_point(M, i, j)
            except (PreconditionFailed, EmptyKernelSection):
                continue
            found += 1
            assert np.abs(U @ np.array(z)).max() <= 1e-10, (upper, i, j)
    assert found >= 150


def _symmetry_matrices():
    rng = np.random.default_rng(2031)
    classes = ("I", "II", "III", "IV", "V")
    return ([canonical_matrix(c) for c in classes]
            + [sample_class_matrix(classes[k % 5], rng) for k in range(20)])


def _relabeled(section, perm):
    """K's (kind, strategies, endpoint) triples after naming strategy i
    perm[i - 1]."""
    out = set()
    for locus, z in zip(section.loci, section.endpoints):
        w = [None] * 4
        for k, v in enumerate(z):
            w[perm[k] - 1] = v
        out.add((locus.kind,
                 tuple(sorted(perm[i - 1] for i in locus.strategies)),
                 tuple(w)))
    return out


def test_K_commutes_with_relabeling():
    # P A P' has the relabeled K: endpoints permuted exactly, loci
    # renamed, and the same class
    for M in _symmetry_matrices():
        section = kernel_line_section(M)
        for perm in permutations((1, 2, 3, 4)):
            moved = kernel_line_section(
                PayoffMatrix.from_rows(relabel_rows(M.rows, perm)))
            assert moved.label.name == section.label.name
            assert _relabeled(moved, (1, 2, 3, 4)) == \
                _relabeled(section, perm), (M.rows, perm)


def test_K_is_unchanged_by_time_reversal():
    # -A has A's null space, so the same section, and the same class
    for M in _symmetry_matrices():
        section = kernel_line_section(M)
        back = kernel_line_section(
            PayoffMatrix.from_rows([[-v for v in row] for row in M.rows]))
        assert (back.endpoints, back.loci) == (section.endpoints,
                                               section.loci)
        assert back.label.name == section.label.name


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_section_loci_and_exact_residual(name):
    M = canonical_matrix(name)
    section = kernel_line_section(M)
    assert section.exact
    assert section.label.name == name
    got = [(l.kind, tuple(l.strategies)) for l in section.loci]
    assert got == EXPECTED_LOCI[name]
    for z in section.endpoints:
        assert sum(z) == 1
        for i in range(4):
            assert sum(M[i, j] * z[j] for j in range(4)) == 0
    assert section_residual(M, section) == 0


def test_section_midpoints(MIV, MV):
    assert kernel_line_section(MIV).midpoint() == (
        Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
    assert kernel_line_section(MV).midpoint() == (
        Fraction(1, 4),) * 4


def test_section_requires_singular():
    bumped = PayoffMatrix.from_upper([0, 1, -1, -1, 2, 0])
    with pytest.raises(PreconditionFailed):
        kernel_line_section(bumped)


def test_section_unclassifiable_for_acyclic_singular():
    lone = PayoffMatrix.from_upper([1, 0, 0, 0, 0, 0])
    assert lone.pfaffian() == 0
    with pytest.raises(UnclassifiableSignPattern):
        kernel_line_section(lone)


def test_clipping_route_agrees_with_closed_forms():
    for name in ("I", "II", "III", "IV", "V"):
        M = canonical_matrix(name)
        section = kernel_line_section(M)
        closed = section.as_array()
        clipped = section_by_clipping(M.to_float())
        # same segment, possibly opposite orientation
        direct = np.abs(closed - clipped).max()
        swapped = np.abs(closed - clipped[::-1]).max()
        assert min(direct, swapped) <= 1e-10


def test_clipping_rejects_boundary_only_null_line():
    # pf = 0 with a single positive entry: the null line is the 3-4
    # edge, entirely on the boundary
    lone = PayoffMatrix.from_upper([1, 0, 0, 0, 0, 0])
    with pytest.raises(EmptyKernelSection):
        section_by_clipping(lone.to_float())


def _numpy_clip(M):
    """section_by_clipping's arithmetic on numpy arrays and scalars, as it
    stood before its loop and its ends went to Python floats, verbatim
    (without the checks that raise)."""
    u, v = (np.asarray(b, dtype=float) for b in kernel_basis(M.to_float()))
    su, sv = u.sum(), v.sum()
    d = sv * u - su * v
    if abs(su) >= abs(sv):
        p = u / su
    else:
        p = v / sv
    lo, hi = -np.inf, np.inf
    for pi, di in zip(p, d):
        if abs(di) <= 1e-15:
            continue
        t = -pi / di
        if di > 0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
    ends = np.array([p + lo * d, p + hi * d])
    ends[np.abs(ends) < 1e-14] = 0.0
    order = np.lexsort(ends.T[::-1])
    return ends[order]


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
def test_clipping_keeps_its_bits(scale):
    rng = np.random.default_rng(28)
    classes = ("I", "II", "III", "IV", "V")
    mats = [canonical_matrix(c) for c in classes]
    mats += [sample_class_matrix(c, rng) for c in classes for _ in range(8)]
    for M in mats:
        F = PayoffMatrix.from_rows(M.array * scale)
        assert section_by_clipping(F).tobytes() == _numpy_clip(F).tobytes()


def test_distance_to_K_frozen_value(MV):
    section = kernel_line_section(MV)
    e3 = np.array([0.0, 0.0, 1.0, 0.0])
    assert distance_to_K(e3, section) == pytest.approx(np.sqrt(0.5),
                                                       abs=1e-12)
    mid = np.asarray(section.midpoint(), dtype=float)
    assert distance_to_K(mid, section) <= 1e-15


@given(st.tuples(*[st.floats(0.01, 1.0)] * 4))
def test_distance_to_K_matches_grid_scan(MIV, x):
    p = np.asarray(x)
    p /= p.sum()
    section = kernel_line_section(MIV)
    a, b = section.as_array()
    assert distance_to_K(p, section) == pytest.approx(
        segment_distance_grid(p, a, b), abs=5e-5)


def test_point_at_parameterization(MIV):
    section = kernel_line_section(MIV)
    z0 = section.point_at(Fraction(0))
    z1 = section.point_at(Fraction(1))
    assert tuple(z0) == tuple(section.endpoints[0])
    assert tuple(z1) == tuple(section.endpoints[1])
    quarter = section.point_at(Fraction(1, 4))
    expect = tuple((1 - Fraction(1, 4)) * a + Fraction(1, 4) * b
                   for a, b in zip(section.endpoints[0],
                                   section.endpoints[1]))
    assert tuple(quarter) == expect
