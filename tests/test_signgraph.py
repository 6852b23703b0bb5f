"""Digraph construction, cycle inventories and class identification.

Cycle lists are checked against the brute-force permutation scan in
tests/oracles.py.  One frozen value deliberately disagrees with older
notes: the class I representative does contain a directed 4-cycle
(1,2,3,4), which both routes below confirm.
"""

from collections import Counter
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from replicator4 import (PayoffMatrix, UnclassifiableSignPattern,
                         build_digraph, canonical_matrix, classify,
                         classify_matrix, is_permanent)
from replicator4.ensembles import (sample_acyclic_singular,
                                   sample_class_matrix,
                                   sample_cyclic_nonsingular)
from replicator4.payoff import ZERO_TOL
from replicator4.signgraph import (CANONICAL_EDGES, ClassLabel,
                                   _digraph_of_signs, digraph_from_edges)
from oracles import has_cycle_dfs, relabel_edges, relabel_rows, simple_cycles

sign6 = st.tuples(*[st.sampled_from((-1, 0, 1))] * 6).filter(
    lambda u: any(v != 0 for v in u))


def test_digraph_of_MIV_matches_sign_inspection(MIV):
    G = build_digraph(MIV)
    assert set(G.edges) == {(2, 4), (3, 2), (4, 3)}
    assert list(G.three_cycles) == [(2, 4, 3)]
    assert list(G.four_cycles) == []


def test_digraph_of_MI_cycle_inventory(MI):
    G = build_digraph(MI)
    assert set(G.edges) == {(1, 2), (1, 3), (2, 3), (3, 4), (4, 1), (4, 2)}
    assert list(G.three_cycles) == [(1, 3, 4), (2, 3, 4)]
    assert list(G.four_cycles) == [(1, 2, 3, 4)]
    assert simple_cycles(G.edges, 4) == [(1, 2, 3, 4)]


def test_two_cycles_are_rejected():
    with pytest.raises(ValueError):
        digraph_from_edges([(1, 2), (2, 1)])


@given(sign6)
def test_cycle_inventories_match_brute_force(u):
    M = PayoffMatrix.from_upper(u)
    G = build_digraph(M)
    assert sorted(G.three_cycles) == simple_cycles(G.edges, 3)
    assert sorted(G.four_cycles) == simple_cycles(G.edges, 4)
    assert G.has_cycle == (has_cycle_dfs(G.edges) if G.edges else False)


def test_canonicals_classify_to_themselves():
    for name in ("I", "II", "III", "IV", "V"):
        label = classify_matrix(canonical_matrix(name))
        assert label.name == name
        assert label.relabeling == (1, 2, 3, 4)


def test_signature_counts():
    sig = {}
    for name, edges in CANONICAL_EDGES.items():
        sig[name] = (len(edges), len(simple_cycles(edges, 3)),
                     len(simple_cycles(edges, 4)))
    assert sig == {"I": (6, 2, 1), "II": (5, 2, 0), "III": (5, 1, 1),
                   "IV": (3, 1, 0), "V": (4, 0, 1)}


def test_acyclic_pattern_raises():
    M = PayoffMatrix.from_upper([1, 0, 0, 0, 0, 0])
    with pytest.raises(UnclassifiableSignPattern) as exc:
        classify_matrix(M)
    assert exc.value.reason == "acyclic"


def test_unmatched_cyclic_pattern_raises():
    # 3-cycle on {1,2,3} plus a pendant edge 1->4: cyclic but outside
    # the five-case catalogue
    M = PayoffMatrix.from_upper([1, -1, 1, 1, 0, 0])
    with pytest.raises(UnclassifiableSignPattern) as exc:
        classify_matrix(M)
    assert exc.value.reason == "unmatched"


def test_isolated_three_cycle_is_class_IV():
    M = PayoffMatrix.from_upper([1, -1, 0, 1, 0, 0])
    assert classify_matrix(M).name == "IV"


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_classification_invariant_under_all_relabelings(name):
    M = canonical_matrix(name)
    for perm in permutations((1, 2, 3, 4)):
        relabeled = PayoffMatrix.from_rows(relabel_rows(M.rows, perm),
                                           exact=True)
        label = classify_matrix(relabeled)
        assert label.name == name
        # the returned map sends the relabeled pattern back onto the
        # canonical edge set
        G = build_digraph(relabeled)
        pi = label.relabeling
        mapped = {(pi[i - 1], pi[j - 1]) for (i, j) in G.edges}
        assert mapped == set(CANONICAL_EDGES[name])


def test_relabeling_choice_is_lexicographically_first(MV):
    # the class V pattern is a pure 4-cycle, so several relabelings
    # match; classify must settle on the smallest
    label = classify_matrix(MV)
    matches = []
    for pi in permutations((1, 2, 3, 4)):
        mapped = {(pi[i - 1], pi[j - 1]) for (i, j) in
                  build_digraph(MV).edges}
        if mapped == set(CANONICAL_EDGES["V"]):
            matches.append(pi)
    assert len(matches) > 1
    assert label.relabeling == min(matches)


def test_permanence_verdicts():
    for name in ("I", "II", "III", "IV", "V"):
        assert is_permanent(canonical_matrix(name))
    bumped = PayoffMatrix.from_upper([0, 1, -1, -1, 2, 0])
    assert not is_permanent(bumped)
    lone_edge = PayoffMatrix.from_upper([1, 0, 0, 0, 0, 0])
    assert not is_permanent(lone_edge)


def test_float_zero_threshold():
    M = PayoffMatrix.from_rows(canonical_matrix("V").array + 0.0)
    G = build_digraph(M)
    assert set(G.edges) == set(CANONICAL_EDGES["V"])
    # sub-threshold noise must not invent edges
    noisy = canonical_matrix("V").array
    noisy[0, 1] = 1e-13
    noisy[1, 0] = -1e-13
    G2 = build_digraph(PayoffMatrix.from_rows(noisy))
    assert set(G2.edges) == set(CANONICAL_EDGES["V"])


CLASS_NAMES = ("I", "II", "III", "IV", "V")


def _relabeling_search(G):
    """classify as it was before its table: the 24 relabelings tried in
    ``permutations`` order against each canonical edge set, verbatim."""
    if not G.has_cycle:
        raise UnclassifiableSignPattern(
            "digraph has no directed cycle", reason="acyclic")
    eset = frozenset(G.edges)
    for pi in permutations((1, 2, 3, 4)):
        mapped = frozenset((pi[i - 1], pi[j - 1]) for (i, j) in eset)
        for name in CLASS_NAMES:
            if mapped == CANONICAL_EDGES[name]:
                return ClassLabel(name, pi)
    raise UnclassifiableSignPattern(
        "cyclic digraph matches no canonical class "
        "(no singular skew matrix carries this sign pattern)",
        reason="unmatched")


def _outcome(classifier, G):
    try:
        label = classifier(G)
    except UnclassifiableSignPattern as exc:
        return "refused", exc.reason, str(exc)
    return label.name, label.relabeling


def test_table_answers_as_the_search_on_every_sign_pattern():
    # all 3^6 oriented sign patterns on 4 nodes, a12, a13, ..., a34
    pairs = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    seen = Counter()
    for u in product((-1, 0, 1), repeat=6):
        G = digraph_from_edges((i, j) if s > 0 else (j, i)
                               for (i, j), s in zip(pairs, u) if s)
        out = _outcome(classify, G)
        assert out == _outcome(_relabeling_search, G)
        seen[out[1] if out[0] == "refused" else out[0]] += 1
    # 24 relabelings over each class's automorphisms: 74 labelled sets
    assert seen == {"I": 24, "II": 12, "III": 24, "IV": 8, "V": 6,
                    "acyclic": 543, "unmatched": 112}


def test_digraph_is_built_once_per_sign_pattern(rng):
    A = sample_class_matrix("III", rng)
    twin = PayoffMatrix.from_rows(A.array)
    triple = PayoffMatrix.from_rows([[3 * v for v in r] for r in A.rows])
    assert not twin.exact and triple.exact
    assert build_digraph(twin) is build_digraph(A)
    assert build_digraph(triple) is build_digraph(A)


def test_float_entry_at_the_zero_threshold_drops_its_edge():
    V = canonical_matrix("V")
    for a12, edge in ((1.0, True), (2 * ZERO_TOL, True), (ZERO_TOL, False),
                      (ZERO_TOL / 2, False)):
        rows = V.array
        rows[0, 1], rows[1, 0] = a12, -a12
        M = PayoffMatrix.from_rows(rows)
        assert M.max_abs() == 1.0
        assert ((1, 2) in build_digraph(M).edges) == edge
        assert (build_digraph(M) is build_digraph(V)) == (not edge)


def test_digraph_cache_is_bounded_by_the_sign_patterns():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        for sample in (sample_cyclic_nonsingular, sample_acyclic_singular):
            build_digraph(sample(rng))
    info = _digraph_of_signs.cache_info()
    assert info.maxsize == 3 ** 6 and info.currsize <= 3 ** 6
