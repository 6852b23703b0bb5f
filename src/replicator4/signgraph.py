"""Sign-pattern digraphs and their isomorphism classes.

The digraph G_A of a skew payoff matrix has an edge i -> j exactly when
a_ij > 0 (strategy i gains against j).  Skewness forbids 2-cycles, so on
four nodes every directed cycle has length 3 or 4 and both kinds can be
enumerated outright.  Permanence of the flow is equivalent to det(A) = 0
together with G_A containing a directed cycle, and the digraphs of
singular conservative games fall into five isomorphism classes.  A sign
pattern's digraph is built once, and its class comes from a table that
exhaustive relabeling against one representative per class fills at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .errors import UnclassifiableSignPattern
from .payoff import PayoffMatrix

#: Canonical edge sets, one representative per class, 1-based nodes.
CANONICAL_EDGES = {
    "I": frozenset({(1, 2), (1, 3), (2, 3), (3, 4), (4, 1), (4, 2)}),
    "II": frozenset({(1, 3), (2, 3), (3, 4), (4, 1), (4, 2)}),
    "III": frozenset({(1, 3), (2, 4), (3, 2), (4, 1), (4, 3)}),
    "IV": frozenset({(2, 4), (3, 2), (4, 3)}),
    "V": frozenset({(1, 3), (2, 4), (3, 2), (4, 1)}),
}

@dataclass(frozen=True)
class ClassLabel:
    """Classification result: class name and a relabeling onto the
    canonical representative.

    ``relabeling`` is the permutation pi as a tuple (pi(1), ..., pi(4)):
    edge (i, j) is in the input digraph iff (pi(i), pi(j)) is in
    ``CANONICAL_EDGES[name]``.  When several permutations work the
    lexicographically smallest is reported.
    """

    name: str
    relabeling: tuple


@dataclass(frozen=True)
class SignDigraph:
    """Directed sign pattern on nodes 1..4 with exhaustive cycle lists.

    Cycles are stored in canonical rotation (smallest node first, in
    traversal order) and sorted, so equal digraphs compare equal.
    """

    edges: tuple
    three_cycles: tuple
    four_cycles: tuple

    @property
    def has_cycle(self) -> bool:
        return bool(self.three_cycles or self.four_cycles)

    def to_dict(self, label: ClassLabel | None = None) -> dict:
        return {
            "edges": [list(e) for e in self.edges],
            "three_cycles": [list(c) for c in self.three_cycles],
            "four_cycles": [list(c) for c in self.four_cycles],
            "class": label.name if label else None,
            "relabeling": list(label.relabeling) if label else None,
        }


def digraph_from_edges(edges) -> SignDigraph:
    """Build a digraph (with cycle inventories) from an edge iterable."""
    eset = frozenset((int(i), int(j)) for (i, j) in edges)
    for (i, j) in eset:
        if (j, i) in eset:
            raise ValueError(f"2-cycle between {i} and {j}; "
                             "sign digraphs are oriented")
    three = []
    for (a, b, c) in combinations((1, 2, 3, 4), 3):
        for (p, q, r) in ((a, b, c), (a, c, b)):
            if (p, q) in eset and (q, r) in eset and (r, p) in eset:
                three.append((p, q, r))
    four = []
    for (q, r, s) in permutations((2, 3, 4)):
        cyc = (1, q, r, s)
        if all(e in eset for e in ((1, q), (q, r), (r, s), (s, 1))):
            four.append(cyc)
    return SignDigraph(tuple(sorted(eset)), tuple(sorted(three)),
                       tuple(sorted(four)))


def build_digraph(M: PayoffMatrix) -> SignDigraph:
    """Sign digraph of a 4x4 payoff matrix: an edge i -> j wherever
    ``M.signs`` calls a_ij positive (see :attr:`PayoffMatrix.signs`)."""
    if M.n != 4:
        raise ValueError(f"sign digraph is defined on 4 strategies, "
                         f"got n = {M.n}")
    return _digraph_of_signs(M.signs)


@lru_cache(maxsize=3 ** 6)  # one entry per 4x4 skew sign pattern
def _digraph_of_signs(signs: tuple) -> SignDigraph:
    return digraph_from_edges((i + 1, j + 1) for i, row in enumerate(signs)
                              for j, s in enumerate(row) if s > 0)


#: edge set -> label, for the 74 edge sets some relabeling pi sends onto a
#: canonical one; pi runs backwards, so the smallest such pi is kept
_CLASS_TABLE = {
    frozenset((pi.index(a) + 1, pi.index(b) + 1) for (a, b) in edges):
    ClassLabel(name, pi) for pi in reversed(list(permutations((1, 2, 3, 4))))
    for name, edges in CANONICAL_EDGES.items()}


def classify(G: SignDigraph) -> ClassLabel:
    """Match G against the five canonical classes by relabeling.

    G's edge set is looked up in a table that tried all 24 node
    permutations at import, keeping the smallest that matches; the
    classes are mutually non-isomorphic, so at most one matches.

    Raises
    ------
    UnclassifiableSignPattern
        With ``reason="acyclic"`` when G has no directed cycle (such a
        game is never permanent), or ``reason="unmatched"`` when G is
        cyclic but no relabeling reaches a canonical representative.
        A cyclic unmatched pattern carries no singular matrix, so this
        is an expected outcome when scanning raw sign patterns.
    """
    if not G.has_cycle:
        raise UnclassifiableSignPattern(
            "digraph has no directed cycle", reason="acyclic")
    if (label := _CLASS_TABLE.get(frozenset(G.edges))) is not None:
        return label
    raise UnclassifiableSignPattern(
        "cyclic digraph matches no canonical class "
        "(no singular skew matrix carries this sign pattern)",
        reason="unmatched")


def classify_matrix(M: PayoffMatrix) -> ClassLabel:
    return classify(build_digraph(M))


def is_permanent(M: PayoffMatrix) -> bool:
    """Permanence criterion: det(A) = 0 and G_A contains a directed cycle.

    Interior orbits of a permanent game stay uniformly away from the
    simplex boundary; non-permanent games send some strategy's share to
    zero from any interior start in at least one direction of time.
    """
    return M.is_singular() and build_digraph(M).has_cycle
