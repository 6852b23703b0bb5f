"""Boundary behaviour: what happens on faces and edges, and checking it.

The boundary of the simplex is invariant under the replicator flow, and
for a singular conservative game every face and edge restriction is
again a (smaller) conservative game.  The outcomes are read directly off
the sign structure:

* an edge with a_ij = 0 consists of equilibria; otherwise the flow runs
  to the winner's vertex (a_ij > 0 means strategy i gains against j, so
  x_i -> 1 on that edge),
* a face whose induced tournament is a 3-cycle carries periodic orbits
  around the face equilibrium,
* a transitive tournament face funnels everything to its source vertex,
* a face with one neutral pair {j, k} converges to a point of the edge
  E_jk selected by the third strategy m: if m beats both it wins
  outright; if m beats one and loses to the other, the limit's winning
  coordinate exceeds a_ml / (a_ml - a_mw) (w beats m, m beats l); if m
  loses to both, the limit preserves the start's x_j : x_k ratio, a
  claim that is only measured, not certified,
* a face with two neutral pairs (one strategy neutral on the face)
  preserves that spectator's coordinate and converges to an edge point.

:func:`verify_boundary` turns the prediction table into simulations of
the face and edge subsystems, run as one lockstep batch per subsystem
order with one payoff matrix and one end per row, and scores each region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# integrate and detect_period are unused; perfbench's tracer patches both
from .dynamics import (_integrate, integrate,  # noqa: F401
                       check_finite, softmax, vector_field)
from .errors import PreconditionFailed
from .orbit import (CLOSURE_TOL, HORIZON, close_orbits,  # noqa: F401
                    detect_period, section_normal)
from .payoff import PayoffMatrix, Scalar, scalar_to_json

#: grading bounds (see verify_boundary) and every run's absolute tolerance
VERTEX_TOL, OFF_EDGE_TOL, CONSTRAINT_TOL = 1e-4, 1e-4, 1e-3
STATIONARITY_TOL, EDGE_DRIFT_TOL, ATOL = 1e-12, 1e-9, 1e-10
#: most starts per region: each keeps its run's history (150 kB on I)
MAX_SAMPLES_PER_REGION = 1000


# An edge point's constraint grades a region's starts X0 and final
# shares XT (one row per start, columns in face order, ``pos`` mapping a
# strategy to its column), with z = XT over the limit edge's mass:
# ``grade`` returns (ok, measured), and ``verdict`` is the status when ok.
# A NaN compares false, so it neither fails a start nor enters a maximum.

@dataclass(frozen=True)
class CoordinatePreserved:
    """Limit keeps the start's coordinate of one strategy."""

    strategy: int
    verdict = "pass"

    def to_json(self):
        return {"kind": "coordinate_preserved", "strategy": self.strategy}

    def grade(self, X0, XT, z, pos):
        p = pos[self.strategy]
        dev = np.abs(XT[:, p] - X0[:, p])
        return not (dev > CONSTRAINT_TOL).any(), {
            "max_coordinate_deviation": float(max(0.0, *dev))}


@dataclass(frozen=True)
class IntervalMembership:
    """Limit's coordinate of ``strategy`` lies in (lower, 1)."""

    strategy: int
    lower: Scalar
    verdict = "pass"

    def to_json(self):
        return {"kind": "interval_membership", "strategy": self.strategy,
                "lower": scalar_to_json(self.lower)}

    def grade(self, X0, XT, z, pos):
        zw = z[:, pos[self.strategy]]
        slack = zw - float(self.lower)
        return not ((slack < -CONSTRAINT_TOL) | (zw > 1.0)).any(), {
            "min_interval_slack": float(min(np.inf, *slack)),
            "lower_bound": float(self.lower)}


@dataclass(frozen=True)
class RatioClaimed:
    """Limit is claimed to preserve x_num : x_den; measured only."""

    num: int
    den: int
    verdict = "measured"

    def to_json(self):
        return {"kind": "ratio_claimed", "ratio": [self.num, self.den]}

    def grade(self, X0, XT, z, pos):
        n, d = pos[self.num], pos[self.den]
        return True, {"ratios": [
            {"start_ratio": float(s), "limit_ratio": float(l)}
            for s, l in zip(X0[:, n] / X0[:, d], z[:, n] / z[:, d])]}


@dataclass(frozen=True)
class EdgeOutcome:
    edge: tuple
    kind: str  # "all_equilibria" or "vertex"
    vertex: int | None = None

    def to_json(self):
        out = {"edge": list(self.edge), "kind": self.kind}
        if self.vertex is not None:
            out["vertex"] = self.vertex
        return out


@dataclass(frozen=True)
class FaceOutcome:
    face: int
    kind: str  # "periodic", "vertex", "edge_point", "all_equilibria"
    vertex: int | None = None
    edge: tuple | None = None
    constraint: object | None = None

    def to_json(self):
        out = {"face": self.face, "kind": self.kind}
        if self.vertex is not None:
            out["vertex"] = self.vertex
        if self.edge is not None:
            out["edge"] = list(self.edge)
        if self.constraint is not None:
            out["constraint"] = self.constraint.to_json()
        return out


@dataclass(frozen=True)
class BoundaryPrediction:
    edges: tuple
    faces: tuple
    equilibria: dict
    unstable_vertices: tuple

    def to_json(self):
        return {
            "edges": [e.to_json() for e in self.edges],
            "faces": [f.to_json() for f in self.faces],
            "equilibria": self.equilibria,
            "unstable_vertices": list(self.unstable_vertices),
        }


@dataclass
class RegionResult:
    region: str
    status: str  # "pass", "fail", "measured"
    predicted: dict
    measured: dict

    def to_json(self):
        return {"region": self.region, "status": self.status,
                "predicted": self.predicted, "measured": self.measured}


@dataclass
class BoundaryReport:
    regions: tuple
    passed: bool
    seed: int
    t_end: float
    rtol: float

    def to_json(self):
        return {
            "regions": {r.region: r.to_json() for r in self.regions},
            "passed": self.passed,
            "seed": self.seed,
            "t_end": self.t_end,
            "rtol": self.rtol,
        }


def face_nodes(i: int) -> tuple:
    """Strategies of face x_i = 0, ascending, 1-based."""
    return tuple(k for k in (1, 2, 3, 4) if k != i)


def face_subsystem(M: PayoffMatrix, i: int) -> PayoffMatrix:
    """Principal 3x3 payoff matrix of the face x_i = 0.

    Row and column order follows :func:`face_nodes`; skewness and
    exactness carry over entry by entry.
    """
    keep = [k - 1 for k in face_nodes(i)]
    return M.submatrix(keep)


def predict_edge(M: PayoffMatrix, i: int, j: int) -> EdgeOutcome:
    """Outcome of the flow restricted to edge conv(e_i, e_j)."""
    if i > j:
        i, j = j, i
    s = M.signs[i - 1][j - 1]
    if s == 0:
        return EdgeOutcome(edge=(i, j), kind="all_equilibria")
    return EdgeOutcome(edge=(i, j), kind="vertex",
                       vertex=i if s > 0 else j)


def predict_face(M: PayoffMatrix, i: int) -> FaceOutcome:
    """Outcome of the flow on the interior of face x_i = 0.

    Derived from the face's sign structure alone (``M.signs``; see the
    module docstring for the case split), so it applies in any labeling.
    """
    p, q, r = face_nodes(i)
    a, sg = M.rows, M.signs

    def s(m, n):
        return sg[m - 1][n - 1]

    zero_pairs = [pair for pair in ((p, q), (p, r), (q, r)) if s(*pair) == 0]

    if not zero_pairs:
        if s(p, q) == s(q, r) == -s(p, r):
            return FaceOutcome(face=i, kind="periodic")
        # otherwise a transitive tournament: the source beats both others
        src = next(n for n in (p, q, r)
                   if all(s(n, o) > 0 for o in (p, q, r) if o != n))
        return FaceOutcome(face=i, kind="vertex", vertex=src)

    if len(zero_pairs) == 1:
        j, k = zero_pairs[0]
        m = next(n for n in (p, q, r) if n not in (j, k))
        sj, sk = s(m, j), s(m, k)
        if sj > 0 and sk > 0:
            return FaceOutcome(face=i, kind="vertex", vertex=m)
        if sj < 0 and sk < 0:
            return FaceOutcome(face=i, kind="edge_point", edge=(j, k),
                               constraint=RatioClaimed(j, k))
        # chain: w beats m, m beats l; the limit's w-share is bounded
        # below by where the dying strategy's growth rate turns negative
        w = j if sj < 0 else k
        l = k if w == j else j
        aml = a[m - 1][l - 1]
        amw = a[m - 1][w - 1]
        lower = aml / (aml - amw)
        return FaceOutcome(face=i, kind="edge_point", edge=(j, k),
                           constraint=IntervalMembership(w, lower))

    if len(zero_pairs) == 2:
        spectator, = set(zero_pairs[0]) & set(zero_pairs[1])
        u, v = (n for n in (p, q, r) if n != spectator)
        winner = u if s(u, v) > 0 else v
        edge = tuple(sorted((spectator, winner)))
        return FaceOutcome(face=i, kind="edge_point", edge=edge,
                           constraint=CoordinatePreserved(spectator))

    return FaceOutcome(face=i, kind="all_equilibria")


def unstable_vertices(M: PayoffMatrix) -> tuple:
    """Vertices with a repelling incident edge (some a_kj < 0)."""
    return tuple(k for k in (1, 2, 3, 4) if min(M.signs[k - 1]) < 0)


def equilibria_description(M: PayoffMatrix) -> dict:
    """Structural description of the full equilibrium set.

    Every vertex is an equilibrium; an edge with a_ij = 0 is pointwise
    stationary; interior equilibria form the null segment K when the
    matrix is singular.
    """
    zero_edges = [[i, j] for i in (1, 2, 3) for j in range(i + 1, 5)
                  if M.signs[i - 1][j - 1] == 0]
    return {
        "vertices": [1, 2, 3, 4],
        "equilibrium_edges": zero_edges,
        "interior_segment": bool(M.is_singular()),
    }


def boundary_prediction(M: PayoffMatrix) -> BoundaryPrediction:
    """Assemble the full 10-region prediction table."""
    edges = tuple(predict_edge(M, i, j)
                  for i in (1, 2, 3) for j in range(i + 1, 5))
    faces = tuple(predict_face(M, i) for i in (1, 2, 3, 4))
    return BoundaryPrediction(
        edges=edges, faces=faces, equilibria=equilibria_description(M),
        unstable_vertices=unstable_vertices(M))


def _edge_starts(outcome: EdgeOutcome) -> list:
    """Three starts on an edge, with a vertex edge's winner behind too."""
    if outcome.kind == "all_equilibria":
        return [np.array([frac, 1.0 - frac]) for frac in (0.25, 0.5, 0.75)]
    flip = outcome.vertex != outcome.edge[0]
    return [np.array([1.0 - frac, frac] if flip else [frac, 1.0 - frac])
            for frac in (0.2, 0.5, 0.8)]


def _face_starts(outcome: FaceOutcome, sub: PayoffMatrix, rng,
                 n: int) -> list:
    """Interior starts for one face region.

    Periodic faces jitter the face equilibrium multiplicatively so the
    orbit stays well inside; the rest use a Dirichlet draw biased away
    from the corners.
    """
    if outcome.kind == "periodic":
        A = sub.to_float().rows
        v = np.array([A[1][2], -A[0][2], A[0][1]])
        z = np.abs(v) / np.abs(v).sum()
        starts = []
        for _ in range(n):
            x = z * np.exp(0.3 * rng.standard_normal(3))
            starts.append(x / x.sum())
        return starts
    return [rng.dirichlet((2.0, 2.0, 2.0)) for _ in range(n)]


def _score(outcome, sub, starts, trajs) -> RegionResult:
    """Grade one edge or face region on its starts' trajectories."""
    edge = isinstance(outcome, EdgeOutcome)
    nodes = outcome.edge if edge else face_nodes(outcome.face)
    region = f"edge:{nodes[0]}-{nodes[1]}" if edge else \
        f"face:-{outcome.face}"
    pos = {s: k for k, s in enumerate(nodes)}

    if outcome.kind == "periodic":
        # (run, period, residual, closed) per start, from close_orbits
        for _, t, r, closed in trajs:
            if not closed:
                return RegionResult(region, "fail", outcome.to_json(),
                                    {"closure_residual": r,
                                     "candidate_period": t})
        return RegionResult(region, "pass", outcome.to_json(),
                            {"max_closure_residual": max(
                                r for _, _, r, _ in trajs),
                             "periods": [t for _, t, _, _ in trajs]})

    if outcome.kind == "vertex":
        finals = softmax(np.array([traj.us[-1] for traj in trajs]))
        tp = pos[outcome.vertex]
        worst = min(float(xT[tp]) for xT in finals)
        ok = (all(int(np.argmax(xT)) == tp for xT in finals)
              and worst >= 1.0 - VERTEX_TOL)
        return RegionResult(region, "pass" if ok else "fail",
                            outcome.to_json(), {"min_winner_share": worst})

    if outcome.kind == "all_equilibria":
        measured = {"max_field": max(float(np.abs(vector_field(
            sub, x0)).max()) for x0 in starts)}
        ok = measured["max_field"] <= STATIONARITY_TOL
        if edge:  # an edge's starts also run, and must not move
            measured["max_drift"] = max(float(np.abs(traj.xs - x0).max())
                                        for x0, traj in zip(starts, trajs))
            ok = ok and measured["max_drift"] <= EDGE_DRIFT_TOL
        return RegionResult(region, "pass" if ok else "fail",
                            outcome.to_json(), measured)

    # edge_point: the third strategy's mass must vanish
    j, k = outcome.edge
    X0, XT = np.array(starts), softmax(np.array([t.us[-1] for t in trajs]))
    off = XT[:, pos[next(s for s in nodes if s not in (j, k))]]
    z = XT / (XT[:, pos[j]] + XT[:, pos[k]])[:, None]
    ok, measured = outcome.constraint.grade(X0, XT, z, pos)
    ok = ok and not (off > OFF_EDGE_TOL).any()
    measured = {"max_off_edge_mass": float(max(0.0, *off)), **measured}
    return RegionResult(region, outcome.constraint.verdict if ok else "fail",
                        outcome.to_json(), measured)


def verify_boundary(M: PayoffMatrix,
                    prediction: BoundaryPrediction | None = None,
                    seed: int = 0, samples_per_region: int = 3,
                    t_end: float = 200.0, rtol: float = 1e-8,
                    closure_tol: float = CLOSURE_TOL) -> BoundaryReport:
    """Simulate every face and edge region and score the predictions.

    Scoring: vertex convergence needs the predicted winner within
    :data:`VERTEX_TOL` of 1 at t_end; edge-point convergence needs
    off-edge mass at most :data:`OFF_EDGE_TOL` and the constraint
    satisfied within :data:`CONSTRAINT_TOL`; an equilibrium region needs
    a field at most :data:`STATIONARITY_TOL`, and on an edge a drift at
    most :data:`EDGE_DRIFT_TOL`; periodic faces need a closure residual
    at most ``closure_tol``; ratio claims are recorded as measured, never
    failed on the ratio itself.

    The runs go out as one lockstep batch per subsystem order, every row
    with its own end: an all-equilibria edge runs to min(50, t_end), a
    periodic face until it closes, an all-equilibria face not at all, and
    every other region to t_end, all at ``rtol``.  A periodic face's end
    is seeded with :data:`~replicator4.orbit.HORIZON`, and
    :func:`~replicator4.orbit.close_orbits` sets its spans, as in
    ``detect_period``: the starts' returns are bisected together, and a
    start with no closing return continues in its batch up to the
    horizon.

    The report is returned whatever the verdict: a failed region is its
    ``status``, and ``passed`` is false when any region fails.  Raises
    PreconditionFailed before any draw when ``samples_per_region`` is not
    in 1 .. :data:`MAX_SAMPLES_PER_REGION` or ``t_end`` is not finite and
    positive.
    """
    if samples_per_region < 1:
        raise PreconditionFailed(
            f"samples_per_region = {samples_per_region}; every region "
            "needs at least one start")
    if samples_per_region > MAX_SAMPLES_PER_REGION:
        raise PreconditionFailed(
            f"samples_per_region = {samples_per_region}; a region takes at "
            f"most {MAX_SAMPLES_PER_REGION} starts")
    # checked here: a batch checks only its least end
    check_finite("t_end", t_end)
    if prediction is None:
        prediction = boundary_prediction(M)
    rng = np.random.default_rng(seed)
    regions = [(e, M.submatrix([e.edge[0] - 1, e.edge[1] - 1]).to_float(),
                _edge_starts(e),
                min(50.0, t_end) if e.kind == "all_equilibria" else t_end)
               for e in prediction.edges]
    # every face draws its starts from the one rng, in face order
    for f in prediction.faces:
        sub = face_subsystem(M, f.face).to_float()
        regions.append((f, sub, _face_starts(f, sub, rng, samples_per_region),
                        None if f.kind == "all_equilibria" else
                        HORIZON if f.kind == "periodic" else t_end))
    runs = [[] for _ in regions]
    for n in (2, 3):
        # periodic starts first: close_orbits' start j is row j of until
        rows = sorted(((o.kind == "periodic", r, sub, x0, end)
                       for r, (o, sub, starts, end) in enumerate(regions)
                       if sub.n == n and end is not None for x0 in starts),
                      key=lambda row: not row[0])
        periodic, owners, subs, ps, ends = zip(*rows)
        until = _integrate(np.array([sub.array for sub in subs]), ps, ends,
                           rtol, ATOL)
        k = sum(periodic)
        records = close_orbits(
            until, ps[:k], [section_normal(*row) for row in zip(subs, ps[:k])],
            closure_tol, HORIZON)
        trajs = until(range(k, len(ps)), ends[k:])
        for r, record in zip(owners, records + trajs):
            runs[r].append(record)
    results = [_score(outcome, sub, starts, trajs)
               for (outcome, sub, starts, _), trajs in zip(regions, runs)]
    return BoundaryReport(regions=tuple(results),
                          passed=all(r.status != "fail" for r in results),
                          seed=seed, t_end=t_end, rtol=rtol)
