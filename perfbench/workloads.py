"""The three workloads: what one item runs, and how its output is checked.

Each workload builds its inputs from the seed, runs one item through
the program's public functions, checks the output against the
benchmark's own oracles, and turns the spans of a traced run into
per-layer metrics.  ``check`` returns None when the output is right,
or a short reason when it is not; ``fault(item, out, reason)`` names
the known program fault behind a failure when both the reason and the
output are the ones that fault produces, and None otherwise.  Failures
with a known fault count in ``failed`` and leave ``correct`` true.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np

import inputs
import oracles
from tracing import self_time


def _median(values):
    return statistics.median(values) if values else 0.0


def _subtree(children, idx):
    stack = list(children.get(idx, ()))
    while stack:
        c = stack.pop()
        yield c
        stack.extend(children.get(c, ()))


def _near_points(points, targets, tol: float) -> bool:
    """Every point lies within ``tol`` of some target and vice versa."""
    pts = [np.asarray(p, dtype=float) for p in points]
    tgs = [np.asarray(t, dtype=float) for t in targets]
    return (all(min(np.linalg.norm(p - t) for t in tgs) <= tol for p in pts)
            and all(min(np.linalg.norm(p - t) for p in pts) <= tol
                    for t in tgs))


def _float_rows(rows) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in rows])


#: reason prefix of a certify item whose reported period spans several laps
EARLY_RETURN = "RK4 returns to x0 first at"


class Certify:
    """``orbit --x0`` then ``boundary`` on one exact class matrix, via the
    CLI in process.  Items are slow (seconds), so the reference kernel
    runs between every two items."""

    name = "certify"
    round_size = 2 * len(oracles.CLASSES)
    chunk_seconds = 0.0
    refs_per_gap = 3

    #: fixed-step RK4 step bound for the closure check
    rk4_step = 0.004

    def __init__(self, seed: int):
        self.seed = seed
        self.items = inputs.certify_inputs(seed)

    def bind(self, tracer):
        from replicator4 import boundary, cli, orbit
        self.main = cli.main
        if tracer is None:
            return
        self.main = tracer.wrap("cli.main", cli.main)
        integrate_counts = (lambda tr: {"naccept": tr.naccept,
                                        "nreject": tr.nreject})
        for module, attr, name in (
                (cli, "parse_matrix", "payoff.parse_matrix"),
                (cli, "kernel_line_section", "kernelgeom.kernel_line_section"),
                (cli, "select_reference_points",
                 "orbit.select_reference_points"),
                (cli, "detect_period", "orbit.detect_period"),
                (cli, "stability_probe", "orbit.stability_probe"),
                (cli, "boundary_prediction", "boundary.boundary_prediction"),
                (cli, "verify_boundary", "boundary.verify_boundary"),
                (boundary, "detect_period", "orbit.detect_period")):
            tracer.patch(module, attr, name)
        for module in (orbit, boundary):
            tracer.patch(module, "integrate", "dynamics.integrate",
                         integrate_counts)

    def _call(self, argv, text):
        stdin = sys.stdin
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(text)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.main(argv)
        finally:
            sys.stdin = stdin
        return rc, out.getvalue(), err.getvalue()

    def run(self, item):
        seed = str(item["probe_seed"])
        orbit = self._call(["orbit", "--matrix", "-", "--x0", item["x0_arg"],
                            "--seed", seed], item["text"])
        bnd = self._call(["boundary", "--matrix", "-", "--seed", seed],
                         item["text"])
        return {"orbit": orbit, "boundary": bnd}

    def check(self, item, out):
        (orc, otext, oerr), (brc, btext, berr) = out["orbit"], out["boundary"]
        if orc != 0:
            return f"orbit exit {orc}: {oerr.strip()[:200]}"
        if brc != 0:
            return f"boundary exit {brc}: {berr.strip()[:200]}"
        report, bnd = json.loads(otext), json.loads(btext)
        if not bnd["passed"]:
            return "boundary report did not pass"
        stab = report["stability"]
        if stab is None or stab["escaped"]:
            return "stability probe escaped"
        x0 = np.array(report["x0"])
        if not np.array_equal(x0, item["x0"]):
            return "report x0 differs from the start passed"
        period = report["period"]
        A = _float_rows(item["rows"])
        n = math.ceil(period / self.rk4_step)
        ts, xs = oracles.rk4_shares(A, x0, period, n)
        miss = float(np.linalg.norm(xs[-1] - x0))
        if miss > 1e-6:
            return f"RK4 misses x0 by {miss:.2e} at the period"
        for t, dist in oracles.section_returns(A, x0, ts, xs, period / 20,
                                               period - period / 20):
            if dist <= 1e-6:
                laps = period / t
                if abs(laps - round(laps)) <= 1e-3:
                    return (f"{EARLY_RETURN} t = {t:.9g}: the reported "
                            f"period {period:.9g} is {round(laps)} laps")
                return f"RK4 passes within {dist:.1e} of x0 at t = {t:.9g}"
        a, b = oracles.segment_endpoints(item["rows"])
        off = oracles.distance_to_line(oracles.time_average(ts, xs), a, b)
        if off > 1e-4:
            return f"orbit average {off:.2e} off the null line"
        return None

    @staticmethod
    def fault(item, out, reason):
        """F3 when the reported period is a multiple of the orbit's."""
        return "F3" if reason.startswith(EARLY_RETURN) else None

    def layer_metrics(self, spans, children, item_idx):
        per_item = {k: [] for k in (
            "orbit.stability_probe_s", "orbit.stability_probe.integrate_s",
            "orbit.stability_probe.self_s", "orbit.detect_period_s",
            "orbit.select_reference_points_s", "boundary.verify_boundary_s",
            "cli.self_s", "dynamics.integrate_calls",
            "dynamics.integrate_steps", "dynamics.integrate_rejects")}
        covered = total = integrate_s = 0.0
        steps_all = 0
        for it in item_idx:
            sums = dict.fromkeys(per_item, 0.0)
            total += spans[it][2] - spans[it][1]
            for c in children.get(it, ()):
                sums["cli.self_s"] += self_time(spans, children, c)
                for lib in children.get(c, ()):
                    name, t0, t1 = spans[lib][:3]
                    covered += t1 - t0
                    key = name + "_s"
                    if key in sums:
                        sums[key] += t1 - t0
                    if name == "orbit.stability_probe":
                        inner = sum(spans[g][2] - spans[g][1]
                                    for g in children.get(lib, ())
                                    if spans[g][0] == "dynamics.integrate")
                        sums["orbit.stability_probe.integrate_s"] += inner
                        sums["orbit.stability_probe.self_s"] += \
                            (t1 - t0) - inner
            for s in _subtree(children, it):
                name, t0, t1, _, extra = spans[s]
                if name == "dynamics.integrate":
                    sums["dynamics.integrate_calls"] += 1
                    sums["dynamics.integrate_steps"] += extra["naccept"]
                    sums["dynamics.integrate_rejects"] += extra["nreject"]
                    integrate_s += t1 - t0
                    steps_all += extra["naccept"]
            for k, v in sums.items():
                per_item[k].append(v)
        out = {k: _median(v) for k, v in per_item.items()}
        out["dynamics.integrate_us_per_step"] = (
            1e6 * integrate_s / steps_all if steps_all else 0.0)
        return out, covered / total


class Screen:
    """``permanence_probe`` with five starts on one matrix; rounds of
    the five classes and the two contrast ensembles."""

    name = "screen"
    round_size = len(inputs.SCREEN_ROUND)
    chunk_seconds = 0.5
    refs_per_gap = 2

    def __init__(self, seed: int):
        from replicator4 import PayoffMatrix
        self.seed = seed
        self.items = inputs.screen_inputs(seed)
        for item in self.items:
            item["M"] = PayoffMatrix.from_rows(item["rows"], exact=True)

    def bind(self, tracer):
        from replicator4 import _fastprobe, ensembles
        self.probe = ensembles.permanence_probe
        if tracer is not None:
            self.probe = tracer.wrap("ensembles.permanence_probe",
                                     ensembles.permanence_probe)
            tracer.patch(_fastprobe, "window_and_final_min",
                         "_fastprobe.window_and_final_min")

    def run(self, item):
        return self.probe(item["M"], item["starts"])

    def warm_up(self):
        """One untimed probe, so that a compiled ``_fastprobe`` loop is
        compiled or loaded from its cache before the timed phase."""
        from replicator4 import ensembles
        item = self.items[0]
        ensembles.permanence_probe(item["M"], item["starts"][:1])

    @staticmethod
    def backend() -> str:
        """Which ``_fastprobe`` loop runs: numba's or the Python one."""
        from replicator4 import _fastprobe
        compiled = (_fastprobe.window_and_final_min
                    is not _fastprobe._probe_impl)
        return "numba" if compiled else "python"

    def check(self, item, out):
        from replicator4 import is_permanent
        rows = item["rows"]
        oracle = (oracles.det_leibniz(rows) == 0
                  and oracles.has_cycle(oracles.sign_edges(rows)))
        if oracle != item["permanent"]:
            raise RuntimeError(f"screen input of kind {item['kind']} does "
                               "not match its construction")
        if is_permanent(item["M"]) != item["permanent"]:
            return "is_permanent disagrees with the construction"
        if len(out) != len(item["starts"]):
            return "one result per start expected"
        if item["permanent"]:
            floor = min(w for w, _ in out)
            if floor < 1e-3:
                return f"permanent matrix: window minimum {floor:.2e}"
        else:
            final = min(f for _, f in out)
            if final > 1e-4:
                return f"non-permanent matrix: final minimum {final:.2e}"
        return None

    def layer_metrics(self, spans, children, item_idx):
        probe_s, perm_ms, nonperm_ms = [], [], []
        covered = total = 0.0
        n_traj = 0
        for it, item in item_idx.items():
            total += spans[it][2] - spans[it][1]
            for c in children.get(it, ()):
                _, t0, t1 = spans[c][:3]
                covered += t1 - t0
                probe_s.append(t1 - t0)
                for g in children.get(c, ()):
                    ms = 1e3 * (spans[g][2] - spans[g][1])
                    (perm_ms if item["permanent"] else nonperm_ms).append(ms)
                    n_traj += 1
        return {
            "ensembles.permanence_probe_s": _median(probe_s),
            "ensembles.permanence_probe.permanent_ms_per_trajectory":
                _median(perm_ms),
            "ensembles.permanence_probe.nonpermanent_ms_per_trajectory":
                _median(nonperm_ms),
            "ensembles.trajectories": n_traj,
        }, covered / total


ALGEBRA_CALLS = (
    ("parse", "payoff.parse_matrix"),
    ("pfaffian", "payoff.pfaffian"),
    ("determinant", "payoff.determinant"),
    ("is_permanent", "signgraph.is_permanent"),
    ("classify", "signgraph.classify_matrix"),
    ("kernel", "kernelgeom.kernel_line_section"),
    ("clip", "kernelgeom.section_by_clipping"),
    ("predict", "boundary.boundary_prediction"),
)

#: thresholds of the float-mode decisions, to name what a failure hit
F1_ZERO_ATOL = 1e-12
F2_SINGULAR_RTOL = 1e-10

#: check reasons that a twin whose edges were all dropped (F1) yields
VERDICT_DIFFERS = "permanence verdict differs from the construction"
PREDICTION_DIFFERS = "boundary prediction differs from the exact twin"
#: what ``kernel_line_section`` raises on a nonsingular matrix (F2)
F2_ERRORS = ("RankError", "InconsistentClass", "UnclassifiableSignPattern")


class Algebra:
    """The interactive classify/kernel chain on exact matrices and
    their float twins, with no integration."""

    name = "algebra"
    chunk_seconds = 0.3
    refs_per_gap = 1

    def __init__(self, seed: int):
        self.seed = seed
        rounds = inputs.algebra_inputs(seed)
        self.round_size = len(rounds[0])
        self.items = [item for r in rounds for item in r]
        self._truths: dict = {}
        self._exact_predictions: dict = {}

    def bind(self, tracer):
        import replicator4 as r4
        raw = {"parse": r4.parse_matrix,
               "pfaffian": r4.PayoffMatrix.pfaffian,
               "determinant": r4.PayoffMatrix.determinant,
               "is_permanent": r4.is_permanent,
               "classify": r4.classify_matrix,
               "kernel": r4.kernel_line_section,
               "clip": r4.section_by_clipping,
               "predict": r4.boundary_prediction}
        self.unclassifiable = r4.UnclassifiableSignPattern
        self.program_error = r4.Replicator4Error
        if tracer is None:
            self.calls = {"exact": raw, "float": raw}
            return
        self.calls = {mode: {key: tracer.wrap(f"{name}.{mode}", raw[key])
                             for key, name in ALGEBRA_CALLS}
                      for mode in ("exact", "float")}

    def run(self, item):
        f = self.calls["exact" if item["scale"] is None else "float"]
        stage, permanent = "parse", None
        try:
            M = f["parse"](item["text"])
            stage = "pfaffian"
            pf = f["pfaffian"](M)
            stage = "determinant"
            det = f["determinant"](M)
            stage = "is_permanent"
            permanent = f["is_permanent"](M)
            stage = "classify"
            try:
                label = f["classify"](M)
            except self.unclassifiable as exc:
                label = exc.reason
            section = clip = None
            if permanent:
                stage = "kernel"
                section = f["kernel"](M)
                stage = "clip"
                clip = f["clip"](M)
            stage = "predict"
            prediction = f["predict"](M)
        except self.program_error as exc:
            return {"error": type(exc).__name__, "stage": stage,
                    "permanent": permanent}
        return {"M": M, "pf": pf, "det": det, "permanent": permanent,
                "label": label, "section": section, "clip": clip,
                "prediction": prediction}

    def _truth(self, item) -> dict:
        key = id(item["rows"])
        if key not in self._truths:
            rows = item["rows"]
            edges = oracles.sign_edges(rows)
            det = oracles.det_leibniz(rows)
            truth = {"pf": oracles.pfaffian(rows), "det": det,
                     "class": oracles.class_of_edges(edges),
                     "permanent": det == 0 and oracles.has_cycle(edges),
                     "edges": edges}
            if truth["permanent"] != (item["kind"] in oracles.CLASSES) or (
                    truth["permanent"] and truth["class"][0] != item["kind"]):
                raise RuntimeError(f"algebra input of kind {item['kind']} "
                                   "does not match its construction")
            if truth["permanent"]:
                truth["endpoints"] = oracles.segment_endpoints(rows)
            self._truths[key] = truth
        return self._truths[key]

    def _exact_prediction(self, item) -> dict:
        key = id(item["rows"])
        if key not in self._exact_predictions:
            from replicator4 import boundary_prediction, parse_matrix
            M = parse_matrix(inputs.exact_text(item["rows"]))
            self._exact_predictions[key] = boundary_prediction(M).to_json()
        return self._exact_predictions[key]

    def check(self, item, out):
        if "error" in out:
            return f"raised {out['error']}"
        truth = self._truth(item)
        exact = item["scale"] is None
        M = out["M"]
        if M.exact != exact:
            return "parsed in the wrong arithmetic mode"
        if out["permanent"] != truth["permanent"]:
            return VERDICT_DIFFERS
        name, detail = truth["class"]
        label = out["label"]
        if name is None:
            if label != detail:
                return f"expected refusal {detail!r}, got {label!r}"
        elif isinstance(label, str) or (label.name, label.relabeling) != (
                name, detail):
            return f"expected class {name} {detail}, got {label!r}"
        reason = (self._check_exact(item, out, truth) if exact
                  else self._check_float(item, out, truth))
        if reason is None and out["section"] is not None:
            section = out["section"]
            loci = [(l.kind,) + l.strategies for l in section.loci]
            if sorted(loci) != sorted(oracles.locus_of(e)
                                      for e in truth["endpoints"]):
                return "loci differ from the endpoints' supports"
            if not _near_points(out["clip"], truth["endpoints"], 1e-10):
                return "clipped segment is off the exact endpoints"
        return reason

    def _check_exact(self, item, out, truth):
        pf, det = out["pf"], out["det"]
        if pf != truth["pf"] or det != truth["det"] or pf * pf != det:
            return "pfaffian or determinant differs from Leibniz"
        if out["section"] is not None:
            ends = out["section"].endpoints
            if set(ends) != truth["endpoints"]:
                return "exact endpoints differ from the null-space oracle"
            rows = item["rows"]
            if any(sum(a * z for a, z in zip(row, e)) != 0
                   for row in rows for e in ends):
                return "A z != 0 at an exact endpoint"
        pred = out["prediction"]
        for e in pred.edges:
            i, j = e.edge
            v = item["rows"][i - 1][j - 1]
            want = ("all_equilibria", None) if v == 0 else (
                "vertex", i if v > 0 else j)
            if (e.kind, e.vertex) != want:
                return f"edge {e.edge} predicted {e.kind}"
        for f in pred.faces:
            nodes = [k for k in (1, 2, 3, 4) if k != f.face]
            sub = [(a, b) for (a, b) in truth["edges"]
                   if a in nodes and b in nodes]
            cyclic = len(sub) == 3 and oracles.has_cycle(sub)
            if (f.kind == "periodic") != cyclic:
                return f"face {f.face} predicted {f.kind}"
        return None

    def _check_float(self, item, out, truth):
        reason = self._check_float_numbers(item, out, truth)
        if reason is not None:
            return reason
        if out["section"] is not None and not _near_points(
                out["section"].as_array(), truth["endpoints"], 1e-10):
            return "float endpoints are off the exact endpoints"
        if not _same_json(out["prediction"].to_json(),
                          self._exact_prediction(item)):
            return PREDICTION_DIFFERS
        return None

    @staticmethod
    def _check_float_numbers(item, out, truth):
        """Pfaffian and determinant of a float twin, which no sign
        threshold touches."""
        s = item["scale"]
        rows = item["rows"]
        pf_terms = float(abs(rows[0][1] * rows[2][3])
                         + abs(rows[0][2] * rows[1][3])
                         + abs(rows[0][3] * rows[1][2]))
        if abs(out["pf"] - s * s * float(truth["pf"])) > \
                1e-12 * s * s * pf_terms:
            return "float pfaffian differs from the exact one"
        big = s * float(max(abs(v) for row in rows for v in row))
        if abs(out["det"] - s ** 4 * float(truth["det"])) > 1e-11 * big ** 4:
            return "float determinant differs from the exact one"
        return None

    def fault(self, item, out, reason):
        """Name of the known float-mode fault behind a ladder item's
        failure, or None.

        F1: an entry of ``scale * A`` is within the absolute 1e-12 zero
        threshold, so its edge is dropped.  It is blamed only when the
        program answered as for the zero matrix (not permanent, refused
        as "acyclic", every edge and face all equilibria), its pf and
        det are right, and the reason is one that answer yields.
        F2: ``scale**2 * |pf|`` is within
        ``1e-10 * max(1, max|scale * a|**2)``, which is absolute below
        unit scale, so the matrix is called singular.  It is blamed only
        when the item was called permanent and ``kernel_line_section``
        or ``section_by_clipping`` then raised one of ``F2_ERRORS``.
        """
        s = item["scale"]
        if s is None or not item["ladder"]:
            return None
        rows = item["rows"]
        smallest = min(abs(v) for row in rows for v in row if v != 0)
        if s * float(smallest) <= F1_ZERO_ATOL:
            return "F1" if self._zero_matrix_answer(item, out, reason) \
                else None
        pf = oracles.pfaffian(rows)
        big = s * float(max(abs(v) for row in rows for v in row))
        if pf != 0 and s * s * float(abs(pf)) <= F2_SINGULAR_RTOL * max(
                1.0, big * big):
            error = out.get("error")
            return "F2" if (error in F2_ERRORS
                            and reason == f"raised {error}"
                            and out["stage"] in ("kernel", "clip")
                            and out["permanent"] is True) else None
        return None

    def _zero_matrix_answer(self, item, out, reason) -> bool:
        if "error" in out:
            return False
        if reason not in (VERDICT_DIFFERS, PREDICTION_DIFFERS) and not (
                reason.startswith("expected class ")
                and reason.endswith(", got 'acyclic'")):
            return False
        pred = out["prediction"]
        return (out["permanent"] is False and out["label"] == "acyclic"
                and out["section"] is None
                and all(e.kind == "all_equilibria" for e in pred.edges)
                and all(f.kind == "all_equilibria" for f in pred.faces)
                and self._check_float_numbers(item, out,
                                              self._truth(item)) is None)

    def layer_metrics(self, spans, children, item_idx):
        by_name: dict = {}
        covered = total = 0.0
        for it in item_idx:
            total += spans[it][2] - spans[it][1]
            for c in children.get(it, ()):
                name, t0, t1 = spans[c][:3]
                covered += t1 - t0
                by_name.setdefault(name, []).append(1e6 * (t1 - t0))
        out = {}
        for _, name in ALGEBRA_CALLS:
            for mode in ("exact", "float"):
                out[f"{name}_us.{mode}"] = _median(
                    by_name.get(f"{name}.{mode}", []))
        return out, covered / total


def _same_json(a, b, rtol: float = 1e-9) -> bool:
    """Structural equality; numbers, also ``p/q`` strings, to ``rtol``."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k], rtol)
                                            for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_json(x, y, rtol)
                                        for x, y in zip(a, b))
    try:
        x, y = float(Fraction(a)), float(Fraction(b))
    except (TypeError, ValueError):
        return a == b
    return abs(x - y) <= rtol * max(abs(x), abs(y))


WORKLOADS = {w.name: w for w in (Certify, Screen, Algebra)}
