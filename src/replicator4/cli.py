"""Command line interface.

Subcommands mirror the library layers: ``classify`` and ``kernel`` are
pure matrix analysis, ``simulate`` integrates one trajectory to CSV with
a drift sidecar, ``orbit`` certifies a periodic orbit, ``boundary``
scores the boundary prediction table by simulation, ``verify`` chains
everything for one matrix, and ``portrait`` renders an SVG phase
portrait.

Conventions
-----------
* the matrix comes from ``--matrix PATH`` (``-`` reads stdin), text or
  JSON, exact arithmetic whenever every token is exact,
* reports are JSON with sorted keys; identical inputs and seeds give
  byte-identical bytes out,
* every report follows its versioned schema under
  ``replicator4/schemas/``, which the test suite validates it against,
* ``verify`` grades the bounds of :mod:`replicator4.orbit` from
  ``certify_orbit``'s record, ``TUBE_FACTOR`` from the probe record's
  ``escaped``; only a start that never closes raises (``NoClosureFound``),
* a failed check comes back as a record, and the CLI makes it an exit
  code: ``orbit`` (escaped probes) and ``boundary`` (a failed region)
  exit 1 with an error, ``verify`` exits 1 after writing its report,
* exit status 0 on success, 1 with a structured JSON error on stderr
  for domain failures, 2 for argument errors (argparse's own exit).

The default seed is 0; the ``REPLICATOR4_SEED`` environment variable
overrides it, and an explicit ``--seed`` beats both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, orbit
from .boundary import boundary_prediction, verify_boundary
from .dynamics import default_drift_budget, integrate, integrate_many
from .ensembles import barycenter_starts, interior_starts
from .errors import (MatrixFormatError, PreconditionFailed,
                     Replicator4Error, UnclassifiableSignPattern)
from .kernelgeom import (distance_to_K, kernel_line_section,
                         section_by_clipping, section_residual)
# select_reference_points, stability_probe: unused; perfbench patches them
from .orbit import (ALGEBRA_TOL, CLOSURE_TOL, HORIZON, K_DISTANCE_TOL,
                    PHI_DRIFT_TOL, V_DRIFT_TOL, certify_orbit, detect_period,
                    select_reference_points, stability_probe)
from .payoff import PayoffMatrix, format_matrix, parse_matrix
from .portrait import render_portrait
from .signgraph import build_digraph, classify, is_permanent

_SEED_ENV = "REPLICATOR4_SEED"
#: most ``portrait --starts``, refused before any start is drawn
MAX_PORTRAIT_STARTS = 1000


def _read_matrix(args) -> PayoffMatrix:
    try:
        if args.matrix == "-":
            text = sys.stdin.read()
        else:
            with open(args.matrix, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(
            f"matrix input is not UTF-8 text: {exc}") from None
    exact = False if getattr(args, "float", False) else None
    return parse_matrix(text, exact=exact)


def _seed_of(args) -> int:
    env = os.environ.get(_SEED_ENV, "0")
    try:
        seed = int(env) if args.seed is None else args.seed
    except ValueError:
        raise PreconditionFailed(
            f"{_SEED_ENV}={env!r} is not an integer") from None
    if seed < 0:
        raise PreconditionFailed(f"seed {seed} must be nonnegative")
    return seed


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _section_or_none(M: PayoffMatrix):
    """K's section, or None when M has none."""
    try:
        return kernel_line_section(M)
    except Replicator4Error:
        return None


def _seeded_starts(section, seed: int, n: int) -> list:
    """n seeded interior starts: jitter K's midpoint when there is a
    section, otherwise jitter the barycenter."""
    rng = np.random.default_rng(seed)
    if section is None:
        return barycenter_starts(rng, n)
    return interior_starts(section, rng, n)


def _parse_x0(text: str) -> np.ndarray:
    try:
        vals = [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise PreconditionFailed(
            f"--x0 {text!r} is not a list of numbers") from None
    if len(vals) != 4:
        raise PreconditionFailed(
            f"--x0 needs 4 coordinates, got {len(vals)}")
    return np.asarray(vals)


def _cmd_classify(args) -> int:
    M = _read_matrix(args)
    G = build_digraph(M)
    reason = None
    try:
        label = classify(G)
        out = G.to_dict(label)
    except UnclassifiableSignPattern as exc:
        out = G.to_dict(None)
        reason = exc.reason
    pf = M.pfaffian()
    out["permanent"] = is_permanent(M)
    out["pfaffian"] = str(pf) if M.exact else float(pf)
    if not out["permanent"]:
        reason = "det_nonzero" if not M.is_singular() else "acyclic"
    if reason is not None:
        out["reason"] = reason
    _write(_dump(out), args.out)
    return 0


def _cmd_kernel(args) -> int:
    M = _read_matrix(args)
    section = kernel_line_section(M)
    _write(_dump(section.to_json()), args.out)
    return 0


def _cmd_simulate(args) -> int:
    M = _read_matrix(args)
    seed = _seed_of(args)
    section = _section_or_none(M)
    x0 = _parse_x0(args.x0) if args.x0 else _seeded_starts(section, seed, 1)[0]
    monitors = [] if section is None else [
        (f"z({c})", [float(v) for v in section.point_at(c)])
        for c in (0.25, 0.5, 0.75)]
    budget = default_drift_budget(args.rtol, args.t_end, M.array)
    traj = integrate(M, x0, args.t_end, rtol=args.rtol, atol=args.atol,
                     monitors=monitors, drift_budget=budget)
    ts, xs = traj.sample(args.dt)
    lines = ["t,x1,x2,x3,x4"]
    for t, x in zip(ts, xs):
        row = ",".join(repr(float(v)) for v in (t, x[0], x[1], x[2], x[3]))
        lines.append(row)
    _write("\n".join(lines) + "\n", args.out)
    sidecar = {
        "version": __version__,
        "config": {
            "matrix": format_matrix(M),
            "x0": [float(v) for v in x0],
            "t_end": args.t_end,
            "rtol": args.rtol,
            "atol": args.atol,
            "dt": args.dt,
            "seed": None if args.x0 else seed,
            "arithmetic": "exact" if M.exact else "float",
        },
        "naccept": traj.naccept,
        "nreject": traj.nreject,
        "drift": {k: float(v) for k, v in traj.drift.items()},
        "drift_budget": budget,
    }
    report_path = args.report
    if report_path is None and args.out not in (None, "-"):
        report_path = args.out + ".drift.json"
    if report_path is not None:
        _write(_dump(sidecar), report_path)
    return 0


def _cmd_orbit(args) -> int:
    M = _read_matrix(args)
    seed = _seed_of(args)
    section = kernel_line_section(M)
    x0 = _parse_x0(args.x0) if args.x0 else _seeded_starts(section, seed, 1)[0]
    run = dict(section=section, rtol=args.rtol, atol=args.atol,
               closure_tol=args.closure_tol, horizon=args.horizon)
    report = detect_period(M, x0, **run) if args.skip_stability else \
        certify_orbit(M, x0, **run, delta=args.delta, n_probes=args.probes,
                      seed=seed)
    probe = report.stability
    if probe is not None and probe.escaped:
        _emit_error("ProbeEscaped", f"{len(probe.escaped)} of {probe.n_probes}"
                    f" probes left the {orbit.TUBE_FACTOR} * delta tube")
        return 1
    out = report.to_json()
    out["reference_points"] = report.refs.to_json()
    _write(_dump(out), args.out)
    return 0


def _cmd_boundary(args) -> int:
    M = _read_matrix(args)
    report = verify_boundary(M, boundary_prediction(M), seed=_seed_of(args),
                             samples_per_region=args.samples,
                             t_end=args.t_end, rtol=args.rtol)
    _write(_dump(report.to_json()), args.out)
    if not report.passed:
        bad = [r.region for r in report.regions if r.status == "fail"]
        _emit_error("PredictionViolated",
                    f"regions {bad} contradict the prediction table")
        return 1
    return 0


def _cmd_verify(args) -> int:
    M = _read_matrix(args)
    seed = _seed_of(args)
    checks: dict = {}

    M.to_float()  # MatrixFormatError before pf and det become floats
    pf = M.pfaffian()
    det = M.determinant()
    if M.exact:
        pf_ok = (pf * pf == det)
    else:  # on the unit-scale entries, where neither can underflow
        U = M.unit()
        pf_ok = abs(U.pfaffian() ** 2 - U.determinant()) <= ALGEBRA_TOL
    checks["pfaffian_vs_determinant"] = {
        "status": "pass" if pf_ok else "fail",
        "pfaffian": float(pf),
        "determinant": float(det),
    }

    G = build_digraph(M)
    try:
        label = classify(G)
        checks["classification"] = {"status": "pass", "class": label.name,
                                    "relabeling": list(label.relabeling)}
    except UnclassifiableSignPattern as exc:
        label = None
        checks["classification"] = {"status": "fail",
                                    "reason": exc.reason}

    section = None
    if label is not None and M.is_singular():
        section = kernel_line_section(M)
        resid = section_residual(M, section)
        clip = section_by_clipping(M)
        closed = section.as_array()
        dev = max(min(float(np.linalg.norm(c - e)) for e in closed)
                  for c in clip)
        ok = resid / float(M.max_abs()) <= ALGEBRA_TOL and dev <= ALGEBRA_TOL
        checks["kernel_section"] = {
            "status": "pass" if ok else "fail",
            "residual": resid,
            "clip_deviation": dev,
        }
    else:
        checks["kernel_section"] = {"status": "skipped"}

    if section is not None:
        x0 = _seeded_starts(section, seed, 1)[0]
        report = certify_orbit(M, x0, section, rtol=args.rtol, seed=seed)
        # every bound is graded here from the record, the tube from
        # probe.escaped; only a start that never closes raises
        orbit_ok = (report.avg_distance_to_K <= K_DISTANCE_TOL
                    and max(report.phi_drift.values()) <= PHI_DRIFT_TOL)
        certified = report.to_json()
        checks["orbit"] = {"status": "pass" if orbit_ok else "fail", **{
            k: certified[k] for k in ("x0", "period", "closure_residual",
                                      "avg_distance_to_K", "phi_drift")}}
        probe = report.stability
        stab_ok = not probe.escaped and probe.v_drift_max <= V_DRIFT_TOL
        checks["stability"] = {
            "status": "pass" if stab_ok else "fail",
            "max_tube_distance": probe.max_tube_distance,
            "v_drift_max": probe.v_drift_max,
        }
    else:
        checks["orbit"] = {"status": "skipped"}
        checks["stability"] = {"status": "skipped"}

    breport = verify_boundary(M, boundary_prediction(M), seed=seed)
    checks["boundary"] = {
        "status": "pass" if breport.passed else "fail",
        "regions": {r.region: r.status for r in breport.regions},
    }

    passed = all(c["status"] != "fail" for c in checks.values())
    out = {
        "version": __version__,
        "config": {
            "matrix": format_matrix(M),
            "seed": seed,
            "rtol": args.rtol,
            "arithmetic": "exact" if M.exact else "float",
        },
        "checks": checks,
        "passed": passed,
    }
    _write(_dump(out), args.out)
    return 0 if passed else 1


def _cmd_portrait(args) -> int:
    M = _read_matrix(args)
    if not 1 <= args.starts <= MAX_PORTRAIT_STARTS:
        raise PreconditionFailed(f"--starts {args.starts}; a portrait takes "
                                 f"1 to {MAX_PORTRAIT_STARTS} starts")
    section = _section_or_none(M)
    starts = _seeded_starts(section, _seed_of(args), args.starts)
    runs = integrate_many(M, starts, args.t_end, rtol=args.rtol)
    trajs = []
    for x0, traj in zip(starts, runs):
        _, xs = traj.sample(args.dt)
        label = "x0=(" + ", ".join(f"{v:.4f}" for v in x0) + ")"
        trajs.append((label, xs))
    _write(render_portrait(trajs, section=section), args.out)
    return 0


def _emit_error(err_type: str, message: str):
    payload = {"error": {"type": err_type, "message": message}}
    sys.stderr.write(_dump(payload))


def _add_common(p, seed=True):
    p.add_argument("--matrix", required=True,
                   help="matrix file, or - for stdin")
    p.add_argument("--float", action="store_true",
                   help="force float arithmetic even for exact input")
    p.add_argument("--out", default=None,
                   help="output path (default stdout)")
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help=f"rng seed (default 0, env {_SEED_ENV})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it
    unchanged)."""
    ap = argparse.ArgumentParser(
        prog="replicator4",
        description="Permanence, kernel geometry, periodic orbit "
                    "certification, and boundary verification for "
                    "conservative four-strategy replicator dynamics.")
    ap.add_argument("--version", action="version",
                    version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="sign digraph and class")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("kernel", help="interior equilibrium segment")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("simulate", help="trajectory CSV + drift sidecar")
    _add_common(p)
    p.add_argument("--x0", default=None,
                   help="comma separated interior start "
                        "(default: seeded jitter around K's midpoint)")
    p.add_argument("--t-end", type=float, default=100.0)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--report", default=None,
                   help="sidecar path (default <out>.drift.json)")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("orbit", help="certify a periodic orbit")
    _add_common(p)
    p.add_argument("--x0", default=None)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)
    p.add_argument("--closure-tol", type=float, default=CLOSURE_TOL)
    p.add_argument("--horizon", type=float, default=HORIZON)
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--probes", type=int, default=16)
    p.add_argument("--skip-stability", action="store_true")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("boundary", help="verify boundary predictions")
    _add_common(p)
    p.add_argument("--t-end", type=float, default=200.0)
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--samples", type=int, default=3,
                   help="starts per region")
    p.set_defaults(fn=_cmd_boundary)

    p = sub.add_parser("verify", help="full checks for one matrix")
    _add_common(p)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("portrait", help="SVG phase portrait")
    _add_common(p)
    p.add_argument("--starts", type=int, default=3)
    p.add_argument("--t-end", type=float, default=30.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--rtol", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_portrait)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Replicator4Error as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
