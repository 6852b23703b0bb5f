#!/usr/bin/env python3
"""Benchmark of replicator4: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 \
        --trace 0

runs from the root of a source checkout and imports the package from
``src/``.  The workload's items run for ``--seconds`` (whole rounds, so
the share of failed items never depends on the run length), with a
fixed reference kernel sampled between chunks of items; every output is
then checked against the benchmark's own oracles.  The last line on
stdout is ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics from spans with
``--trace 1`` (spans are also written to ``.perfbench/``).  A summary
goes to stderr.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: fresh processes timed before the timed phase and as many after it;
#: the median of all of them is ``setup_s``
SETUP_REPEATS = 4

END_TO_END = {
    "setup_s": "s",
    "matrices_per_s": "1/s",
    "matrix_s_p50": "s",
    "matrices_per_ref": "1/ref",
    "matrix_ref_p50": "ref",
}

_ALGEBRA_LAYERS = ("payoff.parse_matrix", "payoff.pfaffian",
                   "payoff.determinant", "signgraph.is_permanent",
                   "signgraph.classify_matrix",
                   "kernelgeom.kernel_line_section",
                   "kernelgeom.section_by_clipping",
                   "boundary.boundary_prediction")

PER_LAYER = {
    "orbit.stability_probe_s": "s",
    "orbit.stability_probe.integrate_s": "s",
    "orbit.stability_probe.self_s": "s",
    "orbit.detect_period_s": "s",
    "orbit.select_reference_points_s": "s",
    "boundary.verify_boundary_s": "s",
    "cli.self_s": "s",
    "dynamics.integrate_calls": "count",
    "dynamics.integrate_steps": "count",
    "dynamics.integrate_rejects": "count",
    "dynamics.integrate_us_per_step": "us",
    "ensembles.permanence_probe_s": "s",
    "ensembles.permanence_probe.permanent_ms_per_trajectory": "ms",
    "ensembles.permanence_probe.nonpermanent_ms_per_trajectory": "ms",
    "ensembles.trajectories": "count",
    **{f"{layer}_us.{mode}": "us" for layer in _ALGEBRA_LAYERS
       for mode in ("exact", "float")},
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "bench.ref_kernel_ms": "ms",
    "bench.trace_overhead": "ratio",
    "bench.span_coverage": "share",
}


def import_program() -> float:
    """Import replicator4 from the checkout's sources; seconds taken."""
    if not (SRC / "replicator4" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no replicator4 sources in {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import replicator4  # noqa: F401
    return time.perf_counter() - t0


def setup_child(workload: str, seed: int) -> dict:
    """What one fresh process pays before the first item."""
    import_s = import_program()
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[workload](seed)
    return {"import_s": import_s, "inputs_s": time.perf_counter() - t0}


def setup_samples(workload: str, seed: int) -> list:
    """(wall seconds, child's report) of ``SETUP_REPEATS`` fresh
    processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-child"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: setup process failed:\n"
                             f"{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((wall, report))
    return samples


def setup_metrics(samples) -> dict:
    return {
        "setup_s": statistics.median(w for w, _ in samples),
        "setup.import_s": statistics.median(r["import_s"] for _, r in samples),
        "setup.inputs_s": statistics.median(r["inputs_s"] for _, r in samples),
    }


def ref_samples(n: int) -> list:
    from oracles import reference_kernel
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


class Crash:
    """An item that raised outside the program's own error types."""

    def __init__(self, exc: Exception):
        self.reason = f"{type(exc).__name__}: {exc}"


def timed_phase(wl, run, items, seconds: float):
    """Run items for at least ``seconds``, ending on a round boundary.

    The reference kernel runs ``wl.refs_per_gap`` times before the first
    item and after every chunk of ``wl.chunk_seconds`` of items.
    Returns the records (item, output, seconds, chunk) and the kernel
    samples of every gap.
    """
    clock = time.perf_counter
    gaps = [ref_samples(wl.refs_per_gap)]
    records = []
    t_stop = clock() + seconds
    i = 0
    done = False
    while not done:
        t_chunk = clock()
        while True:
            item = items[i % len(items)]
            i += 1
            t0 = clock()
            try:
                out = run(item)
            except Exception as exc:  # reported as a wrong item
                out = Crash(exc)
            t1 = clock()
            records.append((item, out, t1 - t0, len(gaps) - 1))
            done = i % wl.round_size == 0 and t1 >= t_stop
            if done or t1 - t_chunk >= wl.chunk_seconds:
                break
        gaps.append(ref_samples(wl.refs_per_gap))
    return records, gaps


def relative_times(records, gaps) -> list:
    """Item seconds over the kernel's median in the gaps around them."""
    local = [statistics.median(gaps[c] + gaps[c + 1])
             for c in range(len(gaps) - 1)]
    return [dt / local[c] for (_, _, dt, c) in records]


def check_all(wl, records):
    """(correct, failed, fault counts, unexplained reasons)."""
    failed = 0
    faults: dict = {}
    unexplained = []
    for item, out, _, _ in records:
        if isinstance(out, Crash):
            failed += 1
            unexplained.append(out.reason)
            continue
        reason = wl.check(item, out)
        if reason is None:
            continue
        failed += 1
        fault = (wl.fault(item, out, reason) if hasattr(wl, "fault")
                 else None)
        if fault is None:
            unexplained.append(reason)
        else:
            key = (fault, item["kind"], item.get("scale"))
            faults[key] = faults.get(key, 0) + 1
    return not unexplained, failed, faults, unexplained


def end_to_end(records, gaps, setup) -> dict:
    dts = [dt for (_, _, dt, _) in records]
    rel = relative_times(records, gaps)
    return {
        "setup_s": setup["setup_s"],
        "matrices_per_s": len(dts) / sum(dts),
        "matrix_s_p50": statistics.median(dts),
        "matrices_per_ref": len(rel) / sum(rel),
        "matrix_ref_p50": statistics.median(rel),
    }


def trace_overhead(wl, tracer, budget: float = 4.0) -> float:
    """Traced over untraced time of the first items, alternating the two
    item by item so that host drift hits both alike, until the untraced
    items have taken ``budget`` seconds."""
    clock = time.perf_counter
    plain = traced = 0.0
    for item in wl.items:
        if plain >= budget:
            break
        wl.bind(None)
        t0 = clock()
        wl.run(item)
        plain += clock() - t0
        wl.bind(tracer)
        try:
            t0 = clock()
            wl.run(item)
            traced += clock() - t0
        finally:
            tracer.restore()
    wl.bind(None)
    return traced / plain


def traced_run(wl, seconds: float):
    """Timed phase with spans; returns records, kernel gaps and the
    per-layer metrics, and writes the spans to ``.perfbench/``."""
    from tracing import Tracer
    tracer = Tracer()
    wl.bind(tracer)
    try:
        records, gaps = timed_phase(wl, tracer.wrap("item", wl.run),
                                    wl.items, seconds)
    finally:
        tracer.restore()
    children = tracer.children()
    item_spans = {idx: rec[0] for idx, rec in zip(
        (i for i in children.get(-1, ()) if tracer.spans[i][0] == "item"),
        records)}
    layers, coverage = wl.layer_metrics(tracer.spans, children, item_spans)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{wl.name}-seed{wl.seed}.jsonl")
    layers["bench.trace_overhead"] = trace_overhead(wl, Tracer())
    layers["bench.span_coverage"] = coverage
    return records, gaps, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("algebra", "certify", "screen"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_child:
        print(json.dumps(setup_child(args.workload, args.seed)))
        return 0

    import_program()
    from workloads import WORKLOADS
    samples = setup_samples(args.workload, args.seed)
    wl = WORKLOADS[args.workload](args.seed)
    if hasattr(wl, "warm_up"):
        wl.warm_up()
    if args.trace:
        records, gaps, layers = traced_run(wl, args.seconds)
    else:
        wl.bind(None)
        records, gaps = timed_phase(wl, wl.run, wl.items, args.seconds)
    setup = setup_metrics(samples + setup_samples(args.workload, args.seed))
    correct, failed, faults, unexplained = check_all(wl, records)

    if args.trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(layers)
        values["setup.import_s"] = setup["setup.import_s"]
        values["setup.inputs_s"] = setup["setup.inputs_s"]
        values["bench.ref_kernel_ms"] = 1e3 * statistics.median(
            s for gap in gaps for s in gap)
        units = PER_LAYER
    else:
        values = end_to_end(records, gaps, setup)
        units = END_TO_END

    log = sys.stderr
    print(f"perfbench {wl.name} seed={args.seed}: {len(records)} items, "
          f"{failed} failed, correct={correct}", file=log)
    if hasattr(wl, "backend"):
        print(f"  _fastprobe backend: {wl.backend()}", file=log)
    for (fault, kind, scale), count in sorted(faults.items(), key=str):
        where = kind if scale is None else f"{kind} twin at scale {scale:g}"
        print(f"  {fault}: {where} failed {count} time(s)", file=log)
    for reason in unexplained[:10]:
        print(f"  WRONG: {reason}", file=log)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=log)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
