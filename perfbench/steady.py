#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 perfbench/steady.py --runs 10

runs ``perfbench/run.py`` N = ``--runs`` times on every workload of
BENCHMARK.json in each of two sets, for ``run_seconds`` each, on seeds
1..N in set 1 and 1001..1000+N in set 2, with the workloads taken in
turn so that host drift reaches all of them alike.  For every workload
and end-to-end metric it prints each set's median and quartiles, the
spread (q3 - q1) / median, and how much worse set 2's median is than
set 1's, next to the bound in BENCHMARK.json; it exits 1 when a spread
or a worsening exceeds the bound, or when the failed shares differ.
All run results are written to ``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per workload and set")
    args = ap.parse_args(argv)

    results = {w: [[], []] for w in names}
    for s in range(2):
        for i in range(args.runs):
            seed = 1 + 1000 * s + i
            for w in names:
                res = run_once(w, seed, spec["run_seconds"])
                res["seed"] = seed
                results[w][s].append(res)
                print(f"set {s + 1} {w} seed {seed}: "
                      f"correct={res['correct']} attempted="
                      f"{res['attempted']} failed={res['failed']}",
                      file=sys.stderr)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(results, indent=1))

    ok = True
    print(f"{'workload':9} {'metric':17} {'median1':>10} {'spread1':>8} "
          f"{'median2':>10} {'spread2':>8} {'worse':>7} {'bound':>6}")
    for w, sets in results.items():
        shares = [{r["failed"] / r["attempted"] for r in runs}
                  for runs in sets]
        if len(shares[0] | shares[1]) != 1 or not all(
                r["correct"] for runs in sets for r in runs):
            ok = False
            print(f"{w}: failed shares {shares} or a wrong output")
        for m in spec["end_to_end"]:
            name = m["name"]
            stats = [spread([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            worse = worse_by(stats[0][0], stats[1][0], m["better"])
            steady = max(stats[0][3], stats[1][3]) <= m["bound"]
            flag = "" if steady and worse <= m["bound"] else "  <-- over"
            ok = ok and not flag
            print(f"{w:9} {name:17} {stats[0][0]:10.4g} {stats[0][3]:8.3f} "
                  f"{stats[1][0]:10.4g} {stats[1][3]:8.3f} {worse:7.3f} "
                  f"{m['bound']:6.3f}{flag}")
            print(f"{'':27} q1..q3 set1 {stats[0][1]:.4g}..{stats[0][2]:.4g}"
                  f"  set2 {stats[1][1]:.4g}..{stats[1][2]:.4g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
