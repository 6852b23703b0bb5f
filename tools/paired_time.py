"""Time a workload's items on two source trees in one process.

    python tools/paired_time.py OLD_TREE NEW_TREE [--workload W] [--seed S]
        [--rounds R]

Each tree's ``src/replicator4`` is copied into a temporary directory as
the package ``r4_old`` or ``r4_new``; the package imports itself only
relatively, so both load side by side.  The items are those of
``perfbench/inputs.py``, run as the benchmark's workload runs them:
``certify`` (the default), ``certify_inputs(seed)``, each ``orbit --x0``
and then ``boundary`` through each tree's ``cli.main``; ``screen``, the
first ten rounds of ``screen_inputs(seed)`` (70 items), each
``ensembles.permanence_probe`` on its exact matrix and five starts.  First
every item's outputs are checked to be identical across the trees (exit 1
if not): exit codes, stdout and stderr byte for byte, or each screen
pair by ``float.hex``.  Then ``--rounds`` rounds run every item once per
tree, interleaved item by item, the tree that goes first alternating
between rounds, and the script prints each item's least time per tree and
the ratio of their sums.  On a shared host wall time drifts by tens of
percent between phases, while the ratio of interleaved minima repeats to
about a percent.  Nothing under ``perfbench/`` is written.
"""

import argparse
import importlib
import io
import shutil
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(tree: Path, name: str, into: Path):
    shutil.copytree(tree / "src" / "replicator4", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module in ("cli", "ensembles"):
        importlib.import_module(f"{name}.{module}")
    return importlib.import_module(name)


def _call(cli, argv, text):
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _certify(pkg, item):
    """The certify workload's two calls on one item, and their outputs as
    they are."""
    seed = str(item["probe_seed"])
    return (lambda: (
        _call(pkg.cli, ["orbit", "--matrix", "-", "--x0", item["x0_arg"],
                        "--seed", seed], item["text"]),
        _call(pkg.cli, ["boundary", "--matrix", "-", "--seed", seed],
              item["text"])), lambda out: out)


def _screen(pkg, item):
    """The screen workload's call on one item, its exact matrix built
    beforehand as the benchmark builds it, and its pairs by float.hex."""
    M = pkg.PayoffMatrix.from_rows(item["rows"], exact=True)
    return (lambda: pkg.ensembles.permanence_probe(M, item["starts"]),
            lambda out: [tuple(map(float.hex, pair)) for pair in out])


WORKLOADS = {"certify": (lambda inputs, seed: inputs.certify_inputs(seed),
                         _certify),
             "screen": (lambda inputs, seed: inputs.screen_inputs(seed, 10),
                        _screen)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workload", choices=WORKLOADS, default="certify")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=9)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    make_items, bind = WORKLOADS[args.workload]
    items = make_items(inputs, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = [_load(args.old.resolve(), "r4_old", Path(tmp)),
                _load(args.new.resolve(), "r4_new", Path(tmp))]
        calls = [[bind(pkg, item) for item in items] for pkg in pkgs]
        differ = [item["kind"] for item, (old, key), (new, _) in
                  zip(items, *calls) if key(old()) != key(new())]
        if differ:
            print(f"outputs differ on {differ}")
            return 1
        print(f"{len(items)} items: outputs identical")
        best = [[float("inf")] * len(items) for _ in pkgs]
        for r in range(args.rounds):
            for i in range(len(items)):
                for k in ((0, 1) if r % 2 == 0 else (1, 0)):
                    run = calls[k][i][0]
                    t0 = time.perf_counter()
                    run()
                    best[k][i] = min(best[k][i], time.perf_counter() - t0)
    print(f"{'item':<14}{'old ms':>9}{'new ms':>9}{'ratio':>8}")
    for item, old, new in zip(items, *best):
        print(f"{item['kind']:<14}{1e3 * old:9.2f}{1e3 * new:9.2f}"
              f"{new / old:8.3f}")
    old, new = (sum(b) for b in best)
    print(f"{'total':<14}{1e3 * old:9.2f}{1e3 * new:9.2f}{new / old:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
