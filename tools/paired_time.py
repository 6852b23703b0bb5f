"""Time the certify workload's items on two source trees in one process.

    python tools/paired_time.py OLD_TREE NEW_TREE [--seed S] [--rounds R]

Each tree's ``src/replicator4`` is copied into a temporary directory as
the package ``r4_old`` or ``r4_new``; the package imports itself only
relatively, so both load side by side.  The items are those of
``perfbench/inputs.py``'s ``certify_inputs(seed)``: ``orbit --x0`` and then
``boundary`` through each tree's ``cli.main``, as the benchmark's certify
workload runs them.  First every item's exit codes, stdout and stderr are
checked to be byte-identical across the trees (exit 1 if not).  Then
``--rounds`` rounds run every item once per tree, interleaved item by
item, the tree that goes first alternating between rounds, and the script
prints each item's least time per tree and the ratio of their sums.  On a
shared host wall time drifts by tens of percent between phases, while the
ratio of interleaved minima repeats to about a percent.  Nothing under
``perfbench/`` is written.
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
    return importlib.import_module(f"{name}.cli")


def _call(cli, argv, text):
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _item(cli, item):
    """The certify workload's two calls on one item."""
    seed = str(item["probe_seed"])
    return (_call(cli, ["orbit", "--matrix", "-", "--x0", item["x0_arg"],
                        "--seed", seed], item["text"]),
            _call(cli, ["boundary", "--matrix", "-", "--seed", seed],
                  item["text"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=9)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    items = inputs.certify_inputs(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        clis = [_load(args.old.resolve(), "r4_old", Path(tmp)),
                _load(args.new.resolve(), "r4_new", Path(tmp))]
        differ = [item["kind"] for item in items
                  if _item(clis[0], item) != _item(clis[1], item)]
        if differ:
            print(f"outputs differ on {differ}")
            return 1
        print(f"{len(items)} items: outputs byte-identical")
        best = [[float("inf")] * len(items) for _ in clis]
        for r in range(args.rounds):
            for i, item in enumerate(items):
                for k in ((0, 1) if r % 2 == 0 else (1, 0)):
                    t0 = time.perf_counter()
                    _item(clis[k], item)
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
