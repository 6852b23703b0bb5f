"""Compare the CLI outputs of two source trees for canonical classes I-V.

    python tools/report_diff.py OLD_TREE NEW_TREE

Each tree's ``src/`` runs ``orbit`` (seed 3), ``boundary`` (seed 0),
``verify`` (seed 1), ``simulate`` and ``portrait`` (seed 0), ``classify``
and ``kernel``, so that every subcommand's report is diffed, and on class I
at a quarter of its payoffs, ``Iq``, ``orbit`` and ``boundary``: its face
periods lie past the boundary's first 25 time units, and its orbit is
probed on a matrix that is not a unit representative.  Class I at four
times its payoffs, ``I4``, runs ``orbit`` and ``verify``: its period is
about 2.4, so three periods end inside the first 25 time units, and the
stability probes, which ride along the period's run, are sampled from
longer runs than their own.  Float twins of
I-V scaled by 1e-13 and 1e13 (``I1e-13``, ``I1e13``, ...) run ``classify``
and ``kernel --float``, so that float-mode decisions show in the diff.  One
seeded relabeled sample per class, ``sample_class_matrix(c,
default_rng(0))`` (``S-I`` ... ``S-V``), runs ``classify`` and ``boundary``,
so that the ensemble draws show too.
Printed: per JSON key (list indices folded to ``[]``), CSV column or SVG
file, how many floats moved and the largest absolute and relative move;
every other change (a status, a string, an integer, an exit code, a
missing value); and how many files are byte-identical.  Exits 1 when
anything other than a float moved: a value, a key set or a file.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CLASSES = ("I", "II", "III", "IV", "V")
#: (command, options, output suffix) per run
RUNS = (("orbit", ("--seed", "3"), ".json"),
        ("boundary", ("--seed", "0"), ".json"),
        ("verify", ("--seed", "1"), ".json"),
        ("simulate", ("--seed", "0"), ".csv"),
        ("portrait", ("--seed", "0"), ".svg"),
        ("classify", (), ".json"),
        ("kernel", (), ".json"))
SCALED_RUNS = (("classify", ("--float",), ".json"),
               ("kernel", ("--float",), ".json"))
SCALES = ("1e-13", "1e13")
SAMPLED_RUNS = (("classify", (), ".json"),
                ("boundary", ("--seed", "0"), ".json"))
#: (name, runs) per matrix, in the order TEXT prints them
MATRICES = ([(c, RUNS) for c in CLASSES] + [("Iq", RUNS[:2])]
            + [("I4", (RUNS[0], RUNS[2]))]
            + [(c + s, SCALED_RUNS) for s in SCALES for c in CLASSES]
            + [("S-" + c, SAMPLED_RUNS) for c in CLASSES])
NUM = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")
TEXT = ("from fractions import Fraction\n"
        "import numpy as np\n"
        "from replicator4 import PayoffMatrix as P, canonical_matrix, "
        "format_matrix\n"
        "from replicator4.ensembles import CANONICAL_UPPER, "
        "sample_class_matrix\n"
        f"for c in {CLASSES!r}: print(format_matrix(canonical_matrix(c)))\n"
        "print(format_matrix(P.from_upper(\n"
        "    [Fraction(v, 4) for v in CANONICAL_UPPER['I']], exact=True)))\n"
        "print(format_matrix(P.from_upper(\n"
        "    [4 * v for v in CANONICAL_UPPER['I']], exact=True)))\n"
        f"for s in {SCALES!r}:\n"
        f"    for c in {CLASSES!r}: print(format_matrix(P.from_rows(\n"
        "        canonical_matrix(c).array * float(s))))\n"
        f"for c in {CLASSES!r}: print(format_matrix(sample_class_matrix(\n"
        "    c, np.random.default_rng(0))))")


def run_tree(tree: str, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    texts = subprocess.run([sys.executable, "-c", TEXT], env=env, check=True,
                           text=True, capture_output=True).stdout.split("\n")
    out.mkdir()
    for (name, runs), text in zip(MATRICES, texts):
        for cmd, options, ext in runs:
            stem = out / f"{cmd}.{name}"
            res = subprocess.run(
                [sys.executable, "-m", "replicator4.cli", cmd, "--matrix", "-",
                 *options, "--out", f"{stem}{ext}"], input=text,
                env=env, text=True, capture_output=True)
            Path(f"{stem}.exit").write_text(f"{res.returncode}\n{res.stderr}")


def leaves(path: Path, key: str):
    """(key, value) pairs of one output file, in document order."""
    text = path.read_text()
    if path.suffix == ".json":
        def walk(v, k):
            if isinstance(v, dict):
                for name in sorted(v):
                    yield from walk(v[name], f"{k}.{name}")
            elif isinstance(v, list):
                for item in v:
                    yield from walk(item, f"{k}[]")
            else:
                yield k, v
        yield from walk(json.loads(text), key)
    elif path.suffix == ".csv":
        head, *rows = [line.split(",") for line in text.splitlines()]
        for row in rows:
            yield from ((f"{key}.{h}", float(v)) for h, v in zip(head, row))
    else:
        yield from ((key, float(v)) for v in NUM.findall(text))
        yield f"{key}:text", NUM.sub("#", text)


def main(old: str, new: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "old"), Path(tmp, "new")
        run_tree(old, a)
        run_tree(new, b)
        moves, other, same = {}, [], 0
        files = sorted(a.iterdir())
        names = {p.name for p in files}
        other += [f"{p.name}: only in the new tree"
                  for p in sorted(b.iterdir()) if p.name not in names]
        for pa in files:
            cmd, _, ext = pa.name.split(".", 2)
            key = cmd + {"csv.drift.json": ".drift",
                         "exit": ".exit"}.get(ext, "")
            pb = b / pa.name
            if pb.exists() and pa.read_bytes() == pb.read_bytes():
                same += 1
                continue
            la = list(leaves(pa, key))
            lb = list(leaves(pb, key)) if pb.exists() else []
            if [k for k, _ in la] != [k for k, _ in lb]:
                other.append(f"{pa.name}: keys or length changed")
                continue
            for (k, va), (_, vb) in zip(la, lb):
                if va == vb:
                    continue
                if isinstance(va, float) and isinstance(vb, float):
                    d = abs(va - vb)
                    n, dmax, rmax = moves.get(k, (0, 0.0, 0.0))
                    moves[k] = (n + 1, max(dmax, d),
                                max(rmax, d / max(abs(va), abs(vb))))
                else:
                    other.append(f"{pa.name} {k}: {va!r} -> {vb!r}")
    print(f"{'key':60} {'moved':>6} {'max abs':>10} {'max rel':>10}")
    for k, (n, d, r) in sorted(moves.items()):
        print(f"{k:60} {n:6d} {d:10.3g} {r:10.3g}")
    print("\n".join(other) or "no status or non-float changes")
    print(f"{same} of {len(files)} files byte-identical")
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
