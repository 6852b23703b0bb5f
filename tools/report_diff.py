"""Compare the CLI outputs of two source trees for canonical classes I-V.

    python tools/report_diff.py OLD_TREE NEW_TREE

Each tree's ``src/`` runs ``orbit`` (seed 3), ``boundary`` (seed 0),
``verify`` (seed 1), ``simulate`` and ``portrait`` (seed 0), ``classify``
and ``kernel``, so that every subcommand's report is diffed, and on class I
at a quarter of its payoffs, ``Iq``, ``orbit``, ``boundary`` and ``verify``:
its orbit and face periods lie past the first 25 time units, so their
runs continue past them, and its orbit is probed on a matrix that is not a
unit representative.  Class I at four times its payoffs, ``I4``, runs
``orbit`` and ``verify``: its period is about 2.4, so three periods end
inside the first 25 time units, and the stability probes, which ride along
the period's run, are sampled from longer runs than their own.  Class I at
16 times its payoffs, ``I16``, runs ``orbit`` and ``boundary``: its period
is about 0.6, so the first section returns lie at t < 1, where the
bisection's width bound is absolute rather than relative.  Class I
runs ``boundary`` again at ``--rtol 1e-12`` (``I-rtol12``), so that the
tolerance of every boundary run, the periodic faces' included, shows in
the diff.  Class I also runs ``orbit`` with ``--delta 0`` (``I-delta0``:
16 identical probes, whose tube bounds tie) and with ``--probes 1``
(``I-probes1``), so that the degenerate tube searches show in the diff.
Float twins of I-V scaled by 1e-13 and 1e13 (``I1e-13``, ``I1e13``, ...)
run ``classify`` and ``kernel --float``, so that float-mode decisions show
in the diff.  One seeded relabeled sample per class, ``sample_class_matrix(c,
default_rng(0))`` (``S-I`` ... ``S-V``), runs ``classify``, ``kernel``,
``kernel --float`` and ``boundary``, so that the ensemble draws show too,
with the class and the exact and float K endpoints of a relabeled draw
with unequal denominators (the float ones, unlike the canonical ratios,
are not all exact in binary).  Two runs take error paths, so that their
exit codes and error objects show:
``verify`` on exact class I at a thousandth of its payoffs
(``I-milli``), whose orbit finds no section return inside the horizon
(``NoClosureFound``), and ``orbit --x0`` with coordinates that do not
sum to 1 on class I (``I-badx0``, ``PreconditionFailed``).  Class I also
runs ``orbit --skip-stability`` from x proportional to (1, 1, 1e-6, 1)
(``I-edge``), a start near a face, and ``verify --float`` (seed 1,
``I-float``), so that float-mode ``verify`` and its tolerance Pfaffian
check show in the diff.
The permanence screen runs in process, ``permanence_probe`` with five
starts each on canonical I-V (``interior_starts``) and on one
``sample_cyclic_nonsingular`` and one ``sample_acyclic_singular`` draw
(``barycenter_starts``), all from ``default_rng(0)``, then on the seven
as one stack; its pairs go to ``screen.probe.json`` as JSON numbers,
which round-trip every bit (182 files in all when ``I-edge`` certifies).
Printed: per JSON key (list indices folded to ``[]``), CSV column or SVG
file, how many floats moved and the largest absolute and relative move;
per work counter (:data:`COUNTERS`, the integrator's step counts, which
move with the integrator as floats do), how many moved and the largest
move; every other change (a status, a string, another integer, an exit
code, a missing value); each file that is not byte-identical, and how many
are.  First it prints each tree's non-blank line count of
``src/replicator4/*.py``.  Exits 1 when anything other than a float or a
work counter moved: a value, a key set or a file.
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
FINE_RUNS = (("boundary", ("--seed", "0", "--rtol", "1e-12"), ".json"),)
TUBE_RUNS = (("I-delta0", ("orbit", ("--seed", "3", "--delta", "0"), ".json")),
             ("I-probes1", ("orbit", ("--seed", "3", "--probes", "1"),
                            ".json")))
SAMPLED_RUNS = (("classify", (), ".json"),
                ("kernel", (), ".json"),
                ("kernel", ("--float",), ".float.json"),
                ("boundary", ("--seed", "0"), ".json"))
ERROR_RUNS = (("I-milli", RUNS[2]),
              ("I-badx0", ("orbit", ("--x0", "0.25,0.25,0.25,0.26"),
                           ".json")))
#: class I from x proportional to (1, 1, 1e-6, 1), and float-mode verify
EDGE_AND_FLOAT_RUNS = (
    ("I-edge", ("orbit", ("--skip-stability", "--x0",
                          "0.33333322222225925,0.33333322222225925,"
                          "3.3333322222225924e-07,0.33333322222225925"),
                ".json")),
    ("I-float", ("verify", ("--float", "--seed", "1"), ".json")))
#: (name, runs) per matrix, in the order TEXT prints them
MATRICES = ([(c, RUNS) for c in CLASSES] + [("Iq", RUNS[:3])]
            + [("I4", (RUNS[0], RUNS[2])), ("I16", RUNS[:2]),
               ("I-rtol12", FINE_RUNS)]
            + [(name, (run,)) for name, run in TUBE_RUNS]
            + [(c + s, SCALED_RUNS) for s in SCALES for c in CLASSES]
            + [("S-" + c, SAMPLED_RUNS) for c in CLASSES]
            + [(name, (run,)) for name, run in ERROR_RUNS]
            + [(name, (run,)) for name, run in EDGE_AND_FLOAT_RUNS])
#: integer keys that count integration work rather than state a result
COUNTERS = ("simulate.drift.naccept", "simulate.drift.nreject")
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
        "print(format_matrix(P.from_upper(\n"
        "    [16 * v for v in CANONICAL_UPPER['I']], exact=True)))\n"
        "for _ in range(3): print(format_matrix(canonical_matrix('I')))\n"
        f"for s in {SCALES!r}:\n"
        f"    for c in {CLASSES!r}: print(format_matrix(P.from_rows(\n"
        "        canonical_matrix(c).array * float(s))))\n"
        f"for c in {CLASSES!r}: print(format_matrix(sample_class_matrix(\n"
        "    c, np.random.default_rng(0))))\n"
        "print(format_matrix(P.from_upper(\n"
        "    [Fraction(v, 1000) for v in CANONICAL_UPPER['I']], exact=True)))\n"
        "for _ in range(3): print(format_matrix(canonical_matrix('I')))")

SCREEN = ("import json\n"
          "import numpy as np\n"
          "from replicator4 import canonical_matrix, kernel_line_section\n"
          "from replicator4.ensembles import (barycenter_starts, "
          "interior_starts,\n"
          "    permanence_probe, sample_acyclic_singular, "
          "sample_cyclic_nonsingular)\n"
          "rng, out, mats = np.random.default_rng(0), {}, []\n"
          f"for c in {CLASSES!r}:\n"
          "    M = canonical_matrix(c)\n"
          "    out[c] = permanence_probe(M, interior_starts(\n"
          "        kernel_line_section(M), rng, 5))\n"
          "    mats.append(M.array)\n"
          "for name, sample in (('cyclic', sample_cyclic_nonsingular),\n"
          "                     ('acyclic', sample_acyclic_singular)):\n"
          "    M = sample(rng)\n"
          "    out[name] = permanence_probe(M, barycenter_starts(rng, 5))\n"
          "    mats.append(M.array)\n"
          "out['stack'] = permanence_probe(np.array(mats),\n"
          "                                barycenter_starts(rng, len(mats)))\n"
          "print(json.dumps(out, indent=1))")


def run_tree(tree: str, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    texts = subprocess.run([sys.executable, "-c", TEXT], env=env, check=True,
                           text=True, capture_output=True).stdout.split("\n")
    out.mkdir()
    Path(out, "screen.probe.json").write_text(subprocess.run(
        [sys.executable, "-c", SCREEN], env=env, check=True, text=True,
        capture_output=True).stdout)
    for (name, runs), text in zip(MATRICES, texts):
        for cmd, options, ext in runs:
            stem = out / f"{cmd}.{name}"
            res = subprocess.run(
                [sys.executable, "-m", "replicator4.cli", cmd, "--matrix", "-",
                 *options, "--out", f"{stem}{ext}"], input=text,
                env=env, text=True, capture_output=True)
            Path(f"{stem}{ext}").with_suffix(".exit").write_text(
                f"{res.returncode}\n{res.stderr}")


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


def source_lines(tree: str) -> int:
    """Non-blank lines of the tree's ``src/replicator4/*.py``."""
    return sum(bool(line.strip()) for path in sorted(
        Path(tree, "src", "replicator4").glob("*.py"))
        for line in path.read_text().splitlines())


def main(old: str, new: str) -> int:
    print(f"non-blank lines in src/replicator4/*.py: {source_lines(old)} -> "
          f"{source_lines(new)}")
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "old"), Path(tmp, "new")
        run_tree(old, a)
        run_tree(new, b)
        moves, counts, other, differ = {}, {}, [], []
        files = sorted(a.iterdir())
        names = {p.name for p in files}
        other += [f"{p.name}: only in the new tree"
                  for p in sorted(b.iterdir()) if p.name not in names]
        for pa in files:
            cmd, _, ext = pa.name.split(".", 2)
            key = cmd + {"csv.drift.json": ".drift", "exit": ".exit",
                         "float.json": ".float",
                         "float.exit": ".float.exit"}.get(ext, "")
            pb = b / pa.name
            if pb.exists() and pa.read_bytes() == pb.read_bytes():
                continue
            differ.append(pa.name)
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
                elif k in COUNTERS and type(va) is type(vb) is int:
                    n, dmax = counts.get(k, (0, 0))
                    counts[k] = (n + 1, max(dmax, abs(va - vb)))
                else:
                    other.append(f"{pa.name} {k}: {va!r} -> {vb!r}")
    print(f"{'key':60} {'moved':>6} {'max abs':>10} {'max rel':>10}")
    for k, (n, d, r) in sorted(moves.items()):
        print(f"{k:60} {n:6d} {d:10.3g} {r:10.3g}")
    if counts:
        print(f"\n{'work counter':60} {'moved':>6} {'max abs':>10}")
        for k, (n, d) in sorted(counts.items()):
            print(f"{k:60} {n:6d} {d:10d}")
    print("\n".join(other) or "no changes but floats and work counters")
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(files) - len(differ)} of {len(files)} files byte-identical")
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
