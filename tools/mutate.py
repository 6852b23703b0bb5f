"""Run textual mutants of ``src/replicator4`` against the tier-1 tests.

    python tools/mutate.py

Each mutant replaces one exact string of one module by another.  Every
string must occur exactly once in the working tree, or the tool exits 2
before any run, so the list fails loudly when the code moves.  Each
mutant runs on its own fresh copy of the repository under a temporary
directory; the working tree is never written.  First the test files that
import the mutated module run, then, if they all pass, the rest of
``tests/``: one pytest process at a time, each stopping at its first
failure and capped at ``TIMEOUT`` seconds.  The tool prints per mutant
``killed`` and the test that failed, ``timeout``, or ``survived``, then
the total wall time, and exits 1 when a mutant survived.  It is not part
of tier-1: a full run takes minutes.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "replicator4"
#: seconds allowed to each pytest process
TIMEOUT = 600

#: (name, module, exact text, replacement)
MUTANTS = [
    ("dual-column-sign", "kernelgeom",
     "out[p], out[q], out[r] = a[q][r], -a[p][r], a[p][q]",
     "out[p], out[q], out[r] = a[q][r], a[p][r], a[p][q]"),
    ("support-one-sign", "kernelgeom",
     "return support if abs(sum(col)) == len(support) else ()",
     "return support if abs(sum(col)) >= len(support) - 2 else ()"),
    ("residual-rule-loose", "kernelgeom",
     "if r > _RTOL:", "if r > 1e4 * _RTOL:"),
    ("endpoint-least-sum", "kernelgeom",
     "key=lambda t: abs(t[1]))",
     "key=lambda t: -abs(t[1]))"),
    ("err-digit", "_rk",
     "0.1312004499419488073250102996e-1",
     "0.1312004499419588073250102996e-1"),
    ("dense-digit", "_rk",
     "0.56671495351937776962531783590",
     "0.56671495351938776962531783590"),
    ("gauge-skipped", "_rk",
     "u_new = project(u_new)",
     "u_new = u_new"),
    ("probe-grid-shift", "orbit",
     "softmax(traj.dense(ts), out=x)",
     "softmax(traj.dense(np.roll(ts, 1)), out=x)"),
    ("second-closing-crossing", "orbit",
     "np.flatnonzero(r <= closure_tol)),",
     "np.flatnonzero(r <= closure_tol)[1:]),"),
    ("drift-budget-x10", "dynamics",
     "return 100.0 * rtol * max(1.0, t_end) * max(1.0, norm)",
     "return 1000.0 * rtol * max(1.0, t_end) * max(1.0, norm)"),
    ("edge-indices-swapped", "boundary",
     "nodes = outcome.edge if edge else",
     "nodes = outcome.edge[::-1] if edge else"),
    ("inverse-relabeling", "signgraph",
     "ClassLabel(name, pi) for pi in",
     "ClassLabel(name, tuple(pi.index(k) + 1 for k in (1, 2, 3, 4)))"
     " for pi in"),
]


def _check(mutants) -> list:
    """The mutants' problems: a module or text that is not found once."""
    problems = []
    for name, module, old, _ in mutants:
        path = PKG / f"{module}.py"
        count = path.read_text().count(old) if path.exists() else 0
        if count != 1:
            problems.append(f"{name}: {count} matches in {module}.py")
    return problems


def _exported() -> dict:
    """Name -> module for every name ``replicator4/__init__`` imports."""
    tree = ast.parse((PKG / "__init__.py").read_text())
    return {a.name: node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names}


def _importers(module: str) -> list:
    """The test files that import ``module``, itself or a name of
    ``replicator4`` that comes from it, its own test file first."""
    exported, out = _exported(), []
    for path in sorted((ROOT / "tests").glob("test_*.py"), key=lambda p: (
            p.stem != f"test_{module}", p.name)):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [a.name for a in node.names]
                hit = node.module == f"replicator4.{module}" or (
                    node.module == "replicator4" and any(
                        n == module or exported.get(n) == module
                        for n in names))
            elif isinstance(node, ast.Import):
                hit = any(a.name == f"replicator4.{module}"
                          for a in node.names)
            else:
                continue
            if hit:
                out.append(path.relative_to(ROOT).as_posix())
                break
    return out


def _pytest(copy: Path, args: list):
    """None if the tests pass, else the first failing test or
    ``"timeout"``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
             "-p", "no:cacheprovider", *args], cwd=copy, env=env,
            capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if run.returncode == 0:
        return None
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M)
    return found.group(1) if found else f"pytest exit {run.returncode}"


def _run(mutant) -> str:
    name, module, old, new = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        path = copy / "src" / "replicator4" / f"{module}.py"
        path.write_text(path.read_text().replace(old, new))
        first = _importers(module)
        rest = ["tests"] + [f"--ignore={f}" for f in first]
        for args in ([first, rest] if first else [rest]):
            failed = _pytest(copy, args)
            if failed == "timeout":
                return "timeout"
            if failed:
                return f"killed by {failed}"
    return "survived"


def main() -> int:
    if problems := _check(MUTANTS):
        print("\n".join(problems), file=sys.stderr)
        return 2
    start, survived = time.perf_counter(), 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        outcome = _run(mutant)
        survived += outcome == "survived"
        print(f"{mutant[0]:24} {outcome} ({time.perf_counter() - t0:.0f} s)",
              flush=True)
    print(f"{len(MUTANTS)} mutants, {survived} survived, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
