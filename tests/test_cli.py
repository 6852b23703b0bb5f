"""End-to-end runs of the command line interface.

Everything goes through ``main(argv)`` in process, so exit codes, stdout
JSON, CSV bytes, and stderr error payloads are all checked exactly as a
shell user would see them.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import replicator4
from replicator4 import (__version__, canonical_matrix, format_matrix,
                         kernel_line_section)
from replicator4 import cli
from replicator4.cli import main

M_I_TEXT = "0 1 1 -2 / -1 0 1 -1 / -1 -1 0 1 / 2 1 -1 0"
M_IV_TEXT = "0 0 0 0 / 0 0 -1 1 / 0 1 0 -1 / 0 -1 1 0"
M_V_TEXT = "0 0 1 -1 / 0 0 -1 1 / -1 1 0 0 / 1 -1 0 0"
# same sign pattern as M_V but a24 = 2, so pf = -1 and K is empty
M_V_BUMPED = "0 0 1 -1 / 0 0 -1 2 / -1 1 0 0 / 1 -2 0 0"


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def schema(name: str) -> dict:
    """The package's ``name.v1`` report schema."""
    ref = resources.files("replicator4.schemas").joinpath(f"{name}.v1.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def validated(text: str, name: str) -> dict:
    """The JSON document ``text``, checked against schema ``name``, which
    is itself checked against its metaschema."""
    doc = json.loads(text)
    jsonschema.validate(doc, schema(name))
    return doc


def matrix_file(tmp_path, text, name="A.txt"):
    path = tmp_path / name
    path.write_text(text + "\n", encoding="utf-8")
    return str(path)


def test_classify_reports_class_and_permanence(tmp_path, capsys):
    code, out, err = run(
        ["classify", "--matrix", matrix_file(tmp_path, M_IV_TEXT)], capsys)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["class"] == "IV"
    assert doc["permanent"] is True
    assert doc["pfaffian"] == "0"
    assert doc["relabeling"] == [1, 2, 3, 4]
    assert doc["edges"] == [[2, 4], [3, 2], [4, 3]]
    assert "reason" not in doc


def test_classify_flags_nonsingular_matrix(tmp_path, capsys):
    code, out, _ = run(
        ["classify", "--matrix", matrix_file(tmp_path, M_V_BUMPED)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "V"
    assert doc["permanent"] is False
    assert doc["reason"] == "det_nonzero"
    assert doc["pfaffian"] == "-1"


def test_classify_reads_matrix_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(M_IV_TEXT))
    code, out, _ = run(["classify", "--matrix", "-"], capsys)
    assert code == 0
    assert json.loads(out)["class"] == "IV"


def test_classify_float_flag_downgrades_pfaffian(tmp_path, capsys):
    code, out, _ = run(
        ["classify", "--float",
         "--matrix", matrix_file(tmp_path, M_IV_TEXT)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["pfaffian"], float)
    assert doc["pfaffian"] == 0.0
    assert doc["permanent"] is True


def test_kernel_exact_endpoints_for_MV(tmp_path, capsys):
    code, out, _ = run(
        ["kernel", "--matrix", matrix_file(tmp_path, M_V_TEXT)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "V"
    assert doc["K_nonempty"] is True
    assert doc["arithmetic"] == "exact"
    a, b = doc["endpoints"]
    assert a["x"] == ["1/2", "1/2", 0, 0]
    assert a["locus"] == {"edge": [1, 2]}
    assert b["x"] == [0, 0, "1/2", "1/2"]
    assert b["locus"] == {"edge": [3, 4]}


def test_kernel_float_flag_matches_exact(tmp_path, capsys):
    path = matrix_file(tmp_path, M_V_TEXT)
    code, out, _ = run(["kernel", "--float", "--matrix", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["arithmetic"] == "float"
    a, b = doc["endpoints"]
    for got, want in zip(a["x"] + b["x"],
                         [0.5, 0.5, 0, 0, 0, 0, 0.5, 0.5]):
        assert got == pytest.approx(want, abs=1e-10)


def test_kernel_rejects_nonsingular_matrix(tmp_path, capsys):
    code, out, err = run(
        ["kernel", "--matrix", matrix_file(tmp_path, M_V_BUMPED)], capsys)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "PreconditionFailed"


def test_simulate_writes_csv_and_drift_sidecar(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, _, err = run(
        ["simulate", "--matrix", matrix_file(tmp_path, M_IV_TEXT),
         "--x0", "0.4,0.3,0.2,0.1", "--t-end", "1.0", "--dt", "0.5",
         "--out", str(out_path)], capsys)
    assert code == 0
    assert err == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4"
    assert len(lines) == 4
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert rows[0] == pytest.approx([0.0, 0.4, 0.3, 0.2, 0.1], abs=1e-12)
    assert rows[-1][0] == 1.0
    for row in rows:
        assert sum(row[1:]) == pytest.approx(1.0, abs=1e-9)
        assert min(row[1:]) > 0.0
    sidecar = json.loads((tmp_path / "traj.csv.drift.json").read_text())
    assert sidecar["config"]["seed"] is None
    assert sidecar["config"]["dt"] == 0.5
    assert sidecar["naccept"] >= 1
    assert max(sidecar["drift"].values()) <= sidecar["drift_budget"]


def test_simulate_seed_precedence_and_determinism(tmp_path, monkeypatch,
                                                  capsys):
    matrix = matrix_file(tmp_path, M_IV_TEXT)

    def csv_bytes(name, *extra):
        out = tmp_path / name
        code, _, _ = run(
            ["simulate", "--matrix", matrix, "--t-end", "2.0",
             "--dt", "0.5", "--out", str(out), *extra], capsys)
        assert code == 0
        sidecar = json.loads((tmp_path / (name + ".drift.json")).read_text())
        return out.read_bytes(), sidecar["config"]["seed"]

    monkeypatch.delenv("REPLICATOR4_SEED", raising=False)
    first, seed = csv_bytes("a.csv", "--seed", "3")
    again, _ = csv_bytes("b.csv", "--seed", "3")
    assert first == again
    assert seed == 3

    monkeypatch.setenv("REPLICATOR4_SEED", "3")
    from_env, env_seed = csv_bytes("c.csv")
    assert from_env == first
    assert env_seed == 3

    explicit, cli_seed = csv_bytes("d.csv", "--seed", "4")
    assert cli_seed == 4
    assert explicit != first


def test_orbit_command_certifies_MIV(tmp_path, capsys):
    code, out, _ = run(
        ["orbit", "--matrix", matrix_file(tmp_path, M_IV_TEXT),
         "--x0", "0.4,0.3,0.2,0.1", "--skip-stability"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == pytest.approx(19.315607, abs=1e-3)
    assert doc["closure_residual"] <= 1e-6
    assert doc["avg_distance_to_K"] <= 1e-4
    assert max(doc["phi_drift"].values()) <= 1e-8
    assert doc["stability"] is None
    refs = doc["reference_points"]
    assert refs["z1"] == pytest.approx([0.5, 1 / 6, 1 / 6, 1 / 6])
    assert refs["margin"] > 1e-8


def test_boundary_command_scores_every_region(tmp_path, capsys):
    code, out, err = run(
        ["boundary", "--matrix", matrix_file(tmp_path, M_IV_TEXT),
         "--samples", "1", "--t-end", "60"], capsys)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["passed"] is True
    regions = doc["regions"]
    assert len(regions) == 10
    assert {k.split(":")[0] for k in regions} == {"edge", "face"}
    assert all(r["status"] in ("pass", "measured")
               for r in regions.values())


def test_verify_command_for_permanent_matrix(tmp_path, capsys):
    code, out, _ = run(
        ["verify", "--matrix", matrix_file(tmp_path, M_IV_TEXT)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    statuses = {k: v["status"] for k, v in doc["checks"].items()}
    assert statuses == {
        "pfaffian_vs_determinant": "pass",
        "classification": "pass",
        "kernel_section": "pass",
        "orbit": "pass",
        "stability": "pass",
        "boundary": "pass",
    }


def test_verify_reports_the_start_it_certified(tmp_path, capsys):
    # the reported x0 and period are enough to recheck the closure
    code, out, _ = run(
        ["verify", "--matrix", matrix_file(tmp_path, M_I_TEXT)], capsys)
    assert code == 0
    orbit = json.loads(out)["checks"]["orbit"]
    x0 = np.array(orbit["x0"])
    traj = replicator4.integrate(replicator4.parse_matrix(M_I_TEXT), x0,
                                 orbit["period"])
    assert np.abs(traj.x_at(orbit["period"]) - x0).max() <= 1e-6


def test_verify_command_skips_orbit_without_kernel(tmp_path, capsys):
    code, out, _ = run(
        ["verify", "--matrix", matrix_file(tmp_path, M_V_BUMPED)], capsys)
    assert code == 0
    doc = json.loads(out)
    checks = doc["checks"]
    assert checks["classification"]["class"] == "V"
    for name in ("kernel_section", "orbit", "stability"):
        assert checks[name]["status"] == "skipped"


def test_portrait_renders_deterministic_svg(tmp_path, capsys):
    matrix = matrix_file(tmp_path, M_I_TEXT)
    argv = ["portrait", "--matrix", matrix, "--starts", "2",
            "--t-end", "5", "--dt", "0.1"]
    out1 = tmp_path / "p1.svg"
    out2 = tmp_path / "p2.svg"
    assert run(argv + ["--out", str(out1)], capsys)[0] == 0
    assert run(argv + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    root = ET.fromstring(out1.read_text())
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter()
                 if el.tag.endswith(("polyline", "path"))]
    assert len(polylines) >= 2


def test_missing_matrix_file_exits_one(tmp_path, capsys):
    code, out, err = run(
        ["classify", "--matrix", str(tmp_path / "nope.txt")], capsys)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "FileNotFoundError"


def test_malformed_matrix_exits_one(tmp_path, capsys):
    code, _, err = run(
        ["classify", "--matrix", matrix_file(tmp_path, "1 2 3")], capsys)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "MatrixFormatError"


def test_matrix_input_that_is_not_utf8_exits_one(tmp_path, monkeypatch,
                                                 capsys):
    # a byte-order mark of UTF-16 in front of a valid matrix, from a file
    # and from a stdin that decodes strictly
    data = b"\xff\xfe" + M_IV_TEXT.encode()
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data),
                                                       encoding="utf-8"))
    for source in (str(path), "-"):
        code, out, err = run(["classify", "--matrix", source], capsys)
        assert (code, out) == (1, "")
        payload = validated(err, "error")
        assert payload["error"]["type"] == "MatrixFormatError"


def _scaled_text(s: float) -> str:
    """M_I_TEXT times s, with float tokens."""
    return " ".join(tok if tok == "/" else repr(int(tok) * s)
                    for tok in M_I_TEXT.split())


def _int_text(s: int) -> str:
    """M_I_TEXT times s, with integer tokens."""
    return " ".join(tok if tok == "/" else str(int(tok) * s)
                    for tok in M_I_TEXT.split())


def _frac_text(q: int) -> str:
    """M_I_TEXT divided by q, with p/q tokens."""
    return " ".join(tok if tok == "/" else f"{tok}/{q}"
                    for tok in M_I_TEXT.split())


#: exact input with no float view, which classify and kernel still answer
EXACT_ONLY = (_int_text(10 ** 400), _frac_text(10 ** 400))


@pytest.mark.parametrize("cmd", ["classify", "kernel", "simulate", "boundary",
                                 "verify", "portrait"])
@pytest.mark.parametrize("options, text", [
    ([], M_I_TEXT.replace("2 1 -1 0", "nan 1 -1 0")),
    ([], M_I_TEXT.replace("1 1 -2", "1 1 -inf").replace("2 1", "inf 1")),
    ([], _scaled_text(1e100)),
    ([], _scaled_text(1e200)),
    (["--float"], _int_text(10 ** 100)),
    ([], _int_text(10 ** 400)),
    ([], _frac_text(10 ** 400)),
], ids=["nan", "inf", "1e100", "1e200", "int_1e100_as_float",
        "int_1e400_exact", "frac_1e-400_exact"])
def test_nonfinite_or_overflowing_matrix_exits_one(cmd, options, text,
                                                   tmp_path, capsys):
    # NaN passes a skew check, and det(A) overflows past entries ~5e76;
    # exact entries that large, or so small that they round to 0.0, have
    # no float view for the simulating commands, while classify and kernel
    # answer them in exact arithmetic
    code, out, err = run([cmd, "--matrix", matrix_file(tmp_path, text)]
                         + options, capsys)
    if text in EXACT_ONLY and cmd in ("classify", "kernel"):
        assert (code, err) == (0, "")
        return
    assert code == 1
    assert out == ""
    payload = validated(err, "error")
    assert payload["error"]["type"] == "MatrixFormatError"


def test_orbit_probes_ride_along_the_period_run(tmp_path, monkeypatch,
                                                capsys):
    # one lockstep batch for the start and its probes, the reference
    # points taken from its samples; --skip-stability leaves its row alone
    batches = []
    lockstep = replicator4._rk.lockstep

    def counted(fun, u0, *args):
        batches.append(len(u0))
        return lockstep(fun, u0, *args)

    monkeypatch.setattr(replicator4._rk, "lockstep", counted)
    path = matrix_file(tmp_path, format_matrix(canonical_matrix("III")))
    out = str(tmp_path / "orbit.json")
    for options, want in (([], [17]), (["--probes", "3"], [4]),
                          (["--skip-stability"], [1])):
        batches.clear()
        code, _, err = run(["orbit", "--matrix", path, "--seed", "3",
                            "--out", out] + options, capsys)
        assert (code, err) == (0, "")
        assert batches == want, options


def test_orbit_start_on_K_fails_before_any_run(tmp_path, monkeypatch,
                                               capsys):
    # the barycenter lies on canonical IV's K: no orbit, and no run
    batches = []
    monkeypatch.setattr(replicator4._rk, "lockstep",
                        lambda fun, u0, *args: batches.append(len(u0)))
    code, out, err = run(["orbit", "--matrix",
                          matrix_file(tmp_path, M_IV_TEXT),
                          "--x0", "0.25,0.25,0.25,0.25"], capsys)
    assert (code, out) == (1, "")
    payload = validated(err, "error")
    assert payload["error"]["type"] == "PreconditionFailed"
    assert "equilibrium segment" in payload["error"]["message"]
    assert batches == []


def test_each_command_computes_K_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(M):
        calls.append(M)
        return kernel_line_section(M)

    monkeypatch.setattr(cli, "kernel_line_section", counted)
    path = matrix_file(tmp_path, M_IV_TEXT)
    out = str(tmp_path / "out")
    for argv in (["simulate", "--t-end", "1"], ["orbit"], ["verify"],
                 ["portrait", "--t-end", "1"]):
        calls.clear()
        code, _, err = run(argv + ["--matrix", path, "--out", out], capsys)
        assert (code, err) == (0, "")
        assert len(calls) == 1, argv[0]


@pytest.mark.parametrize("s", [1e-200, 1e-15, 1e15, 1e60])
def test_classify_and_kernel_are_scale_free(s, tmp_path, capsys):
    # A -> sA only rescales time: every answer but the raw numbers stays
    def answers(scale):
        text = replicator4.format_matrix(replicator4.PayoffMatrix.from_rows(
            replicator4.canonical_matrix(name).array * scale))
        path = matrix_file(tmp_path, text)
        code, out, _ = run(["classify", "--matrix", path], capsys)
        assert code == 0
        doc = json.loads(out)
        del doc["pfaffian"]
        code, out, _ = run(["kernel", "--matrix", path], capsys)
        assert code == 0
        section = json.loads(out)
        doc["loci"] = [e["locus"] for e in section["endpoints"]]
        doc.update({k: section[k] for k in ("class", "relabeling",
                                            "K_nonempty", "arithmetic")})
        return doc

    for name in ("I", "II", "III", "IV", "V"):
        assert answers(s) == answers(1.0), name


@pytest.mark.parametrize("argv", [
    ["simulate", "--x0", "a,b"],
    ["simulate", "--x0", "0.4,0.3,0.2,0.1", "--dt", "0"],
    ["orbit", "--x0", "0.5,0.5", "--skip-stability"],
    ["orbit", "--probes", "0"],
    ["orbit", "--probes", "-1"],
    ["boundary", "--samples", "-1"],
    ["portrait", "--starts", "-2"],
    ["simulate", "--t-end", "nan"],
    ["simulate", "--t-end", "inf"],
    ["simulate", "--rtol", "-1"],
    ["simulate", "--dt", "inf"],
    ["simulate", "--dt", "1e-300"],
    ["simulate", "--seed", "-1"],
    ["portrait", "--dt", "inf"],
    ["orbit", "--horizon", "nan"],
    ["orbit", "--horizon", "inf"],
    ["orbit", "--closure-tol", "-1"],
    ["orbit", "--delta", "-0.001"],
    ["orbit", "--delta", "nan"],
])
def test_bad_option_values_exit_one_with_error_json(argv, tmp_path, capsys):
    code, out, err = run(
        argv + ["--matrix", matrix_file(tmp_path, M_IV_TEXT)], capsys)
    assert code == 1
    assert out == ""
    payload = validated(err, "error")
    assert payload["error"]["type"] == "PreconditionFailed"


def _number(lo, hi):
    """Option values: floats in [lo, hi], and edge values and text.

    Large finite values are left out: a horizon or t_end of 1e300 is a
    valid request for a run that never ends, not an input error.
    """
    return st.one_of(
        st.floats(min_value=lo, max_value=hi).map(repr),
        st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e-300", "x",
                         ""]))


_X0 = st.one_of(
    st.lists(st.floats(min_value=-0.5, max_value=1.0), min_size=0,
             max_size=5).map(lambda v: ",".join(map(repr, v))),
    st.sampled_from(["0.4,0.3,0.2,0.1", "0.25,0.25,0.25,0.25",
                     "1,0,0,0", "0.97,0.01,0.01,0.01"]),
    st.text(max_size=12))


def _options(**values):
    """Argument vectors from a subset of the given option strategies."""
    return st.fixed_dictionaries({}, optional=values).map(
        lambda d: [tok for k, v in d.items() for tok in (k, v)])


def _main_in_process(argv, text):
    """(exit code, stderr) of ``main`` with ``text`` on stdin; capsys
    is function scoped, so hypothesis examples capture by hand."""
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


def _check_exit(argv, report=None):
    """Run argv on M_I: exit 0, 1 with an error.v1 object, or 2; on exit
    0, ``report`` is the (path, schema) of a report to validate."""
    code, err = _main_in_process(argv + ["--matrix", "-"], M_I_TEXT)
    assert code in (0, 1, 2)
    if code == 1:
        validated(err, "error")
    if code == 0 and report is not None:
        with open(report[0], encoding="utf-8") as fh:
            validated(fh.read(), report[1])


_SEEDS = st.one_of(st.integers(min_value=-3, max_value=2 ** 40).map(str),
                   st.sampled_from(["x", "1.5"]))


@settings(max_examples=40)
@given(t_end=_number(-1.0, 2.0), opts=_options(
    **{"--x0": _X0, "--dt": _number(1e-3, 3.0),
       "--rtol": st.sampled_from(["1e-4", "1e-8", "1e-10", "1", "1e3",
                                  "0", "-1", "nan", "inf"]),
       "--atol": _number(0.0, 1e-3), "--seed": _SEEDS}))
def test_simulate_fuzz_exits_cleanly(t_end, opts):
    # --t-end is always bounded: the default 100 makes examples slow
    with tempfile.TemporaryDirectory() as tmp:
        sidecar = os.path.join(tmp, "drift.json")
        _check_exit(["simulate", "--t-end", t_end, "--report", sidecar]
                    + opts, (sidecar, "trajectory"))


@settings(max_examples=40)
@given(opts=_options(
    **{"--x0": _X0, "--horizon": _number(0.0, 40.0),
       "--closure-tol": _number(0.0, 1e-2),
       "--rtol": st.sampled_from(["1e-4", "1e-8", "1e-10", "1", "0",
                                  "-1", "nan", "inf"]),
       "--atol": _number(0.0, 1e-3), "--seed": _SEEDS}))
def test_orbit_fuzz_exits_cleanly(opts):
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "orbit.json")
        _check_exit(["orbit", "--skip-stability", "--out", report] + opts,
                    (report, "orbit"))


def test_argument_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


#: (subcommand, options, schema of its report) for every subcommand;
#: simulate's report is its drift sidecar
EVERY_SUBCOMMAND = (
    ("classify", [], "digraph"), ("kernel", [], "section"),
    ("simulate", ["--t-end", "2"], "trajectory"),
    ("orbit", [], "orbit"), ("boundary", [], "boundary"),
    ("verify", [], "verify"), ("portrait", ["--t-end", "2"], None))


@pytest.mark.parametrize("name", ["I", "II", "III", "IV", "V"])
def test_every_report_matches_its_schema(name, tmp_path):
    # one process runs every subcommand on the canonical matrix and never
    # imports jsonschema; its exit-0 reports are validated here
    matrix = matrix_file(tmp_path, format_matrix(canonical_matrix(name)))
    argvs = [[cmd, "--matrix", matrix, "--out", f"{tmp_path}/{cmd}.out"]
             + options for cmd, options, _ in EVERY_SUBCOMMAND]
    script = ("import json, sys\nfrom replicator4.cli import main\n"
              f"codes = [main(argv) for argv in {argvs!r}]\n"
              "print(json.dumps([codes, 'jsonschema' in sys.modules]))")
    src = os.path.dirname(os.path.dirname(replicator4.__file__))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0] * len(argvs), False], done.stderr
    for cmd, _, report in EVERY_SUBCOMMAND:
        if report is not None:
            suffix = ".out.drift.json" if cmd == "simulate" else ".out"
            validated((tmp_path / (cmd + suffix)).read_text(), report)


def test_in_process_calls_match_separate_processes(tmp_path, capsys):
    # main builds its parser once per process: no call's subcommand or
    # options may leak into the next
    matrix = matrix_file(tmp_path, M_IV_TEXT)
    calls = [["classify", "--matrix", matrix, "--float"],
             ["simulate", "--matrix", matrix, "--x0", "0.4,0.3,0.2,0.1",
              "--t-end", "1", "--dt", "0.5", "--seed", "4"],
             ["orbit", "--matrix", matrix, "--x0", "0.4,0.3,0.2,0.1",
              "--skip-stability", "--horizon", "40"],
             ["classify", "--matrix", matrix],
             ["simulate", "--matrix", matrix, "--t-end", "1", "--dt", "0.5"]]
    src = os.path.dirname(os.path.dirname(replicator4.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in calls:
        code, out, _ = run(argv, capsys)
        alone = subprocess.run([sys.executable, "-m", "replicator4.cli"]
                               + argv, env=env, capture_output=True,
                               text=True)
        assert (code, out) == (alone.returncode, alone.stdout)
