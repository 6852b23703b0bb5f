"""Float-mode decisions do not change when A is multiplied by s > 0.

A -> sA only rescales time, so permanence, the class and its
relabeling, the loci of K's endpoints and the boundary prediction
table of a float twin s * A must equal those of the exact matrix A.
The twins span s = 10**U(-15, 15) on seeded class, cyclic and acyclic
matrices, plus a fixed ladder of scales from 3e14 down to 3e-15.
"""

from fractions import Fraction

import numpy as np
import pytest

from replicator4 import (PayoffMatrix, UnclassifiableSignPattern,
                         boundary_prediction, classify_matrix, is_permanent,
                         kernel_line_section, sample_acyclic_singular,
                         sample_class_matrix, sample_cyclic_nonsingular)
from replicator4.ensembles import CANONICAL_UPPER

KINDS = ("I", "II", "III", "IV", "V", "cyclic", "acyclic")
#: fixed upper triangles of the ladder: the canonical classes, one
#: cyclic nonsingular and one acyclic singular matrix
LADDER_UPPER = dict(CANONICAL_UPPER, cyclic=(1, -1, 1, 1, -1, 1),
                    acyclic=(1, 1, 1, 1, 1, 0))
LADDER_SCALES = (3e14, 3e8, 3e2, 3e-4, 3e-7, 3e-9, 3e-11, 3e-13, 3e-15)


def _sample(kind: str, rng) -> PayoffMatrix:
    if kind == "cyclic":
        return sample_cyclic_nonsingular(rng)
    if kind == "acyclic":
        return sample_acyclic_singular(rng)
    return sample_class_matrix(kind, rng)


def _twin(M: PayoffMatrix, s: float) -> PayoffMatrix:
    return PayoffMatrix.from_rows([[float(v) * s for v in row]
                                   for row in M.rows])


def _answers(M: PayoffMatrix):
    """Every algebraic answer about M, and the interval bounds of the
    prediction table apart (they are numbers, compared to 1e-9)."""
    out = {"permanent": is_permanent(M)}
    try:
        label = classify_matrix(M)
        out["class"] = (label.name, label.relabeling)
    except UnclassifiableSignPattern as exc:
        out["class"] = exc.reason
    if out["permanent"]:
        out["loci"] = kernel_line_section(M).loci
    pred = boundary_prediction(M).to_json()
    lowers = [float(Fraction(f["constraint"].pop("lower")))
              for f in pred["faces"] if "lower" in f.get("constraint", {})]
    out["prediction"] = pred
    return out, lowers


def _assert_same_answers(M: PayoffMatrix, s: float):
    want, want_lowers = _answers(M)
    got, got_lowers = _answers(_twin(M, s))
    assert got == want, f"scale {s!r}"
    assert got_lowers == pytest.approx(want_lowers, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_seeded_twins_answer_as_the_exact_matrix(kind):
    rng = np.random.default_rng([20, KINDS.index(kind)])
    for _ in range(30):
        M = _sample(kind, rng)
        _assert_same_answers(M, float(10.0 ** rng.uniform(-15.0, 15.0)))


@pytest.mark.parametrize("kind", KINDS)
def test_ladder_twins_answer_as_the_exact_matrix(kind):
    M = PayoffMatrix.from_upper(LADDER_UPPER[kind], exact=True)
    assert is_permanent(M) == (kind not in ("cyclic", "acyclic"))
    for s in LADDER_SCALES:
        _assert_same_answers(M, s)


def test_sign_table_is_scale_free():
    M = _twin(PayoffMatrix.from_upper(CANONICAL_UPPER["V"], exact=True), 1.0)
    for s in (1e-200, 1e-13, 1.0, 1e13, 1e60):
        T = _twin(M, s)
        assert T.signs == M.signs
        assert T.is_singular()
    # an entry 1e-13 of max|a| is zero at every scale
    noisy = M.array
    noisy[0, 1], noisy[1, 0] = 1e-13, -1e-13
    for s in (1e-200, 1.0, 1e60):
        assert PayoffMatrix.from_rows(noisy * s).signs == M.signs
