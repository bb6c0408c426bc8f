"""The value contract of the record types, and what a process loads to start.

Every record is an immutable value, as a frozen dataclass is: its fields
in a fixed order with fixed defaults, built by position or by keyword,
compared, hashed and shown field by field, and refused any assignment.
No start of the CLI, a served attack included, loads the dataclass
machinery or the process tools.
"""

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lossprobe import (
    AttackMode,
    AttackPlan,
    AttackReport,
    BatchSpec,
    ClassLabeling,
    DecimalScore,
    ExactScore,
    Labeling,
    MembershipVector,
    PredictionMatrix,
    PredictionVector,
    ScoreKind,
    TupleLookup,
    ValidationError,
)

SRC = Path(__file__).resolve().parent.parent / "src"
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
BATCH = BatchSpec((0, 1), (2,))
PLAN = AttackPlan(4, 2, "tuple-table", 2, (BATCH, BatchSpec((2, 3))))
RECOVERED = MembershipVector(Labeling((1, 0)))

# type -> (field names in order, one valid value for each field)
RECORDS = {
    Labeling: (("bits",), ((0, 1, 1),)),
    ClassLabeling: (("classes", "k"), ((1, 3, 2), 3)),
    PredictionVector: (("entries",), ((HALF, THIRD),)),
    PredictionMatrix: (("rows",), (((HALF, HALF), (THIRD, 1 - THIRD)),)),
    ExactScore: (("value", "n"), (Fraction(36, 5), 2)),
    DecimalScore: (("digits", "phi", "kind"), ("6.9e-1", 2, ScoreKind.LOGLOSS)),
    MembershipVector: (("bits",), (Labeling((1, 0)),)),
    AttackReport: (
        ("mode", "queries_used", "recovered", "accuracy", "plan"),
        (AttackMode.FIXED_PRECISION, 2, RECOVERED, Fraction(1), PLAN),
    ),
    TupleLookup: (
        ("entries", "phi", "table"),
        ((HALF,), 1, {("7e-1", "ND"): 0, ("6e-1", "ND"): 1}),
    ),
    BatchSpec: (("indices", "fill"), ((0, 1), (2,))),
    AttackPlan: (
        ("n", "phi", "method", "batch_size", "batches"),
        (4, 2, "tuple-table", 2, (BATCH,)),
    ),
}
TYPES = list(RECORDS)


def _fresh(value):
    """An equal value that is not the same object, so == compares contents."""
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    names, values = RECORDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert cls.__match_args__ == names
    assert tuple(getattr(by_position, name) for name in names) == values
    assert tuple(getattr(by_keyword, name) for name in names) == values


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_equal_fields_compare_equal_and_hash_alike(cls):
    names, values = RECORDS[cls]
    a, b = cls(*values), cls(*map(_fresh, values))
    assert a == b and not a != b
    if cls is TupleLookup:  # its table is a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_another_type_with_the_same_fields_compares_unequal(cls):
    names, values = RECORDS[cls]
    lookalike = type("Lookalike", (cls,), {})
    assert cls(*values) != lookalike(*values)
    assert lookalike(*values) != cls(*values)
    assert cls(*values) != values
    assert cls(*values) != dict(zip(names, values))


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    names, values = RECORDS[cls]
    record = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_repr_names_each_field(cls):
    names, values = RECORDS[cls]
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_records_survive_pickling(cls):
    record = cls(*RECORDS[cls][1])
    assert _fresh(record) == record


def test_defaults_are_kept():
    assert BatchSpec((3,)).fill == ()
    report = AttackReport(AttackMode.EXACT_TWIN, 1, RECOVERED, Fraction(1))
    assert report.plan is None


def test_a_prediction_vector_caches_its_denominator_product_per_instance():
    vec = PredictionVector((HALF, THIRD, Fraction(1, 5)))
    assert "_denominator_product" not in vars(vec)
    assert vec._denominator_product == (1, 15)
    assert vars(vec)["_denominator_product"] == (1, 15)
    assert vec == PredictionVector((HALF, THIRD, Fraction(1, 5)))


INVALID = [
    (Labeling, ((),), "a labeling needs at least one bit"),
    (Labeling, ((0, 2),), "labeling bits must be 0 or 1"),
    (Labeling, ((True, 0),), "labeling bits must be 0 or 1"),
    (ClassLabeling, ((1, 2), 1), "need at least two classes"),
    (ClassLabeling, ((1, 2), True), "need at least two classes"),
    (ClassLabeling, ((), 3), "a labeling needs at least one entry"),
    (ClassLabeling, ((1, 4), 3), "class labels must lie in 1..k"),
    (PredictionVector, ((),), "a prediction vector needs at least one entry"),
    (PredictionVector, ((0.5,),), "entries must be Fractions"),
    (PredictionVector, ((Fraction(1),),), "prediction 1 outside the open interval (0, 1)"),
    (PredictionVector, ((HALF, Fraction(3, 2)),), "prediction 3/2 outside the open interval (0, 1)"),
    (PredictionMatrix, ((),), "a prediction matrix needs at least one row"),
    (PredictionMatrix, (((Fraction(1),),),), "need at least two classes per row"),
    (PredictionMatrix, (((HALF, HALF), (HALF,)),), "ragged prediction matrix"),
    (PredictionMatrix, (((HALF, 0.5),),), "matrix entries must be Fractions in (0, 1)"),
    (PredictionMatrix, (((HALF, THIRD),),), "each row must sum to exactly 1"),
    (ExactScore, (Fraction(2), 0), "score needs a positive dataset size"),
    (ExactScore, (Fraction(2), True), "score needs a positive dataset size"),
    (ExactScore, (Fraction(0), 1), "exact scores are positive by construction"),
    (DecimalScore, ("7e-1", 0, ScoreKind.AUC), "need at least one significant digit"),
    (DecimalScore, ("7e-1", 1, ScoreKind.AUC_NOT_DEFINED), "an undefined AUC carries no digits"),
    (DecimalScore, ("", 1, ScoreKind.LOGLOSS), "a defined score needs digits"),
]


@pytest.mark.parametrize("cls, values, message", INVALID)
def test_each_check_keeps_its_error_by_position_and_by_keyword(cls, values, message):
    names = RECORDS[cls][0]
    for build in (lambda: cls(*values), lambda: cls(**dict(zip(names, values)))):
        with pytest.raises(ValidationError) as err:
            build()
        assert type(err.value) is ValidationError
        assert str(err.value) == message


# what a process runs once it has imported lossprobe.cli's main
STARTS = {
    "import": "pass",
    "build": "main(['build', 'twin', '--n', '5'])",
    "score": "main(['score', '--vector', VECTOR, '--labels', '10'])",
    "decode": "main(['decode', '--kind', 'twin', '--score', '91/10'])",
    "plan": "main(['plan', '--n', '20', '--phi', '2'])",
    "oracle-serve": "main(['oracle-serve', '--labels', LABELS, '--mode', 'exact'])",
    "attack-demo": (
        "main(['attack-demo', '--mode', 'twin', '--n', '5', '--transport', 'subprocess'])"
    ),
}


@pytest.mark.parametrize("start", STARTS)
def test_a_start_loads_neither_dataclasses_nor_process_tools(start, tmp_path):
    vector, labels = tmp_path / "twin.json", tmp_path / "hidden.labels"
    vector.write_text('{"kind":"twin","n":2}')
    labels.write_text("10\n")
    code = "\n".join((
        f"from lossprobe.cli import main; VECTOR, LABELS = {str(vector)!r}, {str(labels)!r}",
        STARTS[start],
        "import sys; print(sorted({'dataclasses', 'inspect', 'subprocess', 'tempfile'}"
        " & set(sys.modules)))",
    ))
    # -S keeps site's .pth imports out of the modules counted
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env={"PYTHONPATH": str(SRC)},
        input='SCORE {"kind":"twin","n":2}\nQUIT\n', capture_output=True, text=True, timeout=60,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-1] == "[]"
