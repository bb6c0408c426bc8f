"""The public API: changing `lossprobe.__all__` takes an edit here.

README's "Python API" block is run as written, each `expression  # value`
line checked against the value's repr, and so is each of its `$ ` shell
examples, against the lines shown below it.
"""

import ast
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import lossprobe
from lossprobe import (
    ClassLabeling, DecodeError, ExactScore, Labeling, PredictionVector, ScoreKind, ValidationError,
)
from lossprobe.primes import twin_primes

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "AttackMode",
    "AttackPlan",
    "AttackReport",
    "BatchSpec",
    "CandidateSet",
    "ClassLabeling",
    "CuratorOracle",
    "DecimalScore",
    "DecodeError",
    "ExactScore",
    "Labeling",
    "LookupBuildError",
    "LossProbeError",
    "MembershipVector",
    "OracleProtocolError",
    "PrecisionError",
    "PredictionMatrix",
    "PredictionVector",
    "ScoreKind",
    "ScoringView",
    "TupleLookup",
    "ValidationError",
    "auc",
    "auc_exact",
    "batched_inference",
    "binary_decimal_response",
    "build_binary_vector",
    "build_multiclass_matrix",
    "build_tuple_lookup",
    "build_twin_prime_vector",
    "curated_batch_vector",
    "curator_oracle",
    "decode_binary",
    "decode_binary_from_decimal",
    "decode_multiclass",
    "decode_twin_prime",
    "decode_twin_prime_value",
    "exact_score",
    "exact_score_multiclass",
    "fixed_precision_attack",
    "format_rational",
    "logloss_decimal",
    "max_unique_batch",
    "min_digits_for_separation",
    "one_query_attack",
    "parse_decimal_score",
    "parse_rational",
    "perturb_prime",
    "plan_batches",
    "query_bound",
    "round_fraction_sig",
    "run_demo",
    "tuple_lookup_for",
]


def test_public_names_are_pinned():
    assert lossprobe.__all__ == PUBLIC
    assert PUBLIC == sorted(set(PUBLIC))
    for name in PUBLIC:
        getattr(lossprobe, name)  # raises if the name does not resolve
    # the size guards are module constants, not public configuration
    assert not {"Limits", "DEFAULT_LIMITS"} & set(dir(lossprobe))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: lossprobe.build_twin_prime_vector(0), ValidationError,
         "need at least one datapoint"),
        (lambda: lossprobe.decode_twin_prime_value(F(1, 12)), DecodeError,
         "numerator of 1 encodes no datapoints"),
        (lambda: lossprobe.decode_binary_from_decimal(
            lossprobe.parse_decimal_score("5e-1", 1, ScoreKind.AUC), 2),
         ValidationError, "need a log-loss score"),
        (lambda: lossprobe.binary_decimal_response(Labeling((1, 0)), 0), ValidationError,
         "need at least one significant digit"),
        (lambda: lossprobe.logloss_decimal(PredictionVector((F(1, 2),)), Labeling((1,)), 0),
         ValidationError, "need at least one significant digit"),
        (lambda: lossprobe.max_unique_batch(0), ValidationError,
         "need at least one significant digit"),
        (lambda: lossprobe.build_multiclass_matrix(3, 1), ValidationError,
         "need at least two classes"),
        (lambda: lossprobe.decode_multiclass(ExactScore(F(2), 1), 1), ValidationError,
         "need at least two classes"),
        (lambda: lossprobe.plan_batches(0, 2), ValidationError, "need at least one label"),
        (lambda: twin_primes(0), ValidationError, "twin-prime table size must be >= 1"),
        (lambda: lossprobe.auc_exact(PredictionVector((F(1, 2),)), Labeling((1, 0))),
         ValidationError, "vector has 1 entries but labeling has 2"),
        (lambda: lossprobe.exact_score_multiclass(
            lossprobe.build_multiclass_matrix(2, 3), ClassLabeling((1,), 3)),
         ValidationError, "matrix has 2 rows but labeling has 1"),
        (lambda: lossprobe.exact_score_multiclass(
            lossprobe.build_multiclass_matrix(1, 3), ClassLabeling((1,), 2)),
         ValidationError, "matrix has 3 classes but labeling says 2"),
    ],
)
def test_public_refusals_name_their_reason(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def _referenced_names(path: Path) -> set[str]:
    """Names a file loads or reads as attributes, outside their own def/class."""
    found = set()
    for stmt in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names.discard(getattr(stmt, "name", None))  # a top-level def or class
        found |= names
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    package = ROOT / "src" / "lossprobe"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "bench").glob("*.py")
    used = set().union(*map(_referenced_names, sources))
    assert [name for name in lossprobe.__all__ if name not in used] == []


def test_every_private_helper_has_a_caller_outside_its_definition():
    # every module-level def and class, public or not: a helper that only
    # the tests call is dead code in the package
    package = ROOT / "src" / "lossprobe"
    used = set().union(
        *map(_referenced_names, [*package.glob("*.py"), *(ROOT / "bench").glob("*.py")])
    )
    helpers = [
        stmt.name
        for path in sorted(package.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert helpers  # the walk sees the package
    assert [name for name in helpers if name not in used] == []


def test_every_decimal_context_comes_from_one_constructor():
    # a bare localcontext() copies the caller's thread context, and a
    # Context() of its own would be a second rule: either lets a caller's
    # rounding or exponent limits reach a wire
    found = []
    for path in sorted((ROOT / "src" / "lossprobe").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if (path.name, getattr(stmt, "name", None)) == ("core.py", "_context"):
                continue
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                bare = not node.args and not node.keywords
                if name == "Context" or (name == "localcontext" and bare):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_every_construction_entry_point_calls_the_one_size_guard():
    # the twin decoders are sized by the numerator they are given, which
    # bounds their tables without a cap on the claimed n (README, "Size guards")
    by_numerator = {"decode_twin_prime", "decode_twin_prime_value"}
    unguarded, hand_written = [], []
    for stmt in ast.parse((ROOT / "src" / "lossprobe" / "exact.py").read_text()).body:
        if not isinstance(stmt, ast.FunctionDef) or stmt.name == "_check_size":
            continue
        calls = {
            node.func.id
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        entry = stmt.name.startswith(("build_", "decode_")) or stmt.name.endswith("_response")
        if entry and stmt.name not in by_numerator and "_check_size" not in calls:
            unguarded.append(stmt.name)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise) and "capped at" in ast.unparse(node):
                hand_written.append(f"{stmt.name}:{node.lineno}")
    assert unguarded == []
    assert hand_written == []


def test_the_readme_python_api_block_runs_as_written():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Python API\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    lines, namespace, shown = block.splitlines(), {}, []
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if isinstance(stmt, ast.Expr) and comment.startswith("#"):
            shown.append((source, repr(eval(source, namespace)), comment[1:].strip()))
        else:
            exec(source, namespace)
    assert len(shown) == 6
    assert [got for _, got, _ in shown] == [want for _, _, want in shown], shown


def _readme_sessions(readme: str) -> list[tuple[str, list[str]]]:
    """Each `$ ` command of README's shell blocks, continuation lines joined,
    with the lines shown below it."""
    sessions = []
    for block in re.findall(r"```(?:sh|text)\n(.*?)\n```", readme, re.S):
        lines, shown = iter(block.splitlines()), None
        for line in lines:
            if line.startswith("$ "):
                command, shown = line[2:], []
                while command.endswith("\\"):
                    command = command[:-1] + next(lines)
                sessions.append((command, shown))
            elif line and shown is not None:
                shown.append(line)
    return sessions


def test_the_readme_shell_examples_run_as_written(tmp_path):
    # every `lossprobe` in a command runs as `python -m lossprobe`, in a
    # directory whose hidden.bits holds 101; each line shown is a line
    # printed, and a line with `...` is a prefix of it up to there
    sessions = _readme_sessions((ROOT / "README.md").read_text())
    assert len(sessions) == 9
    (tmp_path / "hidden.bits").write_text("101\n")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    python = shlex.quote(sys.executable) + " -m lossprobe "
    for command, shown in sessions:
        run = re.sub(r"(^|\| *)lossprobe ", lambda m: m.group(1) + python, command)
        result = subprocess.run(
            run, shell=True, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert (result.returncode, result.stderr) == (0, ""), command
        printed = result.stdout.splitlines()
        assert len(printed) == len(shown), (command, printed)
        for want, have in zip(shown, printed):
            head, elided, _ = want.partition("...")
            assert have.startswith(head) if elided else have == want, (command, have)
