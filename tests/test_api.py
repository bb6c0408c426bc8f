"""The public API: changing `lossprobe.__all__` takes an edit here.

README's "Python API" block is run as written, each `expression  # value`
line checked against the value's repr.
"""

import ast
from pathlib import Path

import lossprobe

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
