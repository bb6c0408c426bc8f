"""Command-line interface: documents, exit codes, and the oracle protocol."""

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lossprobe import cli
from lossprobe.cli import BINARY_WIRE_MAX_N, _RemoteCurator, _serve_one, main
from lossprobe.core import ExactScore, Labeling, exact_score, format_rational, parse_rational
from lossprobe.errors import DecodeError, OracleProtocolError, ValidationError
from lossprobe.exact import binary_decimal_response, build_twin_prime_vector
from lossprobe.mia import (
    CandidateSet, CuratorOracle, MembershipVector, fixed_precision_attack, one_query_attack,
)
from lossprobe.precision import max_unique_batch, query_bound
from lossprobe.primes import twin_primes


def run_cli(capsys, *args, stdin_text=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(list(args))
        finally:
            sys.stdin = old
    else:
        code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*args, stdin_text=""):
    proc = subprocess.run(
        [sys.executable, "-m", "lossprobe", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


# build


def test_build_twin_document_bytes(capsys):
    code, out, _ = run_cli(capsys, "build", "twin", "--n", "2")
    assert code == 0
    assert out == '{"entries":["5/7","11/13"],"kind":"twin","n":2}\n'


def test_build_binary_document(capsys):
    code, out, _ = run_cli(capsys, "build", "binary", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "kind": "binary",
        "n": 4,
        "entries": ["2/3", "4/5", "16/17", "256/257"],
    }


def test_build_multiclass_document(capsys):
    code, out, _ = run_cli(capsys, "build", "multiclass", "--n", "2", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == 3
    assert doc["entries"][0] == ["1/7", "2/7", "4/7"]
    assert doc["entries"][1] == ["1/13", "3/13", "9/13"]


def test_build_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["build", "twin", "--n", "0"])
    assert err.value.code == 2
    capsys.readouterr()
    code, _, stderr = run_cli(capsys, "build", "multiclass", "--n", "2")
    assert code == 1
    assert stderr.startswith("error:")
    # binary entries past the wire cap point at scoring by name
    code, _, stderr = run_cli(capsys, "build", "binary", "--n", "17")
    assert code == 1
    assert '"kind":"binary"' in stderr


def test_build_to_file(tmp_path, capsys):
    target = tmp_path / "vec.json"
    code, out, _ = run_cli(capsys, "build", "twin", "--n", "3", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["entries"] == ["5/7", "11/13", "17/19"]


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["score", "--vector", "{missing}", "--labels", "1"], id="score-missing"),
        pytest.param(["score", "--vector", "{dir}", "--labels", "1"], id="score-directory"),
        pytest.param(["oracle-serve", "--labels", "{missing}", "--mode", "exact"], id="serve-missing"),
        pytest.param(["oracle-serve", "--labels", "{utf16}", "--mode", "exact"], id="serve-utf16"),
        pytest.param(["decode", "--kind", "twin", "--score", "{utf16}"], id="decode-utf16"),
        pytest.param(["build", "twin", "--n", "3", "--out", "{missing}/x.json"], id="build-out"),
    ],
)
def test_file_errors_exit_1_with_one_error_line(tmp_path, capsys, args):
    (tmp_path / "utf16.txt").write_bytes(b"\xff\xfe1\x000\x00")  # a UTF-16 byte-order mark
    paths = {"missing": tmp_path / "missing", "dir": tmp_path, "utf16": tmp_path / "utf16.txt"}
    code, out, err = run_cli(capsys, *(a.format_map(paths) for a in args), stdin_text="")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_undecodable_stdin_exits_1_with_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), "utf-8", "strict"))
    assert main(["score", "--vector", "-", "--labels", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read -: ") and err.count("\n") == 1


def test_the_console_script_entry_point_runs_the_cli(capsys, monkeypatch):
    # [project.scripts] in pyproject.toml, read without tomllib (Python 3.10)
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    found = re.search(r'^\[project\.scripts\]\nlossprobe = "([\w.]+):(\w+)"$', pyproject, re.M)
    assert found is not None
    entry = getattr(importlib.import_module(found[1]), found[2])
    args = ["plan", "--n", "60", "--phi", "2"]
    monkeypatch.setattr(sys, "argv", ["lossprobe", *args])  # a console script passes no argv
    assert entry() == 0
    assert (0, capsys.readouterr().out, "") == run_proc(*args)


# score


def test_score_exact_from_stdin(capsys):
    doc = '{"entries":["5/7","11/13","17/19"],"kind":"twin","n":3}'
    code, out, _ = run_cli(
        capsys, "score", "--vector", "-", "--labels", "101", stdin_text=doc
    )
    assert code == 0
    assert out == '{"escore":"1729/170","n":3}\n'


def test_score_decimal(capsys):
    doc = '{"entries":["1/5","2/5","3/5"]}'
    code, out, _ = run_cli(
        capsys,
        "score", "--vector", "-", "--labels", "001",
        "--mode", "decimal", "--phi", "2",
        stdin_text=doc,
    )
    assert code == 0
    assert out == '{"auc":"1.0e0","ll":"4.1e-1","phi":2}\n'


def test_score_binary_by_name_decimal(capsys):
    doc = '{"kind":"binary","n":3}'
    code, out, _ = run_cli(
        capsys,
        "score", "--vector", "-", "--labels", "001",
        "--mode", "decimal", "--phi", "2",
        stdin_text=doc,
    )
    assert code == 0
    assert json.loads(out) == {"ll": "9.2e-1", "auc": "1.0e0", "phi": 2}


def test_score_binary_by_name_exact_capped(capsys):
    doc = '{"kind":"binary","n":20}'
    code, _, stderr = run_cli(
        capsys, "score", "--vector", "-", "--labels", "0" * 20, stdin_text=doc
    )
    assert code == 1
    assert "decimal" in stderr


def test_score_multiclass(capsys):
    doc = json.dumps(
        {"kind": "multiclass", "n": 2, "K": 3,
         "entries": [["1/7", "2/7", "4/7"], ["1/13", "3/13", "9/13"]]}
    )
    code, out, _ = run_cli(
        capsys, "score", "--vector", "-", "--labels", "2,3", stdin_text=doc
    )
    assert code == 0
    assert json.loads(out) == {"escore": "91/18", "n": 2}


def test_score_length_mismatch_fails(capsys):
    doc = '{"entries":["5/7","11/13"],"kind":"twin","n":2}'
    code, _, stderr = run_cli(
        capsys, "score", "--vector", "-", "--labels", "101", stdin_text=doc
    )
    assert code == 1
    assert "error:" in stderr


@pytest.mark.parametrize(
    "doc,labels",
    [
        ('{"entries":[["1/2","1/2"]]}', "1"),  # a matrix not marked multiclass
        ('{"kind":"multiclass","K":3,"n":2}', "1,2"),  # multiclass without entries
    ],
)
def test_score_malformed_document_fails(capsys, doc, labels):
    code, out, stderr = run_cli(
        capsys, "score", "--vector", "-", "--labels", labels, stdin_text=doc
    )
    assert code == 1
    assert out == ""
    assert stderr.startswith("error: ")


def test_score_flag_combos_rejected(capsys):
    for argv in (
        ["score", "--vector", "-", "--labels", "1", "--mode", "decimal"],
        ["score", "--vector", "-", "--labels", "1", "--phi", "2"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


# decode


def test_decode_twin_bare_rational(capsys):
    code, out, _ = run_cli(capsys, "decode", "--kind", "twin", "--score", "1729/170")
    assert code == 0
    assert out == "101\n"


def test_decode_twin_checks_declared_n(capsys):
    code, _, stderr = run_cli(
        capsys, "decode", "--kind", "twin", "--score", "1729/170", "--n", "4"
    )
    assert code == 1
    assert "error:" in stderr


def test_decode_binary(capsys):
    code, out, _ = run_cli(
        capsys, "decode", "--kind", "binary", "--score", "255/32", "--n", "3"
    )
    assert code == 0
    assert out == "101\n"


def test_decode_inline_rational_longer_than_a_file_name(capsys):
    labels = "1011001110001"
    code, out, _ = run_cli(
        capsys, "score", "--vector", "-", "--labels", labels,
        stdin_text='{"kind":"binary","n":13}',
    )
    assert code == 0
    escore = json.loads(out)["escore"]
    assert len(escore) > 255  # past NAME_MAX, so a file check raises
    code, out, _ = run_cli(
        capsys, "decode", "--kind", "binary", "--score", escore, "--n", "13"
    )
    assert code == 0
    assert out == labels + "\n"


def test_decode_binary_needs_n(capsys):
    code, _, stderr = run_cli(capsys, "decode", "--kind", "binary", "--score", "255/32")
    assert code == 1
    assert "needs n" in stderr


def test_decode_multiclass(capsys):
    code, out, _ = run_cli(
        capsys,
        "decode", "--kind", "multiclass", "--score", "91/18", "--n", "2", "--k", "3",
    )
    assert code == 0
    assert out == "2,3\n"


def test_decode_from_document_file(tmp_path, capsys):
    doc = tmp_path / "score.json"
    doc.write_text('{"escore":"1729/170","n":3}\n')
    code, out, _ = run_cli(capsys, "decode", "--kind", "twin", "--score", str(doc))
    assert code == 0
    assert out == "101\n"


def test_decode_from_stdin_document(capsys):
    code, out, _ = run_cli(
        capsys,
        "decode", "--kind", "twin", "--score", "-",
        stdin_text='{"escore":"91/10","n":2}',
    )
    assert code == 0
    assert out == "10\n"


def test_decode_document_n_conflict(capsys):
    code, _, stderr = run_cli(
        capsys,
        "decode", "--kind", "twin", "--score", "-", "--n", "4",
        stdin_text='{"escore":"1729/170","n":3}',
    )
    assert code == 1
    assert "disagrees" in stderr


def test_decode_tampered_score_fails(capsys):
    code, _, stderr = run_cli(capsys, "decode", "--kind", "twin", "--score", "1729/85")
    assert code == 1
    assert stderr.startswith("error:")


def test_decode_refuses_a_junk_twin_numerator_off_its_prefix(tmp_path, capsys):
    # the first 64 upper twins divide 3^1000000 times their product, and the
    # first 128 do not: the refusal costs that prefix, not the 1.58M bits
    uppers = math.prod(p + 2 for p in twin_primes(64))
    path = tmp_path / "score.txt"
    path.write_text(format_rational(Fraction(uppers * 3**1000000)) + "\n")
    began = time.perf_counter()
    code, out, stderr = run_cli(capsys, "decode", "--kind", "twin", "--score", str(path))
    assert time.perf_counter() - began < 2
    assert (code, out) == (1, "")
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert len(stderr) < 300


@pytest.mark.parametrize("n", ['"3"', "2.5", "[1]", "true", "0"])
def test_decode_document_n_must_be_a_positive_int(capsys, n):
    code, _, stderr = run_cli(
        capsys,
        "decode", "--kind", "twin", "--score", "-",
        stdin_text=f'{{"escore":"1729/170","n":{n}}}',
    )
    assert code == 1
    assert stderr.startswith("error:")
    assert "Traceback" not in stderr


def test_decode_binary_refuses_a_huge_n_at_once(capsys):
    code, out, stderr = run_cli(
        capsys, "decode", "--kind", "binary", "--score", "3/2", "--n", "100000000000"
    )
    assert (code, out) == (1, "")
    assert stderr == "error: binary construction capped at n = 32\n"


def test_full_roundtrip_build_score_decode(tmp_path, capsys):
    vec = tmp_path / "vec.json"
    run_cli(capsys, "build", "twin", "--n", "7", "--out", str(vec))
    code, out, _ = run_cli(
        capsys, "score", "--vector", str(vec), "--labels", "1011001"
    )
    assert code == 0
    escore = json.loads(out)["escore"]
    code, out, _ = run_cli(capsys, "decode", "--kind", "twin", "--score", escore)
    assert code == 0
    assert out == "1011001\n"


# the oracle protocol, over a real pipe


def _serve(tmp_path, labels, mode, phi=None, session=""):
    labels_file = tmp_path / "hidden.bits"
    labels_file.write_text(labels + "\n")
    args = ["oracle-serve", "--labels", str(labels_file), "--mode", mode]
    if phi is not None:
        args += ["--phi", str(phi)]
    return run_proc(*args, stdin_text=session)


def test_protocol_exact_session(tmp_path):
    session = (
        'SCORE {"entries":["5/7","11/13"],"kind":"twin","n":2}\n'
        '\n'
        'SCORE {"entries":["5/7"],"kind":"twin","n":1}\n'
        'FOO\n'
        'QUIT\n'
    )
    code, out, _ = _serve(tmp_path, "10", "exact", session=session)
    assert code == 0
    assert out == "ESCORE 91/10\nERR length\nERR unknown command\n"


def test_protocol_decimal_session(tmp_path):
    session = (
        'SCORE {"entries":["1/5","2/5","3/5"]}\n'
        'SCORE {"kind":"binary","n":3}\n'
        'QUIT\n'
    )
    code, out, _ = _serve(tmp_path, "001", "decimal", phi=2, session=session)
    assert code == 0
    assert out == "LL 4.1e-1 AUC 1.0e0\nLL 9.2e-1 AUC 1.0e0\n"


def test_protocol_subset_query(tmp_path):
    # indices (2, 1) of hidden 001 select bits (1, 0)
    ll, auc_score = binary_decimal_response(Labeling((1, 0)), 2)
    session = 'SCORE {"indices":[2,1],"kind":"binary","n":2}\nQUIT\n'
    code, out, _ = _serve(tmp_path, "001", "decimal", phi=2, session=session)
    assert code == 0
    assert out == f"LL {ll.wire()} AUC {auc_score.wire()}\n"


def test_protocol_eof_ends_cleanly(tmp_path):
    code, out, _ = _serve(tmp_path, "10", "exact", session="")
    assert code == 0
    assert out == ""


def test_protocol_byte_determinism(tmp_path):
    session = (
        'SCORE {"entries":["5/7","11/13"],"kind":"twin","n":2}\n'
        'SCORE {"entries":["2/3","4/5"],"kind":"binary","n":2}\n'
        'QUIT\n'
    )
    runs = {_serve(tmp_path, "10", "exact", session=session) for _ in range(2)}
    assert len(runs) == 1  # identical exit codes, stdout, stderr


def test_protocol_error_reports_reason(tmp_path):
    session = 'SCORE {"entries":["5/3","11/13"],"kind":"twin","n":2}\nQUIT\n'
    code, out, _ = _serve(tmp_path, "10", "exact", session=session)
    assert code == 0
    assert out.startswith("ERR ")
    assert "interval" in out


# the oracle protocol, in process: every line gets exactly one answer

HIDDEN_16 = "1011001110001011"


@pytest.fixture(scope="module")
def hidden_16(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "hidden.bits"
    path.write_text(HIDDEN_16 + "\n")
    return path


def serve_in_process(labels_path, lines, *mode):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO("".join(line + "\n" for line in lines))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["oracle-serve", "--labels", str(labels_path), "--mode", *mode])
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


# a well-formed request after each bad one shows the session survived it;
# hidden bit 1 is 0, so 5/7 there scores 1 / (1 - 5/7) = 7/2
FOLLOW_UP = 'SCORE {"entries":["5/7"],"indices":[1]}'


def test_serve_answers_non_string_entries(hidden_16):
    lines = ['SCORE {"entries":[1],"indices":[0]}', FOLLOW_UP]
    assert serve_in_process(hidden_16, lines, "exact") == (
        0, "ERR not a rational: 1\nESCORE 7/2\n", ""
    )


def test_serve_answers_deeply_nested_json(hidden_16):
    lines = ["SCORE " + "[" * 200_000, FOLLOW_UP]
    code, out, err = serve_in_process(hidden_16, lines, "exact")
    assert (code, err) == (0, "")
    first, second = out.splitlines()
    assert first.startswith("ERR document does not parse as JSON:")
    assert second == "ESCORE 7/2"


def test_serve_rejects_boolean_indices(hidden_16):
    lines = ['SCORE {"entries":["5/7"],"indices":[true]}', FOLLOW_UP]
    assert serve_in_process(hidden_16, lines, "exact") == (
        0, "ERR indices must be a list of integers\nESCORE 7/2\n", ""
    )


def test_serve_rejects_boolean_n(hidden_16):
    lines = ['SCORE {"kind":"twin","n":true,"indices":[0]}', FOLLOW_UP]
    assert serve_in_process(hidden_16, lines, "exact") == (
        0, "ERR document needs entries or a positive n\nESCORE 7/2\n", ""
    )


def test_serve_quotes_entries_wider_than_the_digit_cap(hidden_16):
    wide = "1" * 5000 + "/3"
    lines = ['SCORE {"entries":["%s"],"indices":[0]}' % wide, FOLLOW_UP]
    assert serve_in_process(hidden_16, lines, "exact") == (
        0, f"ERR prediction {wide} outside the open interval (0, 1)\nESCORE 7/2\n", ""
    )


# Pinned wire text: one request per line, each with a single fault, and
# the ERR line it must get in either mode.
WIRE_ERRORS = {
    "SCORE {not json": "ERR document does not parse as JSON: Expecting property name "
    "enclosed in double quotes: line 1 column 2 (char 1)",
    "SCORE [1,2]": "ERR document must be a JSON object",
    'SCORE {"entries":["3/2","1/2"],"indices":[0,1]}':
        "ERR prediction 3/2 outside the open interval (0, 1)",
    'SCORE {"entries":["1/2"],"indices":[0,1]}': "ERR length",
    'SCORE {"entries":["1/2"],"indices":[99999]}': "ERR index 99999 outside the candidate set",
    'SCORE {"kind":"twin","indices":[0]}': "ERR document needs entries or a positive n",
    "FROB 1": "ERR unknown command",
    'SCORE {"entries":["1/2","1/2"]}': "ERR length",
    'SCORE {"entries":["0/1"],"indices":[0]}': "ERR expected a positive rational, got '0/1'",
    'SCORE {"entries":["1/2","1/3"],"indices":[3,3]}': "ERR queried indices must be distinct",
    'SCORE {"kind":"pentagon","n":2,"indices":[0,1]}':
        "ERR cannot build entries for kind 'pentagon'",
    'SCORE {"entries":["x/2"],"indices":[0]}': "ERR not a rational: 'x/2'",
    'SCORE {"entries":[],"indices":[]}': "ERR entries must be a non-empty list",
    'SCORE {"entries":"5/7"}': "ERR entries must be a list",
    'SCORE {"kind":"twin","n":0,"indices":[]}': "ERR document needs entries or a positive n",
    'SCORE {"entries":["5/7"],"indices":[-1]}': "ERR index -1 outside the candidate set",
    'SCORE {"entries":["5/7"],"indices":"0"}': "ERR indices must be a list of integers",
    'SCORE {"entries":[["1/2","1/2"]],"indices":[0]}':
        "ERR the membership oracle scores binary labelings only",
}


@pytest.mark.parametrize("mode", [("exact",), ("decimal", "--phi", "3")])
def test_serve_wire_bytes(hidden_16, mode):
    lines = [*WIRE_ERRORS, 'SCORE {"kind":"binary","n":16}']
    cap = sys.get_int_max_str_digits()
    code, out, err = serve_in_process(hidden_16, lines, *mode)
    assert (code, err) == (0, "")
    *errors, binary = out.splitlines()
    assert errors == list(WIRE_ERRORS.values())
    if mode == ("exact",):
        # the 19729-digit score goes out whole, and the digit cap is left as found
        assert sys.get_int_max_str_digits() == cap
        exponent = sum(int(bit) << i for i, bit in enumerate(HIDDEN_16))
        assert binary.startswith("ESCORE ")
        assert parse_rational(binary[7:]) == Fraction((1 << (1 << 16)) - 1, 1 << exponent)
    else:
        assert binary == "LL 5.12e2 AUC 4.92e-1"


# child processes under the lowest digit limit an interpreter accepts: wide
# parts go out and come back in decimal without any limit being widened

LOWEST_LIMIT = {"PYTHONINTMAXSTRDIGITS": "640"}


def test_served_exact_bytes_under_the_lowest_digit_limit(tmp_path, monkeypatch):
    labels = "".join(random.Random(640).choice("01") for _ in range(512))
    binary_indices = json.dumps(list(range(0, 512, 32)))
    session = (
        f'SCORE {{"kind":"binary","n":16,"indices":{binary_indices}}}\n'
        'SCORE {"kind":"twin","n":512}\nQUIT\n'
    )
    default = _serve(tmp_path, labels, "exact", session=session)
    for name, value in LOWEST_LIMIT.items():
        monkeypatch.setenv(name, value)
    lowest = _serve(tmp_path, labels, "exact", session=session)
    assert lowest == default
    code, out, err = lowest
    binary, twin = out.splitlines()
    assert (code, err) == (0, "")
    assert binary.startswith("ESCORE ") and twin.startswith("ESCORE ")
    assert len(binary) > 19729 and len(twin) > 640


def test_served_twin_attack_under_the_lowest_digit_limit(monkeypatch):
    for name, value in LOWEST_LIMIT.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_proc(
        "attack-demo", "--mode", "twin", "--n", "3000", "--transport", "subprocess"
    )
    assert (code, err) == (0, "")
    report = _last_json(out)
    assert (report["transport"], report["accuracy"]) == ("subprocess", "1/1")


def test_decode_reads_a_wide_score_file_under_the_lowest_digit_limit(tmp_path, monkeypatch):
    labels = Labeling(tuple(random.Random(5000).randint(0, 1) for _ in range(2000)))
    text = format_rational(exact_score(build_twin_prime_vector(2000), labels).value)
    assert len(text.partition("/")[0]) > 5000
    path = tmp_path / "score.txt"
    path.write_text(text + "\n")
    for name, value in LOWEST_LIMIT.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_proc("decode", "--kind", "twin", "--score", str(path))
    assert (code, out, err) == (0, labels.to_string() + "\n", "")


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 20)
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from(["1/2", "5/7", "2/3", "0/1", "3/2"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=6,
)
REQUESTS = st.fixed_dictionaries(
    {},
    optional={
        "entries": st.lists(JSON_SCALARS, max_size=4) | JSON_VALUES,
        "indices": st.lists(st.integers(-1, 17), max_size=4) | JSON_VALUES,
        "kind": st.sampled_from(["twin", "binary", "multiclass"]) | JSON_VALUES,
        "n": st.integers(-1, 17) | JSON_VALUES,
    },
)
ANY_TEXT = st.text(st.characters(blacklist_characters="\n"), max_size=30)
LINES = ANY_TEXT | ANY_TEXT.map("SCORE ".__add__) | REQUESTS.map(
    lambda doc: "SCORE " + json.dumps(doc)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(LINES, max_size=6), st.sampled_from([("exact",), ("decimal", "--phi", "3")]))
def test_serve_answers_every_line(hidden_16, lines, mode):
    code, out, err = serve_in_process(hidden_16, lines, *mode)
    asked = []
    for line in lines:
        if line.strip() == "QUIT":
            break
        if line.strip():
            asked.append(line)
    assert (code, err) == (0, "")
    assert out.count("\n") == len(asked)
    assert out == "" or out.endswith("\n")


# the remote curator's side of the protocol, against a scripted stream


class ScriptedServer:
    """Stands in for an `oracle-serve` loop: replies are canned, requests kept."""

    def __init__(self, replies: str):
        self.stdin = io.StringIO()
        self.stdout = io.StringIO(replies)


def remote_curator(replies, phi=None):
    server = ScriptedServer(replies)
    hidden = MembershipVector(Labeling.from_string("0110"))
    return _RemoteCurator(server.stdin, server.stdout, hidden, phi), server


def test_remote_curator_raises_the_oracles_reason():
    curator, _ = remote_curator("ERR length\n")
    with pytest.raises(OracleProtocolError, match="^length$"):
        curator.exact_response([Fraction(5, 7)])


def test_remote_curator_raises_on_end_of_stream():
    curator, _ = remote_curator("")
    with pytest.raises(OracleProtocolError, match="oracle closed the stream mid-session"):
        curator.exact_response([Fraction(5, 7)])


class ClosedPipe(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_remote_curator_raises_on_a_server_gone_before_the_request():
    hidden = MembershipVector(Labeling.from_string("0110"))
    curator = _RemoteCurator(ClosedPipe(), io.StringIO("ESCORE 7/2\n"), hidden, None)
    with pytest.raises(OracleProtocolError, match="oracle closed the stream mid-session"):
        curator.exact_response([Fraction(5, 7)])
    assert curator.queries_used == 0


def test_remote_curator_rejects_a_decimal_reply_to_an_exact_query():
    curator, _ = remote_curator("LL 4.1e-1 AUC 1.0e0\n")
    with pytest.raises(OracleProtocolError):
        curator.exact_response([Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)])


def test_remote_curator_rejects_a_three_part_decimal_reply():
    curator, _ = remote_curator("LL 4.1e-1 AUC\n", phi=2)
    with pytest.raises(OracleProtocolError, match="malformed decimal response"):
        curator.decimal_scores([Fraction(1, 5), Fraction(2, 5)], 2)


@pytest.mark.parametrize("reply", [
    "LL 4.1e-01 AUC 1.0e0", "LL 0.4e0 AUC 1.0e0", "LL 4.1e-1 AUC 5.0e-0", "LL 0.0e0 AUC 1.0e0",
    "LL 4.1E-1 AUC 1.0e0", "ESCORE abc",
])
def test_remote_curator_rejects_a_reply_outside_the_wire_contract(reply):
    # non-canonical wires, a zero log loss, an upper-case exponent and a
    # non-rational score: a protocol fault naming the line, where a lookup
    # keyed on wires would report "matches no labeling"
    curator, _ = remote_curator(reply + "\n", phi=None if reply.startswith("ESCORE") else 2)
    with pytest.raises(OracleProtocolError, match=re.escape(f"in reply {reply!r}")):
        if reply.startswith("ESCORE"):
            curator.exact_response([Fraction(5, 7)])
        else:
            curator.decimal_scores([Fraction(1, 5), Fraction(2, 5)], 2)


def test_remote_curator_refuses_digits_the_server_does_not_serve():
    curator, server = remote_curator("LL 4.1e-1 AUC 1.0e0\n", phi=2)
    with pytest.raises(OracleProtocolError, match="serves 2 significant digits, not 3"):
        curator.decimal_scores([Fraction(1, 5), Fraction(2, 5)], 3)
    assert server.stdin.getvalue() == ""
    assert curator.queries_used == 0


def test_remote_curator_request_bytes():
    curator, server = remote_curator("ESCORE 91/10\n")
    score = curator.exact_response([Fraction(5, 7), Fraction(11, 13)], indices=(3, 0))
    assert server.stdin.getvalue() == 'SCORE {"entries":["5/7","11/13"],"indices":[3,0]}\n'
    assert score == ExactScore(value=Fraction(91, 10), n=2)

    ll, auc_score = binary_decimal_response(Labeling((1, 0)), 2)
    curator, server = remote_curator(f"LL {ll.wire()} AUC {auc_score.wire()}\n", phi=2)
    assert curator.decimal_scores_for_binary(2, 2, indices=[2, 0]) == (ll, auc_score)
    assert server.stdin.getvalue() == 'SCORE {"indices":[2,0],"kind":"binary","n":2}\n'


def test_remote_binary_batch_refuses_an_auc_its_labeling_does_not_score():
    # one phi-5 batch of 14: the served LL is honest, the AUC is not
    bits = Labeling.from_string("01101001110100")
    ll, auc_score = binary_decimal_response(bits, 5)
    assert auc_score.wire() != "9.9999e-1"
    server = ScriptedServer(f"LL {ll.wire()} AUC 9.9999e-1\n")
    curator = _RemoteCurator(server.stdin, server.stdout, MembershipVector(bits), 5)
    with pytest.raises(DecodeError, match="AUC 9.9999e-1 contradicts"):
        fixed_precision_attack(CandidateSet.numbered(14), curator, 5)
    request = json.loads(server.stdin.getvalue().removeprefix("SCORE "))
    assert request == {"indices": list(range(14)), "kind": "binary", "n": 14}


def test_remote_curator_counts_every_request_sent():
    curator, server = remote_curator("ESCORE 7/2\nERR length\n")
    curator.exact_response([Fraction(5, 7)], indices=[0])
    with pytest.raises(OracleProtocolError):
        curator.exact_response([Fraction(5, 7)], indices=[1])
    assert curator.queries_used == 2
    assert server.stdin.getvalue().count("\n") == 2


# one path: the in-process curator's answer is the served line


def wire_line(response):
    if isinstance(response, ExactScore):
        return "ESCORE " + format_rational(response.value)
    ll, auc_score = response
    return f"LL {ll.wire()} AUC {auc_score.wire()}"


@pytest.mark.parametrize("phi", [None, 1, 2, 3, 4])
def test_local_and_served_answers_agree(phi):
    hidden = Labeling.from_string(HIDDEN_16)
    oracle = CuratorOracle(MembershipVector(hidden))
    rng = random.Random(phi)
    for _ in range(8):
        n = rng.randint(1, 16)
        indices = None if n == 16 and rng.random() < 0.5 else rng.sample(range(16), n)
        twin = build_twin_prime_vector(n).entries
        drawn = [Fraction(rng.randrange(1, q), q) for q in rng.choices(range(2, 60), k=n)]
        for query in (twin, drawn, "twin", "binary"):
            if isinstance(query, str):
                doc = {"kind": query, "n": n}
            else:
                doc = {"entries": [format_rational(e) for e in query]}
            if indices is not None:
                doc["indices"] = indices
            local = wire_line(oracle._answer(query, n, indices, phi))
            assert local == _serve_one(hidden, json.dumps(doc), phi), doc


@pytest.mark.parametrize("kind,k", [("twin", 1), ("twin", 2), ("twin", 700), ("binary", 1),
                                    ("binary", BINARY_WIRE_MAX_N)])
def test_a_named_exact_line_is_the_built_entries_line(capsys, kind, k):
    # the name is answered in closed form, the entries `build` writes by general scoring
    _, entries_doc, _ = run_cli(capsys, "build", kind, "--n", str(k))
    hidden = Labeling(tuple(random.Random(k).randint(0, 1) for _ in range(k)))
    named_doc = json.dumps({"kind": kind, "n": k})
    out = io.StringIO()
    cli._serve(hidden, None, [f"SCORE {entries_doc}", f"SCORE {named_doc}\n"], out)
    entries_line, named_line = out.getvalue().splitlines()
    assert entries_line.startswith("ESCORE ")
    assert named_line == entries_line


def test_a_served_exact_attack_sends_one_named_line():
    hidden = Labeling.from_string(HIDDEN_16)
    reply = _serve_one(hidden, '{"kind":"twin","n":16}', None) + "\n"
    server = ScriptedServer(reply)
    curator = _RemoteCurator(server.stdin, server.stdout, MembershipVector(hidden), None)
    report = one_query_attack(CandidateSet.numbered(16), curator)
    assert server.stdin.getvalue() == 'SCORE {"kind":"twin","n":16}\n'
    assert (report.queries_used, report.accuracy) == (1, 1)


@pytest.mark.parametrize("indices", [[True], [1.0], [0, False], (1.0,), "0", {"0": 1}])
def test_both_curators_refuse_indices_that_are_not_ints(indices):
    # True would score point 1 and 1.0 fail later with a bare TypeError
    hidden = Labeling.from_string(HIDDEN_16)
    oracle = CuratorOracle(MembershipVector(hidden))
    entries = [Fraction(5, 7)] * len(indices)
    with pytest.raises(ValidationError, match="^indices must be a list of integers$"):
        oracle.exact_response(entries, indices=indices)
    with pytest.raises(ValidationError, match="^indices must be a list of integers$"):
        oracle.decimal_scores(entries, 2, indices=indices)
    assert oracle.queries_used == 0
    doc = {"entries": [format_rational(e) for e in entries], "indices": indices}
    with pytest.raises(ValidationError, match="^indices must be a list of integers$"):
        _serve_one(hidden, json.dumps(doc), None)


# attack demo


def _last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_attack_demo_twin(capsys):
    code, out, _ = run_cli(capsys, "attack-demo", "--n", "50", "--mode", "twin")
    assert code == 0
    doc = _last_json(out)
    assert doc["queries_used"] == 1
    assert doc["accuracy"] == "1/1"
    assert len(doc["recovered"]) == 50
    assert "queries used: 1" in out
    assert "accuracy: 1 (50/50)" in out


def test_attack_demo_deterministic_under_seed(capsys):
    first = run_cli(capsys, "attack-demo", "--n", "21", "--mode", "binary", "--seed", "9")
    second = run_cli(capsys, "attack-demo", "--n", "21", "--mode", "binary", "--seed", "9")
    assert first == second
    third = run_cli(capsys, "attack-demo", "--n", "21", "--mode", "binary", "--seed", "10")
    assert _last_json(third[1])["recovered"] != _last_json(first[1])["recovered"]


def test_attack_demo_fixed_mode(capsys):
    code, out, _ = run_cli(
        capsys, "attack-demo", "--n", "13", "--mode", "fixed", "--phi", "2"
    )
    assert code == 0
    doc = _last_json(out)
    assert doc["queries_used"] == 2
    assert doc["accuracy"] == "1/1"
    assert doc["phi"] == 2
    assert doc["method"] == "tuple-table"
    assert doc["batch_size"] == 8


def test_attack_demo_transports_agree(capsys):
    args = ("--n", "12", "--mode", "twin", "--seed", "3")
    _, inproc_out, _ = run_cli(capsys, "attack-demo", *args)
    code, sub_out, _ = run_cli(capsys, "attack-demo", *args, "--transport", "subprocess")
    assert code == 0
    a, b = _last_json(inproc_out), _last_json(sub_out)
    assert a.pop("transport") == "inproc"
    assert b.pop("transport") == "subprocess"
    assert a == b


def test_served_binary_attack_refused_past_the_wire_cap(capsys, monkeypatch):
    # exact scores past the cap are walls of digits (n = 22 took over a
    # minute to ship), so the attack stops before any server process starts
    started = []
    monkeypatch.setattr(os, "fork", lambda: started.append("fork"))
    began = time.perf_counter()
    code, out, err = run_cli(
        capsys, "attack-demo", "--n", str(BINARY_WIRE_MAX_N + 1), "--mode", "binary",
        "--transport", "subprocess",
    )
    assert time.perf_counter() - began < 1
    assert (code, out, started) == (1, "", [])
    assert err.startswith("error: ") and "--transport inproc" in err
    monkeypatch.undo()
    code, out, _ = run_cli(
        capsys, "attack-demo", "--n", str(BINARY_WIRE_MAX_N), "--mode", "binary",
        "--transport", "subprocess",
    )
    assert code == 0
    assert _last_json(out)["accuracy"] == "1/1"


def test_served_attack_writes_no_file_when_the_server_fails_to_start(
    capsys, monkeypatch, tmp_path
):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again

    def refuse():
        raise OSError("no server today")

    monkeypatch.setattr(os, "fork", refuse)
    with pytest.raises(OSError, match="no server today"):
        main(["attack-demo", "--n", "20", "--mode", "twin", "--transport", "subprocess"])
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("mode,tables", [("twin", [("table", 20)]), ("binary", []), ("fixed", [])])
def test_a_served_twin_attack_sieves_its_table_before_the_fork(monkeypatch, mode, tables):
    # the forked server's closed form and the attacker's decoder then share it
    events = []
    monkeypatch.setattr(cli, "twin_primes", lambda n: events.append(("table", n)))

    def fork():
        events.append(("fork",))
        raise OSError("no server today")

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(OSError, match="no server today"):
        main(["attack-demo", "--n", "12" if mode == "binary" else "20", "--mode", mode,
              "--transport", "subprocess"])
    assert events == [*tables, ("fork",)]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_served_attack_reaps_its_server(capsys):
    code, out, err = run_cli(
        capsys, "attack-demo", "--n", "30", "--mode", "fixed", "--phi", "3",
        "--transport", "subprocess",
    )
    assert (code, err) == (0, "")
    assert _last_json(out)["accuracy"] == "1/1"
    assert_no_child_left()


def test_served_attack_reaps_its_server_when_the_attack_fails(capsys, monkeypatch):
    asked = []

    def fail_after_one_query(curator, n, mode, phi):
        asked.append(curator.scoring_view().exact_response(build_twin_prime_vector(n).entries))
        raise RuntimeError("attack broke")

    monkeypatch.setattr(cli, "_attack", fail_after_one_query)
    with pytest.raises(RuntimeError, match="attack broke"):
        main(["attack-demo", "--n", "12", "--mode", "twin", "--transport", "subprocess"])
    assert [score.n for score in asked] == [12]
    assert capsys.readouterr().out == ""
    assert_no_child_left()


def test_served_attack_reports_a_crashed_server(capfd, monkeypatch):
    def crash(hidden, doc_text, phi):
        raise RuntimeError("server broke")

    monkeypatch.setattr(cli, "_serve_one", crash)
    code = main(["attack-demo", "--n", "12", "--mode", "twin", "--transport", "subprocess"])
    out, err = capfd.readouterr()
    assert (code, out) == (1, "")
    assert "Traceback" in err and "RuntimeError: server broke" in err
    assert err.splitlines()[-1] == "error: oracle closed the stream mid-session"
    assert_no_child_left()


def test_served_attack_refused_where_the_platform_cannot_fork(capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    code, out, err = run_cli(
        capsys, "attack-demo", "--n", "12", "--mode", "twin", "--transport", "subprocess"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "--transport inproc" in err


def test_attack_demo_phi_needs_fixed_mode(capsys):
    with pytest.raises(SystemExit) as err:
        main(["attack-demo", "--n", "5", "--mode", "twin", "--phi", "2"])
    assert err.value.code == 2
    capsys.readouterr()


# plan


def test_plan_sixty_two_digits(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "60", "--phi", "2")
    assert code == 0
    doc = _last_json(out)
    assert doc["planned_queries"] == 8
    assert doc["batch_size"] == 8
    assert doc["method"] == "tuple-table"
    assert doc["max_unique_batch"] == 13
    assert doc["query_bound"] == 5
    assert doc["batches"][-1] == {"indices": [56, 57, 58, 59], "fill": [52, 53, 54, 55]}


@pytest.mark.parametrize(
    "phi,queries", [(1, 12), (2, 8), (3, 5), (4, 5), (5, 5), (6, 4), (7, 3), (8, 3)]
)
def test_plan_sixty_points_never_worse_with_more_digits(capsys, phi, queries):
    code, out, _ = run_cli(capsys, "plan", "--n", "60", "--phi", str(phi))
    assert code == 0
    assert _last_json(out)["planned_queries"] == queries
    # the cap and the formula bound printed beside the schedule, at other n too
    for n in (1, 60, 241):
        code, out, _ = run_cli(capsys, "plan", "--n", str(n), "--phi", str(phi))
        cap, bound = max_unique_batch(phi), query_bound(n, phi)
        assert code == 0
        assert f"pigeonhole batch cap: {cap}\nquery bound: {bound}\n" in out
        doc = _last_json(out)
        assert (doc["n"], doc["max_unique_batch"], doc["query_bound"]) == (n, cap, bound)


def test_attack_demo_four_digits_over_a_process_boundary(capsys):
    # four digits send the twelve-point three-digit vector, verified at four
    code, out, _ = run_cli(
        capsys, "attack-demo", "--n", "150", "--mode", "fixed", "--phi", "4",
        "--transport", "subprocess",
    )
    assert code == 0
    doc = _last_json(out)
    assert (doc["method"], doc["batch_size"]) == ("tuple-table", 12)
    assert doc["queries_used"] == 13
    assert doc["accuracy"] == "1/1"
    assert "accuracy: 1 (150/150)" in out


def test_plan_from_delta(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "5", "--delta", "0.002")
    assert code == 0
    doc = _last_json(out)
    assert doc["phi"] == 3
    assert doc["delta"] == "0.002"
    assert doc["planned_queries"] == 1


def test_plan_wide_delta_floors_at_one_digit(capsys):
    code, out, _ = run_cli(capsys, "plan", "--n", "5", "--delta", "2")
    assert code == 0
    assert _last_json(out)["phi"] == 1


def test_plan_usage_errors(capsys):
    for argv in (
        ["plan", "--n", "5"],
        ["plan", "--n", "5", "--phi", "2", "--delta", "0.1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


def test_plan_rejects_garbage_delta(capsys):
    code, _, stderr = run_cli(capsys, "plan", "--n", "5", "--delta", "abc")
    assert code == 1
    assert stderr.startswith("error:")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert "lossprobe" in out


# golden bytes: the SHA-256 of stdout for commands whose output must not move


GOLDEN_STDOUT = [
    ("build twin --n 50", "a2a0f853562ef816e9e23f32c876f994480b885e9d4ddec2b6876cc9e1134829"),
    ("build binary --n 6", "a5b76041c5cd02b18026fa1f3bb115ee4c4d66e78379fc680470eba7e6eaa9f9"),
    ("build multiclass --n 3 --k 3", "f15a49ad4514117c8fd54247f0e593745f7a6f227a7ed0e52205f4fea05f2fc1"),
    ("decode --kind twin --score 1729/170", "39b8dc3fc8b44765c8e6f1adee04c5b465e555ab791cc42d0d9e810d5b64297c"),
    ("decode --kind binary --score 255/32 --n 3", "39b8dc3fc8b44765c8e6f1adee04c5b465e555ab791cc42d0d9e810d5b64297c"),
    ("plan --n 60 --phi 1", "8cff2b349b0cc4d4bf05c84d097f4e894b80f9d01865ca64955793a035f3c898"),
    ("plan --n 60 --phi 2", "9cbc764288e861909402e6743860b62335ffe054b559700bef873f16c17246ee"),
    ("plan --n 60 --phi 3", "220784f08610012fd398a609a85c52648f969ff43e3941d4f2acf511607c334c"),
    ("plan --n 60 --phi 4", "f8db62f0c83bfb6b63d8cceb44d6cbeb81fff8385a4ea3454e9dad2af38d85ed"),
    ("plan --n 60 --phi 5", "973528f5c105051486d442c666a496648f42456969e7d6f868b1b3419235ce94"),
    ("plan --n 60 --phi 6", "5740b3d68cad0fbb4a1f943736ca876ad1b7a3684cc220e0552e52327c12d3bf"),
    ("plan --n 60 --phi 7", "7a4718458ca316395299c59f84a6af9723db81736789387fd5c8198cbef466c4"),
    ("plan --n 60 --phi 8", "974dbf073725c72b2c0343e54f232bccd12f4190d226499df09a5988614d3c73"),
    ("plan --n 60 --delta 0.002", "f6268dfa358be30a36633666c5dfbd189ba29c4541437219f7dfa4ffe394b444"),
    ("attack-demo --n 50 --mode twin", "dd76fd49995de7fac88ceaf90713f54a6fe161847cfac1e7677a05bef4fbfee9"),
    ("attack-demo --n 12 --mode binary", "0c96a2b143b5fcae0cb79e859e05a90fa312253f3635b6eafbb7dc03f35823b6"),
    ("attack-demo --n 60 --mode fixed --phi 1", "256ebda831773c63b7a2de1705726f8e70521fe8b0870a7b68f40f1fd6690def"),
    ("attack-demo --n 60 --mode fixed --phi 2", "96936e5f23f3e8e5c2dc880ea264387ee411c28176732636a4cd7d48bcde048c"),
    ("attack-demo --n 60 --mode fixed --phi 3", "d95758b799f7bdb24d66fbbb9e9b1c5f3da934f9a23f15826dd364bb761680bf"),
    ("attack-demo --n 60 --mode fixed --phi 4", "6106c6be9dce70d5a62bf188a1bcc57c432a751e25ee2d6ed9a375e92c91df70"),
    ("attack-demo --n 60 --mode fixed --phi 5", "33ec1172eb7e75ffb13a4e5f25001e2c507b6cf88850780565e7044b7ec369b5"),
    ("attack-demo --n 60 --mode fixed --phi 6", "f31eb631d9b65332028d0112d764cd1ab9406bf612a6c09888fc37978cd25b62"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT, ids=[a for a, _ in GOLDEN_STDOUT])
def test_cli_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv", ["plan --n 6000 --phi 1", "attack-demo --n 2000 --mode twin"]
)
def test_a_reader_gone_before_the_output_ends_the_command_quietly(argv):
    # `lossprobe ... | head -1`: stdout is a pipe no one reads any more
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lossprobe", *argv.split()],
            stdout=write,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")
