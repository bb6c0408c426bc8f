"""Command-line front end: build vectors, score, decode, serve, attack, plan.

Documents are single-line JSON with string-encoded rationals, so nothing
that crosses a process boundary ever passes through a binary float.  The
oracle protocol is line oriented: one `SCORE <document>` request per line,
one `ESCORE p/q` or `LL <digits> AUC <digits|ND>` response per line, `ERR
<reason>` for a bad request (the server keeps going), `QUIT` to stop.

A vector document either lists its entries or names a construction, e.g.
{"kind":"binary","n":44}.  The named form is what keeps large binary
queries possible at all: entry i of that construction is a 2^(i-1)-bit
integer, so shipping entries stops being an option long before the
closed-form scoring on the serving side breaks a sweat.

There is one request path: `score` and `oracle-serve` turn a document into
a query, its parsed vector or its construction name, and answer it through
`mia.respond`, which looks names up in `exact`'s construction table.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .core import (
    ClassLabeling,
    DecimalScore,
    ExactScore,
    Labeling,
    PredictionMatrix,
    PredictionVector,
    ScoreKind,
    exact_score_multiclass,
    format_rational,
    parse_decimal_score,
    parse_rational,
)
from .errors import LossProbeError, OracleProtocolError, ValidationError
from .exact import (
    _CONSTRUCTIONS,
    build_multiclass_matrix,
    decode_multiclass,
    decode_twin_prime_value,
)
from .mia import (
    AttackMode,
    AttackReport,
    CuratorOracle,
    MembershipVector,
    _attack,
    _sub_labels,
    respond,
    run_demo,
)
from .precision import min_digits_for_separation, plan_batches

if TYPE_CHECKING:  # loaded at run time by _subprocess_demo alone
    import subprocess

DEFAULT_SEED = 7
# past this, binary entries and scores are walls of digits: each point doubles the exponent
BINARY_WIRE_MAX_N = 16


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _emit(doc: dict, out: str) -> None:
    text = _dump(doc) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return Path(source).read_text()


def _parse_doc(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also too deep, or ints too wide
        raise ValidationError(f"document does not parse as JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    return doc


def _entries_vector(doc: dict) -> PredictionVector | PredictionMatrix:
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ValidationError("entries must be a non-empty list")
    if all(isinstance(row, list) for row in entries):
        rows = tuple(tuple(parse_rational(x) for x in row) for row in entries)
        return PredictionMatrix(rows)
    return PredictionVector(tuple(parse_rational(x) for x in entries))


def _doc_size(doc: dict) -> int:
    """Number of predictions the document stands for."""
    if "entries" in doc:
        entries = doc["entries"]
        if not isinstance(entries, list):
            raise ValidationError("entries must be a list")
        if not entries:
            raise ValidationError("entries must be a non-empty list")
        return len(entries)
    n = doc.get("n")
    if type(n) is not int or n < 1:  # JSON true is not 1
        raise ValidationError("document needs entries or a positive n")
    return n


# ---------------------------------------------------------------- build


def _cmd_build(args: argparse.Namespace) -> int:
    if args.kind == "multiclass":
        if args.k is None:
            raise ValidationError("multiclass vectors need --k")
        matrix = build_multiclass_matrix(args.n, args.k)
        doc = {
            "kind": "multiclass",
            "n": args.n,
            "K": args.k,
            "entries": [[format_rational(x) for x in row] for row in matrix.rows],
        }
        _emit(doc, args.out)
        return 0
    if args.k is not None:
        raise ValidationError("--k only applies to multiclass vectors")
    if args.kind == "binary" and args.n > BINARY_WIRE_MAX_N:
        raise ValidationError(
            f"binary entries past n = {BINARY_WIRE_MAX_N} are "
            'walls of digits; score the construction by name instead: '
            '{"kind":"binary","n":...}'
        )
    vec = _CONSTRUCTIONS[args.kind].build(args.n)
    doc = {
        "kind": args.kind,
        "n": args.n,
        "entries": [format_rational(e) for e in vec.entries],
    }
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------- score


def _respond(
    doc: dict, labels: Labeling, phi: int | None
) -> ExactScore | tuple[DecimalScore, DecimalScore]:
    """Turn a vector document into a query and answer it through `respond`.

    `score` and `oracle-serve` both answer through here.  A document that
    lists entries is parsed once, here; a named one goes to the
    construction table, except that an exact named binary answer stops at
    the wire cap.
    """
    size = _doc_size(doc)
    if len(labels) != size:
        raise ValidationError(f"vector has {size} entries but labels carry {len(labels)}")
    if "entries" in doc:
        query = _entries_vector(doc)
        if not isinstance(query, PredictionVector):
            raise ValidationError("the membership oracle scores binary labelings only")
    else:
        query = doc.get("kind")
        if query == "binary" and phi is None and size > BINARY_WIRE_MAX_N:
            raise ValidationError(
                f"exact binary responses are capped at n = {BINARY_WIRE_MAX_N} on the wire; "
                "use decimal mode"
            )
    return respond(query, labels, phi)


def _cmd_score(args: argparse.Namespace) -> int:
    doc = _parse_doc(_read_text(args.vector))
    if doc.get("kind") == "multiclass":
        if args.mode == "decimal":
            raise ValidationError("decimal reporting covers binary labels only")
        k = doc.get("K")
        if not isinstance(k, int):
            raise ValidationError("multiclass document needs K")
        labels = ClassLabeling.from_string(args.labels, k)
        matrix = _entries_vector(doc)
        if not isinstance(matrix, PredictionMatrix):
            raise ValidationError("multiclass document needs a matrix of entries")
        response = exact_score_multiclass(matrix, labels)
    else:
        response = _respond(doc, Labeling.from_string(args.labels), args.phi)
    if isinstance(response, ExactScore):
        _emit({"escore": format_rational(response.value), "n": response.n}, args.out)
    else:
        ll, auc_score = response
        _emit({"ll": ll.wire(), "auc": auc_score.wire(), "phi": args.phi}, args.out)
    return 0


# ---------------------------------------------------------------- decode


def _is_file(raw: str) -> bool:
    try:
        return Path(raw).is_file()
    except OSError:  # an inline rational longer than a file name can be
        return False


def _cmd_decode(args: argparse.Namespace) -> int:
    raw = args.score
    raw_text = _read_text(raw) if raw == "-" or _is_file(raw) else raw
    raw_text = raw_text.strip()
    if raw_text.startswith("{"):
        doc = _parse_doc(raw_text)
        escore = doc.get("escore")
        if not isinstance(escore, str):
            raise ValidationError("score document needs an escore")
        value = parse_rational(escore)
        doc_n = doc.get("n")
    else:
        value = parse_rational(raw_text)
        doc_n = None
    n = args.n
    if n is not None and doc_n is not None and n != doc_n:
        raise ValidationError(f"--n {n} disagrees with the document's n = {doc_n}")
    if n is None:
        n = doc_n

    if args.kind == "twin" and n is None:
        labeling = decode_twin_prime_value(value)
    elif n is None:
        raise ValidationError(f"decoding a {args.kind} score needs n")
    elif args.kind == "multiclass":
        if args.k is None:
            raise ValidationError("decoding a multiclass score needs --k")
        labeling = decode_multiclass(ExactScore(value=value, n=n), args.k)
    else:
        labeling = _CONSTRUCTIONS[args.kind].decode(ExactScore(value=value, n=n))
    print(labeling.to_string())
    return 0


# ---------------------------------------------------------------- serve


def _serve_one(hidden: Labeling, doc_text: str, phi: int | None) -> str:
    doc = _parse_doc(doc_text)
    labels = _sub_labels(hidden, _doc_size(doc), doc.get("indices"))
    response = _respond(doc, labels, phi)
    if isinstance(response, ExactScore):
        return "ESCORE " + format_rational(response.value)
    ll, auc_score = response
    return f"LL {ll.wire()} AUC {auc_score.wire()}"


def _cmd_oracle_serve(args: argparse.Namespace) -> int:
    hidden = Labeling.from_string(_read_text(args.labels).strip())
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            continue
        if line == "QUIT":
            break
        if not line.startswith("SCORE "):
            print("ERR unknown command", flush=True)
            continue
        try:
            response = _serve_one(hidden, line[6:], args.phi)
        except LossProbeError as e:
            response = "ERR " + " ".join(str(e).split())
        print(response, flush=True)
    return 0


# ---------------------------------------------------------------- attack


class _RemoteCurator(CuratorOracle):
    """A curator whose answers come from an `oracle-serve` process.

    Only the transport differs from the in-process curator: _answer
    serializes each query onto the pipe and parses the reply.  The hidden
    bits stay here, on the curator's side of the process boundary, for
    after-the-fact grading.
    """

    def __init__(self, proc: subprocess.Popen, hidden: MembershipVector, phi: int | None):
        super().__init__(hidden)
        self._proc = proc
        self._phi = phi

    def _answer(self, query, n, indices, phi):
        assert self._proc.stdin is not None and self._proc.stdout is not None
        if phi is not None and phi != self._phi:
            raise OracleProtocolError(
                f"oracle serves {self._phi} significant digits, not {phi}"
            )
        if isinstance(query, str):
            doc: dict = {"kind": query, "n": n}
        else:
            doc = {"entries": [format_rational(Fraction(e)) for e in query]}
        if indices is not None:
            doc["indices"] = list(indices)
        self._proc.stdin.write("SCORE " + _dump(doc) + "\n")
        self._proc.stdin.flush()
        self._queries += 1
        line = self._proc.stdout.readline()
        if not line:
            raise OracleProtocolError("oracle closed the stream mid-session")
        line = line.rstrip("\n")
        if line.startswith("ERR"):
            raise OracleProtocolError(line[4:] or "unspecified oracle error")
        try:
            if phi is None:
                if not line.startswith("ESCORE "):
                    raise OracleProtocolError(f"expected ESCORE, got {line!r}")
                return ExactScore(value=parse_rational(line[7:]), n=n)
            parts = line.split(" ")
            if len(parts) != 4 or parts[0] != "LL" or parts[2] != "AUC":
                raise OracleProtocolError(f"malformed decimal response: {line!r}")
            return (
                parse_decimal_score(parts[1], phi, ScoreKind.LOGLOSS),
                parse_decimal_score(parts[3], phi, ScoreKind.AUC),
            )
        except ValidationError as e:  # a reply no oracle-serve writes
            raise OracleProtocolError(f"{e} in reply {line!r}") from None


def _subprocess_demo(
    n: int, mode: AttackMode, seed: int, phi: int | None
) -> AttackReport:
    """run_demo's attack, against a curator served by `oracle-serve`."""
    if mode is AttackMode.EXACT_BINARY and n > BINARY_WIRE_MAX_N:
        # refused before the server starts: the entries alone outgrow the pipe
        raise ValidationError(
            f"binary entries past n = {BINARY_WIRE_MAX_N} are walls of digits on the wire; "
            "run this attack with --transport inproc"
        )
    # imported here, the one path that starts a server, to keep every other start light
    import subprocess
    import tempfile
    hidden = MembershipVector.random(n, seed)
    with tempfile.NamedTemporaryFile("w", suffix=".labels", delete=False) as handle:
        handle.write(hidden.bits.to_string() + "\n")
        labels_path = handle.name
    cmd = [sys.executable, "-m", "lossprobe", "oracle-serve", "--labels", labels_path]
    cmd += ["--mode", "exact"] if phi is None else ["--mode", "decimal", "--phi", str(phi)]
    try:
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            return _attack(_RemoteCurator(proc, hidden, phi), n, mode, phi)
        finally:
            try:
                # QUIT, then EOF: the server is reaped once its stdout closes,
                # where wait(timeout=...) would poll with doubling sleeps
                proc.communicate("QUIT\n", timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                proc.kill()
                proc.wait()
    finally:  # the hidden bits leave no file behind, even if the server never starts
        Path(labels_path).unlink(missing_ok=True)


def _cmd_attack_demo(args: argparse.Namespace) -> int:
    mode = AttackMode(args.mode)
    fixed = mode is AttackMode.FIXED_PRECISION
    phi = args.phi
    if fixed and phi is None:
        phi = 2
    if args.transport == "subprocess":
        report = _subprocess_demo(args.n, mode, args.seed, phi)
    else:
        report = run_demo(args.n, mode, args.seed, phi)
    accuracy = report.accuracy
    print(f"mode: {report.mode.value}")
    print(f"candidates: {args.n}")
    if report.phi is not None:
        print(f"significant digits: {report.phi}")
    print(f"queries used: {report.queries_used}")
    print(f"recovered: {report.recovered.bits.to_string()}")
    print(
        f"accuracy: {float(accuracy):.4g} "
        f"({accuracy.numerator * args.n // accuracy.denominator}/{args.n})"
    )
    doc = {
        "mode": report.mode.value,
        "n": args.n,
        "seed": args.seed,
        "transport": args.transport,
        "queries_used": report.queries_used,
        "recovered": report.recovered.bits.to_string(),
        "accuracy": f"{accuracy.numerator}/{accuracy.denominator}",
    }
    if report.phi is not None:
        doc["phi"] = report.phi
    if report.plan is not None:
        doc["method"] = report.plan.method
        doc["batch_size"] = report.plan.batch_size
    print(_dump(doc))
    return 0


# ---------------------------------------------------------------- plan


def _cmd_plan(args: argparse.Namespace) -> int:
    if args.delta is not None:
        phi = min_digits_for_separation(args.delta)
        if phi < 1:
            # a gap of 1 or more needs zero digits; one is still the
            # smallest precision an oracle can report
            phi = 1
    else:
        phi = args.phi
    plan = plan_batches(args.n, phi)
    print(f"significant digits: {plan.phi}")
    print(f"pigeonhole batch cap: {plan.pigeonhole_batch}")
    print(f"query bound: {plan.bound}")
    print(f"method: {plan.method}")
    print(f"batch size: {plan.batch_size}")
    print(f"planned queries: {plan.planned_queries}")
    spans = ", ".join(
        f"{b.indices[0]}-{b.indices[-1]}" if len(b.indices) > 1 else f"{b.indices[0]}"
        for b in plan.batches
    )
    print(f"batches: {spans}")
    doc = {
        "n": plan.n,
        "phi": plan.phi,
        "max_unique_batch": plan.pigeonhole_batch,
        "query_bound": plan.bound,
        "method": plan.method,
        "batch_size": plan.batch_size,
        "planned_queries": plan.planned_queries,
        "batches": [
            {"indices": list(b.indices), "fill": list(b.fill)} for b in plan.batches
        ],
    }
    if args.delta is not None:
        doc["delta"] = args.delta
    print(_dump(doc))
    return 0


# ---------------------------------------------------------------- parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossprobe",
        description="Exact and rounded log-loss scores as a label side channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="emit a construction's prediction document")
    build.add_argument("kind", choices=("twin", "binary", "multiclass"))
    build.add_argument("--n", type=_positive_int, required=True)
    build.add_argument("--k", type=_positive_int, help="classes (multiclass only)")
    build.add_argument("--out", default="-", help="output file, - for stdout")
    build.set_defaults(func=_cmd_build)

    score = sub.add_parser("score", help="score a prediction document against labels")
    score.add_argument("--vector", required=True, help="document file, - for stdin")
    score.add_argument("--labels", required=True, help="bitstring or comma classes")
    score.add_argument("--mode", choices=("exact", "decimal"), default="exact")
    score.add_argument("--phi", type=_positive_int, help="significant digits (decimal)")
    score.add_argument("--out", default="-")
    score.set_defaults(func=_cmd_score)

    decode = sub.add_parser("decode", help="recover labels from an exact score")
    decode.add_argument("--kind", choices=("twin", "binary", "multiclass"), required=True)
    decode.add_argument("--score", required=True, help="document, file, or p/q")
    decode.add_argument("--n", type=_positive_int)
    decode.add_argument("--k", type=_positive_int)
    decode.set_defaults(func=_cmd_decode)

    serve = sub.add_parser("oracle-serve", help="answer SCORE requests on stdin")
    serve.add_argument("--labels", required=True, help="hidden bitstring file")
    serve.add_argument("--mode", choices=("exact", "decimal"), required=True)
    serve.add_argument("--phi", type=_positive_int)
    serve.set_defaults(func=_cmd_oracle_serve)

    demo = sub.add_parser("attack-demo", help="run a full attack against a fresh oracle")
    demo.add_argument("--n", type=_positive_int, required=True)
    demo.add_argument("--mode", choices=("twin", "binary", "fixed"), required=True)
    demo.add_argument("--phi", type=_positive_int)
    demo.add_argument("--seed", type=int, default=DEFAULT_SEED)
    demo.add_argument(
        "--transport", choices=("inproc", "subprocess"), default="inproc"
    )
    demo.set_defaults(func=_cmd_attack_demo)

    plan = sub.add_parser("plan", help="batch schedule for a rounded oracle")
    plan.add_argument("--n", type=_positive_int, required=True)
    which = plan.add_mutually_exclusive_group(required=True)
    which.add_argument("--delta", help="smallest score separation, e.g. 0.002")
    which.add_argument("--phi", type=_positive_int, help="significant digits")
    plan.set_defaults(func=_cmd_plan)
    return parser


def _validate_flag_combos(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.command in ("score", "oracle-serve"):
        if args.mode == "decimal" and args.phi is None:
            parser.error("--mode decimal needs --phi")
        if args.mode == "exact" and args.phi is not None:
            parser.error("--phi only applies to --mode decimal")
    if args.command == "attack-demo":
        if args.mode != "fixed" and args.phi is not None:
            parser.error("--phi only applies to --mode fixed")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate_flag_combos(parser, args)
    try:
        return args.func(args)
    except LossProbeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
