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
import contextlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NoReturn, Sequence, TextIO

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
    TWIN_MAX_N,
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
from .precision import max_unique_batch, min_digits_for_separation, plan_batches, query_bound
from .primes import twin_primes

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


def _serve(hidden: Labeling, phi: int | None, lines: Iterable[str], out: TextIO) -> None:
    """The oracle loop: one reply line on `out` per request line, until QUIT or EOF."""
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line == "QUIT":
            break
        if not line.startswith("SCORE "):
            response = "ERR unknown command"
        else:
            try:
                response = _serve_one(hidden, line[6:], phi)
            except LossProbeError as e:
                response = "ERR " + " ".join(str(e).split())
        out.write(response + "\n")
        out.flush()


def _cmd_oracle_serve(args: argparse.Namespace) -> int:
    hidden = Labeling.from_string(_read_text(args.labels).strip())
    _serve(hidden, args.phi, sys.stdin, sys.stdout)
    return 0


# ---------------------------------------------------------------- attack


class _RemoteCurator(CuratorOracle):
    """A curator whose answers come from an `oracle-serve` loop at the far end of two pipes.

    Only the transport differs from the in-process curator: _answer
    serializes each query onto `requests` and parses the line that comes
    back on `replies`.  The hidden bits stay here, on the curator's side
    of the process boundary, for after-the-fact grading.
    """

    def __init__(
        self, requests: TextIO, replies: TextIO, hidden: MembershipVector, phi: int | None
    ):
        super().__init__(hidden)
        self._requests = requests
        self._replies = replies
        self._phi = phi

    def _answer(self, query, n, indices, phi):
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
        try:
            self._requests.write("SCORE " + _dump(doc) + "\n")
            self._requests.flush()
        except BrokenPipeError:  # the server is gone before it read the request
            raise OracleProtocolError("oracle closed the stream mid-session") from None
        self._queries += 1
        line = self._replies.readline()
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


def _serve_forked(hidden: Labeling, phi: int | None, requests: int, replies: int) -> NoReturn:
    """A forked server's whole life: serve the two pipe ends, then end the process.

    It leaves through os._exit alone, so it never returns into the caller's
    stack, flushes buffers it inherited or runs atexit handlers.  The exit
    closes the pipes, after any traceback is written: the parent reads the
    end of the replies as the end of the server.
    """
    code = 1
    try:
        _serve(hidden, phi, os.fdopen(requests), os.fdopen(replies, "w"))
        code = 0
    except BaseException:
        import traceback

        # straight to the descriptor: sys.stderr may hold the parent's buffered text
        os.write(2, traceback.format_exc().encode(errors="backslashreplace"))
    finally:
        os._exit(code)


def _subprocess_demo(
    n: int, mode: AttackMode, seed: int, phi: int | None
) -> AttackReport:
    """run_demo's attack, against a curator served across a process boundary.

    The server is this interpreter forked, lossprobe already imported: the
    child runs `oracle-serve`'s loop over two pipes, so the protocol and
    every reply byte are `oracle-serve`'s, and the hidden bits reach it in
    memory, never through a file.  A twin attack's table is sieved before
    the fork, so the server's closed form and the attacker's decoder read
    one table instead of each sieving its own in turn.  The child is
    reaped on every way out: after a finished attack the parent sends
    QUIT, after a failed one it kills the child first.
    """
    if not hasattr(os, "fork"):
        raise ValidationError(
            "this platform cannot fork a server; run this attack with --transport inproc"
        )
    if mode is AttackMode.EXACT_BINARY and n > BINARY_WIRE_MAX_N:
        # refused before the server starts, which would refuse the score as too wide
        raise ValidationError(
            f"exact binary scores past n = {BINARY_WIRE_MAX_N} are walls of digits on the "
            "wire; run this attack with --transport inproc"
        )
    if mode is AttackMode.EXACT_TWIN and n <= TWIN_MAX_N:
        twin_primes(n)
    hidden = MembershipVector.random(n, seed)
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (request_r, request_w, reply_r, reply_w):
            os.close(fd)
        raise
    if pid == 0:
        os.close(request_w)  # so the child reads EOF once the parent is gone
        os.close(reply_r)
        _serve_forked(hidden.bits, phi, request_r, reply_w)
    os.close(request_r)  # so the parent reads EOF once the child is gone
    os.close(reply_w)
    requests, replies = os.fdopen(request_w, "w"), os.fdopen(reply_r)
    try:
        report = _attack(_RemoteCurator(requests, replies, hidden, phi), n, mode, phi)
        requests.write("QUIT\n")  # sent by the close below
        return report
    except BaseException:
        import signal  # only here, to keep every start light

        os.kill(pid, signal.SIGKILL)  # no reply is wanted now, and its request may run long
        raise
    finally:
        with contextlib.suppress(BrokenPipeError):  # a server already gone needs no EOF
            requests.close()
        replies.close()
        os.waitpid(pid, 0)


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
    accuracy, plan = report.accuracy, report.plan
    print(f"mode: {report.mode.value}")
    print(f"candidates: {args.n}")
    if plan is not None:
        print(f"significant digits: {plan.phi}")
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
    if plan is not None:
        doc.update(phi=plan.phi, method=plan.method, batch_size=plan.batch_size)
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
    cap, bound = max_unique_batch(phi), query_bound(plan.n, phi)
    print(f"pigeonhole batch cap: {cap}")
    print(f"query bound: {bound}")
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
        "max_unique_batch": cap,
        "query_bound": bound,
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
        code = args.func(args)
        sys.stdout.flush()  # so a reader gone early shows here, not at exit
        return code
    except LossProbeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader is gone (`| head -1`): what is still buffered, and
        # the flush at exit, go to devnull (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
