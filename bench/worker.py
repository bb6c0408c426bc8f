"""One pass of one workload, in its own process.

    python3 bench/worker.py WORKLOAD SEED SECONDS PASS [CYCLES]

PASS is `setup` (set up, print READY, exit), `run` (the untraced
end-to-end pass), `replay` (the traced run's step-by-step replay with
tracing off) or `traced` (the same replay with spans).  Given CYCLES, a
pass runs exactly that many cycles (rounds on serve-mixed) instead of
SECONDS, so the traced pass repeats the untraced replay's operations.  The worker prints READY once
the program is set up, then one JSON line with its records.  lossprobe is
found through PYTHONPATH, which the launcher points at the checkout's src.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import reference as ref
import workloads as wl
from spans import NULL, Tracer

OUT = Path(os.environ.get("BENCH_OUT", ".bench_out"))


def say(doc) -> None:
    print(doc if isinstance(doc, str) else json.dumps(doc), flush=True)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


# ---------------------------------------------------------------- CLI processes


def cli_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "lossprobe", *args]


class Server:
    """An `oracle-serve` child with a closed-loop client."""

    def __init__(self, labels_path: Path, mode: str):
        args = ["oracle-serve", "--labels", str(labels_path), "--mode", mode]
        if mode == "decimal":
            args += ["--phi", str(wl.SERVE_PHI)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cli_command(*args), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        # ready means: answered its first request
        self.ask('SCORE {"entries":["1/2"],"indices":[0]}')
        self.startup_s = time.perf_counter() - start

    def ask(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("oracle-serve closed its output")
        return answer.rstrip("\n")

    def close(self) -> None:
        try:
            self.proc.stdin.write("QUIT\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def labels_file(name: str, bits: list[int]) -> Path:
    path = OUT / name
    path.write_text("".join(map(str, bits)) + "\n")
    return path


def set_up(workload: str, seed: int) -> dict:
    """What must happen before the first timed operation; returns its handles."""
    if workload == "twin-exact":
        import lossprobe  # noqa: F401  (import is the set-up)
        return {}
    hidden = wl.serve_labels(seed) if workload == "serve-mixed" else [0, 1]
    path = labels_file(f"{workload}-{seed}-{os.getpid()}.labels", hidden)
    server = Server(path, "exact" if workload == "serve-mixed" else "decimal")
    return {"hidden": hidden, "labels_path": path, "server": server}


# ---------------------------------------------------------------- attack workloads


def attack_ok(recovered: tuple[int, ...], accuracy, expected: list[int]) -> bool:
    """The attack gate: curator-side assess and the generated labels must agree."""
    return accuracy == 1 and list(recovered) == expected


def run_attack(workload: str, op: dict) -> dict:
    """One untraced end-to-end attack through the public entry points."""
    if workload == "rounded-cli":
        done = subprocess.run(
            cli_command("attack-demo", "--n", str(op["n"]), "--mode", "fixed",
                        "--phi", str(op["phi"]), "--seed", str(op["seed"]),
                        "--transport", "subprocess"),
            capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            return {"ok": False, "queries": 0}
        doc = json.loads(done.stdout.splitlines()[-1])
        ok = doc["accuracy"] == "1/1" and doc["recovered"] == "".join(map(str, op["bits"]))
        return {"ok": ok, "queries": doc["queries_used"]}
    from lossprobe import (AttackMode, CandidateSet, Labeling, MembershipVector,
                           curator_oracle, one_query_attack)
    oracle = curator_oracle(MembershipVector(Labeling(tuple(op["bits"]))))
    report = one_query_attack(CandidateSet.numbered(op["n"]), oracle, AttackMode.EXACT_TWIN)
    return {"ok": attack_ok(report.recovered.bits.bits, report.accuracy, op["bits"]),
            "queries": report.queries_used}


def replay_attack(workload: str, op: dict, tr) -> dict:
    """The same attack step by step through public functions, one span per step."""
    from lossprobe import Labeling, MembershipVector, curator_oracle
    from lossprobe.primes import twin_primes
    import lossprobe as lp

    bits = tuple(op["bits"])
    labels = Labeling(bits)
    oracle = curator_oracle(MembershipVector(labels))
    view = oracle.scoring_view()
    if workload == "twin-exact":
        n = op["n"]
        with tr.span("primes", "primes.twin_primes"):
            twin_primes(n)
        with tr.span("exact", "exact.build_twin_prime_vector", track_alloc=True):
            vec = lp.build_twin_prime_vector(n)
        with tr.span("core", "core.exact_score"):
            expected = lp.exact_score(vec, labels)
        with tr.span("mia", "mia.exact_response"):
            score = view.exact_response(vec.entries)
        with tr.span("exact", "exact.decode_twin_prime"):
            got = lp.decode_twin_prime(score)
        with tr.span("mia", "mia.assess"):
            accuracy = oracle.assess(MembershipVector(got))
        ok = score == expected and attack_ok(got.bits, accuracy, op["bits"])
        return {"ok": ok, "queries": oracle.queries_used}

    phi, n = op["phi"], op["n"]
    with tr.span("precision", "precision.plan_batches"):
        plan = lp.plan_batches(n, phi)
    lookup = None
    checked = 0
    if plan.method == "tuple-table":
        entries = lp.curated_batch_vector(phi)[: plan.batch_size]
        with tr.span("precision", f"precision.tuple_lookup_for.phi{phi}"):
            lookup = lp.tuple_lookup_for(entries, phi)
        checked = 2 ** len(entries)
        vec = lp.PredictionVector(lookup.entries)
    recovered: list[int | None] = [None] * n
    ok = True
    for batch in plan.batches:
        ask = batch.fill + batch.indices
        sub = Labeling(tuple(bits[i] for i in ask))
        if lookup is not None:
            with tr.span("mia", "mia.decimal_scores"):
                answer = view.decimal_scores(lookup.entries, phi, indices=ask)
            with tr.span("core", "core.logloss_decimal"):
                ll = lp.logloss_decimal(vec, sub, phi)
            with tr.span("core", "core.auc"):
                auc = lp.auc(vec, sub, phi)
            with tr.span("precision", "precision.labeling_for"):
                got = lookup.labeling_for(*answer)
        else:
            with tr.span("mia", "mia.decimal_scores_for_binary"):
                answer = view.decimal_scores_for_binary(len(ask), phi, indices=ask)
            with tr.span("exact", "exact.binary_decimal_response"):
                ll, auc = lp.binary_decimal_response(sub, phi)
            with tr.span("exact", "exact.decode_binary_from_decimal"):
                got = lp.decode_binary_from_decimal(answer[0], len(ask))
        ok = ok and answer == (ll, auc)
        for pos, bit in zip(ask, got.bits):
            ok = ok and recovered[pos] in (None, bit)
            recovered[pos] = bit
    with tr.span("mia", "mia.assess"):
        accuracy = oracle.assess(MembershipVector(Labeling(tuple(b or 0 for b in recovered))))
    ok = ok and attack_ok(tuple(recovered), accuracy, op["bits"])
    return {"ok": ok, "queries": oracle.queries_used,
            "planned": plan.planned_queries, "checked": checked}


# ---------------------------------------------------------------- serve-mixed


def replay_request(req: dict, server: Server, tr) -> dict:
    """Round trip to the server, then the same request computed in-process."""
    import lossprobe as lp
    from lossprobe.primes import twin_primes

    with tr.span("cli", f"cli.request.{req['type']}"):
        start = time.perf_counter()
        line = server.ask(req["line"])
        rt = time.perf_counter() - start
    ok = wl.response_ok(req, line)
    if req["expect"] is None:
        return {"ok": ok, "rt": rt, "compute": None, "bytes": len(line) + 1}
    start = time.perf_counter()
    labels = lp.Labeling(tuple(req["labels"]))
    if "entries" in req:
        with tr.span("core", "core.parse_rational"):
            vec = lp.PredictionVector(tuple(lp.parse_rational(e) for e in req["entries"]))
    elif req["kind"] == "twin":
        with tr.span("primes", "primes.twin_primes"):
            twin_primes(req["n"])
        with tr.span("exact", "exact.build_twin_prime_vector"):
            vec = lp.build_twin_prime_vector(req["n"])
    elif req["type"] == "exact-named":
        with tr.span("exact", "exact.build_binary_vector", track_alloc=True):
            vec = lp.build_binary_vector(req["n"])
    else:
        vec = None
    if req["type"].startswith("exact"):
        with tr.span("core", "core.exact_score"):
            score = lp.exact_score(vec, labels)
        with tr.span("core", "core.format_rational"):
            local = "ESCORE " + lp.format_rational(score.value)
    else:
        if vec is None:
            with tr.span("exact", "exact.binary_decimal_response"):
                ll, auc = lp.binary_decimal_response(labels, wl.SERVE_PHI)
        else:
            with tr.span("core", "core.logloss_decimal"):
                ll = lp.logloss_decimal(vec, labels, wl.SERVE_PHI)
            with tr.span("core", "core.auc"):
                auc = lp.auc(vec, labels, wl.SERVE_PHI)
        local = f"LL {ll.wire()} AUC {auc.wire()}"
    compute = time.perf_counter() - start
    if req.get("kind") == "binary" and req["type"] == "exact-named":
        # the adversary's side: the served score must decode to the labels
        with tr.span("core", "core.parse_rational"):
            served = lp.ExactScore(lp.parse_rational(line[7:]), req["n"])
        with tr.span("exact", "exact.decode_binary", track_alloc=True):
            ok = ok and lp.decode_binary(served).bits == labels.bits
    return {"ok": ok and local == req["expect"], "rt": rt, "compute": compute,
            "bytes": len(line) + 1}


def serve_streams(seed: int, hidden: list[int]) -> dict:
    from lossprobe import curated_batch_vector

    wl.check_binary_reference(seed)
    curated = curated_batch_vector(wl.SERVE_PHI)
    return {mode: wl.serve_blocks(mode, seed, hidden, curated) for mode in ("exact", "decimal")}


def serve_cycle(blocks, server: Server, cycle: int, replay: bool, tr) -> list[dict]:
    """Every request of one mode's cycle, closed loop."""
    records = []
    for req in (req for block in blocks for req in block):
        def one():
            if replay:
                with tr.op():
                    return replay_request(req, server, tr)
            return {"ok": wl.response_ok(req, server.ask(req["line"]))}

        rec = timed(one)
        rec.update(type=req["type"], points=req["points"], cycle=cycle)
        records.append(rec)
    return records


def timed(op) -> dict:
    """Run one operation; a crash counts as a failed operation, not a failed run."""
    start = time.perf_counter()
    try:
        rec = op()
    except Exception:  # the gate counts it; the traceback says why
        traceback.print_exc()
        rec = {"ok": False}
    rec["ms"] = 1000 * (time.perf_counter() - start)
    return rec


# ---------------------------------------------------------------- self-check


def self_check() -> dict:
    """Feed the gates known-bad answers; each must be counted as a failure."""
    import lossprobe as lp

    bits = [1, 0, 0, 1, 1, 0, 1, 0] * 8
    honest = lp.curator_oracle(lp.MembershipVector(lp.Labeling(tuple(bits))))

    class LyingCurator:
        queries_used = 0

        def scoring_view(self):
            real = honest.scoring_view()

            def lie(entries, indices=None):
                return lp.perturb_prime(real.exact_response(entries, indices), 11, 1)

            return lp.ScoringView(lie, real.decimal_scores, real.decimal_scores_for_binary)

        def assess(self, claimed):
            return honest.assess(claimed)

    try:
        report = lp.one_query_attack(lp.CandidateSet.numbered(len(bits)), LyingCurator())
        lying_caught = not attack_ok(report.recovered.bits.bits, report.accuracy, bits)
    except lp.LossProbeError:
        lying_caught = True
    entries = [Fraction(5, 7), Fraction(11, 13), Fraction(17, 19)]
    good = {"expect": ref.exact_line(entries, [1, 0, 1])}
    corrupted = good["expect"][:-1] + str((int(good["expect"][-1]) + 1) % 10)
    escore_caught = wl.response_ok(good, good["expect"]) and not wl.response_ok(good, corrupted)
    return {"lying_curator": lying_caught, "corrupt_escore": escore_caught}


# ---------------------------------------------------------------- passes


def attack_pass(workload: str, seed: int, seconds: float, limit, replay: bool, tr) -> dict:
    """Whole cycles of attacks until `seconds` pass, or exactly `limit` cycles."""
    records = []
    start = time.perf_counter()
    for c, cycle in enumerate(wl.cycles(workload, seed)):
        if c >= limit[0] if limit else time.perf_counter() - start >= seconds:
            break
        for op in cycle:
            def one():
                if replay:
                    with tr.op():
                        return replay_attack(workload, op, tr)
                return run_attack(workload, op)

            rec = timed(one)
            rec.update(points=op["n"], cycle=c)
            records.append(rec)
    who = resource.RUSAGE_CHILDREN if workload == "rounded-cli" else resource.RUSAGE_SELF
    return {"records": records, "elapsed": time.perf_counter() - start,
            "limit": [c], "peak_rss_mb": peak_rss_mb(who)}


def serve_pass(handles: dict, seed: int, seconds: float, limit, replay: bool, tr) -> dict:
    """Whole rounds (an exact-mode cycle, then a decimal-mode one, each on a
    fresh server) until `seconds` pass, or exactly `limit` rounds."""
    streams = serve_streams(seed, handles["hidden"])
    server = handles.pop("server")  # the set-up server takes the first cycle
    records, startups, rounds = [], [], 0
    start = time.perf_counter()
    while rounds < limit[0] if limit else time.perf_counter() - start < seconds:
        for mode in ("exact", "decimal"):
            if server is None:
                server = Server(handles["labels_path"], mode)
                startups.append(server.startup_s)
            records += serve_cycle(streams[mode], server, rounds, replay, tr)
            server.close()
            server = None
        rounds += 1
    return {"records": records, "elapsed": time.perf_counter() - start, "limit": [rounds],
            "startups": startups, "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)}


def main() -> int:
    workload, seed, seconds, kind = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    limit = [int(x) for x in sys.argv[5].split(",")] if len(sys.argv) > 5 else None
    OUT.mkdir(exist_ok=True)
    handles = set_up(workload, seed)
    say("READY")
    startups = [handles["server"].startup_s] if "server" in handles else []
    if kind == "setup" or workload == "rounded-cli":
        # rounded-cli: the probe server only proved that the CLI starts
        if "server" in handles:
            handles.pop("server").close()
            handles.pop("labels_path").unlink()
        if kind == "setup":
            say({"startups": startups})
            return 0
    replay = kind in ("replay", "traced")
    tr = Tracer() if kind == "traced" else NULL
    if replay:
        from lossprobe.primes import twin_primes
        misses = twin_primes.cache_info().misses
    if workload == "serve-mixed":
        result = serve_pass(handles, seed, seconds, limit, replay, tr)
    else:
        result = attack_pass(workload, seed, seconds, limit, replay, tr)
    result["startups"] = startups + result.get("startups", [])
    if "labels_path" in handles:
        handles["labels_path"].unlink()
    if replay:
        result["twin_primes_misses"] = twin_primes.cache_info().misses - misses
    if kind == "traced":
        tr.write(OUT / f"trace-{workload}-{seed}.jsonl")
        result["trace"] = tr.summary()
    if kind == "run":
        result["self_check"] = self_check()
    say(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
