"""lossprobe benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload twin-exact --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; lossprobe is imported from its `src/`, so
there is nothing to build.  `--trace 0` prints the end-to-end metrics of an
untraced run, `--trace 1` the per-layer metrics of a traced replay (see
README.md).  Human-readable lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Scratch files (labels for `oracle-serve`, span dumps) go to
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9  # set-ups per run; setup_s is their median
DEADLINE_S = 170  # every run ends inside 180 s

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "op_ms.p50": "ms",
    "ops_per_s": "1/s",
    "labels_per_s": "1/s",
    "queries_per_op": "count",
    "peak_rss_mb": "MB",
}

SPAN_NAMES = (
    "primes.twin_primes",
    "core.exact_score",
    "core.logloss_decimal",
    "core.auc",
    "core.format_rational",
    "core.parse_rational",
    "exact.build_twin_prime_vector",
    "exact.decode_twin_prime",
    "exact.build_binary_vector",
    "exact.decode_binary",
    "exact.binary_decimal_response",
    "exact.decode_binary_from_decimal",
    "mia.exact_response",
    "mia.decimal_scores",
    "mia.decimal_scores_for_binary",
    "mia.assess",
    "precision.plan_batches",
    "precision.tuple_lookup_for.phi1",
    "precision.tuple_lookup_for.phi2",
    "precision.tuple_lookup_for.phi3",
    "precision.labeling_for",
    "cli.request.exact-entries",
    "cli.request.exact-named",
    "cli.request.decimal-entries",
    "cli.request.decimal-named",
    "cli.request.err",
)

PER_LAYER = {
    **{f"{name}.{suffix}": unit for name in SPAN_NAMES
       for suffix, unit in (("ms", "ms"), ("calls", "count"))},
    "primes.twin_primes.misses": "count",
    "exact.alloc_peak_mb": "MB",
    "mia.queries": "count",
    "precision.planned_queries": "count",
    "precision.labelings_checked": "count",
    "cli.protocol_ms": "ms",
    "cli.response_bytes": "bytes",
    "cli.startup_s": "s",
    **{f"self_ms.{layer}": "ms" for layer in (*LAYERS, "bench")},
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}


class Failed(Exception):
    """A worker died or timed out; the run prints no result."""


class Launcher:
    def __init__(self, args: argparse.Namespace, root: Path):
        self.args = args
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        out = root / ".bench_out"
        (out / "tmp").mkdir(parents=True, exist_ok=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            BENCH_OUT=str(out),
            TMPDIR=str(out / "tmp"),  # attack-demo's label files stay in the checkout
        )
        self.ready_s: list[float] = []

    def worker(self, kind: str, seconds: float, limit: list[int] | None = None) -> dict:
        """Run one worker pass; records its set-up time (spawn to READY)."""
        cmd = [sys.executable, str(HERE / "worker.py"), self.args.workload,
               str(self.args.seed), repr(seconds), kind]
        if limit is not None:
            cmd.append(",".join(map(str, limit)))
        start = time.perf_counter()
        # unbuffered, so reading the READY line leaves the rest for communicate()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, bufsize=0,
                                stdout=subprocess.PIPE, start_new_session=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self.left())
            if not ready or proc.stdout.readline() != b"READY\n":
                raise Failed(f"{kind} worker never became ready")
            self.ready_s.append(time.perf_counter() - start)
            out, _ = proc.communicate(timeout=self.left())
        except subprocess.TimeoutExpired:
            raise Failed(f"{kind} worker overran the deadline") from None
        finally:
            if proc.poll() is None:  # take the worker's servers and CLI children too
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if proc.returncode != 0:
            raise Failed(f"{kind} worker exited with {proc.returncode}")
        return json.loads(out.decode().strip().splitlines()[-1])

    def left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def setups(self) -> list[float]:
        """Repeated set-ups; returns the CLI start-ups they measured."""
        startups = []
        for _ in range(SETUP_PROBES):
            startups += self.worker("setup", 0)["startups"]
        return startups


def end_to_end(launcher: Launcher) -> tuple[dict, dict, bool]:
    launcher.setups()
    res = launcher.worker("run", launcher.args.seconds)
    recs = res["records"]
    ms = [r["ms"] for r in recs]
    busy_s = sum(ms) / 1000
    metrics = {
        "setup_s": statistics.median(launcher.ready_s),
        "op_ms.p50": statistics.median(ms),
        "ops_per_s": len(recs) / busy_s,
        "labels_per_s": sum(r["points"] for r in recs) / busy_s,
        "queries_per_op": sum(r.get("queries", 1) for r in recs) / len(recs),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    failed = sum(not r["ok"] for r in recs)
    info = {"attempted": len(recs), "failed": failed,
            "fail_frac": failed / len(recs), "self_check": res["self_check"],
            "setup_samples": len(launcher.ready_s)}
    return metrics, info, failed == 0 and all(res["self_check"].values())


def per_layer(launcher: Launcher) -> tuple[dict, dict, bool]:
    startups = launcher.setups()
    half = launcher.args.seconds / 2
    plain = launcher.worker("replay", half)
    traced = launcher.worker("traced", half, plain["limit"])
    summary = traced["trace"]
    recs = traced["records"]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.ms"] = summary["ms"].get(name, 0.0)
        metrics[f"{name}.calls"] = summary["calls"].get(name, 0)
    protocol = [1000 * (r["rt"] - r["compute"]) for r in recs if r.get("compute") is not None]
    sizes = [r["bytes"] for r in recs if "bytes" in r]
    startups += plain["startups"] + traced["startups"]
    metrics.update({
        "primes.twin_primes.misses": traced["twin_primes_misses"],
        "exact.alloc_peak_mb": summary["alloc_peak_mb"],
        "mia.queries": sum(r.get("queries", 0) for r in recs),
        "precision.planned_queries": sum(r.get("planned", 0) for r in recs),
        "precision.labelings_checked": sum(r.get("checked", 0) for r in recs),
        "cli.protocol_ms": statistics.median(protocol) if protocol else 0.0,
        "cli.response_bytes": statistics.mean(sizes) if sizes else 0.0,
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        **{f"self_ms.{layer}": t for layer, t in summary["self_ms"].items()},
        "trace.spans": summary["spans"],
        "trace.overhead_frac": traced["elapsed"] / plain["elapsed"] - 1,
    })
    failed = sum(not r["ok"] for r in recs)
    info = {"attempted": len(recs), "failed": failed, "fail_frac": failed / len(recs),
            "untraced_s": plain["elapsed"], "traced_s": traced["elapsed"]}
    return metrics, info, failed == 0 and len(recs) == len(plain["records"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "lossprobe" / "__init__.py").is_file():
        print(f"error: {root} holds no lossprobe sources (src/lossprobe)", file=sys.stderr)
        return 2
    launcher = Launcher(args, root)
    try:
        metrics, info, correct = (per_layer if args.trace else end_to_end)(launcher)
    except Failed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, unit in units.items():
        print(f"  {name}: {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
