"""Wall time, per-part times and peak RSS of one cold in-process twin-prime round trip.

    python3 tools/twin_peak.py --n 100000 --seed 1

Run it as a script: the interpreter it starts is the fresh process, so no
twin table or score is cached beforehand.  lossprobe is imported from the
`src/` next to this file.  The round trip is the one `lossprobe attack-demo
--mode twin` runs in-process, taken apart into public calls so each part
is timed: the twin table (`twin_primes`), the attacker's vector
(`build_twin_prime_vector`), the curator's exact score of it against
seeded hidden labels, the attacker's decode, and the curator's assessment.
Each object is dropped when the attack would drop it.  It prints one JSON
line: n, seed, the wall time of the whole round trip, the wall time of
each part, whether every label came back, and `VmHWM` (the process's peak
resident set, import included) from `/proc/self/status`, both at the end
and after each part.  The table is the first part after set-up, so
`VmHWM` after it is the table's own peak.  Standard library only; `VmHWM` needs Linux.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def vm_hwm_mb() -> float:
    """The process's peak resident set so far, in MB, from /proc/self/status."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True, help="points in the round trip")
    parser.add_argument("--seed", type=int, default=1, help="seed of the hidden labels")
    args = parser.parse_args()

    from lossprobe import (
        CandidateSet,
        MembershipVector,
        build_twin_prime_vector,
        curator_oracle,
        decode_twin_prime,
    )
    from lossprobe.primes import twin_primes

    parts = {}
    peaks = {}
    clock = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        parts[name] = round(now - clock, 3)
        peaks[name] = round(vm_hwm_mb(), 1)
        clock = now

    start = clock
    oracle = curator_oracle(MembershipVector.random(args.n, args.seed))
    candidates = CandidateSet.numbered(args.n)  # held to the end, as the attack holds it
    n = len(candidates)
    lap("setup")
    twin_primes(n)
    lap("table")
    entries = build_twin_prime_vector(n).entries
    lap("build")
    score = oracle.exact_response(entries)
    del entries
    lap("score")
    recovered = MembershipVector(decode_twin_prime(score))
    del score
    lap("decode")
    accuracy = oracle.assess(recovered)
    lap("assess")
    print(json.dumps({
        "n": args.n,
        "seed": args.seed,
        "wall_s": round(clock - start, 3),
        "parts_s": parts,
        "vm_hwm_mb_after": peaks,
        "correct": accuracy == 1,
        "vm_hwm_mb": round(vm_hwm_mb(), 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
