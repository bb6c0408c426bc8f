"""Wall time and peak RSS of one cold in-process twin-prime round trip.

    python3 tools/twin_peak.py --n 100000 --seed 1

Run it as a script: the interpreter it starts is the fresh process, so no
twin table or score is cached beforehand.  lossprobe is imported from the
`src/` next to this file.  The round trip is `run_demo` in twin mode, as
`lossprobe attack-demo --mode twin` runs it in-process: build the vector,
score it against seeded hidden labels, decode, assess.  It prints one JSON
line: n, seed, the wall time of the round trip, whether every label came
back, and `VmHWM` (the process's peak resident set, import included) from
`/proc/self/status`.  Standard library only; `VmHWM` needs Linux.
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

    from lossprobe import AttackMode, run_demo

    start = time.perf_counter()
    report = run_demo(args.n, AttackMode.EXACT_TWIN, args.seed)
    wall = time.perf_counter() - start
    print(json.dumps({
        "n": args.n,
        "seed": args.seed,
        "wall_s": round(wall, 3),
        "correct": report.accuracy == 1,
        "vm_hwm_mb": round(vm_hwm_mb(), 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
