"""Seeded inputs for the four workloads.

Every workload is a sequence of cycles, and a run only ever executes whole
cycles, so the mix inside a run is the same whatever the seed or the speed
of the machine: the seed changes the labels, the exact sizes inside each
size stratum and the order, not the shape of the work.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import count

import reference as ref

WORKLOADS = ("twin-exact", "rounded-cli", "serve-mixed")

TWIN_STRATA = (3000, 5000, 7000)  # n strata over [2000, 8000]
TWIN_JITTER = 100
PHIS = (1, 2, 3, 4, 5, 6)
SERVE_LABELS = 4096
SERVE_PHI = 3
BLOCK = 100  # requests per block
SERVE_BLOCKS = 6  # blocks per mode: one cycle of a serve round
LARGE_JITTER = 32

MALFORMED = (
    "SCORE {not json",
    "SCORE [1,2]",
    'SCORE {"entries":["3/2","1/2"],"indices":[0,1]}',
    'SCORE {"entries":["1/2"],"indices":[0,1]}',
    'SCORE {"entries":["1/2"],"indices":[99999]}',
    'SCORE {"kind":"twin","indices":[0]}',
    "FROB 1",
    'SCORE {"entries":["1/2","1/2"]}',
    'SCORE {"entries":["0/1"],"indices":[0]}',
    'SCORE {"entries":["1/2","1/3"],"indices":[3,3]}',
    'SCORE {"kind":"pentagon","n":2,"indices":[0,1]}',
    'SCORE {"entries":["x/2"],"indices":[0]}',
)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(map(str, parts)))


def cycles(workload: str, seed: int):
    """Endless stream of cycles (lists of operations) for an attack workload."""
    shift = _rng(workload, seed).randrange(6)
    for c in count():
        rng = _rng(workload, seed, c)
        if workload == "twin-exact":
            # every cycle holds the three label densities; decode time grows
            # with density, so the middle stratum (the median attack) keeps
            # 0.5 and the outer strata swap 0.1 and 0.9 from cycle to cycle
            outer = (0.1, 0.9) if (c + shift) % 2 else (0.9, 0.1)
            ops = []
            for centre, density in zip(TWIN_STRATA, (outer[0], 0.5, outer[1])):
                n = centre + rng.randint(-TWIN_JITTER, TWIN_JITTER)
                bits = [int(rng.random() < density) for _ in range(n)]
                ops.append({"n": n, "bits": bits})
        elif workload == "rounded-cli":
            ops = []
            for j, phi in enumerate(PHIS):
                stratum = (j + c + shift) % len(PHIS)  # 30-wide n strata of [60, 240)
                n = 60 + 30 * stratum + rng.randrange(30)
                demo_seed = rng.randrange(2**31)
                ops.append({"phi": phi, "n": n, "seed": demo_seed, "bits": demo_labels(n, demo_seed)})
        else:
            raise ValueError(f"{workload} has no attack cycles")
        rng.shuffle(ops)
        yield ops


def demo_labels(n: int, seed: int) -> list[int]:
    """Hidden labels `attack-demo --seed` draws: one randint(0, 1) per point."""
    rng = random.Random(seed)
    return [rng.randint(0, 1) for _ in range(n)]


# ---------------------------------------------------------------- serve-mixed


def serve_labels(seed: int) -> list[int]:
    rng = _rng("serve-labels", seed)
    return [rng.randint(0, 1) for _ in range(SERVE_LABELS)]


def _request(rtype: str, doc: dict, expect: str, **replay) -> dict:
    return {"type": rtype, "line": "SCORE " + json.dumps(doc, separators=(",", ":")),
            "expect": expect, "points": len(doc["indices"]), **replay}


def serve_blocks(mode: str, seed: int, hidden: list[int], curated: tuple[Fraction, ...]):
    """One cycle for one server mode: SERVE_BLOCKS blocks of BLOCK requests.

    Composition per block is fixed; the seed draws sizes, entries, indices
    and order.  Exact: 55 twin entry lists (b 8-64), 30 named twin documents
    (n <= 512), 10 named binary documents (n <= 16), 5 malformed lines.
    Decimal at phi 3: 40 curated-vector prefixes, 35 random entry lists,
    19 named binary documents (n 8-256), 1 large one, 5 malformed lines.
    The large one costs from milliseconds at n = 512 to a second at n = 4096,
    so its sizes are stratified over [512, 4096], one stratum per block.
    Expected lines are computed here, before anything is timed.
    """
    twins = ref.twin_lowers(1024)
    spot_checks = []
    blocks = []
    for b in range(SERVE_BLOCKS):
        rng = _rng("serve", mode, seed, b)
        block = []

        def pick(size):
            return rng.sample(range(SERVE_LABELS), size)

        if mode == "exact":
            for _ in range(55):
                size = rng.randint(8, 64)
                start = rng.randrange(len(twins) - size)
                entries = [Fraction(p, p + 2) for p in twins[start : start + size]]
                idx = pick(size)
                labels = [hidden[i] for i in idx]
                texts = [f"{x.numerator}/{x.denominator}" for x in entries]
                block.append(_request("exact-entries", {"entries": texts, "indices": idx},
                                      ref.exact_line(entries, labels), entries=texts, labels=labels))
            for _ in range(30):
                size = rng.randint(1, 512)
                idx = pick(size)
                labels = [hidden[i] for i in idx]
                entries = [Fraction(p, p + 2) for p in twins[:size]]
                block.append(_request("exact-named", {"kind": "twin", "n": size, "indices": idx},
                                      ref.exact_line(entries, labels), kind="twin", n=size, labels=labels))
            for _ in range(10):
                size = rng.randint(2, 16)
                idx = pick(size)
                labels = [hidden[i] for i in idx]
                entries = [ref.binary_entry(i) for i in range(1, size + 1)]
                block.append(_request("exact-named", {"kind": "binary", "n": size, "indices": idx},
                                      ref.exact_line(entries, labels), kind="binary", n=size, labels=labels))
        else:
            lists = []
            for _ in range(40):
                size = rng.randint(4, len(curated))
                lists.append(list(curated[:size]))
            for _ in range(35):
                size = rng.randint(2, 12)
                lists.append([Fraction(rng.randint(1, d - 1), d)
                              for d in (rng.randint(3, 1000) for _ in range(size))])
            for k, entries in enumerate(lists):
                idx = pick(len(entries))
                labels = [hidden[i] for i in idx]
                texts = [f"{x.numerator}/{x.denominator}" for x in entries]
                line = ref.decimal_line(ref.logloss_line(entries, labels, SERVE_PHI),
                                        ref.auc_by_pairs(entries, labels), SERVE_PHI)
                if k in (0, 40):  # one curated and one random list per block
                    spot_checks.append((entries, labels, line))
                block.append(_request("decimal-entries", {"entries": texts, "indices": idx},
                                      line, entries=texts, labels=labels))
            stratum = 512 + (2 * b + 1) * (4096 - 512) // (2 * SERVE_BLOCKS)
            large = stratum + rng.randint(-LARGE_JITTER, LARGE_JITTER)
            sizes = [rng.randint(8, 256) for _ in range(19)] + [large]
            for size in sizes:
                idx = pick(size)
                labels = [hidden[i] for i in idx]
                # entries grow with position, so positions order them for AUC
                line = ref.decimal_line(ref.binary_logloss_line(labels, SERVE_PHI),
                                        ref.auc_by_pairs(list(range(size)), labels), SERVE_PHI)
                block.append(_request("decimal-named", {"kind": "binary", "n": size, "indices": idx},
                                      line, kind="binary", n=size, labels=labels))
        for line in rng.sample(MALFORMED, 5):
            block.append({"type": "err", "line": line, "expect": None, "points": 0})
        rng.shuffle(block)
        blocks.append(block)
    for entries, labels, line in spot_checks:
        # independent second opinion on the decimal references
        mp_line = ref.decimal_line(ref.mpmath_logloss_line(entries, labels, SERVE_PHI),
                                   ref.auc_by_pairs(entries, labels), SERVE_PHI)
        if mp_line != line:
            raise AssertionError(f"reference disagreement: {line} vs mpmath {mp_line}")
    return blocks


def check_binary_reference(seed: int) -> None:
    """The closed-form binary reference must match mpmath on materialized entries."""
    rng = _rng("binary-reference", seed)
    for n in range(8, 15):
        labels = [rng.randint(0, 1) for _ in range(n)]
        entries = [ref.binary_entry(i) for i in range(1, n + 1)]
        for phi in (3, 6):
            closed = ref.binary_logloss_line(labels, phi)
            direct = ref.mpmath_logloss_line(entries, labels, phi)
            if closed != direct:
                raise AssertionError(f"binary reference {closed} != mpmath {direct} at n={n}")


def response_ok(request: dict, line: str) -> bool:
    """The serve gate: the expected line, or exactly one ERR for a malformed one."""
    if request["expect"] is None:
        return line.startswith("ERR ")
    return line == request["expect"]
