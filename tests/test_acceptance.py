"""Acceptance gate: every shipping criterion, one pass/fail line each.

Each test exercises one criterion at its stated tolerance and records a
single line through the conftest terminal-summary hook.  Tests print the
line before asserting, so a failing criterion still reports itself.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from lossprobe.core import (
    ExactScore,
    Labeling,
    exact_score,
    exact_score_multiclass,
)
from lossprobe.core import ClassLabeling
from lossprobe.errors import DecodeError
from lossprobe.exact import (
    build_binary_vector,
    build_multiclass_matrix,
    build_twin_prime_vector,
    decode_binary,
    decode_multiclass,
    decode_twin_prime,
    decode_twin_prime_value,
)
from lossprobe.mia import MembershipVector, curator_oracle, perturb_prime
from lossprobe.precision import (
    batched_inference,
    build_tuple_lookup,
    curated_batch_vector,
    max_unique_batch,
    min_digits_for_separation,
    query_bound,
    tuple_lookup_for,
)
import lossprobe.precision as precision_module

from conftest import ACCEPTANCE_LINES

F = Fraction


def record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_two_point_score_table():
    vec = build_twin_prime_vector(2)  # also warms the prime table
    expected = {
        (0, 0): F(91, 4),
        (0, 1): F(91, 22),
        (1, 0): F(91, 10),
        (1, 1): F(91, 55),
    }
    values = {}
    worst = 0.0
    for bits in expected:
        lab = Labeling(bits)
        worst = max(worst, best_of(3, lambda: exact_score(vec, lab)))
        values[bits] = exact_score(vec, lab).value
    ok = values == expected and worst < 1e-3
    record(
        1,
        ok,
        f"two-point twin table is 91/{{4,22,10,55}} as labeled, "
        f"slowest score {worst * 1e6:.0f}us (budget 1ms)",
    )


def test_criterion_02_known_score_decodes():
    decode_twin_prime_value(F(91, 4))  # warm-up
    elapsed = best_of(3, lambda: decode_twin_prime_value(F(1729, 170)))
    got = decode_twin_prime_value(F(1729, 170))
    ok = got.to_string() == "101" and len(got) == 3 and elapsed < 1e-3
    record(
        2,
        ok,
        f"1729/170 decodes to 101 with n inferred, "
        f"{elapsed * 1e6:.0f}us (budget 1ms)",
    )


def test_criterion_03_binary_exponent_identities():
    score = exact_score(build_binary_vector(4), Labeling((1, 0, 1, 1)))
    forward = (
        score.value.numerator == 2**16 - 1 and score.value.denominator == 2**13
    )
    back = decode_binary(ExactScore(value=F(2**32 - 1, 2**18), n=5))
    ok = forward and back.bits == (0, 1, 0, 0, 1)
    record(
        3,
        ok,
        "labeling 1011 yields denominator exponent 13; exponent 18 at n=5 "
        "decodes to 01001",
    )


def test_criterion_04_precision_arithmetic():
    checks = (
        min_digits_for_separation(0.2) == 1,
        min_digits_for_separation(0.002) == 3,
        query_bound(100, 15) == 2,
    )
    record(
        4,
        all(checks),
        "separation 0.2 needs 1 digit, 0.002 needs 3, and 100 points at "
        "15 digits bound to 2 queries",
    )


def test_criterion_05_paper_vector_separates():
    entries = [F(1, 5), F(2, 5), F(3, 5)]
    tuple_lookup_for(entries, 2)  # warm the decimal context paths
    elapsed = best_of(3, lambda: tuple_lookup_for(entries, 2))
    lookup = tuple_lookup_for(entries, 2)
    distinct = len(set(lookup.table.keys()))
    ok = distinct == 8 and elapsed < 1e-2
    record(
        5,
        ok,
        f"[0.2,0.4,0.6] at two digits gives {distinct}/8 distinct tuples in "
        f"{elapsed * 1e3:.1f}ms (budget 10ms)",
    )


def test_criterion_06_injectivity_exhaustive():
    t0 = time.perf_counter()
    clean = True
    for n in range(1, 13):
        for builder in (build_twin_prime_vector, build_binary_vector):
            vec = builder(n)
            seen = set()
            for mask in range(2**n):
                bits = tuple((mask >> i) & 1 for i in range(n))
                seen.add(exact_score(vec, Labeling(bits)).value)
            if len(seen) != 2**n:
                clean = False
    elapsed = time.perf_counter() - t0
    ok = clean and elapsed < 30
    record(
        6,
        ok,
        f"both constructions injective over all labelings up to n=12, "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_criterion_07_roundtrip_campaign():
    rng = random.Random(20260815)
    t0 = time.perf_counter()
    mismatches = 0

    for _ in range(1000):
        n = rng.randint(1, 64)
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        vec = build_twin_prime_vector(n)
        if decode_twin_prime(exact_score(vec, Labeling(bits))).bits != bits:
            mismatches += 1

    # the binary entries double in size per point, so the draw leans small
    # while still covering every n up to the cap; vectors are built once
    sizes = (
        [rng.randint(1, 24) for _ in range(850)]
        + [rng.randint(25, 29) for _ in range(120)]
        + [rng.randint(30, 32) for _ in range(27)]
        + [30, 31, 32]
    )
    binary_vectors = {}
    for n in sizes:
        if n not in binary_vectors:
            binary_vectors[n] = build_binary_vector(n)
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        vec = binary_vectors[n]
        if decode_binary(exact_score(vec, Labeling(bits))).bits != bits:
            mismatches += 1

    multiclass_cases = 0
    for k in range(2, 6):
        for n in range(1, 7):
            matrix = build_multiclass_matrix(n, k)
            for mask in range(k**n):
                value = mask
                classes = []
                for _ in range(n):
                    classes.append(value % k + 1)
                    value //= k
                score = exact_score_multiclass(
                    matrix, ClassLabeling(tuple(classes), k)
                )
                if decode_multiclass(score, k).classes != tuple(classes):
                    mismatches += 1
                multiclass_cases += 1

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60
    record(
        7,
        ok,
        f"1000 twin (n<=64) + 1000 binary (n<=32) random round-trips and "
        f"{multiclass_cases} exhaustive multiclass cases (n<=6, K<=5), "
        f"{mismatches} mismatches, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_08_sixty_points_two_digits():
    hidden = MembershipVector.random(60, seed=60)
    oracle = curator_oracle(hidden)
    curated = curated_batch_vector(2)
    b = len(curated)
    # measure with a cold lookup cache so table construction is included
    saved = dict(precision_module._LOOKUP_CACHE)
    precision_module._LOOKUP_CACHE.clear()
    try:
        t0 = time.perf_counter()
        lookup = build_tuple_lookup(b, 2)
        recovered, plan = batched_inference(oracle.scoring_view(), 60, 2)
        elapsed = time.perf_counter() - t0
        used = precision_module._LOOKUP_CACHE.get((2, b))
    finally:
        precision_module._LOOKUP_CACHE.update(saved)
    batch = plan.batch_size
    recovery_ok = recovered.bits == hidden.bits.bits
    queries_ok = oracle.queries_used == plan.planned_queries == -(-60 // batch)
    # the batch is whatever the frozen two-digit vector verifies at, not the
    # 6*phi formula figure: it must be that vector, exhaustively injective,
    # within the pigeonhole cap, and the one the planner actually queried
    batch_ok = (
        plan.method == "tuple-table"
        and batch == b
        and lookup.entries == curated
        and len(lookup.table) == 2**b
        and used is not None
        and used.entries == curated
        and b <= max_unique_batch(2)
    )
    ok = recovery_ok and queries_ok and batch_ok and elapsed < 60
    record(
        8,
        ok,
        f"n=60 at two digits: recovery {'exact' if recovery_ok else 'WRONG'} in "
        f"{oracle.queries_used} queries "
        f"({'=' if queries_ok else 'NOT'} ceil(60/{batch})), {elapsed:.1f}s "
        f"(budget 60s); realized batch {batch} is "
        f"{'' if batch_ok else 'NOT '}the verified curated {b}-point vector "
        f"({len(lookup.table)}/{2**b} distinct tuples); the 6*phi formula "
        f"figure is {6 * 2} points / {query_bound(60, 2)} queries, "
        f"the pigeonhole cap {max_unique_batch(2)}",
    )


def test_criterion_09_cli_demo_blind_and_deterministic():
    args = [
        sys.executable, "-m", "lossprobe",
        "attack-demo", "--n", "50", "--mode", "twin",
        "--transport", "subprocess",
    ]
    runs = [
        subprocess.run(args, capture_output=True, text=True, timeout=120)
        for _ in range(2)
    ]
    docs = [json.loads(r.stdout.strip().splitlines()[-1]) for r in runs]
    deterministic = (
        runs[0].stdout == runs[1].stdout and runs[0].returncode == 0
    )
    correct = docs[0]["accuracy"] == "1/1" and docs[0]["queries_used"] == 1
    # the adversary's only handle is the scoring view; no hidden state rides on it
    oracle = curator_oracle(MembershipVector.random(50, seed=7))
    view = oracle.scoring_view()
    blind = set(vars(view)) == {
        "exact_response", "decimal_scores", "decimal_scores_for_binary",
    } and not hasattr(view, "_CuratorOracle__hidden")
    ok = deterministic and correct and blind
    record(
        9,
        ok,
        "attack-demo --n 50 --mode twin: accuracy 1.0 in 1 query across a "
        "process boundary, byte-identical under the default seed, and the "
        "scoring view holds only the three answer methods, no mangled hidden "
        "attribute (its bound methods still reach the curator)",
    )


def test_criterion_10_tamper_evidence():
    rng = random.Random(101)
    trials = 0
    silent = 0
    undetected: list[str] = []
    while trials < 100:
        n = rng.randint(2, 30)
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        vec = build_twin_prime_vector(n)
        honest = exact_score(vec, Labeling(bits))
        primes = set()
        for part in (honest.value.numerator, honest.value.denominator):
            for p in (2, 3, 5, 7):
                if part % p == 0:
                    primes.add(p)
            value = part
            d = 2
            while d * d <= value:
                if value % d == 0:
                    primes.add(d)
                    while value % d == 0:
                        value //= d
                else:
                    d += 1
            if value > 1:
                primes.add(value)
        for p in sorted(primes):
            for delta in (-1, 1):
                tampered = perturb_prime(honest, p, delta)
                try:
                    got = decode_twin_prime_value(tampered.value)
                except DecodeError:
                    continue
                silent += 1
                undetected.append(f"n={n} p={p} delta={delta} -> {got.to_string()}")
        trials += 1
    ok = silent == 0
    record(
        10,
        ok,
        f"100 seeded twin trials, every single-prime exponent shift in the "
        f"served score raises a decode error ({silent} silent decodes"
        + (f": {undetected[:3]}" if undetected else "")
        + ")",
    )
