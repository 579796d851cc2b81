"""Scaling rows for czorb's long-vector library calls, as one JSON report.

    python3 tools/scaling.py [--out BENCH.json [--pairs PAIRS.json]]

Checks `make_weight_vector`, `make_brieskorn_exponents` (the record check
alone), `invariants` (on a well-formed vector and on one whose entries but
one share the prime 7), `symplectic_area`, `compute_l2`, `mu_orbit_wps`,
`mu_principal_brieskorn` and `mu_orbit_brieskorn` on seeded inputs of n = 10,
30, 100, 300, 1000 and 3000 entries against definitions that share no code
with czorb, and `brieskorn_op` (perfbench's library_wide Brieskorn op: one
record built from the list, then both routes on it) against the list routes:
`tuple(w)`, `math.prod`, the omit-one gcd and lcm definitions of d and e,
`math.lcm` and the prime valuations behind l2, b = sum(l/a_j) - l with
l = lcm(a), and the per-coordinate sum of the stratum reduction (of degree 0
for a weighted projective space, l for a Brieskorn orbifold). A wrong value
stops the run with an AssertionError. Without `--out` that is all it does,
as a smoke test.

With `--out` it then times each call, in microseconds per call, with the
call count per repeat chosen so that a repeat takes at least 20 ms. The
rows are timed round-robin: each of 5 rounds times every row once, and a
row's figure is its best round, so a slow phase of the host falls on all
rows alike. The report holds perfbench/run.py's metadata
(git sha, Python version, CPU count, `src_loc`), the rows and, with
`--pairs`, the JSON report of `tools/pairs.py --out`, copied under "pairs".
It imports czorb from `src/` of the checkout that holds it and uses
only the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import timeit
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import czorb  # noqa: E402
import run  # noqa: E402

SIZES = (10, 30, 100, 300, 1000, 3000)
SEED = 1
REPEATS = 5
MIN_REPEAT_S = 0.02
SHARED_PRIME = 7
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


# weight_vector, exponents and orbit are fixed-length forms of
# perfbench/workloads.py's _invariants_op, _brieskorn_op and _orbit_wps_op,
# whose lengths are drawn (up to 2000 entries, 40 exponents).


def weight_vector(rng: random.Random, n: int, shared_prime: int | None) -> list[int]:
    """n entries up to 10**4 with gcd 1; with a shared prime, every entry but
    one random entry is a multiple of it."""
    w = [rng.randint(1, 10**4) for _ in range(n)]
    if shared_prime is not None:
        j0 = rng.randrange(n)
        w = [x if j == j0 else x * shared_prime for j, x in enumerate(w)]
        while w[j0] % shared_prime == 0:
            w[j0] += 1
    g = math.gcd(*w)
    return [x // g for x in w]


def exponents(rng: random.Random, n: int) -> list[int]:
    """n Brieskorn-style exponents, each the product of two primes below 100."""
    return [rng.choice(SMALL_PRIMES) * rng.choice(SMALL_PRIMES) for _ in range(n)]


def orbit(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """A weight vector and a support of n // 8 (at least 2) coordinates whose
    weights share the isotropy d; no transverse weight is a multiple of d."""
    d = rng.choice((2, 3, 4, 6))
    support = sorted(rng.sample(range(n), max(2, n // 8)))
    chosen = set(support)
    w = []
    for j in range(n):
        x = rng.randint(1, 10**4)
        if j in chosen:
            x *= d
        elif x % d == 0:
            x += 1
        w.append(x)
    w[next(j for j in range(n) if j not in chosen)] = 1  # gcd 1 overall
    return w, support


def check_invariants(w: list[int]) -> None:
    """invariants(w) against the omit-one definitions."""
    d = tuple(math.gcd(*w[:j], *w[j + 1 :]) for j in range(len(w)))
    e = tuple(math.lcm(*d[:j], *d[j + 1 :]) for j in range(len(d)))
    inv = czorb.invariants(w)
    assert inv.sum == sum(w) and inv.product == math.prod(w), "sum or product"
    assert inv.d == d and inv.e == e and inv.a_w == math.lcm(*d), "d, e or a_w"
    assert inv.reduced.w == tuple(x // y for x, y in zip(w, e)), "reduced"
    assert inv.well_formed == (inv.a_w == 1)


def l2_by_valuations(a: list[int]) -> int:
    """The product over the primes of the second-largest valuation among
    the entries, for entries whose primes are all in SMALL_PRIMES."""
    l2 = 1
    for p in SMALL_PRIMES:
        valuations = sorted((_valuation(x, p) for x in a), reverse=True)
        l2 *= p ** (valuations[1] if len(valuations) > 1 else 0)
    return l2


def check_records(w: list[int], a: list[int]) -> None:
    """make_weight_vector(w) against tuple(w), and make_brieskorn_exponents(a)
    against tuple(a), math.lcm and the valuation definition of l2."""
    assert czorb.make_weight_vector(w).w == tuple(w), "make_weight_vector"
    be = czorb.make_brieskorn_exponents(a)
    assert (be.a, be.l, be.l2) == (tuple(a), math.lcm(*a), l2_by_valuations(a)), "make_brieskorn_exponents"


def _valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


def check_orbit(w: list[int], support: list[int]) -> None:
    """mu_orbit_wps against 2*sum_S w_j/d + sum_{k not in S} (2*floor(w_k/(2d)) + 1)."""
    d = math.gcd(*(w[j] for j in support))
    chosen = set(support)
    outside = [x for j, x in enumerate(w) if j not in chosen]
    index = 2 * sum(w[j] for j in support) // d + sum(2 * (x // (2 * d)) + 1 for x in outside)
    assert czorb.mu_orbit_wps(w, support).index == index, "mu_orbit_wps"


def brieskorn_support(a: list[int]) -> list[int]:
    """The coordinates whose exponents are prime to the least prime factor p
    of a[0]: their lcm misses p, so the isotropy l/lcm(a_S) is a multiple of
    p, and the orbit takes the stratum reduction."""
    p = next(p for p in SMALL_PRIMES if a[0] % p == 0)
    support = [j for j, x in enumerate(a) if x % p]
    assert len(support) >= 3, "a Brieskorn support needs 3 coordinates"
    return support


def check_brieskorn(a: list[int], support: list[int]) -> None:
    """mu_principal_brieskorn against 2*b, b = sum(l/a_j) - l, and
    mu_orbit_brieskorn against 2*(sum_S w_j - l)/d + the scalar index of each
    transverse w_k/d, over w_j = l/a_j with l = lcm(a), even ratios included;
    brieskorn_op must answer as the two list routes."""
    l = math.lcm(*a)
    w = [l // x for x in a]
    assert czorb.mu_principal_brieskorn(a).index == 2 * (sum(w) - l), "mu_principal_brieskorn"
    d = math.gcd(*(w[j] for j in support))
    chosen = set(support)
    outside = [x for j, x in enumerate(w) if j not in chosen]
    index = 2 * (sum(w[j] for j in support) - l) // d
    index += sum(2 * (x // (2 * d)) + (x % (2 * d) != 0) for x in outside)
    assert czorb.mu_orbit_brieskorn(a, support, True).index == index, "mu_orbit_brieskorn"
    list_routes = czorb.mu_principal_brieskorn(a), czorb.mu_orbit_brieskorn(a, support, True)
    assert brieskorn_op(a, support) == list_routes, "brieskorn_op"


def brieskorn_op(a: list[int], support: list[int]) -> tuple:
    """make_brieskorn_exponents on the list, then both routes on the record
    it returns, as perfbench/worker.py's call_library makes them."""
    be = czorb.make_brieskorn_exponents(a)
    return czorb.mu_principal_brieskorn(be), czorb.mu_orbit_brieskorn(be, support, True)


def calls_per_repeat(call) -> int:
    """The first power of two of calls that takes at least MIN_REPEAT_S."""
    number = 1
    while timeit.Timer(call).timeit(number) < MIN_REPEAT_S:
        number *= 2
    return number


def rows(timed: bool) -> list[dict]:
    """Check every call at every size; with `timed`, also time it, round-robin."""
    rng = random.Random(f"scaling/{SEED}")
    calls = []
    for n in SIZES:
        plain = weight_vector(rng, n, None)
        shared = weight_vector(rng, n, SHARED_PRIME)
        a = exponents(rng, n)
        w, support = orbit(rng, n)
        b_support = brieskorn_support(a)
        check_records(plain, a)
        check_invariants(plain)
        check_invariants(shared)
        assert czorb.symplectic_area(plain) == Fraction(-1, math.prod(plain)), "symplectic_area"
        assert czorb.compute_l2(a) == l2_by_valuations(a), "compute_l2"
        check_orbit(w, support)
        check_brieskorn(a, b_support)
        calls += [
            ("make_weight_vector", n, partial(czorb.make_weight_vector, plain)),
            ("make_brieskorn_exponents", n, partial(czorb.make_brieskorn_exponents, a)),
            ("invariants", n, partial(czorb.invariants, plain)),
            ("invariants_shared_prime", n, partial(czorb.invariants, shared)),
            ("symplectic_area", n, partial(czorb.symplectic_area, plain)),
            ("compute_l2", n, partial(czorb.compute_l2, a)),
            ("mu_orbit_wps", n, partial(czorb.mu_orbit_wps, w, support)),
            ("mu_principal_brieskorn", n, partial(czorb.mu_principal_brieskorn, a)),
            ("mu_orbit_brieskorn", n, partial(czorb.mu_orbit_brieskorn, a, b_support, True)),
            ("brieskorn_op", n, partial(brieskorn_op, a, b_support)),
        ]
    if not timed:
        return []
    numbers = [calls_per_repeat(call) for _, _, call in calls]
    best = [math.inf] * len(calls)
    for _ in range(REPEATS):
        for i, ((_, _, call), number) in enumerate(zip(calls, numbers)):
            best[i] = min(best[i], timeit.Timer(call).timeit(number) / number)
    out = [{"op": op, "n": n, "us_per_call": round(t * 1e6, 2)} for (op, n, _), t in zip(calls, best)]
    for row in out:
        print(f"{row['op']:>24} n={row['n']:<5} {row['us_per_call']:>10.2f} us", file=sys.stderr)
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="time the calls and write the JSON report here")
    parser.add_argument("--pairs", type=Path, help="a tools/pairs.py --out report to copy in")
    args = parser.parse_args(argv)
    if args.pairs and not args.out:
        parser.error("--pairs needs --out")
    scaling = rows(timed=args.out is not None)
    if not args.out:
        print(f"scaling: every value checked at n = {', '.join(map(str, SIZES))}", file=sys.stderr)
        return
    meta = run.metadata() | {
        "seed": SEED,
        "sizes": list(SIZES),
        "timer": f"best of {REPEATS} round-robin rounds, each a repeat of at least {MIN_REPEAT_S} s per row,"
        " microseconds per call",
    }
    report = {"meta": meta, "scaling": scaling}
    if args.pairs:
        report["pairs"] = json.loads(args.pairs.read_text())
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
