"""Seeded input generators for the four benchmark workloads.

Each generator takes the seed and returns only the inputs czorb will see, so
the same seed gives byte-identical inputs (see `serialize`). The parameters
that set an input's cost (durations, vector lengths, rate counts and sums,
support sizes, lemma42 pairs) take the midpoints of equal-probability
strata, and the few discrete ones (lemma42 tolerances, the prime shared by
invariants weights) cycle over fixed lists; the seed draws everything else
(the values themselves and the order). Every seed thus asks for the same
amount of work in a pass, so the spread between seeds measures the program
and the machine, not the draw.

Inputs that hang or crash the seed program are left out, because a timed run
must finish. `EXCLUDED_INPUTS` lists them; the limits below keep every
generated input well clear of them.
"""

from __future__ import annotations

import json
import math
import random

# Inputs per pass of each workload. A run repeats its pass for its whole
# duration and takes each input's fastest repeat, so fewer distinct inputs
# per pass means more repeats of each, and steadier figures on a shared host.
MIXED_RECORDS = 4000
ORACLE_RECORDS = 120
LIBRARY_CALLS = 120
CLI_CALLS = 40

# Limits that keep generated inputs away from EXCLUDED_INPUTS.
MAX_T = 4 * 10**4
MAX_RATE = 100
MAX_PRIME = 5000

EXCLUDED_INPUTS = (
    {
        "input": "verify scalar-cz with T >= 10**6",
        "why": "the crossing enumeration is linear in T; T = 2*10**6 takes seconds",
    },
    {
        "input": "verify winding with a rate >= 10**20",
        "why": "the sample count is 4*sum(rates)+16, so the kernel never returns",
    },
    {
        "input": "verify winding with a rate of hundreds of digits",
        "why": "float conversion raises an uncaught OverflowError that stops the batch",
    },
    {
        "input": "Brieskorn exponents that are four primes near 10**12",
        "why": "trial-division factorize(l) in compute_l2 does not finish",
    },
)

WORKLOAD_NAMES = ("batch_mixed", "batch_oracles", "library_wide", "cli_oneshot")
# The workloads BENCHMARK.json declares. cli_oneshot still runs from run.py,
# but its time is mostly interpreter start-up, which followed the shared
# host's speed too closely to hold a bound between two sets of runs.
DECLARED_WORKLOADS = ("batch_mixed", "batch_oracles", "library_wide")


def _strata(rng: random.Random, n: int) -> list[float]:
    """The midpoints of the n strata [i/n, (i+1)/n) of [0, 1), shuffled."""
    points = [(i + 0.5) / n for i in range(n)]
    rng.shuffle(points)
    return points


def _paired_strata(n: int) -> list[tuple[float, float]]:
    """n fixed pairs of stratum midpoints: the first coordinates take every
    stratum in order, the second every stratum in the order of a stride
    coprime to n."""
    stride = next(s for s in (7, 11, 13, 17) if math.gcd(s, n) == 1)
    return [((i + 0.5) / n, (i * stride % n + 0.5) / n) for i in range(n)]


def _rates_with_sum(rng: random.Random, count: int, total: int, max_rate: int = MAX_RATE) -> list[int]:
    """count rates in [1, max_rate] that add up to total."""
    rates = [1] * count
    for _ in range(total - count):
        j = rng.randrange(count)
        while rates[j] == max_rate:
            j = rng.randrange(count)
        rates[j] += 1
    return rates


def _log_uniform(u: float, lo: float, hi: float) -> int:
    return max(int(lo), round(lo * (hi / lo) ** u))


def _coprime(rng: random.Random, length: int, hi: int) -> list[int]:
    w = [rng.randint(1, hi) for _ in range(length)]
    g = math.gcd(*w)
    return [x // g for x in w]


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# The first record of a batch workload. Its output line also carries
# argparse and file-open cost, so it gives no latency sample; a fixed cheap
# record there leaves every seed's drawn records all measured.
LEAD_RECORD = {"id": "lead", "kind": "teardrop", "m": 2}


def serialize(inputs) -> bytes:
    """Canonical bytes of a workload's inputs, one per line; raw (malformed)
    lines are kept verbatim. A batch workload's file is exactly these bytes."""
    return "\n".join(x if isinstance(x, str) else _dumps(x) for x in inputs).encode()


# ---------------------------------------------------------------------------
# batch_mixed: every record kind, small inputs, a few deliberately bad lines

# Share of each record class in batch_mixed, in percent, the largest
# scalar-cz duration, the largest winding rate and lemma42 weight there, and
# the lemma42 tolerances cycled over (None: the default).
MIXED_MAX_T = 400
MIXED_MAX_RATE = 20
MIXED_MAX_WEIGHT = 100
MIXED_LEMMA42_TOLS = (None, 1e-6, None, 1e-7, None, 1e-8, None, 1e-9, None, 1e-10)
MIXED_SHARES = {
    "wps": 10,
    "wci": 8,
    "brieskorn": 8,
    "orbit-wps": 14,
    "orbit-brieskorn": 10,
    "teardrop": 10,
    "scalar-cz": 12,
    "winding": 10,
    "lemma42": 14,
    "bad-malformed": 1,
    "bad-non-coprime": 1,
    "bad-support": 1,
    "bad-kind": 1,
}


def _orbit_weights(rng, length, support):
    w = [rng.randint(1, 20) for _ in range(length)]
    if rng.random() < 0.7:
        d = rng.randint(2, 6)
        for j in support:
            w[j] *= d
    g = math.gcd(*w)
    return [x // g for x in w]


def _allow(rng, rec):
    if rng.random() < 0.3:
        rec["allow_extrapolation"] = rng.random() < 0.5
    return rec


def _mixed_record(rng: random.Random, cls: str, rid: str, u: float, v: float, k: int):
    """One record of class cls. u and v are the record's cost strata for the
    oracle classes, and k its index within its class."""
    if cls == "wps":
        return {"id": rid, "kind": "wps", "weights": _coprime(rng, rng.randint(2, 6), 50)}
    if cls == "wci":
        length = rng.randint(5, 8)
        degrees = [rng.randint(1, 30) for _ in range(rng.randint(1, length - 3))]
        return {"id": rid, "kind": "wci", "weights": _coprime(rng, length, 30), "degrees": degrees}
    if cls == "brieskorn":
        exps = [rng.randint(2, 12) for _ in range(rng.randint(4, 6))]
        return {"id": rid, "kind": "brieskorn", "exponents": exps}
    if cls == "orbit-wps":
        length = rng.randint(2, 6)
        support = rng.sample(range(length), rng.randint(1, length))
        rec = {"id": rid, "kind": "orbit-wps", "weights": _orbit_weights(rng, length, support), "support": support}
        return _allow(rng, rec)
    if cls == "orbit-brieskorn":
        exps = [rng.randint(2, 12) for _ in range(rng.randint(4, 6))]
        support = rng.sample(range(len(exps)), rng.randint(2, len(exps)))
        return _allow(rng, {"id": rid, "kind": "orbit-brieskorn", "exponents": exps, "support": support})
    if cls == "teardrop":
        rec = {"id": rid, "kind": "teardrop", "m": rng.randint(2, 30)}
        if rng.random() < 0.5:
            rec["degree"] = rng.randint(0, 15)
        return rec
    if cls == "scalar-cz":
        den = rng.randint(1, 4)
        num = max(1, round(u * MIXED_MAX_T * den))
        form = rng.randrange(3)
        T = f"{num}/{den}" if form == 0 else {"num": num, "den": den} if form == 1 or den > 1 else num
        return {"id": rid, "kind": "verify", "check": "scalar-cz", "T": T}
    if cls == "winding":
        # the cost is the rate count times the sample count, 4*sum+16
        count = 1 + int(u * 6)
        total = max(count, round(count * (1 + v * (MIXED_MAX_RATE - 1))))
        rates = _rates_with_sum(rng, count, total, MIXED_MAX_RATE)
        return {"id": rid, "kind": "verify", "check": "winding", "rates": rates}
    if cls == "lemma42":
        w0, w1 = 1 + int(u * MIXED_MAX_WEIGHT), 1 + int(v * MIXED_MAX_WEIGHT)
        rec = {"id": rid, "kind": "verify", "check": "lemma42", "w0": w0, "w1": w1}
        tol = MIXED_LEMMA42_TOLS[k % len(MIXED_LEMMA42_TOLS)]
        if tol is not None:
            rec["tol"] = tol
        return rec
    if cls == "bad-malformed":
        text = _dumps({"id": rid, "kind": "wps", "weights": _coprime(rng, 4, 50)})
        return text[: rng.randint(1, len(text) - 1)]
    if cls == "bad-non-coprime":
        w = [x * rng.randint(2, 5) for x in _coprime(rng, rng.randint(2, 6), 50)]
        return {"id": rid, "kind": rng.choice(["wps", "orbit-wps"]), "weights": w, "support": [0]}
    if cls == "bad-support":
        w = _coprime(rng, rng.randint(2, 6), 50)
        return {"id": rid, "kind": "orbit-wps", "weights": w, "support": [0, len(w) + rng.randint(0, 3)]}
    if cls == "bad-kind":
        return {"id": rid, "kind": rng.choice(["frobnicate", "WPS", "orbit"]), "weights": [4, 4, 5, 14]}
    raise ValueError(f"unknown record class {cls!r}")


def batch_mixed(seed: int) -> list:
    """The reference batch: LEAD_RECORD, then MIXED_RECORDS small records
    over every kind, 4% bad.

    The oracle records carry the tail, so their cost strata are fixed:
    scalar-cz durations take the stratum midpoints, and winding (rate count,
    mean rate) and lemma42 (w0, w1) take fixed pairs of them, with lemma42
    tolerances cycling over MIXED_LEMMA42_TOLS. The seed places them in the
    batch and draws the rates and everything else."""
    rng = random.Random(f"batch_mixed/{seed}")
    n = MIXED_RECORDS
    classes = [cls for cls, share in MIXED_SHARES.items() for _ in range(n * share // 100)]
    classes += ["wps"] * (n - len(classes))
    rng.shuffle(classes)
    strata = {
        "scalar-cz": iter([(u, 0.0) for u in _strata(rng, classes.count("scalar-cz"))]),
        "winding": iter(_paired_strata(classes.count("winding"))),
        "lemma42": iter(_paired_strata(classes.count("lemma42"))),
    }
    seen = dict.fromkeys(MIXED_SHARES, 0)
    records = [dict(LEAD_RECORD)]
    for i, cls in enumerate(classes):
        u, v = next(strata[cls]) if cls in strata else (0.0, 0.0)
        records.append(_mixed_record(rng, cls, f"r{i}", u, v, seen[cls]))
        seen[cls] += 1
    return records


# ---------------------------------------------------------------------------
# batch_oracles: verify records only, sized so the oracles dominate

LEMMA42_TOLS = (None, 1e-6, None, 1e-8, None, 1e-10)


def batch_oracles(seed: int) -> list:
    """LEAD_RECORD, then ORACLE_RECORDS verify records, a third for each
    oracle: scalar-cz, winding and lemma42.

    A lemma42 record's cost and verdict depend on the pair (w0, w1) and on
    tol, with no single size to stratify by. So the pairs are fixed
    (`_paired_strata`), and tol cycles over LEMMA42_TOLS. The seed sets where
    they fall in the batch."""
    rng = random.Random(f"batch_oracles/{seed}")
    third = ORACLE_RECORDS // 3
    records = []
    for u in _strata(rng, third):
        T = math.exp(u * math.log(MAX_T))
        den = rng.randint(1, 4)
        records.append({"kind": "verify", "check": "scalar-cz", "T": f"{max(1, round(T * den))}/{den}"})
    for u in _strata(rng, third):
        count = 4 + int(u * 21)
        rates = _rates_with_sum(rng, count, count * (MAX_RATE + 1) // 2)
        records.append({"kind": "verify", "check": "winding", "rates": rates})
    quads = ORACLE_RECORDS - 2 * third
    for i, (u0, u1) in enumerate(_paired_strata(quads)):
        rec = {"kind": "verify", "check": "lemma42", "w0": _log_uniform(u0, 1, 1e12), "w1": _log_uniform(u1, 1, 1e12)}
        tol = LEMMA42_TOLS[i % len(LEMMA42_TOLS)]
        if tol is not None:
            rec["tol"] = tol
        records.append(rec)
    rng.shuffle(records)
    for i, rec in enumerate(records):
        rec["id"] = f"o{i}"
    return [dict(LEAD_RECORD)] + records


# ---------------------------------------------------------------------------
# library_wide: direct library calls on long inputs


def _primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit + 1) if sieve[p]]


# The prime shared by all weights but one in successive invariants calls;
# None for unrelated weights. Sharing one makes a call up to twice as slow,
# so each length stratum gets a fixed one rather than a drawn one.
SHARED_PRIMES = (None, 2, None, 3, None, 5, None, 7)


def _invariants_op(rng, u, p):
    w = [rng.randint(1, 10**4) for _ in range(_log_uniform(u, 10, 2000))]
    if p is not None:
        # every entry but one shares the prime p, so d_j0 = p and a_w > 1
        j0 = rng.randrange(len(w))
        w = [x if j == j0 else x * p for j, x in enumerate(w)]
        while w[j0] % p == 0:
            w[j0] += 1
    g = math.gcd(*w)
    return {"op": "invariants", "weights": [x // g for x in w]}


def _brieskorn_op(rng, u, primes):
    count = 4 + int(u * 37)
    exps = [rng.choice(primes) * rng.choice(primes) for _ in range(count)]
    support = sorted(rng.sample(range(count), max(3, count // 2)))
    return {"op": "brieskorn", "exponents": exps, "support": support, "allow_extrapolation": rng.random() < 0.5}


def _orbit_wps_op(rng, u):
    length = _log_uniform(u, 10, 2000)
    d = rng.choice([2, 3, 4, 6])
    support = sorted(rng.sample(range(length), max(2, length // 8)))
    in_support = set(support)
    w = []
    for j in range(length):
        x = rng.randint(1, 10**4)
        if j in in_support:
            x *= d
        elif x % d == 0:
            x += 1  # keep transverse ratios non-integral: the covered branch
        w.append(x)
    w[next(j for j in range(length) if j not in in_support)] = 1  # gcd 1 overall
    return {"op": "orbit_wps", "weights": w, "support": support, "allow_extrapolation": rng.random() < 0.5}


def library_wide(seed: int) -> list:
    """LIBRARY_CALLS library calls: 1/6 invariants, which take most of the
    time, and 5/12 each of the cheaper Brieskorn and orbit-wps calls, which
    set the median."""
    rng = random.Random(f"library_wide/{seed}")
    n = LIBRARY_CALLS
    primes = _primes(MAX_PRIME)
    sixth = n // 6
    brieskorn = (n - sixth) // 2
    ops = [_invariants_op(rng, (k + 0.5) / sixth, SHARED_PRIMES[k % len(SHARED_PRIMES)]) for k in range(sixth)]
    ops += [_brieskorn_op(rng, u, primes) for u in _strata(rng, brieskorn)]
    ops += [_orbit_wps_op(rng, u) for u in _strata(rng, n - sixth - brieskorn)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli_oneshot: fresh-interpreter CLI calls over a fixed rotation of commands

CLI_COMMANDS = ("weights", "cz-principal", "cz-orbit", "teardrop", "verify-scalar-cz")


def _cli_spec(rng, cmd, variant):
    if cmd == "weights":
        return {"cmd": cmd, "weights": _coprime(rng, rng.randint(2, 5), 30)}
    if cmd == "cz-principal":
        space = ("wps", "wci", "brieskorn")[variant % 3]
        if space == "wps":
            return {"cmd": cmd, "wps": _coprime(rng, rng.randint(2, 6), 50)}
        if space == "wci":
            return {"cmd": cmd, "wci": _coprime(rng, rng.randint(5, 7), 30), "degrees": [rng.randint(1, 30)]}
        return {"cmd": cmd, "brieskorn": [rng.randint(2, 12) for _ in range(rng.randint(4, 6))]}
    if cmd == "cz-orbit":
        if variant % 2:
            exps = [rng.randint(2, 12) for _ in range(rng.randint(4, 6))]
            support = sorted(rng.sample(range(len(exps)), len(exps) - 1))
            return {"cmd": cmd, "brieskorn": exps, "support": support, "allow_extrapolation": True}
        d = rng.randint(2, 6)
        support_len, transverse = rng.randint(2, 3), rng.randint(1, 3)
        w = [d * rng.randint(1, 10) for _ in range(support_len)] + [1]
        for _ in range(transverse - 1):
            w.append(rng.randint(1, 40) * d + rng.randint(1, d - 1))
        return {"cmd": cmd, "wps": w, "support": list(range(support_len))}
    if cmd == "teardrop":
        spec = {"cmd": cmd, "m": rng.randint(2, 20)}
        if variant % 2:
            spec["degree"] = rng.randint(0, 12)
        return spec
    if cmd == "verify-scalar-cz":
        return {"cmd": cmd, "T": f"{rng.randint(1, 100)}/{rng.randint(1, 4)}"}
    raise ValueError(f"unknown command {cmd!r}")


def cli_oneshot(seed: int) -> list:
    """CLI_CALLS CLI calls rotating over CLI_COMMANDS, alternately with --json."""
    rng = random.Random(f"cli_oneshot/{seed}")
    specs = []
    for i in range(CLI_CALLS):
        spec = _cli_spec(rng, CLI_COMMANDS[i % len(CLI_COMMANDS)], i // len(CLI_COMMANDS))
        spec["json"] = (i // len(CLI_COMMANDS)) % 2 == 0
        specs.append(spec)
    return specs


def cli_argv(spec: dict) -> list[str]:
    """The czorb argv for one cli_oneshot spec."""

    def csv(xs):
        return ",".join(map(str, xs))

    cmd = spec["cmd"]
    if cmd == "weights":
        argv = ["weights", csv(spec["weights"])]
    elif cmd in ("cz-principal", "cz-orbit"):
        argv = ["cz", cmd[3:]]
        for key in ("wps", "wci", "brieskorn", "degrees", "support"):
            if key in spec:
                argv += [f"--{key}", csv(spec[key])]
        if spec.get("allow_extrapolation"):
            argv.append("--allow-extrapolation")
    elif cmd == "teardrop":
        argv = ["teardrop", str(spec["m"])]
        if "degree" in spec:
            argv += ["--degree", str(spec["degree"])]
    else:
        argv = ["verify", "scalar-cz", "--T", spec["T"]]
    return argv + (["--json"] if spec["json"] else [])


GENERATORS = {
    "batch_mixed": batch_mixed,
    "batch_oracles": batch_oracles,
    "library_wide": library_wide,
    "cli_oneshot": cli_oneshot,
}
