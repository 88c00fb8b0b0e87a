"""Seeded op lists for the three workloads, each op with its own check.

An op is one ``cyclores.cli.run(argv)`` call.  Inputs are drawn here,
in the benchmark's process, with ``oracle`` only: the measured
interpreter receives nothing but the argv lists (and, for the verify
requests of ``field_ops``, the record files written next to them).

Each workload is stratified, so that every seed gives a different op
list with the same mix of sizes and outcomes; that keeps the cost of
a batch, and so the reported times, steady across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

import oracle as O

TRIAL_BOUND = 1_000_000  # the CLI's default --trial-bound

# exit codes documented in cyclores/cli.py
OK, BAD_INPUT, VERIFY_FAILED = 0, 1, 2


@dataclass
class Op:
    """One CLI call: argv ("{tmp}" names the run's scratch directory), the
    exit code the CLI contract requires, and a check of its output that
    returns a list of problems (empty when the output is right)."""

    argv: list[str]
    expect_rc: int
    check: Callable[[str, str | None], list[str]]
    out_file: str | None = None
    in_files: dict[str, str] = field(default_factory=dict)


def _json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _strata(items: list, count: int) -> list[list]:
    """Split a sorted list into `count` contiguous, nearly equal chunks."""
    return [items[len(items) * i // count : len(items) * (i + 1) // count] for i in range(count)]


def _stratified(rng: random.Random, items: list, count: int) -> list:
    """`count` draws from a sorted list, draw i uniform over the i-th
    count-quantile of its positions (repeats allowed when count > len)."""
    return [items[int((i + rng.random()) * len(items) / count)] for i in range(count)]


def _sign_name(sign: int) -> str:
    return "plus" if sign == 1 else "minus"


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {str(got)[:120]} want {str(want)[:120]}")


def _no_stdout(stdout: str, _out: str | None) -> list[str]:
    return [] if not stdout else [f"unexpected stdout {stdout[:80]!r}"]


# ----------------------------------------------------------------------
# scan_verify

SCAN_PAIRS = 40
# Shares of scan outcomes, (records, cofactor is prime), over the whole
# draw space: every prime p in [200, 1100], coprime x != y in [1, 12]
# and both signs (24 840 scans), classified with oracle.scan_factors and
# sympy.isprime; a prime cofactor here is one above 63 bits.  DESIGN.md
# has the table.  Outcomes under 0.5 % (0.4 % together) are left out.
SCAN_OUTCOMES = {
    (0, False): 0.4731, (0, True): 0.0121,
    (1, False): 0.3517, (1, True): 0.0090,
    (2, False): 0.1180,
    (3, False): 0.0266,
    (4, False): 0.0052,
}
# A prime cofactor costs the program all 12 of its Miller-Rabin rounds,
# which grow as bits^2.8 (1.7 s at 4000 bits on a 2-core x86 machine
# with CPython 3.11), so one such scan can add a quarter to a batch or
# cost nothing, depending on its size.  The prime-cofactor scans are
# drawn among those whose cofactor has this many bits: the size whose
# cost equals the mean cost of the class.
SCAN_PRIME_BITS = (1600, 1950)


def _allocate(shares: dict, total: int) -> list:
    """`total` outcomes in proportion to `shares` (largest remainder),
    spread evenly over the positions rather than grouped."""
    scale = total / sum(shares.values())
    counts = {k: int(v * scale) for k, v in shares.items()}
    for k in sorted(shares, key=lambda k: counts[k] - shares[k] * scale)[: total - sum(counts.values())]:
        counts[k] += 1
    placed = dict.fromkeys(counts, 0)
    order = []
    for i in range(1, total + 1):
        k = max(counts, key=lambda k: counts[k] * i / total - placed[k])
        placed[k] += 1
        order.append(k)
    return order


def _scan_sizes(count: int) -> list[int]:
    """max(x, y) for each of `count` pairs.  It sets the size of N, and so
    the cost of the scan.  Over the coprime x != y in [1, 12], m is the
    larger one in 2 * phi(m) of the 90 pairs; the sizes are that
    distribution's values at `count` evenly spaced quantiles, in an order
    (stride 17) that spreads every size over the p strata."""
    natural = [m for m in range(2, 13) for a in range(1, m) if gcd(a, m) == 1]
    by_quantile = [natural[int((j + 0.5) * len(natural) / count)] for j in range(count)]
    return [by_quantile[i * 17 % count] for i in range(count)]


def _scan_pair(rng: random.Random, primes: list[int], size: int, records: int,
               prime_cofactor: bool):
    """A uniform draw among the scans of the given outcome.  A composite-
    cofactor scan takes p from `primes` (one stratum) and max(x, y) =
    `size`, or the nearest size with such a scan.  The rare prime-
    cofactor scan takes p from the whole range, within SCAN_PRIME_BITS."""
    if prime_cofactor:
        primes = O.primes_between(200, 1100)
        for _ in range(20000):
            p = rng.choice(primes)
            x, y, sign = rng.randint(1, 12), rng.randint(1, 12), rng.choice((1, -1))
            if gcd(x, y) != 1 or x == y:
                continue
            n, qs, cofactor = O.scan_factors(p, x, y, sign, TRIAL_BOUND)
            if (len(qs) == records and cofactor is not None
                    and SCAN_PRIME_BITS[0] <= cofactor.bit_length() <= SCAN_PRIME_BITS[1]
                    and O.isprime(cofactor)):
                return p, x, y, sign, n, qs, cofactor
        raise RuntimeError(f"no scan with {records} records and a prime cofactor")
    for m in sorted(range(2, 13), key=lambda m: (abs(m - size), m)):
        draws = [(p, x, y, sign) for p in primes for a in range(1, m) if gcd(a, m) == 1
                 for x, y in ((a, m), (m, a)) for sign in (1, -1)]
        rng.shuffle(draws)
        for p, x, y, sign in draws:
            n, qs, cofactor = O.scan_factors(p, x, y, sign, TRIAL_BOUND)
            if len(qs) == records and cofactor is not None and not O.isprime(cofactor):
                return p, x, y, sign, n, qs, cofactor
    raise RuntimeError(f"no scan with {records} records among {primes}")


def _check_scan(p, x, y, sign, n, qs, cofactor):
    def check(stdout: str, out: str | None) -> list[str]:
        problems = _no_stdout(stdout, out)
        lines = _json_lines(out or "")
        records = [line for line in lines if not line.get("partial")]
        partial = [line for line in lines if line.get("partial")]
        _expect(problems, "record primes", [r.get("q") for r in records], qs)
        for rec in records:
            if rec.get("q") in qs:
                _expect(problems, f"record q={rec['q']}", rec, O.scan_record(p, x, y, sign, n, rec["q"]))
        want_partial = [] if cofactor is None else [{
            "partial": True, "p": p, "x": x, "y": y, "sign": _sign_name(sign),
            "unfactored_cofactor": str(cofactor)}]
        _expect(problems, "partial line", partial, want_partial)
        # N = p^v * prod q^e * cofactor
        rem = n
        for r in [p] + qs:
            while rem % r == 0:
                rem //= r
        _expect(problems, "cofactor after the recorded primes", rem, cofactor or 1)
        return problems

    return check


def _check_verify(p, x, y, sign, qs, cofactor):
    def check(stdout: str, _out: str | None) -> list[str]:
        problems: list[str] = []
        want = []
        for q in qs:
            ideal = O.DegreeOne(p, q, O.scan_root(p, x, y, sign, q))
            table = O.scan_symbols(p, x, y, sign, ideal)
            fam = [ideal.sym(1 - sign * ideal.pw[j]) for j in range(1, p)]
            elems = [table[f"x+zeta^{k}*y"] for k in range(1, p - 1)]
            want.append({
                "q": q, "x": x, "y": y, "sign": _sign_name(sign),
                "congruences_ok": True, "congruence_failures": [],
                "symbol_identities_ok": True, "symbol_identity_failures": [],
                "skipped": [],
                "specialization_triggered": table["x+y"] == 0 and table["zeta"] == 0,
                "zeta_consistency_ok": True,
                "p2_divides_q_minus_1": (q - 1) % (p * p) == 0,
                "display_holds": (all(e == ideal.sym(p) for e in fam) if sign == 1
                                  else not any(fam)),
                "conjugate_symmetric": all(elems[k - 1] == elems[p - k - 1] for k in range(2, p - 1)),
            })
        if cofactor is not None:
            want.append({"skipped_partial": True, "unfactored_cofactor": str(cofactor)})
        want.append({"records": len(qs), "failures": 0})
        _expect(problems, "verify report", _json_lines(stdout), want)
        return problems

    return check


def scan_verify(rng: random.Random) -> list[Op]:
    strata = _strata(O.primes_between(200, 1100), SCAN_PAIRS)
    outcomes = _allocate(SCAN_OUTCOMES, SCAN_PAIRS)
    ops = []
    for i, size in enumerate(_scan_sizes(SCAN_PAIRS)):
        records, prime_cofactor = outcomes[i]
        p, x, y, sign, n, qs, cofactor = _scan_pair(rng, strata[i], size, records, prime_cofactor)
        name = f"scan{i}.jsonl"
        ops.append(Op(
            ["scan", "--p", str(p), "--x", str(x), "--y", str(y), "--sign", _sign_name(sign),
             "--out", "{tmp}/" + name],
            OK, _check_scan(p, x, y, sign, n, qs, cofactor), out_file=name))
        ops.append(Op(["verify", "--in", "{tmp}/" + name], OK,
                      _check_verify(p, x, y, sign, qs, cofactor)))
    pairs = [ops[i : i + 2] for i in range(0, len(ops), 2)]
    rng.shuffle(pairs)
    return [op for pair in pairs for op in pair]


# ----------------------------------------------------------------------
# regularity

REGULARITY_P = (37, 460)
REGULARITY_PRIMES = 12
# h^- costs ~p^2.5, so primes sit near geometrically spaced targets and
# are drawn within a few percent of them: each seed changes the primes
# but keeps every op near the same place in the latency distribution
REGULARITY_WINDOW = 0.04


def _check_irregular(p):
    def check(stdout: str, _out) -> list[str]:
        problems: list[str] = []
        _expect(problems, "irregular", _json_lines(stdout),
                [{"p": p, "irregular_pairs": list(O.irregular_ks(p))}])
        return problems

    return check


def _check_hminus(p):
    def check(stdout: str, _out) -> list[str]:
        problems: list[str] = []
        lines = _json_lines(stdout)
        if len(lines) != 1 or lines[0].get("p") != p:
            return [f"hminus output {stdout[:80]!r}"]
        h = int(lines[0]["h_minus"])
        if p in O.H_MINUS_A000927:
            _expect(problems, "h^- against A000927", h, O.H_MINUS_A000927[p])
        for ell in O.check_primes_for(p):
            _expect(problems, f"h^- mod {ell}", h % ell, O.h_minus_mod(p, ell))
        # Kummer: p divides h^- exactly when p is irregular
        _expect(problems, "p | h^-", h % p == 0, bool(O.irregular_ks(p)))
        return problems

    return check


def _check_vandiver(p, k):
    def check(stdout: str, _out) -> list[str]:
        lines = _json_lines(stdout)
        if len(lines) != 1:
            return [f"vandiver output {stdout[:80]!r}"]
        got = lines[0]
        wit = got.get("witness")
        if wit is None:
            return [f"no witness for ({p}, {k})"]
        problems: list[str] = []
        q, w = wit["q"], int(wit["w"])
        _expect(problems, "header", {key: got.get(key) for key in ("p", "k", "candidates", "result")},
                {"p": p, "k": k, "candidates": 10, "result": "not-a-pth-power"})
        # the witness is the first (q, w) in search order with a nonzero symbol
        for cand in O.vandiver_candidates(p, 10):
            for root in O.roots_of_unity(p, cand):
                e = O.eigencomponent_symbol(p, k, O.DegreeOne(p, cand, root))
                if (cand, root) == (q, w):
                    _expect(problems, "witness symbol", wit["e"], e)
                    return problems
                if e:
                    return problems + [f"({cand}, {root}) has e={e} before the witness"]
        return problems + [f"witness ({q}, {w}) is not a candidate root"]

    return check


def regularity(rng: random.Random) -> list[Op]:
    lo, hi = REGULARITY_P
    primes = O.primes_between(lo, hi)
    ops = []
    # largest p first: its `irregular` fills the Bernoulli memo, so later
    # ones are lookups whose cost does not depend on the gap between primes
    for i in reversed(range(REGULARITY_PRIMES)):
        target = lo * (hi / lo) ** (i / (REGULARITY_PRIMES - 1))
        window = [r for r in primes if abs(r - target) <= REGULARITY_WINDOW * target]
        # two primes in five are irregular where the window allows (about
        # the natural share)
        want_irregular = i % 5 in (1, 3)
        pool = ([r for r in window if bool(O.irregular_ks(r)) == want_irregular] or window
                or [min(primes, key=lambda r: abs(r - target))])
        p = rng.choice(pool)
        ops.append(Op(["irregular", "--p", str(p)], OK, _check_irregular(p)))
        ops.append(Op(["hminus", "--p", str(p)], OK, _check_hminus(p)))
        for k in O.irregular_ks(p):
            ops.append(Op(["vandiver", "--p", str(p), "--k", str(k)], OK, _check_vandiver(p, k)))
    return ops


# ----------------------------------------------------------------------
# field_ops

FIELD_P = (50, 200)
UNITS_P = (50, 70)  # units costs ~p^3.4: 0.07 s at p=53, 5.7 s at p=199
SPLITF_P = (101, 160)
SPLITF_Q = (1 << 15, 1 << 16)  # the cost of a split at f > 1 grows with log q
SPLITF_DEGREES = (2, 3, 2, 4)
# The 10 splits at f > 1 (0.3-1.5 s each at SPLITF_P) are the 10 ops
# above the tail percentile, so the tail is the costliest units op: one
# per prime in UNITS_P, so that is units --p 67 (about 0.1 s), 1.4 times
# the next one.
FIELD_MIX = {"split1": 60, "splitf": 10, "symbol": 60, "units": 4, "telescope": 25, "barlow": 25}


def _prime_one_mod(rng: random.Random, p: int, bits: int = 20) -> int:
    while True:
        q = 2 * p * rng.randrange(1, (1 << bits) // (2 * p)) + 1
        if O.isprime(q):
            return q


def _check_split(p, q, f):
    def check(stdout: str, _out) -> list[str]:
        lines = _json_lines(stdout)
        if len(lines) != 1:
            return [f"split output {stdout[:80]!r}"]
        got = lines[0]
        problems: list[str] = []
        _expect(problems, "header", (got.get("p"), got.get("q"), got.get("f")), (p, q, f))
        ideals = got.get("ideals", [])
        _expect(problems, "ideal count", len(ideals), (p - 1) // f)
        phi = [1] * p
        moduli = [tuple(int(c) for c in ideal["modulus"]) for ideal in ideals]
        ws = [tuple(int(c) for c in ideal["w"].split(",")) for ideal in ideals]
        _expect(problems, "distinct moduli", len(set(moduli)), len(moduli))
        _expect(problems, "w order", ws, sorted(ws))
        m0 = min(moduli) if moduli else ()
        for ideal, mod, w in zip(ideals, moduli, ws):
            _expect(problems, "ideal q, f", (ideal["q"], ideal["f"]), (q, f))
            if len(mod) != f + 1 or mod[-1] != 1 or any(O.poly_rem(phi, list(mod), q)):
                problems.append(f"modulus {mod} is not a monic degree-{f} factor of Phi_{p}")
                continue
            if f == 1:
                _expect(problems, "f=1 ideal", (mod, "field_modulus" in ideal), (((q - w[0]) % q, 1), False))
                continue
            _expect(problems, "field modulus", tuple(int(c) for c in ideal["field_modulus"]), m0)
            if any(O.field_eval(mod, w, list(m0), q)):
                problems.append(f"w={w} is not a root of its modulus")
            orbit = [w]
            for _ in range(f - 1):
                orbit.append(O.field_pow(orbit[-1], q, list(m0), q))
            _expect(problems, "w is the least of its Frobenius orbit", w, min(orbit))
        return problems

    return check


def _check_symbol(p, q, w, alpha):
    def check(stdout: str, _out) -> list[str]:
        problems: list[str] = []
        ideal = O.DegreeOne(p, q, w)
        e = ideal.sym(ideal.at(alpha))
        _expect(problems, "symbol", _json_lines(stdout),
                [{"alpha": [str(c) for c in alpha], "q": q, "w": str(w), "e": e}])
        return problems

    return check


def _check_units(p):
    def check(stdout: str, _out) -> list[str]:
        lines = _json_lines(stdout)
        if len(lines) != 1:
            return [f"units output {stdout[:80]!r}"]
        got = lines[0]
        problems: list[str] = []
        _expect(problems, "checks", got.get("checks"), {
            "minus_antisymmetry": True, "plus_symmetry": True, "norms_unit": True,
            "product_identity": True, "inverse_check": True})
        keys = [str(a) for a in range(1, p)]
        minus, plus = got.get("minus", {}), got.get("plus", {})
        _expect(problems, "table keys", (list(minus), list(plus)), (keys, keys))
        for a in range(1, p):
            m = [int(c) for c in minus.get(str(a), [])]
            _expect(problems, f"unit_minus({a})", m, O.unit_minus_coeffs(p, a))
            u = [int(c) for c in plus.get(str(a), [])]
            if len(u) != p - 1 or O.times_one_plus_zeta(u, p) != O.unit_plus_numerator(p, a):
                problems.append(f"unit_plus({a}) * (1 + zeta) is not zeta^shift (1 + zeta^a)")
        return problems

    return check


def _check_telescope(pmax):
    def check(stdout: str, _out) -> list[str]:
        problems: list[str] = []
        _expect(problems, "telescope", _json_lines(stdout),
                [{"match": True, "pmax": pmax, "primes_checked": O.primes_between(5, pmax)}])
        return problems

    return check


def _check_barlow(p, x, y, z):
    def check(stdout: str, _out) -> list[str]:
        lines = _json_lines(stdout)
        if len(lines) != 1:
            return [f"barlow output {stdout[:80]!r}"]
        got = lines[0]
        problems: list[str] = []
        _expect(problems, "header", [got.get(key) for key in "pxyz"], [p, x, y, z])
        checks = got.get("checks", [])
        _expect(problems, "holds", [c.get("holds") for c in checks], O.barlow_holds(p, x, y, z))
        if checks:
            _expect(problems, "sum detail", checks[-1].get("detail"), f"sum = {x**p + y**p + z**p}")
        return problems

    return check


def _check_tampered_verify(k):
    def check(stdout: str, _out) -> list[str]:
        lines = _json_lines(stdout)
        problems: list[str] = []
        if len(lines) != 2:
            return [f"verify output {stdout[:80]!r}"]
        _expect(problems, "tampered symbol flagged",
                (lines[0].get("symbol_identities_ok"), lines[0].get("symbol_identity_failures")),
                (False, [k]))
        _expect(problems, "summary", lines[1], {"records": 1, "failures": 1})
        return problems

    return check


def _record_line(rng: random.Random, p: int) -> dict:
    """A genuine scan record at p, built by the oracle: some coprime (x, y)
    whose quotient has a prime factor below 10^5."""
    while True:
        x, y = rng.randint(1, 12), rng.randint(1, 12)
        sign = rng.choice((1, -1))
        if gcd(x, y) != 1 or x == y:
            continue
        n, qs, _ = O.scan_factors(p, x, y, sign, 100_000)
        if qs:
            return O.scan_record(p, x, y, sign, n, qs[0])


def _out_of_contract(rng: random.Random, primes: list[int], split_pair) -> list[Op]:
    """One of each out-of-contract request, with the exit code cli.py's
    docstring requires (1 bad input, 2 verification failure).  The
    bad-modulus symbol reuses the (p, q) of a split at f > 1, so one of
    the two finds that split in split_prime's cache."""
    ops = []
    p = rng.choice(primes)
    ops.append(Op(["split", "--p", str(p), "--q", str(p)], BAD_INPUT, _no_stdout))

    p, q = split_pair
    alpha = [rng.randint(-9, 9) for _ in range(p - 1)]
    ops.append(Op(["symbol", "--p", str(p), "--q", str(q), "--modulus", "1,0,1",
                   "--alpha", json.dumps(alpha)], BAD_INPUT, _no_stdout))

    p = rng.choice(primes)
    ops.append(Op(["scan", "--p", str(p), "--x", "3", "--y", "2", "--sign", "plus",
                   "--trial-bound", str(1 << 41)], BAD_INPUT, _no_stdout))

    rec = _record_line(rng, rng.choice(primes))
    k = rng.randint(1, rec["p"] - 2)
    label = f"x+zeta^{k}*y"
    rec["symbols"][label] = (rec["symbols"][label] + 1) % rec["p"]
    ops.append(Op(["verify", "--in", "{tmp}/tampered_symbol.jsonl"], VERIFY_FAILED,
                  _check_tampered_verify(k), in_files={"tampered_symbol.jsonl": json.dumps(rec) + "\n"}))

    ops.append(Op(["verify", "--in", "{tmp}/no_such_file.jsonl"], BAD_INPUT, _no_stdout))

    rec = _record_line(rng, rng.choice(primes))
    q = rec["q"]
    while rec["q"] == q:
        rec["q"] = _prime_one_mod(rng, rec["p"])
    ops.append(Op(["verify", "--in", "{tmp}/edited_q.jsonl"], BAD_INPUT, _no_stdout,
                  in_files={"edited_q.jsonl": json.dumps(rec) + "\n"}))
    return ops


def field_ops(rng: random.Random) -> list[Op]:
    primes = O.primes_between(*FIELD_P)
    ops = []
    split_pairs = []
    for p in _stratified(rng, primes, FIELD_MIX["split1"]):
        q = _prime_one_mod(rng, p)
        ops.append(Op(["split", "--p", str(p), "--q", str(q)], OK, _check_split(p, q, 1)))
    for i, stratum in enumerate(_strata(O.primes_between(*SPLITF_P), FIELD_MIX["splitf"])):
        f = SPLITF_DEGREES[i % len(SPLITF_DEGREES)]
        p = rng.choice([r for r in stratum if (r - 1) % f == 0] or stratum)
        f = f if (p - 1) % f == 0 else 2
        q = rng.choice([r for r in O.primes_between(*SPLITF_Q) if O.order_mod(r, p) == f])
        ops.append(Op(["split", "--p", str(p), "--q", str(q)], OK, _check_split(p, q, f)))
        split_pairs.append((p, q))
    for p in _stratified(rng, primes, FIELD_MIX["symbol"]):
        q = _prime_one_mod(rng, p)
        w = rng.choice(O.roots_of_unity(p, q))
        while True:
            alpha = [rng.randint(-10**6, 10**6) for _ in range(p - 1)]
            if O.DegreeOne(p, q, w).at(alpha):
                break
        ops.append(Op(["symbol", "--p", str(p), "--q", str(q), "--w", str(w),
                       "--alpha", json.dumps(alpha)], OK, _check_symbol(p, q, w, alpha)))
    for p in _stratified(rng, O.primes_between(*UNITS_P), FIELD_MIX["units"]):
        ops.append(Op(["units", "--p", str(p)], OK, _check_units(p)))
    for _ in range(FIELD_MIX["telescope"]):
        pmax = rng.randint(*FIELD_P)
        ops.append(Op(["telescope", "--pmax", str(pmax)], OK, _check_telescope(pmax)))
    for _ in range(FIELD_MIX["barlow"]):
        p = rng.choice(primes)
        x, y, z = (rng.choice([-1, 1]) * rng.randint(1, 50) for _ in range(3))
        ops.append(Op(["barlow", "--p", str(p), "--x", str(x), "--y", str(y), "--z", str(z)],
                      OK, _check_barlow(p, x, y, z)))
    ops += _out_of_contract(rng, primes, rng.choice(split_pairs))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"scan_verify": scan_verify, "regularity": regularity, "field_ops": field_ops}
