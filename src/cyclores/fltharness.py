"""Scan-and-verify harness for primes dividing (x^p +- y^p)/(x +- y).

``scan`` factors N = (x^p + s*y^p)/(x + s*y) (s = +1 or -1), by trial
division over the candidates q = 1 (mod 2p) that a small-prime sieve
leaves, locates for each prime factor q the distinguished degree-1
ideal dividing x*zeta + s*y, and records a full residue-symbol table,
labelled, in this order,

    "zeta"           symbol exponent of zeta
    "x+y"            symbol of the rational integer x + y
    "x+zeta^K*y"     symbol of x + zeta^K y, K = 1..p-2
    "unit_minus[J]"  (plus scans)  symbol of the minus-family unit, J = K+1
    "unit_plus[J]"   (minus scans) symbol of the plus-family unit, J = K+1

the last two alternating, K = 1 first.  Every entry is an exponent in
[0, p).  The labels of one (p, s) are made once (``_labels``), and the
record builder, the reader and the checks share them.

A scan writes JSON lines of two kinds, and ``line_from_json`` reads both
back: one record per located q (``record_to_json``), then, when a
cofactor is left unfactored, one partial line (``partial_to_json``)
holding ``"partial": true``, p, x, y, the sign and the cofactor.  The
reader recomputes N from p, x, y and the sign (``_quotient``, once per
scan): a record's "N" must be it, and a partial line's cofactor must
divide it.

``verify_lines`` writes the lines ``verify`` prints for them.  A
record's line holds its "q", "x", "y" and "sign", then:

* "congruences_ok" and "congruence_failures", the k = 1..p-2 at which
  x + zeta^k y = x (1 -+ zeta^(k+1)) fails mod the ideal (sign - on
  plus scans, + on minus scans);
* "symbol_identities_ok" and "symbol_identity_failures", the k at which
  the symbol identity, in the form valid for arbitrary coprime inputs,

      sym(x + zeta^k y) = sym(x+y) + k*(1/2)*sym(zeta) + sym(unit_{k+1}),

  fails; "specialization_triggered" says it is the "dropped terms" form
  sym(x + zeta^k y) = sym(unit_{k+1}), as the entries "x+y" and "zeta"
  are both 0;
* "skipped", always [];
* "zeta_consistency_ok", whether the entry "zeta" is 0 iff p^2 | q-1
  ("p2_divides_q_minus_1"), as in Furtwangler's first theorem; both
  are decided here, from the record's q and its table, with no symbol
  recomputed;
* "display_holds" and "conjugate_symmetric", two relations reported,
  never asserted: the bools of ``furtwangler_report`` and
  ``conjugate_symmetry_report``.

A record fails when a congruence, a symbol identity or the zeta
consistency fails.  Each partial line gives {"skipped_partial": true,
"unfactored_cofactor"}, and the last line is {"records", "failures"}.
"congruences_ok" cannot be false on a record ``record_from_json``
accepted: the sides of the k-th congruence differ by s w^k (x w + s y),
and parsing already requires x w + s y = 0 mod q.

``telescope_replay`` replays the telescoping symbol recurrences for both
unit families symbolically over Z/p and returns whether they meet their
closed forms.  ``barlow_abel_check`` evaluates the classical Barlow-Abel
relation formats exactly on arbitrary (synthetic) inputs and returns one
``BarlowCheck`` per format.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from operator import itemgetter
from typing import NamedTuple

from .cycint import (
    FieldCtx,
    Frozen,
    InternalError,
    check_p,
    cyc_int,
    cyc_new,
    field_ctx,
    int_from_json,
    int_to_decimal,
    int_to_json,
)
from .cycunits import unit_minus, unit_plus
from .ntheory import is_prime, kth_root_exact, primes_upto, valuation
from .powsym import residue_symbol, symbol, zeta_symbol
from .resfield import (
    PrimeIdealRep,
    ideal_dividing,
    ideal_from_root,
    ideal_to_json,
)

__all__ = [
    "PLUS",
    "MINUS",
    "POWER_BITS_MAX",
    "TRIAL_WORK_MAX",
    "ScanRecord",
    "ScanResult",
    "BarlowCheck",
    "scan",
    "verify_congruences",
    "verify_symbol_identities",
    "conjugate_symmetry_report",
    "telescope_replay",
    "barlow_abel_check",
    "furtwangler_report",
    "record_to_json",
    "record_from_json",
    "partial_to_json",
    "line_from_json",
    "verify_lines",
]

PLUS = 1
MINUS = -1

_SIGN_NAME = {PLUS: "plus", MINUS: "minus"}
_SIGN_VALUE = {"plus": PLUS, "minus": MINUS}

#: Exclusive ceiling on p times the bases' largest bit length: the size of
#: the x^p that ``scan`` and ``barlow_abel_check`` take and write in decimal
#: (quadratic: 1M bits 1.0 s, 4M bits 16 s).  On a 2-core x86-64 machine
#: (CPython 3.11), near it: barlow at p = 5 0.11 s; scan at p = 5 with
#: trial bound 20 0.02 s.  Past it: scan at p = 1009, x = 10^1000 11 s;
#: barlow at p = 1048573, x = 3 8.4 s, at p = 65537, x = 10^30 28 s.
POWER_BITS_MAX = 1 << 18

#: Exclusive ceiling on the work of ``scan``'s trial division: reach/(2p)
#: steps, reach = min(trial_bound, 2^(p bits/2 + 1)) (the loop stops at
#: sqrt(N) too), each dividing an N of about p * bits bits, plus 512 for
#: a step's own overhead; a divisor past 2^30 costs about 3 times more.
#: The sieve leaves about a quarter of the steps to divide; the ceiling
#: is set by running time with the sieve in place (2-core x86-64, CPython
#: 3.11).  At 0.9 of it: p = 5, x = 8388647 (N unfactored) 3.2 s; p = 101,
#: a 64-bit x 2.1 s; p = 1009, x = 3 4.7 s.  Below it, p = 5 with a
#: 52 428-bit x (the most POWER_BITS_MAX allows), trial bound 10^6, is
#: 0.76 of it: 1.8 s.  Past it: p = 1009, x = 3 at 1.8 of it 10 s, at
#: trial bound 2^40 about 3.5 min.  The default bound 10^6 passes it at
#: every p, with any x that POWER_BITS_MAX admits.
TRIAL_WORK_MAX = 1 << 35


def _check_power_size(p: int, *bases: int) -> None:
    # the message names sizes, not the bases, which may have any length
    bits = max(b.bit_length() for b in bases)
    if p * bits >= POWER_BITS_MAX:
        raise ValueError(f"p={p} with {bits}-bit bases: p * bits is past POWER_BITS_MAX")


@lru_cache(maxsize=16)
def _quotient(p: int, x: int, y: int, sign: int) -> int:
    """N = (x^p + sign*y^p)/(x + sign*y) for nonzero coprime x, y with
    x + sign*y != 0, once per (p, x, y, sign) for a scan and its lines.
    The power's size is checked first, before any gcd or power."""
    _check_power_size(p, x, y)
    if x == 0 or y == 0:
        raise ValueError("x and y must be nonzero")
    if gcd(x, y) != 1:
        raise ValueError("x and y must be coprime")
    if x + sign * y == 0:
        raise ValueError("x + sign*y = 0: quotient undefined")
    return (x**p + sign * y**p) // (x + sign * y)


def _check_trial_work(p: int, trial_bound: int, bits: int) -> None:
    reach = min(trial_bound, 1 << (p * bits // 2 + 1))
    if reach // (2 * p) * (p * bits + 512) >= TRIAL_WORK_MAX:
        raise ValueError(f"p={p} with {bits}-bit bases: the trial division work is past "
                         "TRIAL_WORK_MAX; take a lower trial bound")


class ScanRecord(NamedTuple):
    """One prime q dividing (x^p + s y^p)/(x + s y), with its symbol table."""

    p: int
    x: int
    y: int
    sign: int
    n: int
    q: int
    ideal: PrimeIdealRep
    q_mod_p2: int
    symbols: dict[str, int]


class ScanResult(Frozen):
    """Scan output: records in increasing q, plus any unfactored leftover.

    ``unfactored_cofactor`` is None when the factorization completed; a
    composite (or 64-bit-oversized prime) leftover is surfaced here
    rather than silently dropped.
    """

    __slots__ = _fields = ("records", "unfactored_cofactor")
    records: tuple[ScanRecord, ...]
    unfactored_cofactor: int | None

    def __init__(self, records: tuple[ScanRecord, ...], unfactored_cofactor: int | None = None):
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "unfactored_cofactor", unfactored_cofactor)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]


#: ``_trial_factors`` strikes every candidate with one of these odd prime
#: factors before it divides.  It sieves _SIEVE_BLOCK candidates at a
#: time, so that its memory does not grow with the trial bound.
_SIEVE_PRIMES = primes_upto(127)[1:]
_SIEVE_BLOCK = 1 << 15


def _trial_factors(p: int, n: int, trial_bound: int) -> tuple[list[int], int]:
    """Distinct primes q = 1 mod p with q <= trial_bound dividing n, and the
    remaining cofactor.  Relies on gcd(x, y) = 1: the scanned quotient is
    odd and every prime factor of it other than p itself is = 1 mod p,
    hence = 1 mod 2p.  A composite candidate d of that progression never
    divides what is left: its prime factors would divide n, so each would
    be a smaller candidate, divided out already.  A sieve therefore
    strikes every candidate with an odd prime factor below 128 other than
    itself, and only the survivors divide, up to the bound and the square
    root of what is left."""
    found: list[int] = []
    rem = n
    step = 2 * p
    count = (min(trial_bound, isqrt(n)) - 1) // step  # candidates 1 + step*i, i = 1..count
    strikes = []  # (r, the first i with r | 1 + step*i, past r itself)
    for r in _SIEVE_PRIMES:
        if r != p:  # p divides no candidate
            i = -pow(step, -1, r) % r
            strikes.append((r, i + r if 1 + step * i == r else i))
    for lo in range(1, count + 1, _SIEVE_BLOCK):
        size = min(_SIEVE_BLOCK, count + 1 - lo)
        keep = bytearray(b"\x01") * size
        for r, i in strikes:
            start = max(i, lo + (i - lo) % r) - lo
            keep[start::r] = bytes(len(range(start, size, r)))
        for d in compress(range(1 + step * lo, 1 + step * (lo + size), step), keep):
            if d * d > rem:
                return found, rem
            if rem % d == 0:
                found.append(d)
                while rem % d == 0:
                    rem //= d
    return found, rem


def scan(ctx: FieldCtx, x: int, y: int, sign: int, trial_bound: int) -> ScanResult:
    """Factor (x^p + sign*y^p)/(x + sign*y) and record every located prime.

    Trial division runs over q = 1 (mod p) up to trial_bound (all other
    prime factors besides p itself are impossible for coprime x, y).  A
    remaining cofactor of at most 63 bits gets a primality test and is
    recorded as a final prime hit if prime; any other cofactor is
    reported unfactored without a test.  Every hit is checked to
    satisfy q = 1 (mod p) and to own a degree-1 ideal dividing
    x*zeta + sign*y.
    """
    p = ctx.p
    if sign not in (PLUS, MINUS):
        raise ValueError("sign must be +1 or -1")
    if not 2 <= trial_bound <= 1 << 40:
        raise ValueError("trial_bound must be in [2, 2^40]")
    n_value = _quotient(p, x, y, sign)
    _check_trial_work(p, trial_bound, max(x.bit_length(), y.bit_length()))
    if n_value == 1:
        raise ValueError("nothing to scan: the quotient is 1")
    if n_value <= 0:
        raise InternalError("the scanned quotient must be positive")
    rem = n_value
    while rem % p == 0:  # the only possible factor outside 1 mod p
        rem //= p
    found, cofactor = _trial_factors(p, rem, trial_bound)
    unfactored = None
    if cofactor > 1:
        if cofactor.bit_length() <= 63 and is_prime(cofactor):
            found.append(cofactor)
        else:
            unfactored = cofactor
    found.sort()
    records = tuple(_build_record(ctx, x, y, sign, n_value, q) for q in found)
    return ScanResult(records=records, unfactored_cofactor=unfactored)


@lru_cache(maxsize=16)
def _labels(p: int, sign: int) -> tuple[tuple[str, ...], itemgetter]:
    """A record's symbol labels in table order: "zeta", "x+y", then, for
    k = 1..p-2, the labels of x + zeta^k y and of unit_{k+1}; and the
    getter of a table's entries in that order."""
    unit = "unit_minus" if sign == PLUS else "unit_plus"
    keys = ["zeta", "x+y"]
    for k in range(1, p - 1):
        keys += (f"x+zeta^{k}*y", f"{unit}[{k + 1}]")
    return tuple(keys), itemgetter(*keys)


def _table(rec: ScanRecord) -> tuple[int, ...]:
    """The record's symbol entries in table order."""
    return _labels(rec.p, rec.sign)[1](rec.symbols)


def _build_record(ctx: FieldCtx, x: int, y: int, sign: int, n_value: int, q: int) -> ScanRecord:
    p = ctx.p
    if q % p != 1:
        raise InternalError(f"scan hit q={q} violates q = 1 mod p")
    if (p * x * y * (x + sign * y)) % q == 0:
        raise InternalError(f"scan hit q={q} divides p*x*y*(x+sign*y)")
    ideal = ideal_dividing(ctx, q, x, y, sign)
    if ideal is None:
        raise InternalError(f"no root-of-unity divisor of x*zeta+sign*y above q={q}")
    values = [zeta_symbol(ideal), symbol(cyc_int(ctx, x + y), ideal)]
    for k in range(1, p - 1):
        # x + zeta^k y = x (1 -+ zeta^(k+1)) mod the ideal; neither factor lies in it
        values.append(symbol(cyc_new(ctx, [(0, x), (k, y)]), ideal))
        unit = unit_minus(ctx, k + 1) if sign == PLUS else unit_plus(ctx, k + 1)
        values.append(symbol(unit, ideal))
    symbols = dict(zip(_labels(p, sign)[0], values))
    return ScanRecord(p, x, y, sign, n_value, q, ideal, q % (p * p), symbols)


def verify_congruences(rec: ScanRecord) -> list[int]:
    """The k in 1..p-2 at which x + zeta^k y = x (1 -+ zeta^(k+1)) fails
    mod the record's ideal, in increasing order."""
    q, wpow = rec.q, rec.ideal.w_powers
    return [
        k for k in range(1, rec.p - 1)
        if (rec.x + wpow[k] * rec.y) % q != rec.x * (1 - rec.sign * wpow[k + 1]) % q
    ]


def verify_symbol_identities(rec: ScanRecord) -> list[int]:
    """The k in 1..p-2 at which
    sym(x + zeta^k y) = sym(x+y) + (k/2) sym(zeta) + sym(unit_{k+1})
    fails on the record's table, in increasing order.

    The identity rests on x + zeta^k y = x (1 -+ zeta^(k+1)), which holds
    only at the ideal dividing x*zeta + s*y (s the scan sign); for a
    record built against another ideal a failure is the expected
    answer, not a fault.
    """
    p, table = rec.p, _table(rec)
    base, half_zeta = table[1], rec.ideal.ctx.inv2 * table[0]
    return [
        k for k, elem, unit in zip(range(1, p - 1), table[2::2], table[3::2])
        if elem != (base + k * half_zeta + unit) % p
    ]


def conjugate_symmetry_report(rec: ScanRecord) -> bool:
    """Whether sym(x + zeta^k y) = sym(x + zeta^(p-k) y) for k = 2..p-2.

    Reported, never asserted: the relation holds only under hypotheses
    (class of the ideal in the minus part) that generic scan data does
    not satisfy.
    """
    elems = _table(rec)[2::2]  # k = 1..p-2
    return elems[1:] == elems[:0:-1]


def telescope_replay(ctx: FieldCtx) -> bool:
    """Replay the telescoping symbol recurrences over Z/p; whether both
    chains meet their closed forms and the minus chain collapses.

    Symbols are treated as formal unknowns; only the zeta-exponent (one
    formal unit t) accumulates.  Even chain: from the index-(p-1) unit
    downward, each step k = 2k' contributes -2k', and the exponent of the
    unit with index p-2k'-1 must be -k'(k'+1).  Odd chain: from the
    index-1 unit upward, each step contributes 2k'+1, and the exponent of
    the unit with index p-2k' must be 1/4 - k'^2.  The minus-family
    analogue steps by the index flip unit(p-a) = -unit(a), contributing
    symbol(-1) = 0, so its exponents all collapse.
    """
    p = ctx.p
    half = (p - 3) // 2
    inv4 = ctx.inv2 * ctx.inv2 % p
    even = odd = 0
    for kp in range(1, half + 1):
        even = (even - 2 * kp) % p
        if even != -kp * (kp + 1) % p:
            return False
    for kp in range(half, 0, -1):
        odd = (odd + 2 * kp + 1) % p
        if odd != (inv4 - kp * kp) % p:
            return False
    return _replay_minus_chains(p)


def _replay_minus_chains(p: int) -> bool:
    # exp[p-k-1] = exp[p-k+1] for k = 2..p-2; anchors exp[1] = exp[p-1] = 0
    # (the index flip only contributes symbol(-1) = 0).  Even steps walk
    # down from the index-(p-1) anchor, odd steps up from the index-1 one.
    exp = {1: 0, p - 1: 0}
    for k in range(2, p - 1, 2):
        exp[p - k - 1] = exp[p - k + 1]
    for k in range(p - 2, 2, -2):
        exp[p - k + 1] = exp[p - k - 1]
    return len(exp) == p - 1 and not any(exp.values())


class BarlowCheck(NamedTuple):
    name: str
    holds: bool
    detail: str


def barlow_abel_check(p: int, x: int, y: int, z: int) -> tuple[BarlowCheck, ...]:
    """Evaluate the classical Barlow-Abel relation formats exactly.

    No genuine integer solution of x^p + y^p + z^p = 0 exists, so this
    documents and exercises the relation checkers on synthetic inputs.
    """
    check_p(p)
    if x == 0 or y == 0 or z == 0:
        raise ValueError("x, y, z must be nonzero")
    _check_power_size(p, x, y, z)
    checks = []

    root = kth_root_exact(x + y, p)
    detail = f"x+y = {int_to_decimal(x + y)}"
    if root is not None:
        detail += f" = ({int_to_decimal(root)})^{p}"
    checks.append(BarlowCheck("x+y is a p-th power", root is not None, detail))

    s = x + z
    holds = False
    detail = f"x+z = {int_to_decimal(s)}"
    if s != 0:
        v, rest = valuation(s, p)
        if v >= p - 1 and (v + 1) % p == 0:
            nu = (v + 1) // p
            r = kth_root_exact(rest, p)
            if r is not None:
                holds = True
                detail += f" = {p}^{v} * ({int_to_decimal(r)})^{p}, nu = {nu}"
    checks.append(BarlowCheck(f"x+z = {p}^(nu*p-1) * (p-th power)", holds, detail))

    checks.append(BarlowCheck("p divides y", y % p == 0, f"y = {int_to_decimal(y)}"))

    pairwise = gcd(x, y) == 1 and gcd(y, z) == 1 and gcd(x, z) == 1
    checks.append(BarlowCheck("x, y, z pairwise coprime", pairwise, ""))

    total = x**p + y**p + z**p
    checks.append(
        BarlowCheck("x^p + y^p + z^p = 0", total == 0, f"sum = {int_to_decimal(total)}")
    )
    return tuple(checks)


def furtwangler_report(rec: ScanRecord) -> bool:
    """Whether the record's display holds: on plus scans, whether sym(p)
    equals every sym(1 - zeta^j); on minus scans, whether every
    sym(1 + zeta^j) is trivial (j = 1..p-1).

    Reported, never asserted.  The record's ideal has degree 1, so each
    element's residue is the F_q scalar 1 -+ w^j (or p) and its symbol
    one power map away.  None of them vanishes: w has order p, so w^j is
    neither 1 nor -1.  The family's symbols are computed only until the
    display is decided.
    """
    ideal = rec.ideal
    q = ideal.q
    roots = ideal.w_powers[1:]
    if rec.sign == PLUS:
        p_exp = residue_symbol(ideal, rec.p % q)
        return all(residue_symbol(ideal, (1 - w) % q) == p_exp for w in roots)
    return not any(residue_symbol(ideal, (1 + w) % q) for w in roots)


# ----------------------------------------------------------------------
# scan lines (JSON lines): records, then at most one partial line

def record_to_json(rec: ScanRecord) -> dict:
    return {
        "p": rec.p,
        "x": int_to_json(rec.x),
        "y": int_to_json(rec.y),
        "sign": _SIGN_NAME[rec.sign],
        "N": int_to_decimal(rec.n),
        "q": rec.q,
        "q_mod_p2": rec.q_mod_p2,
        "ideal": ideal_to_json(rec.ideal),
        "symbols": dict(rec.symbols),
    }


def record_from_json(data: dict) -> ScanRecord:
    """Rebuild and re-validate a scan record from its JSON form.

    Every integer field is read by ``int_from_json``, so a null, bool,
    float or non-decimal value is a ValueError.  N must be the quotient
    (x^p + s y^p)/(x + s y) of x, y and the sign, which ``_quotient``
    recomputes under ``POWER_BITS_MAX``.  The redundant fields
    (``q_mod_p2``, the ideal's ``q`` and ``modulus``) must agree with q
    and w, and every symbol entry must be an exponent in [0, p).
    """
    p = int_from_json(data["p"])
    ctx = field_ctx(p)
    x, y = int_from_json(data["x"]), int_from_json(data["y"])
    sign = _SIGN_VALUE[data["sign"]]
    n_value = int_from_json(data["N"])
    if n_value != _quotient(p, x, y, sign):
        raise ValueError("N is not (x^p + s y^p)/(x + s y)")
    q = int_from_json(data["q"])
    ideal_data = data["ideal"]
    if int_from_json(ideal_data["f"]) != 1:
        raise ValueError("scan records always carry degree-1 ideals")
    ideal = ideal_from_root(ctx, q, int_from_json(ideal_data["w"]))
    if q % p != 1:
        raise ValueError("record violates q = 1 mod p")
    if int_from_json(data["q_mod_p2"]) != q % (p * p):
        raise ValueError("q_mod_p2 disagrees with q")
    if int_from_json(ideal_data["q"]) != q:
        raise ValueError("the ideal's q disagrees with the record's q")
    modulus = ideal_data["modulus"]
    if not isinstance(modulus, list) or tuple(map(int_from_json, modulus)) != ideal.modulus:
        raise ValueError("the ideal's modulus disagrees with its root w")
    if n_value % q != 0:
        raise ValueError("recorded q does not divide N")
    if (x * ideal.w + sign * y) % q != 0:
        raise ValueError("recorded ideal does not divide x*zeta + sign*y")
    symbols_raw = data["symbols"]
    symbols: dict[str, int] = {}
    for key in _labels(p, sign)[0]:
        if key not in symbols_raw:
            raise ValueError(f"record is missing symbol entry {key!r}")
        e = symbols_raw[key]
        if type(e) is not int:
            e = int_from_json(e)
        if not 0 <= e < p:
            raise ValueError(f"symbol entry {key!r} = {e} is not in [0, {p})")
        symbols[key] = e
    return ScanRecord(p, x, y, sign, n_value, q, ideal, q % (p * p), symbols)


def partial_to_json(p: int, x: int, y: int, sign: int, cofactor: int) -> dict:
    """The last line of a scan of (p, x, y, sign) that left ``cofactor`` unfactored."""
    return {
        "partial": True,
        "p": p,
        "x": int_to_json(x),
        "y": int_to_json(y),
        "sign": _SIGN_NAME[sign],
        "unfactored_cofactor": int_to_decimal(cofactor),
    }


def line_from_json(data: object) -> ScanRecord | int:
    """One scan line: a record, or the cofactor of a partial line.  In a
    partial line "partial" must be true, p a prime ``field_ctx`` accepts,
    x and y nonzero coprime integers, the sign "plus" or "minus" and the
    cofactor an integer above 1 that divides N, as ``_quotient`` has it."""
    if not isinstance(data, dict):
        raise TypeError("a scan line must be a JSON object")
    if "partial" not in data:
        return record_from_json(data)
    if data["partial"] is not True:
        raise ValueError('a partial line must hold "partial": true')
    if data["sign"] not in _SIGN_VALUE:
        raise ValueError("the sign must be plus or minus")
    p = int_from_json(data["p"])
    field_ctx(p)
    x, y = int_from_json(data["x"]), int_from_json(data["y"])
    n_value = _quotient(p, x, y, _SIGN_VALUE[data["sign"]])
    cofactor = int_from_json(data["unfactored_cofactor"])
    if cofactor <= 1:
        raise ValueError("the unfactored cofactor must be above 1")
    if n_value % cofactor:
        raise ValueError("the unfactored cofactor does not divide N")
    return cofactor


# ----------------------------------------------------------------------
# verify lines: one per scan line, then the summary

def verify_lines(entries: Iterable[ScanRecord | int]) -> Iterator[dict]:
    """The lines ``verify`` prints for the scan lines ``entries``, as
    ``line_from_json`` reads them: a record, or a partial line's cofactor.
    The keys, and which checks fail a record, are in the module docstring."""
    records = failures = 0
    for entry in entries:
        if isinstance(entry, int):
            yield {"skipped_partial": True, "unfactored_cofactor": int_to_decimal(entry)}
            continue
        congruence_failures = verify_congruences(entry)
        identity_failures = verify_symbol_identities(entry)
        p2 = (entry.q - 1) % (entry.p * entry.p) == 0
        zeta_ok = (entry.symbols["zeta"] == 0) == p2  # Furtwangler's first theorem
        records += 1
        failures += bool(congruence_failures or identity_failures or not zeta_ok)
        yield {
            "q": entry.q,
            "x": int_to_json(entry.x),
            "y": int_to_json(entry.y),
            "sign": _SIGN_NAME[entry.sign],
            "congruences_ok": not congruence_failures,
            "congruence_failures": congruence_failures,
            "symbol_identities_ok": not identity_failures,
            "symbol_identity_failures": identity_failures,
            "skipped": [],
            "specialization_triggered": entry.symbols["x+y"] == 0 and entry.symbols["zeta"] == 0,
            "zeta_consistency_ok": zeta_ok,
            "p2_divides_q_minus_1": p2,
            "display_holds": furtwangler_report(entry),
            "conjugate_symmetric": conjugate_symmetry_report(entry),
        }
    yield {"records": records, "failures": failures}
