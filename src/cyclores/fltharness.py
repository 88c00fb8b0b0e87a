"""Scan-and-verify harness for primes dividing (x^p +- y^p)/(x +- y).

``scan`` factors N = (x^p + s*y^p)/(x + s*y) (s = +1 or -1), locates for
each prime factor q the distinguished degree-1 ideal dividing
x*zeta + s*y, and records a full residue-symbol table, labelled

    "zeta"           symbol exponent of zeta
    "x+y"            symbol of the rational integer x + y
    "x+zeta^K*y"     symbol of x + zeta^K y, K = 1..p-2
    "unit_minus[J]"  (plus scans)  symbol of the minus-family unit, J = K+1
    "unit_plus[J]"   (minus scans) symbol of the plus-family unit, J = K+1

Every entry is an exponent in [0, p).  A scan writes JSON lines of two
kinds, and ``line_from_json`` reads both back: one record per located q
(``record_to_json``), then, when a cofactor is left unfactored, one
partial line (``partial_to_json``) holding ``"partial": true``, p, x, y,
the sign and the cofactor.

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
  ("p2_divides_q_minus_1"), as in Furtwangler's first theorem;
* "display_holds" and "conjugate_symmetric", two relations reported,
  never asserted.

A record fails when a congruence, a symbol identity or the zeta
consistency fails.  Each partial line gives {"skipped_partial": true,
"unfactored_cofactor"}, and the last line is {"records", "failures"}.
"congruences_ok" cannot be false on a record ``record_from_json``
accepted: the sides of the k-th congruence differ by s w^k (x w + s y),
and parsing already requires x w + s y = 0 mod q.

``telescope_replay`` replays the telescoping symbol recurrences for both
unit families symbolically over Z/p and compares against their closed
forms.  ``barlow_abel_check`` evaluates the classical Barlow-Abel
relation formats exactly on arbitrary (synthetic) inputs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import gcd
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
from .ntheory import is_prime, kth_root_exact, valuation
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
    "TelescopeReport",
    "BarlowCheck",
    "BarlowAbelReport",
    "FurtwanglerReport",
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
#: Set by running time (2-core x86-64, CPython 3.11); at 0.9 of it, p = 5:
#: a 30 000-bit x, trial bound 10^6 2.9 s, x = 8388647 (N prime) 3.2 s;
#: p = 101, a 64-bit x 3.6 s; p = 1009, x = 3 7.3 s.  Past it: p = 5, a
#: 52 428-bit x, trial bound 10^6 5.6 s; p = 1009, x = 3, trial bound 2^40
#: about 11 min.  The default bound 10^6 passes it at p >= 11, any x.
TRIAL_WORK_MAX = 1 << 34


def _check_power_size(p: int, *bases: int) -> None:
    # the message names sizes, not the bases, which may have any length
    bits = max(b.bit_length() for b in bases)
    if p * bits >= POWER_BITS_MAX:
        raise ValueError(f"p={p} with {bits}-bit bases: p * bits is past POWER_BITS_MAX")


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


def _trial_factors(p: int, n: int, trial_bound: int) -> tuple[list[int], int]:
    """Distinct primes q = 1 mod p with q <= trial_bound dividing n, and the
    remaining cofactor.  Relies on gcd(x, y) = 1: the scanned quotient is
    odd and every prime factor of it other than p itself is = 1 mod p,
    hence = 1 mod 2p.  The loop steps d through that progression; a
    composite d never divides what is left, because its prime factors
    are smaller members of the progression and were divided out first."""
    found: list[int] = []
    rem = n
    step = 2 * p
    d = step + 1
    while d <= trial_bound and d * d <= rem:
        if rem % d == 0:
            found.append(d)
            while rem % d == 0:
                rem //= d
        d += step
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
    if x == 0 or y == 0:
        raise ValueError("x and y must be nonzero")
    if gcd(x, y) != 1:
        raise ValueError("x and y must be coprime")
    if x + sign * y == 0:
        raise ValueError("x + sign*y = 0: quotient undefined")
    if not 2 <= trial_bound <= 1 << 40:
        raise ValueError("trial_bound must be in [2, 2^40]")
    _check_power_size(p, x, y)
    _check_trial_work(p, trial_bound, max(x.bit_length(), y.bit_length()))
    n_value = (x**p + sign * y**p) // (x + sign * y)
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


def _elem_label(k: int) -> str:
    return f"x+zeta^{k}*y"


def _unit_label(sign: int, j: int) -> str:
    return f"unit_minus[{j}]" if sign == PLUS else f"unit_plus[{j}]"


def _build_record(ctx: FieldCtx, x: int, y: int, sign: int, n_value: int, q: int) -> ScanRecord:
    p = ctx.p
    if q % p != 1:
        raise InternalError(f"scan hit q={q} violates q = 1 mod p")
    if (p * x * y * (x + sign * y)) % q == 0:
        raise InternalError(f"scan hit q={q} divides p*x*y*(x+sign*y)")
    ideal = ideal_dividing(ctx, q, x, y, sign)
    if ideal is None:
        raise InternalError(f"no root-of-unity divisor of x*zeta+sign*y above q={q}")
    symbols = {"zeta": zeta_symbol(ideal), "x+y": symbol(cyc_int(ctx, x + y), ideal)}
    for k in range(1, p - 1):
        # x + zeta^k y = x (1 -+ zeta^(k+1)) mod the ideal; neither factor lies in it
        symbols[_elem_label(k)] = symbol(cyc_new(ctx, [(0, x), (k, y)]), ideal)
        unit = unit_minus(ctx, k + 1) if sign == PLUS else unit_plus(ctx, k + 1)
        symbols[_unit_label(sign, k + 1)] = symbol(unit, ideal)
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
    p, symbols = rec.p, rec.symbols
    inv2 = rec.ideal.ctx.inv2
    base, zeta_e = symbols["x+y"], symbols["zeta"]
    return [
        k for k in range(1, p - 1)
        if symbols[_elem_label(k)]
        != (base + k * inv2 * zeta_e + symbols[_unit_label(rec.sign, k + 1)]) % p
    ]


def conjugate_symmetry_report(rec: ScanRecord) -> bool:
    """Whether sym(x + zeta^k y) = sym(x + zeta^(p-k) y) for k = 2..p-2.

    Reported, never asserted: the relation holds only under hypotheses
    (class of the ideal in the minus part) that generic scan data does
    not satisfy.
    """
    p, symbols = rec.p, rec.symbols
    return all(symbols[_elem_label(k)] == symbols[_elem_label(p - k)] for k in range(2, p - 1))


class TelescopeReport(NamedTuple):
    """Replayed telescoping chains versus their closed forms.

    even_chain[k'] is the accumulated zeta-exponent of the plus-family
    unit with index p-2k'-1, odd_chain[k'] the one with index p-2k';
    ``match`` holds iff both agree with the closed forms -k'(k'+1) and
    1/4 - k'^2 mod p.  ``minus_chain_zero`` reports the minus-family
    replay, whose steps are trivial and must collapse every exponent
    to zero.
    """

    p: int
    even_chain: dict[int, int]
    odd_chain: dict[int, int]
    closed_even: dict[int, int]
    closed_odd: dict[int, int]
    match: bool
    minus_chain_zero: bool


def telescope_replay(ctx: FieldCtx) -> TelescopeReport:
    """Replay the telescoping symbol recurrences over Z/p.

    Symbols are treated as formal unknowns; only the zeta-exponent (one
    formal unit t) accumulates.  Even chain: from the index-(p-1) unit
    downward, each step k = 2k' contributes -2k'.  Odd chain: from the
    index-1 unit upward, each step contributes 2k'+1.  The minus-family
    analogue steps by the index flip unit(p-a) = -unit(a), contributing
    symbol(-1) = 0, so its exponents all collapse.
    """
    p = ctx.p
    half = (p - 3) // 2
    inv4 = ctx.inv2 * ctx.inv2 % p
    even: dict[int, int] = {}
    acc = 0
    for kp in range(1, half + 1):
        acc = (acc - 2 * kp) % p
        even[kp] = acc
    odd: dict[int, int] = {}
    acc = 0
    for kp in range(half, 0, -1):
        acc = (acc + 2 * kp + 1) % p
        odd[kp] = acc
    closed_even = {kp: (-kp * (kp + 1)) % p for kp in range(1, half + 1)}
    closed_odd = {kp: (inv4 - kp * kp) % p for kp in range(1, half + 1)}
    match = even == closed_even and odd == closed_odd
    return TelescopeReport(
        p=p,
        even_chain=even,
        odd_chain=odd,
        closed_even=closed_even,
        closed_odd=closed_odd,
        match=match,
        minus_chain_zero=_replay_minus_chains(p),
    )


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


class BarlowAbelReport(NamedTuple):
    p: int
    x: int
    y: int
    z: int
    checks: tuple[BarlowCheck, ...]


def barlow_abel_check(p: int, x: int, y: int, z: int) -> BarlowAbelReport:
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
    return BarlowAbelReport(p=p, x=x, y=y, z=z, checks=tuple(checks))


class FurtwanglerReport(NamedTuple):
    """Congruence/symbol bookkeeping on one record.

    ``consistency_ok`` asserts that the record's "zeta" entry is 0 iff
    p^2 | q-1; ``zeta_exp`` is the zeta symbol computed at the ideal.  The
    ``display_holds`` flag reports (never asserts) the conditional
    displays: on plus scans, whether sym(p) equals every sym(1-zeta^j);
    on minus scans, whether every sym(1+zeta^j) is trivial.  ``p_exp``
    and ``family_exps`` are symbols at the record's degree-1 ideal,
    read from the residues p and 1 -+ w^j in F_q.
    """

    q: int
    p2_divides: bool
    zeta_exp: int
    p_exp: int
    family: str
    family_exps: dict[int, int]
    consistency_ok: bool
    display_holds: bool


def furtwangler_report(rec: ScanRecord) -> FurtwanglerReport:
    """Evaluate the Furtwangler family 1 -+ zeta^j (j = 1..p-1) and p at w.

    The record's ideal has degree 1, so each element's residue is the
    F_q scalar 1 -+ w^j (or p) and its symbol one power map away.  None
    of them vanishes: w has order p, so w^j is neither 1 nor -1.
    """
    ideal = rec.ideal
    p, q = ideal.ctx.p, ideal.q
    zeta_e = zeta_symbol(ideal)
    p2 = (q - 1) % (p * p) == 0
    p_exp = residue_symbol(ideal, p % q)
    fam_sign = -1 if rec.sign == PLUS else 1
    family = "1-zeta^j" if rec.sign == PLUS else "1+zeta^j"
    wpow = ideal.w_powers
    family_exps = {
        j: residue_symbol(ideal, (1 + fam_sign * wpow[j]) % q)
        for j in range(1, p)
    }
    if rec.sign == PLUS:
        display = all(e == p_exp for e in family_exps.values())
    else:
        display = not any(family_exps.values())
    return FurtwanglerReport(
        q=rec.q,
        p2_divides=p2,
        zeta_exp=zeta_e,
        p_exp=p_exp,
        family=family,
        family_exps=family_exps,
        consistency_ok=(rec.symbols["zeta"] == 0) == p2,
        display_holds=display,
    )


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
    float or non-decimal value is a ValueError.  The redundant fields
    (``q_mod_p2``, the ideal's ``q`` and ``modulus``) must agree with q
    and w, and every symbol entry must be an exponent in [0, p).
    """
    p = int_from_json(data["p"])
    ctx = field_ctx(p)
    x, y = int_from_json(data["x"]), int_from_json(data["y"])
    sign = _SIGN_VALUE[data["sign"]]
    n_value = int_from_json(data["N"])
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
    expected = ["zeta", "x+y"]
    for k in range(1, p - 1):
        expected.append(_elem_label(k))
        expected.append(_unit_label(sign, k + 1))
    for key in expected:
        if key not in symbols_raw:
            raise ValueError(f"record is missing symbol entry {key!r}")
        e = int_from_json(symbols_raw[key])
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
    x and y nonzero integers, the sign "plus" or "minus" and the cofactor
    an integer above 1."""
    if not isinstance(data, dict):
        raise TypeError("a scan line must be a JSON object")
    if "partial" not in data:
        return record_from_json(data)
    if data["partial"] is not True:
        raise ValueError('a partial line must hold "partial": true')
    if data["sign"] not in _SIGN_VALUE:
        raise ValueError("the sign must be plus or minus")
    field_ctx(int_from_json(data["p"]))
    if 0 in (int_from_json(data["x"]), int_from_json(data["y"])):
        raise ValueError("x and y must be nonzero")
    cofactor = int_from_json(data["unfactored_cofactor"])
    if cofactor <= 1:
        raise ValueError("the unfactored cofactor must be above 1")
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
        furt = furtwangler_report(entry)
        records += 1
        failures += bool(congruence_failures or identity_failures or not furt.consistency_ok)
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
            "zeta_consistency_ok": furt.consistency_ok,
            "p2_divides_q_minus_1": furt.p2_divides,
            "display_holds": furt.display_holds,
            "conjugate_symmetric": conjugate_symmetry_report(entry),
        }
    yield {"records": records, "failures": failures}
