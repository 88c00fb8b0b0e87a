import json
from math import gcd, isqrt

import pytest
import sympy

from cyclores.cycint import cyc_int, cyc_new, field_ctx
from cyclores.cycunits import unit_minus
from cyclores.fltharness import (
    MINUS,
    PLUS,
    ScanRecord,
    barlow_abel_check,
    conjugate_symmetry_report,
    furtwangler_report,
    record_from_json,
    record_to_json,
    scan,
    telescope_replay,
    verify_congruences,
    verify_symbol_identities,
)
from cyclores.ntheory import is_prime
from cyclores.powsym import NotCoprimeError, symbol, zeta_symbol
from cyclores.resfield import ideal_from_root

CTX5 = field_ctx(5)
CTX7 = field_ctx(7)


def test_scan_plus_micro_case():
    result = scan(CTX5, 2, 1, PLUS, 10**6)
    assert result.unfactored_cofactor is None
    assert len(result) == 1
    rec = result[0]
    assert rec.n == 11 and rec.q == 11 and rec.ideal.w == 5
    assert rec.q_mod_p2 == 11
    assert rec.symbols["x+zeta^1*y"] == 1
    assert rec.symbols["x+y"] == 4
    assert rec.symbols["zeta"] == 2
    assert rec.symbols["unit_minus[2]"] == 1
    # the identity display: 1 = 4 + 1*inv2*2 + 1 (mod 5), inv2 = 3
    assert (4 + 1 * 3 * 2 + 1) % 5 == 1


def test_scan_minus_micro_case():
    result = scan(CTX5, 2, 1, MINUS, 10**6)
    assert len(result) == 1
    rec = result[0]
    assert rec.n == 31 and rec.q == 31 and rec.ideal.w == 16
    assert rec.q_mod_p2 == 6
    assert rec.symbols["x+zeta^1*y"] == 1
    assert rec.symbols["x+y"] == 1
    assert rec.symbols["zeta"] == 1
    assert rec.symbols["unit_plus[2]"] == 2
    assert (1 + 1 * 3 * 1 + 2) % 5 == 1


def test_scan_degenerate_inputs():
    with pytest.raises(ValueError):
        scan(CTX5, 1, 1, PLUS, 10**6)  # N = 1
    with pytest.raises(ValueError):
        scan(CTX5, 1, 1, MINUS, 10**6)  # x - y = 0
    with pytest.raises(ValueError):
        scan(CTX5, 2, -2, PLUS, 10**6)  # not coprime
    with pytest.raises(ValueError):
        scan(CTX5, 0, 1, PLUS, 10**6)
    with pytest.raises(ValueError):
        scan(CTX5, 2, 1, 0, 10**6)
    with pytest.raises(ValueError):
        scan(CTX5, 2, 1, PLUS, 1)


def test_scan_strips_p_and_finds_all_factors():
    # x = 3, y = 2: (3^5 + 2^5)/5 = 55 = 5 * 11, the 5 is the ramified part
    result = scan(CTX5, 3, 2, PLUS, 10**6)
    assert [rec.q for rec in result] == [11]
    assert result[0].n == 55


def test_scan_unfactored_cofactor_surfaces():
    # trial bound too small to find anything: 1111 = 11 * 101 stays intact
    result = scan(CTX5, 6, 1, PLUS, 2)
    assert len(result) == 0
    assert result.unfactored_cofactor == 1111
    # a prime cofactor is still recorded even above the trial bound
    result = scan(CTX5, 2, 1, PLUS, 2)
    assert [rec.q for rec in result] == [11]


def test_scan_all_hits_are_one_mod_p():
    for x, y, sign in ((6, 1, PLUS), (7, 3, MINUS), (10, -3, PLUS), (23, -3, PLUS)):
        for rec in scan(CTX5, x, y, sign, 10**6):
            assert rec.q % 5 == 1
            assert (rec.x * rec.ideal.w + rec.sign * rec.y) % rec.q == 0
            assert rec.n % rec.q == 0


def test_verify_congruences_micro():
    rec = scan(CTX5, 2, 1, PLUS, 10**6)[0]
    rep = verify_congruences(rec)
    assert rep.ok and set(rep.per_k) == {1, 2, 3}
    # k = 1 by hand: 2 + 5 = 7 and 2 (1 - 5^2) = -48 = 7 mod 11
    assert (2 + 5) % 11 == 2 * (1 - 25) % 11

    rec = scan(CTX5, 2, 1, MINUS, 10**6)[0]
    rep = verify_congruences(rec)
    assert rep.ok
    # k = 1 by hand: 2 + 16 = 18 and 2 (1 + 16^2) = 514 = 18 mod 31
    assert (2 + 16) % 31 == 2 * (1 + 256) % 31


def test_verify_symbol_identities_micro():
    for sign in (PLUS, MINUS):
        rec = scan(CTX5, 2, 1, sign, 10**6)[0]
        rep = verify_symbol_identities(rec)
        assert rep.ok
        assert all(v == "ok" for v in rep.per_k.values())
        assert not rep.specialization_triggered  # guards don't hold here


def test_specialization_triggers_and_holds():
    # x = 7, y = 3 minus-scan hits q = 101 where sym(x+y) = 0 = sym(zeta)
    recs = [r for r in scan(CTX5, 7, 3, MINUS, 10**6) if r.q == 101]
    assert recs, "expected a q = 101 hit"
    rep = verify_symbol_identities(recs[0])
    assert recs[0].symbols["x+y"] == 0 and recs[0].symbols["zeta"] == 0
    # under the guards the full identity is the dropped-terms form
    assert rep.specialization_triggered
    assert all(v == "ok" for v in rep.per_k.values())
    assert rep.ok


def test_skipped_not_coprime_reported():
    # At the distinguished ideal x + zeta^k y = x (1 - zeta^(k+1)) and
    # neither factor lies in the ideal, so a skip only arises from a null
    # entry in a JSON record.
    rec = scan(CTX5, 2, 1, PLUS, 10**6)[0]
    assert rec.ideal.w == 5
    data = record_to_json(rec)
    data["symbols"]["x+zeta^2*y"] = None
    edited = record_from_json(data)
    rep = verify_symbol_identities(edited)
    assert rep.per_k == {1: "ok", 2: "skipped", 3: "ok"}
    assert rep.ok  # skips are not failures
    conj = conjugate_symmetry_report(edited)
    assert conj[2] is None and conj[3] is None

    # Off the distinguished ideal the identity is not promised: w = 3
    # makes x + zeta^2 y = 2 + 9 = 0 mod 11, so k = 2 is skipped, and
    # k = 1, 3 genuinely fail; the skip must not hide those failures.
    ideal = ideal_from_root(CTX5, 11, 3)
    with pytest.raises(NotCoprimeError):
        symbol(cyc_new(CTX5, [(0, 2), (2, 1)]), ideal)
    symbols = {"zeta": zeta_symbol(ideal), "x+y": symbol(cyc_new(CTX5, [(0, 3)]), ideal)}
    for k in range(1, 4):
        try:
            e = symbol(cyc_new(CTX5, [(0, 2), (k, 1)]), ideal)
        except NotCoprimeError:
            e = None
        symbols[f"x+zeta^{k}*y"] = e
        symbols[f"unit_minus[{k + 1}]"] = symbol(unit_minus(CTX5, k + 1), ideal)
    off = ScanRecord(
        p=5, x=2, y=1, sign=PLUS, n=11, q=11, ideal=ideal, q_mod_p2=11, symbols=symbols
    )
    rep = verify_symbol_identities(off)
    assert rep.per_k == {1: "fail", 2: "skipped", 3: "fail"}
    assert rep.ok is False
    with pytest.raises(ValueError, match="does not divide"):
        record_from_json(record_to_json(off))


def test_conjugate_symmetry_report_shape():
    rec = scan(CTX5, 2, 1, PLUS, 10**6)[0]
    rep = conjugate_symmetry_report(rec)
    assert set(rep) == {2, 3}
    assert all(isinstance(v, bool) for v in rep.values())


def test_telescope_micro_values():
    rep = telescope_replay(CTX5)
    assert rep.even_chain == {1: 3}  # -1*2 mod 5
    assert rep.closed_even == {1: 3}
    assert rep.match and rep.minus_chain_zero

    rep7 = telescope_replay(CTX7)
    # k' = 1: odd chain exponent = inv4 - 1 = 2 - 1 = 1 mod 7
    assert rep7.odd_chain[1] == 1
    assert rep7.even_chain == {1: 5, 2: 1}
    assert rep7.match and rep7.minus_chain_zero


def test_telescope_all_small_primes():
    for p in (5, 7, 11, 13, 17, 19, 23):
        rep = telescope_replay(field_ctx(p))
        assert rep.match and rep.minus_chain_zero, p


def test_barlow_abel_examples():
    rep = barlow_abel_check(5, 31, 1, -2)
    checks = {c.name: c for c in rep.checks}
    assert checks["x+y is a p-th power"].holds  # 32 = 2^5
    assert "2" in checks["x+y is a p-th power"].detail

    rep = barlow_abel_check(5, 2, 3, -4)
    checks = {c.name: c for c in rep.checks}
    assert not checks["x^p + y^p + z^p = 0"].holds

    rep = barlow_abel_check(5, 623, 10, 2)
    checks = {c.name: c for c in rep.checks}
    key = "x+z = 5^(nu*p-1) * (p-th power)"
    assert checks[key].holds  # 625 = 5^4, nu = 1, root 1
    assert "nu = 1" in checks[key].detail
    assert checks["p divides y"].holds


def test_barlow_abel_edge_cases():
    rep = barlow_abel_check(5, 2, 3, -2)
    checks = {c.name: c for c in rep.checks}
    assert not checks["x+z = 5^(nu*p-1) * (p-th power)"].holds  # x+z = 0
    with pytest.raises(ValueError):
        barlow_abel_check(4, 1, 2, 3)
    with pytest.raises(ValueError):
        barlow_abel_check(5, 0, 2, 3)


def test_furtwangler_report_micro():
    rec11 = scan(CTX5, 2, 1, PLUS, 10**6)[0]
    rep = furtwangler_report(rec11)
    assert not rep.p2_divides and rep.zeta_exp == 2 and rep.consistency_ok
    assert rep.family == "1-zeta^j" and set(rep.family_exps) == {1, 2, 3, 4}

    recs = scan(CTX5, 6, 1, PLUS, 10**6)
    by_q = {r.q: r for r in recs}
    rep101 = furtwangler_report(by_q[101])
    assert rep101.p2_divides and rep101.zeta_exp == 0 and rep101.consistency_ok

    rec31 = scan(CTX5, 2, 1, MINUS, 10**6)[0]
    repm = furtwangler_report(rec31)
    assert repm.family == "1+zeta^j"
    assert isinstance(repm.display_holds, bool)


# (p, x, y, sign) whose scans carry at least one record under trial bound 10^5
FURTWANGLER_SCANS = [
    (5, 2, 1, PLUS), (5, 2, 1, MINUS), (7, 2, 1, PLUS), (7, 2, 1, MINUS),
    (11, 2, 1, PLUS), (11, 2, 1, MINUS), (13, 2, 1, PLUS), (13, 2, 1, MINUS),
    (101, 3, 2, PLUS), (101, 5, 2, MINUS), (257, 3, 1, PLUS), (257, 6, 1, MINUS),
]


@pytest.mark.parametrize("p, x, y, sign", FURTWANGLER_SCANS)
def test_furtwangler_report_matches_dense_oracle(p, x, y, sign):
    ctx = field_ctx(p)
    records = scan(ctx, x, y, sign, 10**5)
    assert len(records) >= 1
    for rec in records:
        rep = furtwangler_report(rec)
        family = {j: symbol(cyc_new(ctx, [(0, 1), (j, -sign)]), rec.ideal)
                  for j in range(1, p)}
        p_exp = symbol(cyc_int(ctx, p), rec.ideal)
        assert rep.family == ("1-zeta^j" if sign == PLUS else "1+zeta^j")
        assert rep.family_exps == family
        assert rep.p_exp == p_exp
        assert rep.zeta_exp == zeta_symbol(rec.ideal)
        if sign == PLUS:
            assert rep.display_holds == all(e == p_exp for e in family.values())
        else:
            assert rep.display_holds == (not any(family.values()))


def test_record_json_round_trip():
    for sign in (PLUS, MINUS):
        rec = scan(CTX5, 2, 1, sign, 10**6)[0]
        blob = record_to_json(rec)
        back = record_from_json(json.loads(json.dumps(blob)))
        assert back == rec


def test_record_json_round_trip_past_4300_digits():
    # x = 2 mod 11 keeps q = 11 from the x = 2 scan; N has 4405 digits
    rec = scan(CTX5, 2 + 11 * 10**1100, 1, PLUS, 100)[0]
    blob = json.loads(json.dumps(record_to_json(rec)))
    assert rec.q == 11 and len(blob["N"]) == 4405
    assert record_from_json(blob) == rec


def test_record_json_rejects_tampering():
    rec = scan(CTX5, 2, 1, PLUS, 10**6)[0]
    blob = record_to_json(rec)
    bad = dict(blob)
    bad["q"] = 31
    with pytest.raises(ValueError):
        record_from_json(bad)
    bad = dict(blob)
    bad["ideal"] = dict(blob["ideal"], w="4")  # wrong root for (2, 1)
    with pytest.raises(ValueError):
        record_from_json(bad)
    bad = dict(blob)
    bad["symbols"] = {k: v for k, v in blob["symbols"].items() if k != "zeta"}
    with pytest.raises(ValueError):
        record_from_json(bad)


def test_scan_is_deterministic():
    a = [record_to_json(r) for r in scan(CTX5, 12, 5, PLUS, 10**6)]
    b = [record_to_json(r) for r in scan(CTX5, 12, 5, PLUS, 10**6)]
    assert json.dumps(a) == json.dumps(b)


def _scan_oracle(p, x, y, sign, bound):
    # trial division by every prime up to min(bound, sqrt(m)), with no use
    # of q = 1 (mod 2p); what is left then has no prime factor that small
    m = (x**p + sign * y**p) // (x + sign * y)
    while m % p == 0:
        m //= p
    lim = min(bound, isqrt(m))
    sympy.sieve.extend(lim)
    qs = []
    for r in sympy.primerange(2, lim + 1):
        if m % r == 0:
            qs.append(r)
            while m % r == 0:
                m //= r
    if m > 1 and m.bit_length() <= 63 and sympy.isprime(m):
        return qs + [m], None
    return qs, (m if m > 1 else None)


SCAN_CASES = {
    5: [(2, 1, PLUS), (12, 5, PLUS), (7, -3, MINUS), (11, 4, MINUS), (10007, 3, PLUS)],
    7: [(2, 1, PLUS), (9, 4, MINUS), (12, -7, PLUS), (5, 3, PLUS)],
    11: [(3, 1, PLUS), (4, 3, MINUS), (12, 5, PLUS), (7, 2, MINUS)],
    13: [(2, 1, MINUS), (5, 2, PLUS), (11, 6, MINUS), (1009, 2, MINUS)],
    101: [(2, 1, PLUS), (4, 3, MINUS)],
}


@pytest.mark.parametrize("p", sorted(SCAN_CASES))
def test_scan_factors_match_prime_oracle(p):
    # 2^25 is past 2^24, where an earlier version switched trial-division
    # methods; the big-x cases and p = 101 reach it
    ctx = field_ctx(p)
    for x, y, sign in SCAN_CASES[p]:
        for bound in (2, 10**3, 10**6, 2**25):
            result = scan(ctx, x, y, sign, bound)
            qs, cofactor = _scan_oracle(p, x, y, sign, bound)
            assert [rec.q for rec in result] == qs, (x, y, sign, bound)
            assert result.unfactored_cofactor == cofactor, (x, y, sign, bound)


def test_mini_sweep_all_identities_hold():
    # compressed version of the full acceptance sweep
    p = 5
    ctx = CTX5
    checked = 0
    for x in range(-8, 9):
        for y in range(-8, 9):
            if x == 0 or y == 0 or gcd(x, y) != 1:
                continue
            for sign in (PLUS, MINUS):
                if x + sign * y == 0:
                    continue
                if (x**p + sign * y**p) // (x + sign * y) == 1:
                    continue
                for rec in scan(ctx, x, y, sign, 10**6):
                    assert rec.q % p == 1
                    assert verify_congruences(rec).ok
                    assert verify_symbol_identities(rec).ok
                    checked += 1
    assert checked > 100


def test_scan_validates_trial_bound_type():
    assert is_prime(2)  # keep the import honest
    with pytest.raises(ValueError):
        scan(CTX5, 2, 1, PLUS, 2**40 + 1)
