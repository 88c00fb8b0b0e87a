import json
from functools import cache
from math import gcd, isqrt

import pytest
import sympy

from cyclores import fltharness
from cyclores.cycint import cyc_int, cyc_new, field_ctx, int_to_decimal
from cyclores.cycunits import unit_minus, unit_plus
from cyclores.fltharness import (
    MINUS,
    PLUS,
    POWER_BITS_MAX,
    TRIAL_WORK_MAX,
    ScanRecord,
    _check_trial_work,
    _trial_factors,
    barlow_abel_check,
    conjugate_symmetry_report,
    furtwangler_report,
    line_from_json,
    partial_to_json,
    record_from_json,
    record_to_json,
    scan,
    telescope_replay,
    verify_congruences,
    verify_lines,
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
    assert verify_congruences(rec) == []
    # k = 1 by hand: 2 + 5 = 7 and 2 (1 - 5^2) = -48 = 7 mod 11
    assert (2 + 5) % 11 == 2 * (1 - 25) % 11

    rec = scan(CTX5, 2, 1, MINUS, 10**6)[0]
    assert verify_congruences(rec) == []
    # k = 1 by hand: 2 + 16 = 18 and 2 (1 + 16^2) = 514 = 18 mod 31
    assert (2 + 16) % 31 == 2 * (1 + 256) % 31


def test_verify_symbol_identities_micro():
    for sign in (PLUS, MINUS):
        rec = scan(CTX5, 2, 1, sign, 10**6)[0]
        assert verify_symbol_identities(rec) == []
        # guards don't hold here
        assert next(verify_lines([rec]))["specialization_triggered"] is False


def test_specialization_triggers_and_holds():
    # x = 7, y = 3 minus-scan hits q = 101 where sym(x+y) = 0 = sym(zeta)
    recs = [r for r in scan(CTX5, 7, 3, MINUS, 10**6) if r.q == 101]
    assert recs, "expected a q = 101 hit"
    assert recs[0].symbols["x+y"] == 0 and recs[0].symbols["zeta"] == 0
    # under the guards the full identity is the dropped-terms form
    assert next(verify_lines(recs))["specialization_triggered"] is True
    assert verify_symbol_identities(recs[0]) == []


def test_null_symbol_refused_and_off_ideal_record_fails():
    # At the distinguished ideal x + zeta^k y = x (1 - zeta^(k+1)) and
    # neither factor lies in the ideal, so every entry is an integer and
    # a null one is refused.
    rec = scan(CTX5, 2, 1, PLUS, 10**6)[0]
    assert rec.ideal.w == 5
    for key in ("x+zeta^2*y", "unit_minus[3]"):
        data = record_to_json(rec)
        data["symbols"][key] = None
        with pytest.raises(ValueError, match="not an integer"):
            record_from_json(data)

    # Off the distinguished ideal the identity is not promised: w = 3
    # makes x + zeta^2 y = 2 + 9 = 0 mod 11, so k = 2 has no symbol (the
    # table gets a 0 there), and k = 1, 3 genuinely fail.
    ideal = ideal_from_root(CTX5, 11, 3)
    with pytest.raises(NotCoprimeError):
        symbol(cyc_new(CTX5, [(0, 2), (2, 1)]), ideal)
    symbols = {"zeta": zeta_symbol(ideal), "x+y": symbol(cyc_new(CTX5, [(0, 3)]), ideal)}
    for k in range(1, 4):
        e = 0 if k == 2 else symbol(cyc_new(CTX5, [(0, 2), (k, 1)]), ideal)
        symbols[f"x+zeta^{k}*y"] = e
        symbols[f"unit_minus[{k + 1}]"] = symbol(unit_minus(CTX5, k + 1), ideal)
    off = ScanRecord(
        p=5, x=2, y=1, sign=PLUS, n=11, q=11, ideal=ideal, q_mod_p2=11, symbols=symbols
    )
    assert {1, 3} <= set(verify_symbol_identities(off))
    # w^k (x w + y) = 7 w^k is nonzero mod 11, so every congruence fails
    assert verify_congruences(off) == [1, 2, 3]
    with pytest.raises(ValueError, match="does not divide"):
        record_from_json(record_to_json(off))


def test_conjugate_symmetry_report_shape():
    # at p = 5 the relation compares the k = 2 and k = 3 entries
    for sign, want in ((PLUS, True), (MINUS, False)):
        rec = scan(CTX5, 2, 1, sign, 10**6)[0]
        assert (rec.symbols["x+zeta^2*y"] == rec.symbols["x+zeta^3*y"]) is want
        assert conjugate_symmetry_report(rec) is want


def test_verify_lines_records_partial_and_summary():
    plus = scan(CTX5, 2, 1, PLUS, 10**6)[0]
    minus = scan(CTX5, 2, 1, MINUS, 10**6)[0]
    lines = [record_to_json(plus), record_to_json(minus), partial_to_json(5, 6, 1, PLUS, 1111)]
    out = list(verify_lines(line_from_json(json.loads(json.dumps(line))) for line in lines))
    assert out[0] == {
        "q": 11, "x": 2, "y": 1, "sign": "plus",
        "congruences_ok": True, "congruence_failures": [],
        "symbol_identities_ok": True, "symbol_identity_failures": [],
        "skipped": [], "specialization_triggered": False,
        "zeta_consistency_ok": True, "p2_divides_q_minus_1": False,
        "display_holds": False, "conjugate_symmetric": True,
    }
    assert list(out[0]) == list(out[1])  # the same keys in the same order
    assert out[1]["q"] == 31 and out[1]["sign"] == "minus"
    assert out[2] == {"skipped_partial": True, "unfactored_cofactor": "1111"}
    # both reported relations fail at q = 31 and neither fails the record
    assert (out[1]["display_holds"], out[1]["conjugate_symmetric"]) == (False, False)
    assert out[3] == {"records": 2, "failures": 0}
    assert len(out) == 4
    assert list(verify_lines([])) == [{"records": 0, "failures": 0}]


def _zeta_retabled(rec, zeta):
    # the entry "zeta" set to zeta, and every x + zeta^k y entry moved by
    # k (1/2) of the change, so the symbol identity still holds
    p, inv2 = rec.p, rec.ideal.ctx.inv2
    symbols = dict(rec.symbols, zeta=zeta)
    for k in range(1, p - 1):
        symbols[f"x+zeta^{k}*y"] = (symbols[f"x+zeta^{k}*y"] + k * inv2 * (zeta - rec.symbols["zeta"])) % p
    return rec._replace(symbols=symbols)


def test_verify_lines_zeta_consistency_alone_fails_a_record():
    rec11 = scan(CTX5, 2, 1, PLUS, 10**6)[0]  # "zeta" is 2; 25 does not divide 10
    rec101 = {rec.q: rec for rec in scan(CTX5, 6, 1, PLUS, 10**6)}[101]  # "zeta" is 0
    assert (rec11.symbols["zeta"], rec101.symbols["zeta"]) == (2, 0)
    for rec, zeta in ((rec11, 0), (rec101, 1)):
        tampered = record_from_json(record_to_json(_zeta_retabled(rec, zeta)))
        line, summary = verify_lines([tampered])
        assert line["congruences_ok"] and line["symbol_identities_ok"]
        assert line["zeta_consistency_ok"] is False
        assert summary == {"records": 1, "failures": 1}
        # p^2 | q-1 is read off q, not off the tampered table
        assert line["p2_divides_q_minus_1"] is (rec.q == 101)


def test_telescope_micro_values():
    # p = 5: the even chain is -1*2 = 3 = -1*(1+1) mod 5; p = 7: the odd
    # chain's k' = 1 exponent is 2*2 + 1 + 2*1 + 1 = 8 = 1 = 1/4 - 1 mod 7
    assert telescope_replay(CTX5) is True
    assert telescope_replay(CTX7) is True


def test_telescope_all_small_primes():
    for p in (5, 7, 11, 13, 17, 19, 23):
        assert telescope_replay(field_ctx(p)) is True, p


def test_barlow_abel_examples():
    checks = {c.name: c for c in barlow_abel_check(5, 31, 1, -2)}
    assert checks["x+y is a p-th power"].holds  # 32 = 2^5
    assert "2" in checks["x+y is a p-th power"].detail

    checks = {c.name: c for c in barlow_abel_check(5, 2, 3, -4)}
    assert not checks["x^p + y^p + z^p = 0"].holds

    checks = {c.name: c for c in barlow_abel_check(5, 623, 10, 2)}
    key = "x+z = 5^(nu*p-1) * (p-th power)"
    assert checks[key].holds  # 625 = 5^4, nu = 1, root 1
    assert "nu = 1" in checks[key].detail
    assert checks["p divides y"].holds


def test_barlow_abel_edge_cases():
    checks = {c.name: c for c in barlow_abel_check(5, 2, 3, -2)}
    assert not checks["x+z = 5^(nu*p-1) * (p-th power)"].holds  # x+z = 0
    with pytest.raises(ValueError):
        barlow_abel_check(4, 1, 2, 3)
    with pytest.raises(ValueError):
        barlow_abel_check(5, 0, 2, 3)


def test_power_size_ceiling():
    # p * bits just under POWER_BITS_MAX runs; at it, nothing is computed
    bits = (POWER_BITS_MAX - 1) // 5  # the most at p = 5
    x = (1 << (bits - 1)) + (2 - (1 << (bits - 1))) % 11  # 2 mod 11 keeps q = 11
    assert x.bit_length() == bits
    assert [rec.q for rec in scan(CTX5, x, 1, PLUS, 20)] == [11]
    assert len(barlow_abel_check(5, -x, 1, x)) == 5
    big = 1 << bits  # one bit more
    for ctx, x, y in ((CTX5, big, 1), (CTX5, 1, -big), (CTX7, 3, 1 << (POWER_BITS_MAX // 7))):
        with pytest.raises(ValueError, match="POWER_BITS_MAX"):
            scan(ctx, x, y, MINUS, 20)
    with pytest.raises(ValueError, match="POWER_BITS_MAX"):
        barlow_abel_check(5, 1, 1, -big)


def test_trial_work_ceiling():
    # the work is reach/(2p) steps of p * bits + 512, reach the trial
    # bound or 2^(p bits/2 + 1), past which the loop has stopped anyway;
    # just under TRIAL_WORK_MAX passes, at it nothing is computed
    p, bits = 1009, 2
    steps = -(-TRIAL_WORK_MAX // (p * bits + 512))  # the fewest at the ceiling
    _check_trial_work(p, 2 * p * steps - 1, bits)
    with pytest.raises(ValueError, match="TRIAL_WORK_MAX"):
        _check_trial_work(p, 2 * p * steps, bits)
    with pytest.raises(ValueError, match="TRIAL_WORK_MAX"):
        scan(field_ctx(p), 3, 1, PLUS, 1 << 40)
    # p = 5, a 52 428-bit x at the default bound 10^6: 1.53 * 2^34, admitted
    _check_trial_work(5, 10**6, 52428)
    with pytest.raises(ValueError, match="TRIAL_WORK_MAX"):
        _check_trial_work(5, 3 * 10**6, 52428)
    # (2^5 + 1)/3 = 11: its square root, not the bound, ends the loop
    assert [rec.q for rec in scan(CTX5, 2, 1, PLUS, 1 << 40)] == [11]


def test_furtwangler_report_micro():
    # N = (6^5 + 1)/7 = 11 * 101: 25 divides 100, not 10
    by_q = {rec.q: rec for rec in scan(CTX5, 6, 1, PLUS, 10**6)}
    assert sorted(by_q) == [11, 101]
    for q, p2 in ((11, False), (101, True)):
        line, _ = verify_lines([by_q[q]])
        assert line["p2_divides_q_minus_1"] is p2
        assert line["zeta_consistency_ok"] is True
        assert (by_q[q].symbols["zeta"] == 0) is p2
        assert furtwangler_report(by_q[q]) is line["display_holds"]
    assert furtwangler_report(scan(CTX5, 2, 1, PLUS, 10**6)[0]) is False
    assert furtwangler_report(scan(CTX5, 2, 1, MINUS, 10**6)[0]) is False


# (p, x, y, sign) whose scans carry at least one record under trial bound 10^5
FURTWANGLER_SCANS = [
    (5, 2, 1, PLUS), (5, 2, 1, MINUS), (7, 2, 1, PLUS), (7, 2, 1, MINUS),
    (11, 2, 1, PLUS), (11, 2, 1, MINUS), (13, 2, 1, PLUS), (13, 2, 1, MINUS),
    (101, 3, 2, PLUS), (101, 5, 2, MINUS), (257, 3, 1, PLUS), (257, 6, 1, MINUS),
]


def _dense_furtwangler(rec):
    # the display, from dense symbols of p and of every 1 -+ zeta^j
    ctx, p = rec.ideal.ctx, rec.p
    family = [symbol(cyc_new(ctx, [(0, 1), (j, -rec.sign)]), rec.ideal) for j in range(1, p)]
    p_exp = symbol(cyc_int(ctx, p), rec.ideal)
    return all(e == p_exp for e in family) if rec.sign == PLUS else not any(family)


@pytest.mark.parametrize("p, x, y, sign", FURTWANGLER_SCANS)
def test_furtwangler_report_matches_dense_oracle(p, x, y, sign):
    ctx = field_ctx(p)
    records = scan(ctx, x, y, sign, 10**5)
    assert len(records) >= 1
    for rec, line in zip(records, verify_lines(records)):
        assert furtwangler_report(rec) is _dense_furtwangler(rec)
        # p^2 | q-1 exactly where the zeta symbol, recomputed, is trivial
        assert line["p2_divides_q_minus_1"] is (zeta_symbol(rec.ideal) == 0)
        assert line["zeta_consistency_ok"] is True


# the display holds on the first two records, and fails on the last two
@pytest.mark.parametrize("x, y, sign, q, holds", [
    (43, 24, PLUS, 22901, True), (6, 5, MINUS, 4651, True),
    (2, 1, PLUS, 11, False), (2, 1, MINUS, 31, False),
])
def test_furtwangler_display_holds_either_way(x, y, sign, q, holds):
    rec = {rec.q: rec for rec in scan(CTX5, x, y, sign, 10**6)}[q]
    assert furtwangler_report(rec) is holds
    assert _dense_furtwangler(rec) is holds


# the sweep: p in SWEEP_PRIMES, coprime x != y in [1, 8], both signs, trial bound 10^5
SWEEP_PRIMES = (5, 7, 11, 13, 37)


@cache
def _sweep():
    records = []
    for p in SWEEP_PRIMES:
        for x in range(1, 9):
            for y in range(1, 9):
                if x != y and gcd(x, y) == 1:
                    for sign in (PLUS, MINUS):
                        records += scan(field_ctx(p), x, y, sign, 10**5)
    return tuple(records)


def test_scan_entries_match_dense_symbols():
    # every entry of every sweep record, against the symbol of its element
    # built densely in Z[zeta]
    records = _sweep()
    assert {rec.p for rec in records} == set(SWEEP_PRIMES)
    for rec in records:
        ctx, ideal, x, y = rec.ideal.ctx, rec.ideal, rec.x, rec.y
        unit = unit_minus if rec.sign == PLUS else unit_plus
        want = {"zeta": zeta_symbol(ideal), "x+y": symbol(cyc_int(ctx, x + y), ideal)}
        for k in range(1, rec.p - 1):
            want[f"x+zeta^{k}*y"] = symbol(cyc_new(ctx, [(0, x), (k, y)]), ideal)
            want[f"{unit.__name__}[{k + 1}]"] = symbol(unit(ctx, k + 1), ideal)
        assert list(rec.symbols.items()) == list(want.items()), (rec.p, x, y, rec.sign, rec.q)


def test_unit_entries_are_symmetric():
    # unit_minus(p-a) = -unit_minus(a), unit_plus(p-a) = unit_plus(a) and
    # sym(-1) = 0: the entries at a and p-a agree, and at p-1 it is 0
    for rec in _sweep():
        p = rec.p
        unit = "unit_minus" if rec.sign == PLUS else "unit_plus"
        entries = {a: rec.symbols[f"{unit}[{a}]"] for a in range(2, p)}
        assert entries[p - 1] == 0, (p, rec.x, rec.y, rec.sign, rec.q)
        assert all(entries[a] == entries[p - a] for a in range(2, p - 1)), \
            (p, rec.x, rec.y, rec.sign, rec.q)


def test_verify_lines_leaves_congruences_to_parsing():
    # verify prints the congruence keys without a pass: on every record that
    # parsing accepts the pass finds nothing, and verify needs neither the
    # powers of w nor their logarithms
    for rec in _sweep():
        parsed = line_from_json(json.loads(json.dumps(record_to_json(rec))))
        line, summary = verify_lines([parsed])
        assert (line["congruences_ok"], line["congruence_failures"]) == (True, [])
        assert summary == {"records": 1, "failures": 0}
        assert not {"w_powers", "_dlog"} & set(vars(parsed.ideal))
        assert verify_congruences(parsed) == []


# (x, y, q): minus scans at p = 5 with a record at q where the display
# holds; the first lies in the sweep
FURTWANGLER_HOLDS = [(5, 6, 4651), (3, 10, 14251)]


def test_furtwangler_report_matches_symbols_over_the_sweep():
    extra = [rec for x, y, q in FURTWANGLER_HOLDS
             for rec in scan(CTX5, x, y, MINUS, 10**5) if rec.q == q]
    assert len(extra) == len(FURTWANGLER_HOLDS)
    outcomes = []
    for rec in _sweep() + tuple(extra):
        outcomes.append(furtwangler_report(rec))
        assert outcomes[-1] is _dense_furtwangler(rec), (rec.p, rec.x, rec.y, rec.sign, rec.q)
    assert all(outcomes[-len(extra):])
    assert set(outcomes[:-len(extra)]) == {True, False}


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


def test_scan_lines_round_trip():
    result = scan(CTX5, 2 + 11 * 10**4400, 1, PLUS, 20)  # x past 4300 digits
    assert [rec.q for rec in result] == [11] and result.unfactored_cofactor is not None
    lines = [record_to_json(rec) for rec in result]
    lines.append(partial_to_json(5, result[0].x, 1, PLUS, result.unfactored_cofactor))
    back = [line_from_json(json.loads(json.dumps(line))) for line in lines]
    assert back == [result[0], result.unfactored_cofactor]
    assert lines[1]["x"] == lines[0]["x"] == int_to_decimal(result[0].x)


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


def test_lines_refuse_an_undefined_or_non_coprime_quotient_size_first():
    # a record's N and a partial line's cofactor are checked against the
    # quotient of x, y and the sign; past POWER_BITS_MAX the size is
    # refused first, before any gcd or power, so a zero denominator or a
    # common factor is a ValueError, never a ZeroDivisionError
    record = record_to_json(scan(CTX5, 2, 1, PLUS, 10**6)[0])
    partial = partial_to_json(5, 6, 1, PLUS, 1111)
    big = int_to_decimal(1 << (POWER_BITS_MAX // 5))
    cases = [
        (big, "-" + big, "plus", "POWER_BITS_MAX"),
        (big, big, "minus", "POWER_BITS_MAX"),
        (1, -1, "plus", "quotient undefined"),
        (1, 1, "minus", "quotient undefined"),
        (6, 4, "plus", "coprime"),
        (0, 1, "plus", "nonzero"),
    ]
    for x, y, sign, message in cases:
        for line in (record, partial):
            with pytest.raises(ValueError, match=message):
                line_from_json({**line, "x": x, "y": y, "sign": sign})
    # N itself, and a cofactor that does not divide it
    with pytest.raises(ValueError, match="N is not"):
        record_from_json({**record, "N": "22"})
    with pytest.raises(ValueError, match="does not divide N"):
        line_from_json({**partial, "unfactored_cofactor": "13"})
    assert line_from_json(partial) == 1111


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
                    assert verify_congruences(rec) == []
                    assert verify_symbol_identities(rec) == []
                    checked += 1
    assert checked > 100


def test_scan_validates_trial_bound_type():
    assert is_prime(2)  # keep the import honest
    with pytest.raises(ValueError):
        scan(CTX5, 2, 1, PLUS, 2**40 + 1)


# N = (9^5 - 5^5)/(9 - 5) = 13981 = 11 * 31 * 41: a candidate equal to the
# bound is tried, and a prime cofactor is recorded past the bound
@pytest.mark.parametrize("bound, qs, cofactor", [
    (10, [], 13981), (11, [11], 1271), (30, [11], 1271), (31, [11, 31, 41], None),
])
def test_scan_trial_bound_edges(bound, qs, cofactor):
    result = scan(CTX5, 9, 5, MINUS, bound)
    assert [rec.q for rec in result] == qs
    assert result.unfactored_cofactor == cofactor


def _trial_oracle(p, n, bound):
    # every candidate 1 + 2p i divides in turn, composite or not
    found, rem, d = [], n, 2 * p + 1
    while d <= bound and d * d <= rem:
        if rem % d == 0:
            found.append(d)
            while rem % d == 0:
                rem //= d
        d += 2 * p
    return found, rem


# small p have sieve primes among their candidates: 7 and 13 at p = 3,
# 11 and 31 at p = 5
TRIAL_ORACLE_CASES = [(p, bound) for p in sympy.primerange(3, 60) for bound in (10**2, 10**4, 10**6)]
TRIAL_ORACLE_CASES += [(211, 10**6), (1009, 10**6)]


def _stripped_quotients(p):
    # (x^p + s y^p)/(x + s y) over coprime 1 <= x, y <= 12 and both signs,
    # with the factor p divided out, as scan hands them to _trial_factors
    for x in range(1, 13):
        for y in range(1, 13):
            for sign in (PLUS, MINUS):
                if gcd(x, y) != 1 or x + sign * y == 0:
                    continue
                n = (x**p + sign * y**p) // (x + sign * y)
                while n % p == 0:
                    n //= p
                yield n


@pytest.mark.parametrize("p, bound", TRIAL_ORACLE_CASES)
def test_trial_factors_match_unsieved_loop(p, bound):
    for n in _stripped_quotients(p):
        assert _trial_factors(p, n, bound) == _trial_oracle(p, n, bound), n


# the sieve runs block by block; small blocks put many candidates at the
# edges of one
@pytest.mark.parametrize("block", [1, 7, 100])
def test_trial_factors_sieve_blocks(monkeypatch, block):
    monkeypatch.setattr(fltharness, "_SIEVE_BLOCK", block)
    for p in (3, 5, 7, 13):
        for n in _stripped_quotients(p):
            assert _trial_factors(p, n, 10**4) == _trial_oracle(p, n, 10**4), (p, n)
