import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy

import cyclores
from cyclores import cli, resfield
from cyclores.cli import run
from cyclores.cycint import InternalError, field_ctx, int_from_json, int_to_decimal
from cyclores.fltharness import (
    MINUS,
    PLUS,
    line_from_json,
    record_to_json,
    scan,
    verify_congruences,
)


def run_cli(capsys, *argv):
    code = run([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def one_json(out):
    lines = out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_import_loads_no_heavy_stdlib_modules():
    # each request runs in a fresh process, which pays for every module
    # the import pulls in; nothing on that path needs these six
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cyclores.cli\n"
        "heavy = {'dataclasses', 'fractions', 'inspect', 'decimal', 'argparse', 'gettext'}\n"
        "print(sorted(heavy & (set(sys.modules) - before)))\n"
    )
    src = str(Path(cyclores.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


def test_hminus(capsys):
    code, out, _ = run_cli(capsys, "hminus", "--p", "37")
    assert code == 0
    assert out == '{"p":37,"h_minus":"37"}\n'


def test_hminus_past_4300_digits(capsys, monkeypatch):
    # h^- passes 4300 digits only from p = 7919 on, above regulab.HMINUS_P_MAX,
    # so a big value is patched in
    monkeypatch.setattr(cli, "h_minus", lambda p: 10**5000 + 1)
    code, out, _ = run_cli(capsys, "hminus", "--p", "37")
    assert code == 0
    assert out == '{"p":37,"h_minus":"1' + "0" * 4999 + '1"}\n'


def test_hminus_precision_flag_is_gone(capsys):
    code, out, err = run_cli(capsys, "hminus", "--p", "37", "--precision", "256")
    assert code == 1
    assert out == ""
    assert "--precision" in err


def test_irregular(capsys):
    code, out, _ = run_cli(capsys, "irregular", "--p", "157")
    assert code == 0
    assert one_json(out) == {"p": 157, "irregular_pairs": [62, 110]}


def test_vandiver(capsys):
    code, out, _ = run_cli(capsys, "vandiver", "--p", "37", "--k", "32")
    assert code == 0
    assert one_json(out) == {
        "p": 37,
        "k": 32,
        "candidates": 10,
        "witness": {"q": 149, "w": "5", "e": 23},
        "result": "not-a-pth-power",
    }


def test_vandiver_candidates_past_4300_digits(capsys):
    # the witness is found among the first candidates; the count is echoed
    candidates = "1" + "0" * 5000
    code, out, err = run_cli(capsys, "vandiver", "--p", "37", "--k", "32", "--candidates", candidates)
    assert (code, err) == (0, "")
    line = one_json(out)
    assert line["candidates"] == candidates and line["result"] == "not-a-pth-power"


def test_vandiver_regular_pair_is_usage_error(capsys):
    code, out, _ = run_cli(capsys, "vandiver", "--p", "37", "--k", "30")
    assert code == 1
    assert out == ""


# past the JSON decoder's recursion limit: RecursionError, not a ValueError
DEEP_JSON = "[" * 100_000


def genuine_record():
    return record_to_json(scan(field_ctx(5), 2, 1, PLUS, 10**6)[0])


def edited(**changes):
    rec = genuine_record()
    for key, value in changes.items():
        if value is None:
            del rec[key]
        else:
            rec[key] = value
    return rec


# the partial line of `scan --p 5 --x 6 --y 1 --sign plus --trial-bound 2`
PARTIAL = {"partial": True, "p": 5, "x": 6, "y": 1, "sign": "plus", "unfactored_cofactor": "1111"}


def write_lines(path, items):
    path.write_text("".join(
        (item if isinstance(item, str) else json.dumps(item)) + "\n" for item in items
    ))
    return str(path)


def test_verify_genuine_record(capsys, tmp_path):
    infile = write_lines(tmp_path / "ok.jsonl", [genuine_record()])
    code, out, _ = run_cli(capsys, "verify", "--in", infile)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["q"] == 11 and lines[0]["symbol_identities_ok"]
    assert lines[1] == {"records": 1, "failures": 0}


# the entry "zeta" flipped, nonzero -> 0 at q = 11 (p^2 does not divide
# q - 1) and 0 -> nonzero at q = 101 (it does): the zeta consistency fails
@pytest.mark.parametrize("x, q, zeta", [(2, 11, 0), (6, 101, 1)])
def test_verify_tampered_zeta_entry_fails(capsys, tmp_path, x, q, zeta):
    data = next(record_to_json(rec) for rec in scan(field_ctx(5), x, 1, PLUS, 10**6) if rec.q == q)
    assert (data["symbols"]["zeta"] == 0) is (zeta != 0)
    data["symbols"]["zeta"] = zeta
    infile = write_lines(tmp_path / "tampered.jsonl", [data])
    code, out, _ = run_cli(capsys, "verify", "--in", infile)
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 2
    assert lines[0]["zeta_consistency_ok"] is False
    assert lines[1] == {"records": 1, "failures": 1}


def test_verify_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "--in", str(tmp_path / "absent.jsonl"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("q", [21, 31])  # composite; prime without the recorded root
def test_verify_edited_q(capsys, tmp_path, q):
    infile = write_lines(tmp_path / "edited.jsonl", [edited(q=q)])
    code, out, err = run_cli(capsys, "verify", "--in", infile)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("bad", [
    "[1, 2]",
    '{"p": 5',
    {"partial": True},
    edited(sign=None),
    edited(sign=["plus"]),
    edited(symbols={**genuine_record()["symbols"], "zeta": None}),
    edited(symbols={**genuine_record()["symbols"], "x+y": None}),
    edited(symbols={**genuine_record()["symbols"], "x+zeta^1*y": 1.5}),
    edited(q=11.0),
    edited(y=True),
    edited(symbols={**genuine_record()["symbols"], "x+zeta^1*y": 1 + 5}),
    edited(symbols={**genuine_record()["symbols"], "zeta": 2 + 5}),
    edited(symbols={**genuine_record()["symbols"], "unit_minus[2]": -4}),
    edited(q_mod_p2=0),
    edited(ideal={**genuine_record()["ideal"], "q": 31}),
    edited(ideal={**genuine_record()["ideal"], "modulus": ["5", "1"]}),
    edited(ideal={**genuine_record()["ideal"], "modulus": "61"}),
    DEEP_JSON,
    edited(symbols={**genuine_record()["symbols"], "x+zeta^1*y": None}),
    edited(symbols={**genuine_record()["symbols"], "unit_minus[2]": None}),
    edited(symbols={key: None if key.startswith(("x+zeta", "unit")) else value
                    for key, value in genuine_record()["symbols"].items()}),
    {**PARTIAL, "partial": 1},
    {**PARTIAL, "unfactored_cofactor": {"evil": [1, 2]}},
    {**PARTIAL, "unfactored_cofactor": "1"},
    {**PARTIAL, "unfactored_cofactor": "1" * 3000 + "x"},
    edited(N="22"),
    edited(x=-1),
    edited(x=4, y=2),
    {**PARTIAL, "unfactored_cofactor": "1113"},
    {**PARTIAL, "x": -1},
    {**PARTIAL, "x": 6, "y": 2},
], ids=["not-an-object", "truncated", "partial-without-cofactor", "no-sign", "list-sign",
        "null-zeta", "null-x+y", "float-symbol", "float-q", "bool-y",
        "element-exponent-plus-p", "zeta-exponent-plus-p", "negative-unit-exponent",
        "q-mod-p2", "ideal-q", "ideal-modulus", "ideal-modulus-string", "nested-too-deep",
        "null-element", "null-unit", "all-null-table", "partial-1", "partial-cofactor-object",
        "partial-cofactor-1", "partial-cofactor-3001-characters", "N-2q", "x+y-zero",
        "x-y-not-coprime", "partial-cofactor-not-dividing-N", "partial-x+y-zero",
        "partial-x-y-not-coprime"])
def test_verify_rejects_file_before_any_output(capsys, tmp_path, bad):
    infile = write_lines(tmp_path / "bad.jsonl", [genuine_record(), bad])
    code, out, err = run_cli(capsys, "verify", "--in", infile)
    assert code == 1
    assert out == ""
    # short but for the file's name: no value of the line is echoed
    assert err.startswith("error:") and len(err.replace(str(infile), "")) < 200


def test_verify_refuses_a_rewritten_N(capsys, tmp_path):
    # N = 4141 = 41 * 101; each record's N rewritten to 13q still has q
    # as a factor, but is not (x^p - y^p)/(x - y)
    scanned = tmp_path / "scan.jsonl"
    code, _, _ = run_cli(capsys, "scan", "--p", 5, "--x", 7, "--y", 3, "--sign", "minus",
                         "--out", scanned)
    lines = [json.loads(line) for line in scanned.read_text().splitlines()]
    assert code == 0 and [(line["N"], line["q"]) for line in lines] == [("4141", 41), ("4141", 101)]
    code, out, _ = run_cli(capsys, "verify", "--in", scanned)
    assert code == 0 and out.splitlines()[-1] == '{"records":2,"failures":0}'
    infile = write_lines(tmp_path / "n13q.jsonl", [{**line, "N": str(13 * line["q"])} for line in lines])
    code, out, err = run_cli(capsys, "verify", "--in", infile)
    assert (code, out) == (1, "")
    assert err == f"error: {infile}:1: bad record: N is not (x^p + s y^p)/(x + s y)\n"


SYMBOLS5 = genuine_record()["symbols"]


# a non-object table is refused with Python's own message, which is not pinned
@pytest.mark.parametrize("symbols, message", [
    (5, None),
    (None, None),
    ("zeta", None),
    ([1, 2], "record is missing symbol entry 'zeta'"),
    ({key: e for key, e in SYMBOLS5.items() if key != "unit_minus[3]"},
     "record is missing symbol entry 'unit_minus[3]'"),
    ({**SYMBOLS5, "x+zeta^2*y": 5}, "symbol entry 'x+zeta^2*y' = 5 is not in [0, 5)"),
    ({**SYMBOLS5, "unit_minus[4]": -1}, "symbol entry 'unit_minus[4]' = -1 is not in [0, 5)"),
    ({**SYMBOLS5, "x+y": True}, "not an integer: a bool"),
], ids=["int", "null", "string", "list", "missing-entry", "entry-p", "entry-negative",
        "entry-bool"])
def test_verify_refused_symbol_tables_exit_1(capsys, tmp_path, symbols, message):
    infile = write_lines(tmp_path / "bad.jsonl", [edited(symbols=symbols)])
    code, out, err = run_cli(capsys, "verify", "--in", infile)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {infile}:1: bad record: ")
    if message is not None:
        assert err == f"error: {infile}:1: bad record: {message}\n"


def test_verify_accepts_decimal_string_symbol_entries(capsys, tmp_path):
    as_strings = edited(symbols={key: str(e) for key, e in SYMBOLS5.items()})
    code, out, _ = run_cli(capsys, "verify", "--in", write_lines(tmp_path / "s.jsonl", [as_strings]))
    want = run_cli(capsys, "verify", "--in", write_lines(tmp_path / "g.jsonl", [genuine_record()]))
    assert (code, out) == want[:2] and code == 0


SCAN5 = ["scan", "--p", "5", "--x", "2", "--y", "1", "--sign", "plus"]
SYMBOL5 = ["symbol", "--p", "5", "--q", "11", "--w", "3"]
# psi_12 and psi_13: composites that pass the strong-pseudoprime tests to
# bases 2..37, with a w of order 127 (psi_13) or 5 (psi_12) modulo them
PSI12, PSI13 = 318665857834031151167461, 3317044064679887385961981
SYMBOL_PSI12 = ["symbol", "--p", 5, "--q", PSI12, "--w", 26702685135538387932176,
                "--alpha", "[3,1,0,0]"]
SYMBOL_PSI13 = ["symbol", "--p", 127, "--q", PSI13, "--w", pow(2, (PSI13 - 1) // 127, PSI13),
                "--alpha", json.dumps([3, 1] + [0] * 124)]


@pytest.mark.parametrize("argv", [
    ["irregular", "--p", 2],
    ["hminus", "--p", 2],
    ["irregular", "--p", 2**61 - 1],
    ["vandiver", "--p", 2**61 - 1, "--k", 2],
    ["hminus", "--p", 2**61 - 1],
    ["split", "--p", 3, "--q", 7],
    ["split", "--p", 5, "--q", sympy.nextprime(2**64)],
    ["symbol", "--p", 5, "--q", 0, "--modulus", "1,2", "--alpha", "[1,0,0,0]"],
    ["units", "--p", 3],
    ["scan", "--p", 3, "--x", 2, "--y", 1, "--sign", "plus"],
    SCAN5 + ["--out", "{missing}/x.jsonl"],
    SCAN5 + ["--jobs", 2],
    ["telescope", "--pmax", 4],
    ["barlow", "--p", 4, "--x", 1, "--y", 2, "--z", 3],
    ["scan", "--p", 2**61 - 1, "--x", 2, "--y", 1, "--sign", "plus"],
    ["units", "--p", 2**61 - 1],
    ["split", "--p", 2**61 - 1, "--q", 4611686018427387847],
    ["barlow", "--p", 2**61 - 1, "--x", 1, "--y", 2, "--z", 3],
    ["telescope", "--pmax", 2**61 - 1],
    ["units", "--p", 1031],
    ["telescope", "--pmax", 1 << 14],
    ["hminus", "--p", 4099],
    ["vandiver", "--p", 262139, "--k", 1],
    ["vandiver", "--p", 65537, "--k", 2, "--candidates", 0],
    SYMBOL5 + ["--alpha", "5"],
    SYMBOL5 + ["--alpha", "[null,1,2,3]"],
    SYMBOL5 + ["--alpha", "[[1],1,2,3]"],
    SYMBOL5 + ["--alpha", "[1.5,1,2,3]"],
    SYMBOL5 + ["--alpha", "[true,1,2,3]"],
    SYMBOL5 + ["--alpha", '"1234"'],
    SYMBOL5 + ["--alpha", DEEP_JSON],
    SYMBOL_PSI12,
    SYMBOL_PSI13,
    ["split", "--p", 5, "--q", "1" + "0" * 4400],
    ["split", "--p", 5, "--q", "1" + "0" * 4400 + "x"],
    ["irregular", "--p", "1" + "0" * 1000],
    ["vandiver", "--p", 37, "--k", "1" + "0" * 1000],
    ["irregular", "--p", "+11"],
    ["irregular", "--p", "1_1"],
    ["irregular", "--p", "\u0661\u0661"],
    ["irregular", "--p", " 11"],
    SYMBOL5[:-2] + ["--modulus", "8,+1", "--alpha", "[1,0,0,0]"],
    SYMBOL5[:-2] + ["--modulus", "1," + "0" * 4400 + "_", "--alpha", "[1,0,0,0]"],
    SYMBOL5 + ["--alpha", '["' + "1" * 5000 + 'x",1,0,0]'],
    ["split", "--p", 1009, "--q", 2],
    ["split", "--p", 1048573, "--q", 3],
    ["split", "--p", 181, "--q", 2],
    ["split", "--p", 157, "--q", 50893],
    ["symbol", "--p", 1009, "--q", 2, "--modulus", ",".join(["0"] * 504 + ["1"]),
     "--alpha", json.dumps([1] + [0] * 1007)],
    ["barlow", "--p", 65537, "--x", 10**30, "--y", 5, "--z", 7],
    ["barlow", "--p", 65537, "--x", int_to_decimal(10**300), "--y", 5, "--z", 7],
    ["scan", "--p", 1009, "--x", int_to_decimal(10**1000), "--y", 1, "--sign", "plus"],
    ["barlow", "--p", 1048573, "--x", 3, "--y", 5, "--z", 7],
    ["scan", "--p", 1009, "--x", 3, "--y", 1, "--sign", "plus", "--trial-bound", 1 << 40],
    ["scan", "--p", 5, "--x", int_to_decimal((1 << 52427) + 1), "--y", 1, "--sign", "plus",
     "--trial-bound", 3_000_000],
    ["irregular", "--p", 131101],
    ["irregular", "--p", 1048573],
    ["vandiver", "--p", 131101, "--k", 2],
    ["vandiver", "--p", 1048573, "--k", 2],
], ids=["irregular-p2", "hminus-p2", "irregular-p-over-ceiling",
        "vandiver-p-over-ceiling", "hminus-p-over-ceiling", "split-p3", "split-q-over-64-bits",
        "symbol-q0", "units-p3", "scan-p3", "scan-out-missing-dir", "scan-jobs",
        "telescope-pmax4", "barlow-p4", "scan-p-over-ceiling", "units-p-over-ceiling",
        "split-p-over-ceiling", "barlow-p-over-ceiling", "telescope-pmax-over-ceiling",
        "units-p-over-units-ceiling", "telescope-pmax-over-telescope-ceiling",
        "hminus-p-over-hminus-ceiling", "vandiver-p262139-k1-odd",
        "vandiver-p65537-candidates-0",
        "alpha-int", "alpha-null", "alpha-list",
        "alpha-float", "alpha-bool", "alpha-string", "alpha-nested-too-deep",
        "symbol-q-psi12", "symbol-q-psi13", "split-q-4401-digits", "split-q-not-a-number",
        "irregular-p-1001-digits", "vandiver-k-1001-digits", "p-plus-sign", "p-underscore",
        "p-arabic-indic-digits", "p-space", "modulus-plus-sign", "modulus-4402-characters",
        "alpha-5001-character-coefficient", "split-p1009-q2-over-work-ceiling",
        "split-p1048573-q3-over-work-ceiling", "split-p181-q2-over-work-ceiling",
        "split-p157-q50893-over-work-ceiling", "symbol-modulus-over-work-ceiling",
        "barlow-p65537-x-31-digits-over-power-ceiling",
        "barlow-p65537-x-301-digits-over-power-ceiling",
        "scan-p1009-x-1001-digits-over-power-ceiling", "barlow-p1048573-over-power-ceiling",
        "scan-p1009-trial-bound-2-40-over-work-ceiling",
        "scan-p5-x-52428-bits-trial-bound-3e6-over-work-ceiling",
        "irregular-p131101-over-irregular-ceiling", "irregular-p1048573-over-irregular-ceiling",
        "vandiver-p131101-over-irregular-ceiling", "vandiver-p1048573-over-irregular-ceiling"])
def test_bad_input_exits_1(capsys, tmp_path, argv):
    # the message stays short however long the input: it never echoes a
    # value; and a request past a ceiling is refused before the work
    argv = [str(a).replace("{missing}", str(tmp_path / "absent")) for a in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err) < 200


# the first odd number of 1501 digits with no prime factor below 50
HUGE_Q = next(n for n in range(10**1500 + 1, 10**1500 + 10**4, 2)
              if all(n % d for d in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)))


@pytest.mark.parametrize("argv", [
    ["split", "--p", 5, "--q", HUGE_Q],
    ["symbol", "--p", 5, "--q", HUGE_Q, "--w", 3, "--alpha", "[1,0,0,0]"],
    ["symbol", "--p", 5, "--q", HUGE_Q, "--modulus", "1,0,1", "--alpha", "[1,0,0,0]"],
], ids=["split", "symbol-w", "symbol-modulus"])
def test_q_size_checked_before_primality(capsys, monkeypatch, argv):
    # a primality test of q costs time that grows with q; the size check
    # comes first, and its message does not echo q
    calls = []
    real = resfield.is_prime
    monkeypatch.setattr(resfield, "is_prime", lambda n: calls.append(n) or real(n))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("error:") and len(err) < 200


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(args):
        raise InternalError("invariant failed")

    monkeypatch.setitem(cli._HANDLERS, "hminus", broken)
    code, out, err = run_cli(capsys, "hminus", "--p", "37")
    assert code == 3
    assert out == ""
    assert err == "internal error: invariant failed\n"


def test_recursion_error_outside_json_decoding_exits_3(capsys, monkeypatch):
    def runaway(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli._HANDLERS, "hminus", runaway)
    code, out, err = run_cli(capsys, "hminus", "--p", "37")
    assert (code, out) == (3, "")
    assert err.startswith("internal error:")


def test_barlow_sum_past_4300_digits(capsys):
    code, out, err = run_cli(capsys, "barlow", "--p", 2003, "--x", 150, "--y", 1, "--z", 1)
    assert (code, err) == (0, "")
    checks = one_json(out)["checks"]
    assert checks[-1]["detail"] == "sum = " + int_to_decimal(150**2003 + 2)


def test_barlow_x_past_4300_digits(capsys):
    x = 10**4399 + 7  # 4400 digits
    code, out, err = run_cli(capsys, "barlow", "--p", 5, "--x", int_to_decimal(x), "--y", 1, "--z", 1)
    assert (code, err) == (0, "")
    line = one_json(out)
    assert line["x"] == int_to_decimal(x) and line["y"] == 1
    assert line["checks"][-1]["detail"] == "sum = " + int_to_decimal(x**5 + 2)


def test_scan_partial_line_past_4300_digits(capsys):
    p, x = 2003, 150
    code, out, err = run_cli(capsys, "scan", "--p", p, "--x", x, "--y", 1, "--sign", "plus",
                             "--trial-bound", 2)
    assert (code, err) == (0, "")
    line = one_json(out)
    cofactor = (x**p + 1) // (x + 1)
    while cofactor % p == 0:
        cofactor //= p
    assert len(line["unfactored_cofactor"]) > 4300
    assert int_from_json(line["unfactored_cofactor"]) == cofactor


def test_scan_verify_round_trip_past_4300_digits(capsys, tmp_path):
    target = tmp_path / "big.jsonl"
    # x = 2 mod 11 keeps q = 11 from the x = 2 scan; N has 4405 digits
    code, out, _ = run_cli(capsys, "scan", "--p", 5, "--x", 2 + 11 * 10**1100, "--y", 1,
                           "--sign", "plus", "--trial-bound", 20, "--out", target)
    assert (code, out) == (0, "")
    lines = [json.loads(line) for line in target.read_text().splitlines()]
    assert [line.get("q") for line in lines] == [11, None]
    assert len(lines[0]["N"]) > 4300 and len(lines[1]["unfactored_cofactor"]) > 4300
    code, out, _ = run_cli(capsys, "verify", "--in", target)
    assert code == 0
    report = [json.loads(line) for line in out.splitlines()]
    assert report[1] == {"skipped_partial": True,
                         "unfactored_cofactor": lines[1]["unfactored_cofactor"]}
    assert report[2] == {"records": 1, "failures": 0}


def test_symbol_alpha_past_4300_digits(capsys):
    big = "1" + "0" * 5000  # 10^5000 = 1 mod 11
    code, out, err = run_cli(capsys, "symbol", "--p", 5, "--q", 11, "--w", 5,
                             "--alpha", json.dumps([big, "1", "0", "0"]))
    assert (code, err) == (0, "")
    line = one_json(out)
    assert line["alpha"] == [big, "1", "0", "0"]
    code, out, _ = run_cli(capsys, "symbol", "--p", 5, "--q", 11, "--w", 5, "--alpha", "[1,1,0,0]")
    assert code == 0 and line["e"] == one_json(out)["e"]


def test_scan_out_writes_the_stdout_lines(capsys, tmp_path):
    code, out, _ = run_cli(capsys, *SCAN5)
    assert code == 0
    target = tmp_path / "scan.jsonl"
    code, out_file, _ = run_cli(capsys, *SCAN5, "--out", target)
    assert code == 0 and out_file == ""
    assert target.read_text() == out


# Outputs checked by hand: the roots of order 5 mod 11 are 3, 4, 5, 9;
# x^4+x^3+x^2+x+1 = (x^2+5x+1)(x^2+15x+1) mod 19, and 5+5s is a root of
# the second factor in F_19[s]/(s^2+5s+1); (2+zeta) at w=3 is 5, and
# 5^((11-1)/5) = 3 = w^1; the unit tables follow the definitions in
# cycunits, reduced by zeta^4 = -(1+zeta+zeta^2+zeta^3).
@pytest.mark.parametrize("argv, want", [
    (["split", "--p", 5, "--q", 11],
     '{"p":5,"q":11,"f":1,"ideals":['
     '{"q":11,"f":1,"w":"3","modulus":["8","1"]},'
     '{"q":11,"f":1,"w":"4","modulus":["7","1"]},'
     '{"q":11,"f":1,"w":"5","modulus":["6","1"]},'
     '{"q":11,"f":1,"w":"9","modulus":["2","1"]}]}'),
    (["split", "--p", 5, "--q", 19],
     '{"p":5,"q":19,"f":2,"ideals":['
     '{"q":19,"f":2,"w":"0,1","modulus":["1","5","1"],"field_modulus":["1","5","1"]},'
     '{"q":19,"f":2,"w":"5,5","modulus":["1","15","1"],"field_modulus":["1","5","1"]}]}'),
    (SYMBOL5 + ["--alpha", '[2,"1",0,0]'],
     '{"alpha":["2","1","0","0"],"q":11,"w":"3","e":1}'),
    (["units", "--p", 5],
     '{"p":5,'
     '"minus":{"1":["1","0","0","0"],"2":["0","0","1","1"],'
     '"3":["0","0","-1","-1"],"4":["-1","0","0","0"]},'
     '"plus":{"1":["1","0","0","0"],"2":["-2","0","-1","-1"],'
     '"3":["-2","0","-1","-1"],"4":["1","0","0","0"]},'
     '"checks":{"minus_antisymmetry":true,"plus_symmetry":true,"norms_unit":true,'
     '"product_identity":true,"inverse_check":true}}'),
    (["telescope", "--pmax", 13],
     '{"match":true,"pmax":13,"primes_checked":[5,7,11,13]}'),
    (["barlow", "--p", 3, "--x", 1, "--y", 7, "--z", 8],
     '{"p":3,"x":1,"y":7,"z":8,"checks":['
     '{"name":"x+y is a p-th power","holds":true,"detail":"x+y = 8 = (2)^3"},'
     '{"name":"x+z = 3^(nu*p-1) * (p-th power)","holds":true,'
     '"detail":"x+z = 9 = 3^2 * (1)^3, nu = 1"},'
     '{"name":"p divides y","holds":false,"detail":"y = 7"},'
     '{"name":"x, y, z pairwise coprime","holds":true,"detail":""},'
     '{"name":"x^p + y^p + z^p = 0","holds":false,"detail":"sum = 856"}]}'),
], ids=["split-f1", "split-f2", "symbol", "units", "telescope", "barlow"])
def test_output(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, want + "\n", "")


@pytest.mark.parametrize("argv", [["--help"], ["hminus", "--help"], ["scan", "-h"]])
def test_help_returns_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: cyclores")
    assert err == ""


FUZZ_VALUES = [None, True, False, 1.5, -0.0, "", "x", "12a", "1e3", [], [1], {}, {"a": 1}, 2**70,
               1]  # 1: a well-formed value that is wrong in most fields


def fuzz_records():
    records = []
    for p in (5, 7, 11, 13):
        for x, y, sign in ((2, 1, PLUS), (3, 1, MINUS), (3, 2, PLUS), (5, 2, MINUS)):
            records += [record_to_json(rec) for rec in scan(field_ctx(p), x, y, sign, 10**6)]
    return records


def paths(node, prefix=()):
    """Every key path in a JSON record, nested objects included."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from paths(value, prefix + (key,))


def fuzzed(rng, records):
    """A copy of one of ``records`` with one key path deleted or set to one
    of FUZZ_VALUES."""
    rec = json.loads(json.dumps(rng.choice(records)))
    *parents, key = rng.choice(list(paths(rec)))
    node = rec
    for name in parents:
        node = node[name]
    if rng.random() < 0.2:
        del node[key]
    else:
        node[key] = rng.choice(FUZZ_VALUES)
    return rec


def test_verify_fuzzed_records_never_exit_3(capsys, tmp_path):
    rng = random.Random(20130423)
    records = fuzz_records()
    assert {rec["p"] for rec in records} == {5, 7, 11, 13}
    infile = tmp_path / "fuzz.jsonl"
    codes = set()
    for _ in range(600):
        rec = fuzzed(rng, records)
        infile.write_text(json.dumps(rec) + "\n")
        code, out, err = run_cli(capsys, "verify", "--in", infile)
        assert code in (0, 1, 2), (rec, err)
        if code == 1:
            assert out == "", rec
        codes.add(code)
    assert codes >= {1, 2}


def test_fuzzed_records_that_parse_pass_every_congruence():
    # verify prints "congruences_ok" without a pass: every record that
    # line_from_json accepts, genuine or drawn as the fuzz test above
    # draws them, passes that pass
    rng = random.Random(20130423)
    records = fuzz_records()
    accepted = 0
    for rec in records + [fuzzed(rng, records) for _ in range(600)]:
        try:
            entry = line_from_json(rec)
        except (ValueError, KeyError, TypeError):
            continue
        accepted += 1
        assert verify_congruences(entry) == [], rec
    assert accepted > len(records)


# The contract fuzzer: argv for every command, drawn from a grammar with p
# below 300 and integers of any size elsewhere.  Trial bounds come from a
# short list, so that no draw lands just under TRIAL_WORK_MAX, and
# telescope's --pmax is drawn as a p.
FUZZ_PRIMES = list(sympy.primerange(2, 300))
IRREGULAR_K = {37: 32, 59: 44, 67: 58, 101: 68}
NOT_INTEGERS = ["", "x", "+5", "1_0", " 7", "1e3", "0x10", "1.0", "\u0663", "-", "--"]
TRIAL_BOUNDS = [None, 2, 10, 1000, 10**5, 1 << 40, (1 << 40) + 1, 0, -7, 2**64, "1e6"]
ALPHA_NOT_LISTS = ["5", "null", "true", "1.5", '"1234"', "{}", '{"a": 1}', "", "[", "[1,", DEEP_JSON]


def fuzz_int(rng):
    """A decimal integer option of any size, or now and then not one."""
    r = rng.random()
    if r < 0.3:
        n = rng.randint(-30, 30)
    elif r < 0.45:
        n = 2 ** rng.choice((31, 61, 63, 64, 127, 128)) + rng.randint(-3, 3)
    elif r < 0.65:
        n = rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 200))
    elif r < 0.75:
        n = rng.getrandbits(rng.randint(200, 5000))
    elif r < 0.8:
        return "1" + "".join(rng.choices("0123456789", k=rng.randint(4300, 100_000)))
    elif r < 0.9:
        n = sympy.nextprime(rng.getrandbits(rng.randint(2, 40)))
    else:
        return rng.choice(NOT_INTEGERS)
    return int_to_decimal(n)


def fuzz_p(rng):
    """p below 300: mostly an odd prime, else any integer below 300 or no integer."""
    r = rng.random()
    if r < 0.8:
        return rng.choice(FUZZ_PRIMES)
    if r < 0.95:
        return rng.randint(-5, 299)
    return rng.choice(NOT_INTEGERS)


def fuzz_ideal(rng, p):
    """(q, w): a degree-1 ideal above a prime q = 1 mod p, or noise."""
    if not (isinstance(p, int) and p >= 3 and sympy.isprime(p)) or rng.random() < 0.3:
        return fuzz_int(rng), fuzz_int(rng)
    q = 1 + 2 * p * rng.randint(1, 300)
    while not sympy.isprime(q):
        q += 2 * p
    w = 1
    while w == 1:
        w = pow(rng.randrange(2, q), (q - 1) // p, q)
    return q, w


def fuzz_alpha(rng, p):
    """The JSON text of --alpha: p-1 coefficients, or a near miss."""
    r = rng.random()
    n = p - 1 if isinstance(p, int) and 2 <= p < 300 else 4
    items = [rng.randint(-9, 9) for _ in range(n)]
    if r < 0.15:
        return rng.choice(ALPHA_NOT_LISTS)
    if r < 0.3:
        items = items[:rng.randint(0, n)] if rng.random() < 0.5 else items + [1]
    elif r < 0.5:
        items[rng.randrange(n)] = rng.choice(FUZZ_VALUES + [[[1]], "1" * 5000 + "x"])
    elif r < 0.6:
        items[rng.randrange(n)] = fuzz_int(rng)
    return json.dumps(items)


def fuzz_argv(rng, files):
    """One argv for a command drawn uniformly, as option pairs; an option
    may then be dropped, an unknown one added, or --help asked for."""
    command = rng.choice(sorted(cli._HANDLERS))
    p = fuzz_p(rng)
    opts = [("--p", p)]
    if command == "split":
        opts.append(("--q", fuzz_ideal(rng, p)[0]))
    elif command == "symbol":
        q, w = fuzz_ideal(rng, p)
        opts.append(("--q", q))
        if rng.random() < 0.8:
            opts.append(("--w", w))
        if rng.random() < 0.3:
            modulus = [(-w) % q, 1] if isinstance(q, int) and isinstance(w, int) else [fuzz_int(rng), 1]
            opts.append(("--modulus", ",".join(map(str, modulus))))
        opts.append(("--alpha", fuzz_alpha(rng, p)))
    elif command == "vandiver":
        if rng.random() < 0.4:
            p = rng.choice(sorted(IRREGULAR_K))
            opts = [("--p", p), ("--k", IRREGULAR_K[p])]
        else:
            opts.append(("--k", fuzz_int(rng)))
        if rng.random() < 0.5:
            opts.append(("--candidates", fuzz_int(rng)))
    elif command == "scan":
        opts += [("--x", fuzz_int(rng)), ("--y", fuzz_int(rng)),
                 ("--sign", rng.choice(("plus", "minus", "zero")))]
        bound = rng.choice(TRIAL_BOUNDS)
        if bound is not None:
            opts.append(("--trial-bound", bound))
        if rng.random() < 0.3:
            opts.append(("--out", rng.choice((files["out"], files["missing"]))))
    elif command == "verify":
        opts = [("--in", rng.choice(list(files.values())))]
    elif command == "telescope":
        opts = [("--pmax", p)]
    elif command == "barlow":
        opts += [("--x", fuzz_int(rng)), ("--y", fuzz_int(rng)), ("--z", fuzz_int(rng))]
    r = rng.random()
    if r < 0.1:
        del opts[rng.randrange(len(opts))]
    elif r < 0.15:
        opts.append(("--bogus", 1))
    elif r < 0.17:
        opts.append(("--help", None))
    return [command] + [str(a) for pair in opts for a in pair if a is not None]


def test_contract_fuzzer_over_every_command(capsys, tmp_path):
    # exit 0, 1 or 2 on every draw (3 is kept for bugs), and a refused
    # request prints nothing on stdout
    tampered = edited(symbols=dict(genuine_record()["symbols"], zeta=0))
    files = {
        "genuine": write_lines(tmp_path / "genuine.jsonl", [genuine_record(), PARTIAL]),
        "tampered": write_lines(tmp_path / "tampered.jsonl", [tampered]),
        "empty": write_lines(tmp_path / "empty.jsonl", []),
        "garbage": write_lines(tmp_path / "garbage.jsonl", ["{", "[1, 2]", DEEP_JSON]),
        "directory": str(tmp_path),
        "missing": str(tmp_path / "absent" / "x.jsonl"),
        "out": str(tmp_path / "out.jsonl"),
    }
    rng = random.Random(20130424)
    codes = {}
    for _ in range(800):
        argv = fuzz_argv(rng, files)
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2), (argv, err)
        if code == 1:
            assert out == "", argv
        codes.setdefault(argv[0], set()).add(code)
    assert set(codes) == set(cli._HANDLERS)
    assert set().union(*codes.values()) == {0, 1, 2}
    assert all(0 in got and 1 in got for got in codes.values()), codes


# The option reader's oracle: the argparse parser the CLI used before its
# option table, which must read every argv alike: the same values, both a
# usage error, or both the help text with the same exit code.
class OracleParser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise cli.UsageError(message)


@functools.cache
def oracle_parser():
    _int_arg, _int_list_arg = cli._int_arg, cli._int_list_arg
    parser = OracleParser(prog="cyclores", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=OracleParser)

    sp = sub.add_parser("split", help="prime ideals above q in the p-th cyclotomic field")
    sp.add_argument("--p", type=_int_arg, required=True)
    sp.add_argument("--q", type=_int_arg, required=True)

    sp = sub.add_parser("symbol", help="p-th power residue symbol exponent")
    sp.add_argument("--p", type=_int_arg, required=True)
    sp.add_argument("--q", type=_int_arg, required=True)
    sp.add_argument("--w", type=_int_arg, help="root of unity labelling a degree-1 ideal")
    sp.add_argument("--modulus", type=_int_list_arg,
                    help="comma-separated modulus coefficients (f > 1)")
    sp.add_argument("--alpha", required=True, help="JSON array of p-1 coefficients")

    sp = sub.add_parser("units", help="cyclotomic unit tables and identity checks")
    sp.add_argument("--p", type=_int_arg, required=True)

    sp = sub.add_parser("irregular", help="irregular pairs (p, k)")
    sp.add_argument("--p", type=_int_arg, required=True)

    sp = sub.add_parser("hminus", help="relative class number h^-")
    sp.add_argument("--p", type=_int_arg, required=True)

    sp = sub.add_parser("vandiver", help="one-sided eigencomponent witness search")
    sp.add_argument("--p", type=_int_arg, required=True)
    sp.add_argument("--k", type=_int_arg, required=True)
    sp.add_argument("--candidates", type=_int_arg, default=10)

    sp = sub.add_parser("scan", help="factor (x^p +- y^p)/(x +- y) and record symbols")
    sp.add_argument("--p", type=_int_arg, required=True)
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument("--y", type=_int_arg, required=True)
    sp.add_argument("--sign", choices=("plus", "minus"), required=True)
    sp.add_argument("--trial-bound", type=_int_arg, default=1_000_000)
    sp.add_argument("--out", help="write JSON lines here instead of stdout")

    sp = sub.add_parser("verify", help="check identities on recorded scans")
    sp.add_argument("--in", dest="infile", required=True, help="JSON-lines records file")

    sp = sub.add_parser("telescope", help="replay telescoping symbol chains")
    sp.add_argument("--pmax", type=_int_arg, required=True)

    sp = sub.add_parser("barlow", help="evaluate Barlow-Abel relation formats")
    sp.add_argument("--p", type=_int_arg, required=True)
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument("--y", type=_int_arg, required=True)
    sp.add_argument("--z", type=_int_arg, required=True)

    return parser


def read_options(parse, argv):
    """argv as parse reads it: ("values", the values), ("error", the
    message) or ("help", the exit code)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parse(argv)
    except cli.UsageError as exc:
        assert out.getvalue() == ""
        return "error", str(exc)
    except SystemExit as exc:  # argparse's exit after it printed the help text
        args, code = None, exc.code
    else:
        code = 0
    if args is None:
        assert out.getvalue().startswith("usage: cyclores")
        return "help", code
    assert out.getvalue() == ""
    return "values", vars(args)


SCAN5_OUT = SCAN5 + ["--out"]
# the option reader's contract, case by case: both spellings of a value,
# unique prefixes, the last occurrence, values that start with "-", help
# where it stands, and errors found during or after the walk
OPTION_CASES = [
    ["hminus", "--p", "37"], ["hminus", "--p=37"], ["hminus", "--p="], ["hminus", "--p"],
    ["telescope", "--p", "13"], ["telescope", "--pm=13"], ["vandiver", "--p", "37", "--k", "32"],
    ["vandiver", "--p", "37", "--k", "32", "--cand", "3"], SCAN5 + ["--trial", "10"],
    SYMBOL5[:-2] + ["--mod", "8,1", "--alpha", "[1,0,0,0]"], ["verify", "--i", "f.jsonl"],
    ["hminus", "--p", "5", "--p", "37"], ["hminus", "--p", "x", "--p", "37"],
    ["barlow", "--p", "5", "--x", "31", "--y", "1", "--z", "-2"],
    ["barlow", "--p", "5", "--x", "-3.5", "--y", "1", "--z", "-.5"],
    SCAN5_OUT + ["--foo"], SCAN5_OUT + ["-"], SCAN5_OUT + ["-5"], SCAN5_OUT + ["-x"],
    SCAN5_OUT + ["--x"], SCAN5_OUT + ["-h"], SCAN5_OUT + ["x y"],
    SCAN5[:-1] + ["zero"], SCAN5[:-1] + ["--p"],
    ["--help"], ["-h"], ["--he"], ["hminus", "--help"], ["hminus", "--p", "37", "--he"],
    ["scan", "-h"], ["hminus", "--p", "x", "--help"], ["hminus", "--bogus", "1", "--help"],
    ["--bogus", "hminus", "--help"], ["hminus", "--help", "--p", "x"], ["hminus", "--p", "--help"],
    ["hminus", "--p", "37", "--precision", "256"], ["hminus", "--p", "37", "--precision=256"],
    ["--bogus", "hminus", "--p", "37"], ["hminus", "--p", "37", "38"],
    ["hminus"], ["scan", "--p", "5"], [], ["bogus"],
]


def test_option_table_reads_argv_as_argparse_did():
    # the contract fuzzer's draws, parsed only, and the cases above; no
    # error message echoes a value
    rng = random.Random(20130425)
    files = dict.fromkeys(["genuine", "missing", "out"], "records.jsonl")
    draws = [fuzz_argv(rng, files) for _ in range(2000)] + OPTION_CASES
    kinds = set()
    for argv in draws:
        want, got = read_options(oracle_parser().parse_args, argv), read_options(cli._parse, argv)
        kinds.add(want[0])
        if want[0] == "error":
            assert got[0] == "error", argv
            assert len(got[1]) < 190 and not any(
                token in got[1] for token in argv
                if len(token) > 5 and token[0] != "-" and token not in cli._COMMANDS), argv
        else:
            assert got == want, argv
    assert kinds == {"values", "error", "help"}


def test_inert_split_is_fast(capsys):
    # q = 3 is inert at p = 127 (f = 126): Cantor-Zassenhaus returns Phi_127
    # itself, and it is the one ideal's modulus
    resfield.split_prime.cache_clear()
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "split", "--p", 127, "--q", 3)
    assert time.perf_counter() - start < 1
    assert code == 0 and one_json(out)["ideals"][0]["modulus"] == ["1"] * 127


# (exit code, sha256 of stdout) of runs whose output no refactoring may
# change; a failure here means a command's output moved, not a bug in
# the test.  Each scan's stdout is then fed to verify.
GOLDEN = [
    (["split", "--p", 5, "--q", 11], "72500966a58b594501fdf46d631586fd1f3afd15960abd8b06c4fe9d94686be4"),
    (["split", "--p", 5, "--q", 19], "33b7b23886a024143a2853335fcfc629c2c421e21878450f1330e0f975b1ddc2"),
    (["split", "--p", 7, "--q", 11], "eafe8ccf57d5c81550ac6fcc709db9d7c4c0fd784f557d92d75e22975222f74f"),
    (["split", "--p", 13, "--q", 5], "75997dd47d5a1c0c96962c1a70f2f6feaa95e74c1ed6689fbab74b0cfc5e70b1"),
    (["split", "--p", 11, "--q", 7], "ebb23f13142ecc4f7fed492c6600e023ea69c3a2c02f6e171896f8d313abbffe"),
    (["split", "--p", 31, "--q", 2], "bd61b7be3dab092bf9347f6c7d7bbd8536c6bf3c57db809e625abc582a7dc155"),
    (["split", "--p", 127, "--q", 3], "80b1209f6c75938dbe9b923d4404582b4474399b607d79a853c4166a34242340"),
    (["split", "--p", 61, "--q", 397], "8ff87c4b5dd26ab8e738038c4385df8ea2eb3240013f36ade1385daa774ab467"),
    (["symbol", "--p", 5, "--q", 11, "--w", 3, "--alpha", "[2,1,0,0]"],
     "76a24ce30dd1c3e66f0fa255d6405e26399e62c9ce886ac424b43d24e14d8b9a"),
    (["symbol", "--p", 5, "--q", 19, "--modulus", "1,15,1", "--alpha", "[2,1,0,0]"],
     "1512d88756af787ea3f78e136763353315ec5d439cbcc6b60e7434a54979046a"),
    (["units", "--p", 13], "b34af8b4928182b4795ae59ce00355812a9d3f4e4ccbae4c65414ca133e70c4c"),
    (["irregular", "--p", 37], "5796b21598f6bf809541818b0c1ef65c1effbd5928596baca25fd2303a207043"),
    (["irregular", "--p", 59], "a4659b3f10b30257d24e0c4f94df7ae03b8ad77621364df9be9fef5741620e01"),
    (["irregular", "--p", 101], "37eaf6fc54a1298993851724f281fec3736d8b04afb653d55e2167846a5458da"),
    # m = (p-1)/2 = 8003 is odd, so the chirp-z product folds negacyclically
    (["irregular", "--p", 16007], "33e89f5b7ed2051f303926e946a410e51ed6d210162ea3e6bb49abbbe44aef3b"),
    (["hminus", "--p", 37], "ee2511bf534f5f08a0864b57f920bfefdff458567a54968c415742aef279f381"),
    (["hminus", "--p", 59], "9b5d75af8f71138ee7e8d584743f291c1c2074b477415c9127bbbed80fd26748"),
    (["hminus", "--p", 101], "ac145c3f9dd413046f3706083a4164c6eabebb1a1e7c42e68f9a5956ac281182"),
    (["hminus", "--p", 1021], "c6d45ea40284185ed360b257869f3e23a156535a560b78a764e751c1608b39d0"),
    # irregular (k = 888), m = 545 odd: a negacyclic fold at every word prime
    (["hminus", "--p", 1091], "66d3fdfd14a12aede46e3117ab5d0fa9e54c407fef2e34835a25791db2a28c5e"),
    (["vandiver", "--p", 37, "--k", 32], "df515b02b3b6cea5a13a645c5ee882b628d5ebd73653b21de03510f6ad2c45c8"),
    # index of irregularity 2 (p = 157) and 3 (p = 491)
    (["vandiver", "--p", 157, "--k", 62], "fffba70469db10832f4b1885916d7c7a8094d129ce44fd5a88f7e4a9fd14a4ce"),
    (["vandiver", "--p", 157, "--k", 110], "1700f2585718e029c16908a7ea11e8747a0afaa1095e78485b865d61f9f64766"),
    (["vandiver", "--p", 491, "--k", 292], "5b42cf73c966e997646515151c39518127c9e17ff09859f0bf11287e3a84354e"),
    (["vandiver", "--p", 491, "--k", 336], "8870f5023c7c08fdf2c0b0e32a557b95c3a5736fd4c3ec16b5b406d01c7c8760"),
    (["vandiver", "--p", 491, "--k", 338], "e3281de871037da025d17d4d3e97cdc7c9e0a5131576a6d711563bc4707871a2"),
    (["telescope", "--pmax", 50], "2ac1374ce3215e0c658958b0f3ccabe21b1597110839854ca7ca752b93664abe"),
    (["barlow", "--p", 3, "--x", 1, "--y", 7, "--z", 8],
     "dddb3cc468141740e1b0d29688cbeda6fb86ab14ddd337aa3edc54b5b3d48237"),
]
# scan (p, x, y, sign) -> (scan stdout hash, verify stdout hash); the
# minus scan at p = 5 hits q = 101, where the specialization triggers
GOLDEN_SCANS = [
    ((101, 4, 1, "plus"), "8d1f0b8e88c863dd1623187cca3c4010d3f1b572f00c72df0d903ba03da17386",
     "48dd09e5c5237c46e2eabb1b4cf026acc50e34cae5aa556dcdee59bc3a3688ee"),
    ((31, 3, 1, "plus"), "3fdadb057983d7bb991a3a4f75fb48387728d288fe87574447e0db79575fb1b7",
     "e2bfb7d723c7ec65de283fd0be5866af1dad18be90a0400fb53393bc6b804ec2"),
    ((5, 7, 3, "minus"), "11c919c936920deaf76d4b908f6372cb762fa8b3d7fb510382bdac29ed4cbab5",
     "5c6272b5f04a084e9d27e8c65209f042495d3f83493500ce6dc3a7ca3440de3e"),
    ((41, 2, 1, "minus"), "5aaa50bbb04f4fc748700c87ab348e548e9e85619004e0d12e0455803aa973a5",
     "fa8d67f4766d0190f4b4b222693f185475667a4975818d4e9408e18c136370c5"),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=["-".join(str(a).lstrip("-") for a in argv) for argv, _ in GOLDEN])
def test_golden_output(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert (code, sha256(out)) == (0, digest)


@pytest.mark.parametrize("case, scan_digest, verify_digest", GOLDEN_SCANS,
                         ids=["-".join(map(str, c)) for c, _, _ in GOLDEN_SCANS])
def test_golden_scan_verify(capsys, tmp_path, case, scan_digest, verify_digest):
    p, x, y, sign = case
    code, out, _ = run_cli(capsys, "scan", "--p", p, "--x", x, "--y", y, "--sign", sign)
    assert (code, sha256(out)) == (0, scan_digest)
    infile = write_lines(tmp_path / "scan.jsonl", out.splitlines())
    code, out, _ = run_cli(capsys, "verify", "--in", infile)
    assert (code, sha256(out)) == (0, verify_digest)
