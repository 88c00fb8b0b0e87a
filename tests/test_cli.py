import json

import pytest

from cyclores.cli import run
from cyclores.cycint import field_ctx
from cyclores.fltharness import PLUS, record_to_json, scan


def run_cli(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def one_json(out):
    lines = out.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_hminus(capsys):
    code, out, _ = run_cli(capsys, "hminus", "--p", "37")
    assert code == 0
    assert out == '{"p":37,"h_minus":"37"}\n'


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


def test_vandiver_regular_pair_is_usage_error(capsys):
    code, out, _ = run_cli(capsys, "vandiver", "--p", "37", "--k", "30")
    assert code == 1
    assert out == ""


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
], ids=["not-an-object", "truncated", "partial-without-cofactor", "no-sign", "list-sign"])
def test_verify_rejects_file_before_any_output(capsys, tmp_path, bad):
    infile = write_lines(tmp_path / "bad.jsonl", [genuine_record(), bad])
    code, out, _ = run_cli(capsys, "verify", "--in", infile)
    assert code == 1
    assert out == ""
