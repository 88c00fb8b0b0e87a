"""Command-line front end with reproducible JSON output.

Exit codes: 0 success (all assertions passed), 1 usage error or bad
input, 2 verification failure, 3 internal error.  ``run`` alone maps
exceptions to codes: a usage error, a ValueError (the library's signal
for bad input, JSON and decoding errors included) or an OSError exits
1, and every other exception, InternalError included, exits 3.
``--help`` prints the help text to stdout and ``run`` returns 0; it
never ends the calling process.  Single results are printed as one
JSON object; scans and verifications stream JSON lines.  Big integers
are serialized as decimal strings; integer options are read as JSON
integers are (``cycint.int_from_json``).  ``verify`` reads the lines
``scan`` writes and prints the lines ``fltharness.verify_lines`` makes
of them; it exits 2 when the last of them counts a failed record.

The argument parser is built once per process, on the first ``run``
call, and reused by every later one: parsing only reads it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cycint import (
    coeffs_to_json,
    cyc_from_json,
    cyc_mul,
    cyc_new,
    cyc_one,
    field_ctx,
    int_from_json,
    int_to_decimal,
    int_to_json,
)
from .cycunits import (
    inv_one_plus_zeta,
    inv_unit_minus,
    inv_unit_plus,
    unit_minus,
    unit_plus,
    unit_product_check,
)
from .fltharness import (
    MINUS,
    PLUS,
    ScanRecord,
    barlow_abel_check,
    line_from_json,
    partial_to_json,
    record_to_json,
    scan,
    telescope_replay,
    verify_lines,
)
from .ntheory import is_prime
from .powsym import symbol
from .regulab import h_minus, irregular_pairs, vandiver_witness
from .resfield import ideal_from_modulus, ideal_from_root, ideal_to_json, split_prime

__all__ = ["run", "main", "UsageError", "UNITS_P_MAX", "TELESCOPE_P_MAX", "HMINUS_P_MAX"]

# Exclusive ceilings for the commands whose running time, not memory,
# outgrows cycint.P_MAX.  units --p makes about 4p products in Z[zeta]
# and prints about 2p^2 numbers: p = 1021 takes 3.1 s on a 2-core x86-64
# machine (CPython 3.11).  telescope --pmax replays O(p) steps for each
# prime up to pmax: 11 s at pmax = 16384 there.  hminus --p grows like
# p^2.5 to p^3: 0.11 s at p = 1009, 0.95 s at 2039, 6.7 s at 4093 there.
UNITS_P_MAX = 1 << 10
TELESCOPE_P_MAX = 1 << 14
HMINUS_P_MAX = 1 << 12


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _emit(obj, out=None) -> None:
    print(_dump(obj), file=out or sys.stdout)


def _loads(text: str):
    """json.loads, with nesting past the decoder's limit as bad input."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply: {exc}") from exc


def _int_arg(text: str) -> int:
    """An integer option; an error gives its length, not its value."""
    try:
        return int_from_json(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal integer ({len(text)} characters)") from None


def _int_list_arg(text: str) -> list[int]:
    """A comma-separated list of integers, each read as ``_int_arg`` reads one."""
    try:
        return [int_from_json(item) for item in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of decimal integers ({len(text)} characters)") from None


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="cyclores", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

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


def _cmd_split(args) -> int:
    ideals = split_prime(field_ctx(args.p), args.q)
    _emit({
        "p": args.p,
        "q": args.q,
        "f": ideals[0].f,
        "ideals": [ideal_to_json(ideal) for ideal in ideals],
    })
    return 0


def _cmd_symbol(args) -> int:
    if (args.w is None) == (args.modulus is None):
        raise UsageError("give exactly one of --w (f=1) or --modulus (f>1)")
    ctx = field_ctx(args.p)
    if args.w is not None:
        ideal = ideal_from_root(ctx, args.q, args.w)
    else:
        ideal = ideal_from_modulus(ctx, args.q, args.modulus)
    alpha = cyc_from_json(ctx, _loads(args.alpha))
    e = symbol(alpha, ideal)
    _emit({
        "alpha": coeffs_to_json(alpha),
        "q": args.q,
        "w": ideal_to_json(ideal)["w"],
        "e": e,
    })
    return 0


def _cmd_units(args) -> int:
    """Print both unit tables and check their identities; exit 2 if one fails.

    Each table is built once.  "norms_unit" multiplies every unit by its
    closed-form inverse (see ``cycunits``): a product equal to 1 exhibits
    the unit's inverse, so its norm, a multiplicative integer, is +-1,
    and it fails for any element other than the unit the inverse
    belongs to.  Those 2(p-1) products, the 2(p-1) of
    ``unit_product_check`` and the 2p^2 printed numbers set UNITS_P_MAX.
    """
    if not args.p < UNITS_P_MAX:
        raise UsageError(f"units needs p < {UNITS_P_MAX}")
    ctx = field_ctx(args.p)
    p = ctx.p
    one = cyc_one(ctx)
    minus = [unit_minus(ctx, a) for a in range(1, p)]
    plus = [unit_plus(ctx, a) for a in range(1, p)]
    checks = {
        "minus_antisymmetry": all(u == -v for u, v in zip(minus, reversed(minus))),
        "plus_symmetry": plus == plus[::-1],
        "norms_unit": all(
            cyc_mul(u, inv_unit_minus(ctx, a)) == one and cyc_mul(v, inv_unit_plus(ctx, a)) == one
            for a, (u, v) in enumerate(zip(minus, plus), 1)
        ),
        "product_identity": unit_product_check(ctx, plus),
        "inverse_check": cyc_mul(cyc_new(ctx, [(0, 1), (1, 1)]), inv_one_plus_zeta(ctx)) == one,
    }
    _emit({
        "p": p,
        "minus": {str(a): coeffs_to_json(u) for a, u in enumerate(minus, 1)},
        "plus": {str(a): coeffs_to_json(u) for a, u in enumerate(plus, 1)},
        "checks": checks,
    })
    return 0 if all(checks.values()) else 2


def _cmd_irregular(args) -> int:
    pairs = irregular_pairs(args.p)
    _emit({"p": args.p, "irregular_pairs": [pair.k for pair in pairs]})
    return 0


def _cmd_hminus(args) -> int:
    if not args.p < HMINUS_P_MAX:
        raise UsageError(f"hminus needs p < {HMINUS_P_MAX}")
    value = h_minus(args.p)
    _emit({"p": args.p, "h_minus": int_to_decimal(value)})
    return 0


def _cmd_vandiver(args) -> int:
    witness = vandiver_witness(args.p, args.k, args.candidates)
    out = {"p": args.p, "k": args.k, "candidates": int_to_json(args.candidates)}
    if witness is None:
        out["witness"] = None
        out["result"] = "inconclusive"
    else:
        out["witness"] = {"q": witness.q, "w": str(witness.w), "e": witness.e}
        out["result"] = "not-a-pth-power"
    _emit(out)
    return 0


def _cmd_scan(args) -> int:
    sign = PLUS if args.sign == "plus" else MINUS
    result = scan(field_ctx(args.p), args.x, args.y, sign, args.trial_bound)
    lines = [record_to_json(rec) for rec in result]
    if result.unfactored_cofactor is not None:
        lines.append(partial_to_json(args.p, args.x, args.y, sign, result.unfactored_cofactor))
    text = "".join(_dump(line) + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _read_lines(path: str) -> list[ScanRecord | int]:
    """Read a scan's JSON-lines file completely, before anything is
    emitted (see ``fltharness.line_from_json``).  A malformed line is a
    usage error naming its line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    entries = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(line_from_json(_loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"{path}:{number}: bad record: {exc}") from exc
    return entries


def _cmd_verify(args) -> int:
    for line in verify_lines(_read_lines(args.infile)):
        _emit(line)
    return 2 if line["failures"] else 0


def _cmd_telescope(args) -> int:
    if not 5 <= args.pmax < TELESCOPE_P_MAX:
        raise UsageError(f"--pmax must be in [5, {TELESCOPE_P_MAX})")
    checked = []
    all_match = True
    for p in range(5, args.pmax + 1):
        if not is_prime(p):
            continue
        report = telescope_replay(field_ctx(p))
        checked.append(p)
        if not (report.match and report.minus_chain_zero):
            all_match = False
    _emit({"match": all_match, "pmax": args.pmax, "primes_checked": checked})
    return 0 if all_match else 2


def _cmd_barlow(args) -> int:
    report = barlow_abel_check(args.p, args.x, args.y, args.z)
    _emit({
        "p": args.p,
        "x": int_to_json(args.x),
        "y": int_to_json(args.y),
        "z": int_to_json(args.z),
        "checks": [
            {"name": c.name, "holds": c.holds, "detail": c.detail}
            for c in report.checks
        ],
    })
    return 0


_HANDLERS = {
    "split": _cmd_split,
    "symbol": _cmd_symbol,
    "units": _cmd_units,
    "irregular": _cmd_irregular,
    "hminus": _cmd_hminus,
    "vandiver": _cmd_vandiver,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "telescope": _cmd_telescope,
    "barlow": _cmd_barlow,
}


def run(argv: list[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # argparse's exit after --help printed its text
        return exc.code
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
