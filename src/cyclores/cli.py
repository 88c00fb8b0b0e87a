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

Options are read by one walk over argv against a module-level table
(``_COMMANDS``: each command's help line and, for each option, its
destination, reader and default or required marker), which is also the
source of the help text.  The walk reads argv as argparse did, with
unique prefixes of option names, ``--opt=value`` and the same exit code
and stdout for every argv, and costs a few microseconds per call
without importing argparse.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

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

__all__ = ["run", "main", "UsageError", "UNITS_P_MAX", "TELESCOPE_P_MAX"]

# Exclusive ceilings for the commands whose running time, not memory,
# outgrows cycint.P_MAX.  units --p makes about 4p products in Z[zeta]
# and prints about 2p^2 numbers: p = 1021 takes 3.1 s on a 2-core x86-64
# machine (CPython 3.11).  telescope --pmax replays O(p) steps for each
# prime up to pmax: 11 s at pmax = 16384 there.  h_minus checks its own.
UNITS_P_MAX = 1 << 10
TELESCOPE_P_MAX = 1 << 14


class UsageError(Exception):
    pass


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
        raise ValueError(f"not a decimal integer ({len(text)} characters)") from None


def _int_list_arg(text: str) -> list[int]:
    """A comma-separated list of integers, each read as ``_int_arg`` reads one."""
    try:
        return [int_from_json(item) for item in text.split(",")]
    except ValueError:
        raise ValueError(f"not a list of decimal integers ({len(text)} characters)") from None


def _sign_arg(text: str) -> str:
    if text not in ("plus", "minus"):
        raise ValueError("invalid choice (choose from 'plus', 'minus')")
    return text


_REQUIRED = object()

# command -> (help line, {option: (destination, reader, default or
# _REQUIRED, help)}).  Every reader raises ValueError on a bad value.
_COMMANDS = {
    "split": ("prime ideals above q in the p-th cyclotomic field", {
        "--p": ("p", _int_arg, _REQUIRED, ""),
        "--q": ("q", _int_arg, _REQUIRED, ""),
    }),
    "symbol": ("p-th power residue symbol exponent", {
        "--p": ("p", _int_arg, _REQUIRED, ""),
        "--q": ("q", _int_arg, _REQUIRED, ""),
        "--w": ("w", _int_arg, None, "root of unity labelling a degree-1 ideal"),
        "--modulus": ("modulus", _int_list_arg, None,
                      "comma-separated modulus coefficients (f > 1)"),
        "--alpha": ("alpha", str, _REQUIRED, "JSON array of p-1 coefficients"),
    }),
    "units": ("cyclotomic unit tables and identity checks", {
        "--p": ("p", _int_arg, _REQUIRED, ""),
    }),
    "irregular": ("irregular pairs (p, k)", {
        "--p": ("p", _int_arg, _REQUIRED, ""),
    }),
    "hminus": ("relative class number h^-", {
        "--p": ("p", _int_arg, _REQUIRED, ""),
    }),
    "vandiver": ("one-sided eigencomponent witness search", {
        "--p": ("p", _int_arg, _REQUIRED, ""),
        "--k": ("k", _int_arg, _REQUIRED, ""),
        "--candidates": ("candidates", _int_arg, 10, ""),
    }),
    "scan": ("factor (x^p +- y^p)/(x +- y) and record symbols", {
        "--p": ("p", _int_arg, _REQUIRED, ""),
        "--x": ("x", _int_arg, _REQUIRED, ""),
        "--y": ("y", _int_arg, _REQUIRED, ""),
        "--sign": ("sign", _sign_arg, _REQUIRED, "plus or minus"),
        "--trial-bound": ("trial_bound", _int_arg, 1_000_000, ""),
        "--out": ("out", str, None, "write JSON lines here instead of stdout"),
    }),
    "verify": ("check identities on recorded scans", {
        "--in": ("infile", str, _REQUIRED, "JSON-lines records file"),
    }),
    "telescope": ("replay telescoping symbol chains", {
        "--pmax": ("pmax", _int_arg, _REQUIRED, ""),
    }),
    "barlow": ("evaluate Barlow-Abel relation formats", {
        "--p": ("p", _int_arg, _REQUIRED, ""),
        "--x": ("x", _int_arg, _REQUIRED, ""),
        "--y": ("y", _int_arg, _REQUIRED, ""),
        "--z": ("z", _int_arg, _REQUIRED, ""),
    }),
}


def _help(command: str | None) -> str:
    """The help text of one command, or of the program for None."""
    if command is None:
        usage = f"{{{','.join(_COMMANDS)}}} ..."
        intro, heading = __doc__.strip(), "commands:"
        rows = [(name, line) for name, (line, _) in _COMMANDS.items()]
    else:
        intro, options = _COMMANDS[command]
        heading = "options:"
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(f"{name} {dest.upper()}", text) for name, (dest, _, _, text) in options.items()]
        usage = " ".join([command, "[-h]"] + [
            shown if spec[2] is _REQUIRED else f"[{shown}]"
            for (shown, _), spec in zip(rows[1:], options.values())])
    width = max(len(shown) for shown, _ in rows)
    lines = [f"usage: cyclores {usage}", "", intro, "", heading]
    lines += [f"  {shown:{width}}  {text}".rstrip() for shown, text in rows]
    return "\n".join(lines) + "\n"


# argparse's test for a token that starts with "-" but is a value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
_MARK = "--"  # argparse reads every token after it as a value


def _option(token: str, names) -> tuple[str | None, str | None] | None:
    """How argparse reads one token against the long option names:
    None for a value, else (name, the value after "=" or None), where
    the name is "--help" for -h and None for an unknown option.  A name
    may be shortened to a unique prefix; an exact name wins."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    if token[1] == "-":
        name, eq, value = token.partition("=")
        matches = [known for known in names if known.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {name[:40]} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[1] == "h":
        # -h takes no value: -hh and -h=h repeat it, -hX and -h= fail
        rest = token[3:] if token[2:3] == "=" else token[2:]
        return "--help", None if token == "-h" or rest and not rest.strip("h") else rest
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, token.partition("=")[0][:40]


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """Read argv left to right as the option table says, with argparse's
    exit code and stdout for every argv.  Prints the help text and
    returns None at the first -h or --help, unless a token before it
    failed to convert; raises UsageError on a bad token, and after the
    walk on an unknown option or a missing required one.  No error
    echoes a value."""
    unknown = []
    for index, token in enumerate(argv):
        kind = None if token == _MARK else _option(token, ("--help",))
        if kind is None:
            if token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                raise UsageError(f"argument command: invalid choice (choose from {choices})")
            break
        name, value = kind
        if name is None:
            unknown.append(value)
        elif value is not None:
            raise UsageError("argument -h/--help: ignored explicit argument")
        else:
            print(_help(None), end="")
            return None
    else:
        raise UsageError("the following arguments are required: command")
    command, tokens = token, argv[index + 1:]
    options = _COMMANDS[command][1]
    names = (*options, "--help")
    # no option takes "--" or a token after it: each is a stray value
    stray = _MARK in tokens
    if stray:
        tokens = tokens[:tokens.index(_MARK)]
    kinds = [_option(token, names) for token in tokens]
    args = SimpleNamespace(command=command,
                           **{dest: default for dest, _, default, _ in options.values()})
    i = 0
    while i < len(tokens):
        kind = kinds[i]
        i += 1
        if kind is None:
            stray = True
            continue
        name, value = kind
        if name is None:
            unknown.append(value)
            continue
        if name == "--help":
            if value is not None:
                raise UsageError("argument -h/--help: ignored explicit argument")
            print(_help(command), end="")
            return None
        if value is None:
            if i == len(tokens) or kinds[i] is not None:
                raise UsageError(f"argument {name}: expected one argument")
            value = tokens[i]
            i += 1
        dest, reader, _, _ = options[name]
        try:
            setattr(args, dest, reader(value))
        except ValueError as exc:
            raise UsageError(f"argument {name}: {exc}") from None
    missing = [name for name, (dest, _, _, _) in options.items()
               if getattr(args, dest) is _REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown or stray:
        what = unknown[0] if unknown else "a value no option takes"
        raise UsageError(f"unrecognized arguments: {what}")
    return args


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
    _emit({"p": args.p, "h_minus": int_to_decimal(h_minus(args.p))})
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
    checked = [p for p in range(5, args.pmax + 1) if is_prime(p)]
    all_match = all(telescope_replay(field_ctx(p)) for p in checked)
    _emit({"match": all_match, "pmax": args.pmax, "primes_checked": checked})
    return 0 if all_match else 2


def _cmd_barlow(args) -> int:
    checks = barlow_abel_check(args.p, args.x, args.y, args.z)
    _emit({
        "p": args.p,
        "x": int_to_json(args.x),
        "y": int_to_json(args.y),
        "z": int_to_json(args.z),
        "checks": [
            {"name": c.name, "holds": c.holds, "detail": c.detail}
            for c in checks
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
        args = _parse(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else _HANDLERS[args.command](args)
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
