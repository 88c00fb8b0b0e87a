"""Hand mutations that the tests must catch, and the runner that checks them.

Each entry of ``MUTANTS`` names a file of the checkout, a text that must
occur in it exactly once, the text that replaces it, and the tests that
must fail under the change.  Run from anywhere:

    python tests/mutants.py

The runner copies the whole checkout into a temporary directory, as
pyproject.toml's ``pythonpath`` points pytest at ``./src``.  It first runs
every listed test on the unchanged copy, where each must pass.  Then, for
each entry in turn, it applies the change, runs only that entry's tests
under ``TIME_LIMIT_S``, and restores the file.  It exits 1 if a listed
test fails or goes missing on the unchanged copy, if an entry's text does
not occur exactly once (so the table tracks the code), if a run times out,
or if a listed test passes under its mutation; otherwise 0.  Bytecode is
never written, so a restored file cannot be shadowed by a cached mutant.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

TIME_LIMIT_S = 300

REGULAB = "src/cyclores/regulab.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # _odd_convolution's fold (first kept from the chirp-z fold change)
    Mutant(
        "fold sign flipped", REGULAB,
        "s = 1 if half == 1 or m % 2 == 0 else -1",
        "s = 1 if half != 1 or m % 2 == 0 else -1",
        ("tests/test_regulab.py::test_odd_transform_matches_direct_sum[37]",
         "tests/test_regulab.py::test_irregular_pairs_match_exact_bernoulli"),
    ),
    Mutant(
        "fold dropped in irregular_pairs", REGULAB,
        "if (x + s * y) % p == 0]",
        "if x % p == 0]",
        ("tests/test_regulab.py::test_irregular_pairs",
         "tests/test_regulab.py::test_irregular_pairs_match_exact_bernoulli"),
    ),
    Mutant(
        "fold dropped in h_minus", REGULAB,
        "r = r * (x + s * y) % ell",
        "r = r * x % ell",
        ("tests/test_regulab.py::test_h_minus_values",
         "tests/test_regulab.py::test_h_minus_matches_oeis_a000927"),
    ),
    Mutant(
        "always cyclic", REGULAB,
        "s = 1 if half == 1 or m % 2 == 0 else -1",
        "s = 1",
        ("tests/test_regulab.py::test_odd_transform_matches_direct_sum[37]",
         "tests/test_regulab.py::test_irregular_pairs_match_kummer_log_derivative"),
    ),
    # the mirrored B chirp
    Mutant(
        "mirror slice shifted", REGULAB,
        "mirror = chirp_b[(m - 1) // 2:0:-1]",
        "mirror = chirp_b[m // 2:0:-1]",
        ("tests/test_regulab.py::test_odd_transform_b_chirp_mirror[37]",
         "tests/test_regulab.py::test_odd_transform_b_chirp_mirror[715827817]"),
    ),
    Mutant(
        "mirror without its sign", REGULAB,
        "chirp_b += mirror if s == 1 else [ell - b for b in mirror]",
        "chirp_b += mirror",
        ("tests/test_regulab.py::test_odd_transform_b_chirp_mirror[37]",
         "tests/test_regulab.py::test_odd_transform_b_chirp_mirror[4611686018427387847]"),
    ),
    # the eigencomponent's weights and the one-point Voronoi check
    Mutant(
        "weights n_a = a^k", REGULAB,
        "ratio = pow(g, -k, p)",
        "ratio = pow(g, k, p)",
        ("tests/test_regulab.py::test_eigencomponent_symbol_matches_dense_conjugates",
         "tests/test_regulab.py::test_eigencomponent_twist_law[37]"),
    ),
    Mutant(
        "Horner at g^k", REGULAB,
        "t, value = pow(g, k - 1, p), 0",
        "t, value = pow(g, k, p), 0",
        ("tests/test_regulab.py::test_vandiver_witness_regression",
         "tests/test_regulab.py::test_vandiver_one_point_check_accepts_exactly_the_irregular_pairs"),
    ),
    # the twist-law step of vandiver_witness and the scale of h_minus
    Mutant(
        "twist j^(1-k) for j^(k-1)", REGULAB,
        "pow(j, k - 1, p) * e % p",
        "pow(j, 1 - k, p) * e % p",
        ("tests/test_regulab.py::test_vandiver_witness_regression",
         "tests/test_regulab.py::test_vandiver_witness_matches_split_oracle"),
    ),
    Mutant(
        "word-prime skip removed", REGULAB,
        "        if t % ell == 0:  # g^m = -1 (mod ell): the scale is not a unit\n"
        "            continue\n",
        "",
        ("tests/test_regulab.py::test_h_minus_skips_a_word_prime_dividing_its_scale[2153]",
         "tests/test_regulab.py::test_h_minus_skips_a_word_prime_dividing_its_scale[4079]"),
    ),
    Mutant(
        "scale t for 2^(m-1) t", REGULAB,
        "scale = (-1) ** m * (1 << (m - 1)) * t",
        "scale = (-1) ** m * t",
        ("tests/test_regulab.py::test_h_minus_values",
         "tests/test_regulab.py::test_h_minus_p_part_is_the_index_of_irregularity"),
    ),
    # the p-part of h^- and the fourth oracle for the pairs
    Mutant(
        "first irregular pair dropped", REGULAB,
        "if (x + s * y) % p == 0]",
        "if (x + s * y) % p == 0][1:]",
        ("tests/test_regulab.py::test_h_minus_p_part_is_the_index_of_irregularity",
         "tests/test_regulab.py::test_irregular_pairs_match_g_h_at_a_prime_cube"),
    ),
    Mutant(
        "h^- scaled by p", REGULAB,
        "    return value\n",
        "    return value * p\n",
        ("tests/test_regulab.py::test_h_minus_p_part_is_the_index_of_irregularity",),
    ),
]


def _split_id(test_id: str) -> tuple[str, str]:
    """'tests/test_x.py::name[param]' as junit's (classname, name)."""
    path, name = test_id.split("::", 1)
    return path.removesuffix(".py").replace("/", "."), name


def _run(copy: Path, tests: tuple[str, ...]) -> dict[str, str]:
    """Each test id's outcome in the copy: 'passed', 'failed', 'skipped' or
    'missing'.  TimeoutExpired propagates."""
    xml = copy / ".mutants-junit.xml"
    xml.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={xml}", *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIME_LIMIT_S,
    )
    outcomes = {}
    if xml.exists():
        for case in ET.parse(xml).iter("testcase"):
            failed = case.find("failure") is not None or case.find("error") is not None
            skipped = case.find("skipped") is not None
            outcome = "failed" if failed else "skipped" if skipped else "passed"
            outcomes[(case.get("classname"), case.get("name"))] = outcome
    result = {t: outcomes.get(_split_id(t), "missing") for t in tests}
    if "missing" in result.values():  # pytest says why, as for a listed id that does not exist
        print((run.stdout + run.stderr).strip()[-2000:])
    return result


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    problems = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        every = tuple(sorted({t for mutant in MUTANTS for t in mutant.tests}))
        try:
            bad = {t: o for t, o in _run(copy, every).items() if o != "passed"}
        except subprocess.TimeoutExpired:
            print(f"unchanged copy: timed out after {TIME_LIMIT_S} s")
            return 1
        for test_id, outcome in bad.items():
            print(f"unchanged copy: {test_id} {outcome}")
        problems += len(bad)
        for mutant in MUTANTS:
            target = copy / mutant.path
            text = target.read_text()
            count = text.count(mutant.old)
            if count != 1:
                print(f"STALE    {mutant.name}: its text occurs {count} times in {mutant.path}")
                problems += 1
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            try:
                outcomes = _run(copy, mutant.tests)
            except subprocess.TimeoutExpired:
                print(f"TIMEOUT  {mutant.name}: over {TIME_LIMIT_S} s")
                problems += 1
                continue
            finally:
                target.write_text(text)
            survived = [t for t, o in outcomes.items() if o != "failed"]
            if survived:
                print(f"SURVIVED {mutant.name}: " + ", ".join(f"{t} {outcomes[t]}" for t in survived))
                problems += 1
            else:
                print(f"caught   {mutant.name}: {len(outcomes)} of {len(outcomes)} tests fail")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
