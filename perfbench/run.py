"""Benchmark of the cyclores command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's op list is generated
here from the seed (``workloads.py``) and checked here against
independent oracles (``oracle.py``); the program itself runs only in
fresh interpreters (``worker.py``), one per repetition, so every
repetition starts with cold in-process caches.  Repetitions of the same
op list run, closed loop, until S seconds are used.

Times are reported at a fixed reference speed: each measured time is
scaled by how long the worker's reference unit took at about the same
moment (see ``_scaled``), because the machine's own speed drifts by
more than a change worth catching.  The info line keeps the unscaled
set-up and wall times beside the scaled ones.

The last line of stdout is the result object.  With --trace 0 it holds
the end-to-end metrics of BENCHMARK.json, measured untraced; with
--trace 1 repetitions alternate untraced and traced, and it holds the
per-layer metrics of the traced ones.  The line before it records the
run: seed, Python version, nproc, repetitions, the SHA-256 of the op
list's output, every end-to-end figure (fail_rate included) and, when
traced, the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (it imports cyclores only inside main)

SETUP_PROBES = 3  # before each repetition, so that set-up is sampled across the run
# Reported times are scaled to the speed at which the reference unit
# (worker.reference_unit) takes this long; see _scaled.
REFERENCE_NOMINAL_S = 0.0018
MIN_REPS = 2  # a traced run needs one untraced and one traced repetition
REP_TIMEOUT_S = 150
TAIL_BEYOND = 10  # ops above the tail percentile


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CYCLORES_JOBS", None)  # keep scan on its serial path
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Run a worker to completion.  Return the seconds until it reported
    ready, and the reference unit's mean time right after that."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not start: {line!r}")
        reference_s = float(proc.stdout.readline())
        proc.communicate(timeout=REP_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return setup_s, reference_s


def _rep(ops, traced: bool, env) -> dict:
    """Run the op list once in a fresh interpreter with its own temp dir,
    made in the checkout (the benchmark writes nowhere else)."""
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    try:
        for op in ops:
            for name, text in op.in_files.items():
                (tmp / name).write_text(text, encoding="utf-8")
        argvs = [[a.replace("{tmp}", str(tmp)) for a in op.argv] for op in ops]
        (tmp / "ops.json").write_text(json.dumps(argvs), encoding="utf-8")
        setup = _spawn([str(tmp / "ops.json"), str(tmp / "result.json"), str(int(traced))], env)
        rep = json.loads((tmp / "result.json").read_text(encoding="utf-8"))
        for op, res in zip(ops, rep["ops"]):
            path = tmp / op.out_file if op.out_file else None
            res["out"] = path.read_text(encoding="utf-8") if path and path.exists() else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rep["setup"] = setup
    rep["traced"] = traced
    return rep


def _judge(op, res) -> tuple[bool, bool, list[str]]:
    """(failed, wrong_result, problems) for one op outcome.

    An op fails when its exit code differs from the contract's or its
    output fails the check.  A result is wrong when the output fails the
    check or the op was accepted, rejected or flagged as a verification
    failure against the contract; rejecting bad input with the wrong
    non-zero code is a failed op but not a wrong result.
    """
    rc, want = res["rc"], op.expect_rc
    problems = list(op.check(res["stdout"], res["out"]))
    wrong = bool(problems) or (rc == 0) != (want == 0) or (rc == 2) != (want == 2)
    if rc != want:
        problems.insert(0, f"exit {rc}, contract requires {want}: {res['stderr'].strip()[-200:]}")
    return bool(problems), wrong, problems


def _digest(rep) -> str:
    h = hashlib.sha256()
    for res in rep["ops"]:
        h.update(res["stdout"].encode())
        h.update((res["out"] or "").encode())
    return h.hexdigest()


def _scaled(seconds: float, reference_s: float) -> float:
    """A time measured while the reference unit took `reference_s`,
    scaled to the speed at which it takes REFERENCE_NOMINAL_S.  The
    machine's speed drifts by up to 1.75 times over seconds to minutes,
    and the reference unit, timed in the same interpreter at the same
    moments, drifts with it."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


def _latencies(reps) -> list[float]:
    """Each op's latency over the untraced repetitions.

    An op that lasts at least one sampling interval is scaled by
    reference samples taken during it, so the noise left only ever adds
    time: its latency is its least scaled time.  A shorter op is scaled
    by samples taken around it and keeps the switching within a second,
    under which a short op runs at one of two speeds; the least of a few
    such samples flips between them from run to run, so its latency is
    its mean scaled time.
    """
    latencies = []
    for op_runs in zip(*(rep["ops"] for rep in reps)):
        scaled = [_scaled(res["net_s"], res["ref_s"]) for res in op_runs]
        spans_a_sample = statistics.fmean(res["net_s"] for res in op_runs) >= worker.REFERENCE_EVERY_S
        latencies.append(min(scaled) if spans_a_sample else statistics.fmean(scaled))
    return latencies


def _fastest_raw(reps, key: str) -> float:
    """Sum over ops of each op's fastest unscaled time."""
    return sum(min(res[key] for res in op_runs) for op_runs in zip(*(rep["ops"] for rep in reps)))


def _tail(latencies: list[float]) -> tuple[float, float]:
    """The percentile with exactly TAIL_BEYOND ops above it, and the
    latency there."""
    rank = len(latencies) - TAIL_BEYOND
    return 100 * rank / len(latencies), sorted(latencies)[rank - 1]


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ops = workloads.WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    env = _worker_env()

    setups: list[tuple[float, float]] = []  # (seconds to ready, reference time)
    reps: list[dict] = []
    _spawn(["--probe"], env)  # compiles bytecode once; not counted
    start = time.perf_counter()
    cycle = 0.0  # the last repetition's time, probes included
    while len(reps) < MIN_REPS or time.perf_counter() - start + cycle <= seconds:
        t0 = time.perf_counter()
        setups += [_spawn(["--probe"], env) for _ in range(SETUP_PROBES)]
        reps.append(_rep(ops, trace and len(reps) % 2 == 1, env))
        cycle = time.perf_counter() - t0

    attempted = failed = 0
    wrong_results = 0
    verdicts: dict[tuple, tuple] = {}
    for rep in reps:
        for i, (op, res) in enumerate(zip(ops, rep["ops"])):
            key = (i, res["rc"], res["stdout"], res["out"])
            if key not in verdicts:
                verdicts[key] = _judge(op, res)
                if verdicts[key][0]:
                    print(f"op {i} {' '.join(op.argv)[:100]}: {verdicts[key][2]}", file=sys.stderr)
            attempted += 1
            failed += verdicts[key][0]
            wrong_results += verdicts[key][1]

    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    digests = [_digest(rep) for rep in reps]
    latencies = _latencies(plain)
    tail_pct, tail_s = _tail(latencies)
    setups += [rep["setup"] for rep in reps]
    figures = {
        "setup_s": (statistics.median(_scaled(*setup) for setup in setups), "s"),
        "wall_s": (sum(latencies), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_kb"] for rep in plain) / 1024, "MB"),
        "pass_rate": (1 - failed / attempted, "ratio"),
        "fail_rate": (failed / attempted, "ratio"),
    }
    info = {
        "workload": workload, "seed": seed, "python": platform.python_version(),
        "nproc": os.cpu_count(), "reps": len(plain), "traced_reps": len(traced),
        "ops_per_rep": len(ops), "op_tail_percentile": tail_pct,
        "stdout_sha256": digests[0], "stdout_sha256_stable": len(set(digests)) == 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "reference_s": statistics.median(setup[1] for setup in setups),
        "unscaled_setup_s": statistics.median(setup[0] for setup in setups),
        "unscaled_wall_s": _fastest_raw(plain, "net_s"),
    }
    if trace:
        layers = {key: statistics.median(rep["layers"][key] for rep in traced)
                  for key in traced[0]["layers"]}
        info["tracing_overhead_s"] = _fastest_raw(traced, "s") - info["unscaled_wall_s"]
        wanted = spec["per_layer"]
        values = {m["name"]: layers[m["name"]] for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: figures[m["name"]][0] for m in wanted}
    print(json.dumps(info))
    print(json.dumps({
        "correct": wrong_results == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan_verify", "regularity", "field_ops"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cyclores" / "cli.py").is_file():
        print(f"error: no cyclores sources under {SRC}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
