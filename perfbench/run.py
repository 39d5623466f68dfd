"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload evo-cifar10 --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  Every search runs in a fresh worker
process (``perfbench/worker.py``) pinned to one CPU with ``taskset``
when available, with ``PYTHONHASHSEED=0`` and single-threaded BLAS;
stores and journals live under ``.perfbench_run/`` in the checkout.
The same search (same seed, so the same inputs) repeats until
``--seconds`` have passed and at least :data:`MIN_SEARCHES` replicates
ran.  All replicates must produce the same bit-exact score digest, and
for the seeds recorded in ``perfbench/digests.json`` it must match the
recorded one.

Timings combine the replicates candidate by candidate (:func:`combine`)
and are then scaled to a reference machine speed.  On a machine shared
with other tenants the same code runs up to 60% slower for seconds to
minutes at a time.  Each worker therefore times a fixed kernel that
uses no repro code (``worker.calibrate``) before and after its search,
and the candidate and session timings are reported as if that kernel
took :data:`CALIBRATION_REF_S` (:data:`SCALED`).  A change to the
program moves the search and not the kernel; the unscaled values are
in the report line.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates plain and traced replicates and prints the
per-layer metrics (medians over the traced replicates, per search),
the layer shares and ``bench.tracing_overhead`` (combined traced wall
time over combined plain wall time, minus one); the spans of the last
traced search are written to ``.perfbench_run/spans-<workload>.jsonl``.

The line before the last is a report with the environment, sample
counts, the highest percentile each timing supports, ``error_rate``
and every output check.  The last line is the result object; the exit
code is 1 when any output check misses, 2 on a usage or environment
error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, percentile, tail  # noqa: E402

BENCH = Path(__file__).resolve().parent
RUN_DIR = ROOT / ".perfbench_run"
#: the whole run, workers included, ends within this many seconds
RUN_LIMIT_S = 170
#: seconds per calibration round (``worker.calibrate``) that the
#: end-to-end timings are scaled to; about its unloaded speed on a
#: 2-vCPU x86-64 VM
CALIBRATION_REF_S = 0.05
#: minimum replicate searches per run (plain, and traced with --trace 1)
MIN_SEARCHES = 6

#: power of the machine-speed scale each scaled end-to-end metric takes
#: (times scale up with a slow machine, the rate down); set-up time is
#: mostly interpreter start and imports and stays unscaled
SCALED = {"candidates_per_s": -1, "candidate_p50_ms": 1,
          "candidate_p90_ms": 1, "session_p50_s": 1, "session_p90_s": 1}


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    })
    return env


def _pin_prefix() -> list:
    """``taskset -c <cpu>`` on the last CPU this process may use."""
    if shutil.which("taskset") is None:
        return []
    return ["taskset", "-c", str(max(os.sched_getaffinity(0)))]


def _fs_type(path: Path) -> str:
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _spawn(workload: str, seed: int, traced: bool, index: int,
           pin: list, env: dict, timeout: float = RUN_LIMIT_S) -> dict:
    """One search in a fresh worker; returns its JSON result."""
    workdir = RUN_DIR / f"w{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = pin + [sys.executable, "-m", "perfbench.worker",
                 "--workload", workload, "--seed", str(seed),
                 "--workdir", str(workdir), "--trace", str(int(traced)),
                 "--spans", str(RUN_DIR / f"spans-{workload}.jsonl")]
    try:
        cmd += ["--spawned", repr(time.monotonic())]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _checks(results: list, workload: str, seed: int) -> dict:
    """Output checks over every search of the run; value True = pass."""
    recorded = json.loads((BENCH / "digests.json").read_text())
    want = recorded.get(workload, {}).get(str(seed))
    digests = {r["digest"] for r in results}
    orders = {tuple(u[0] for u in r["units"]) for r in results}
    checks = {
        "digest_repeats": len(digests) == 1,
        "digest_matches_record": want is None or digests == {want},
        "completion_order_repeats": len(orders) == 1,
        "records_complete": all(r["records"] == r["expected_records"]
                                for r in results),
        "no_failed_records": all(r["failed_records"] == 0 for r in results),
        "sessions_done": all(not r["sessions_not_done"] for r in results),
        "no_session_faults": all(not r["sessions_with_faults"]
                                 for r in results),
        "no_admission_errors": all(r["admission_errors"] == 0
                                   for r in results),
    }
    return {"checks": checks, "digest": sorted(digests),
            "recorded_digest": want}


def combine(results: list) -> dict:
    """Combine replicate searches (same seed, so the same candidates in
    the same completion order) unit by unit: each candidate's latency
    and completion gap is its minimum over the replicates.  Co-tenant
    load on a shared machine slows whole stretches of seconds by up to
    60%; a candidate's best of several fresh-process replicates keeps
    that out, while a change to the program moves every replicate.

    The run's wall time is the sum of the per-unit gaps plus the
    smallest time after the last completion; a session's latency is the
    combined completion time of its last candidate minus its submit
    time."""
    order = [u[0] for u in results[0]["units"]]
    latency: dict = {}
    gap: dict = {}
    for r in results:
        for key, ms, g in r["units"]:
            latency[key] = min(latency.get(key, ms), ms)
            gap[key] = min(gap.get(key, g), g)
    done, t = {}, 0.0
    for key in order:
        t += gap[key]
        done[key] = t
    submitted: dict = {}
    last: dict = {}
    for r in results:
        for sid, at, unit in r["sessions"]:
            submitted[sid] = min(submitted.get(sid, at), at)
            last[sid] = unit
    return {
        "wall_s": t + min(r["rest_s"] for r in results),
        "candidate_ms": [latency[k] for k in order],
        "session_s": [done[last[sid]] - submitted[sid] for sid in submitted
                      if last[sid] is not None],
    }


def _end_to_end(plain: list) -> tuple[dict, dict]:
    """Combined timings scaled to the reference machine speed by
    ``CALIBRATION_REF_S`` over the run's fastest calibration round."""
    run = combine(plain)
    cand, sess = run["candidate_ms"], run["session_s"]
    raw = {
        "candidates_per_s": len(cand) / run["wall_s"],
        "candidate_p50_ms": percentile(cand, 50),
        "candidate_p90_ms": percentile(cand, 90),
        "session_p50_s": percentile(sess, 50),
        "session_p90_s": percentile(sess, 90),
        "setup_s": median([r["setup_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    calibration = min(v for r in plain for v in r["calibration_s"])
    scale = CALIBRATION_REF_S / calibration
    values = {k: v * scale ** SCALED.get(k, 0) for k, v in raw.items()}
    report = {
        "replicates": len(plain),
        "samples": {"candidates": len(cand), "sessions": len(sess),
                    "setups": len(plain)},
        "tails": {"candidate_ms": tail(cand), "session_s": tail(sess)},
        "calibration_s": calibration, "unscaled": raw,
    }
    return values, report


def _per_layer(plain: list, traced: list) -> dict:
    names = traced[0]["layers"].keys()
    values = {k: median([r["layers"][k] for r in traced]) for k in names}
    values["bench.tracing_overhead"] = (
        combine(traced)["wall_s"] / combine(plain)["wall_s"] - 1.0)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else None
    if spec is None or not (ROOT / "src" / "repro").is_dir():
        return _fail("run from a repository checkout: BENCHMARK.json and "
                     "src/repro are required")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    RUN_DIR.mkdir(exist_ok=True)
    env, pin = _child_env(), _pin_prefix()
    start = time.monotonic()
    plain, traced = [], []
    try:
        while True:
            use_trace = bool(args.trace) and len(traced) < len(plain)
            result = _spawn(args.workload, args.seed, use_trace,
                            len(plain) + len(traced), pin, env,
                            RUN_LIMIT_S - (time.monotonic() - start))
            (traced if use_trace else plain).append(result)
            elapsed = time.monotonic() - start
            if args.trace:
                if len(traced) == len(plain) >= MIN_SEARCHES // 2 \
                        and elapsed >= args.seconds:
                    break
            elif len(plain) >= MIN_SEARCHES and elapsed >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as exc:
        return _fail(f"search failed: {exc}")

    check = _checks(plain + traced, args.workload, args.seed)
    misses = sum(not ok for ok in check["checks"].values())
    failed = misses + sum(
        r["failed_records"] + len(r["sessions_not_done"])
        + r["admission_errors"] for r in plain + traced)
    attempted = sum(r["expected_records"] + len(r["sessions"])
                    + r["admission_errors"] for r in plain + traced)
    report = {
        "workload": args.workload, "seed": args.seed,
        "search_wall_s": {"plain": [r["wall_s"] for r in plain],
                          "traced": [r["wall_s"] for r in traced]},
        "error_rate": failed / attempted,
        "env": dict(plain[0]["env"], **{
            "fresh_process_per_search": True, "seed_from_cli": True,
            "PYTHONHASHSEED": env["PYTHONHASHSEED"],
            "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
            "taskset": " ".join(pin) or None, "nproc": os.cpu_count(),
            "workdir_fs": _fs_type(RUN_DIR)}),
        **check,
    }
    if args.trace:
        values = _per_layer(plain, traced)
    else:
        values, extra = _end_to_end(plain)
        report.update(extra)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
