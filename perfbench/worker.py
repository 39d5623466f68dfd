"""One search in a fresh process: ``python3 -m perfbench.worker``.

The runner starts this module once per search.  It builds the workload
(set-up time counts from the runner's spawn timestamp, so interpreter
start and imports are included), runs it, optionally under the span
recorder, and prints one JSON line with what the runner aggregates.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def layer_metrics(table: dict, outcome) -> dict:
    """The per-layer metrics of one traced search (see workloads.json)."""
    from perfbench.stats import median

    names = table["names"]

    def get(name, key):
        return names.get(name, {}).get(key, 0.0)

    records = outcome.records
    covered = [r.transfer_coverage for r in records if r.transferred]
    gate = [t.static_stats for t in outcome.traces if t.static_stats]
    checked = sum(g.get("checked", 0) for g in gate)
    rejected = sum(g.get("rejected", 0) for g in gate)
    copied = sum((t.transfer_stats or {}).get("copied_bytes", 0)
                 for t in outcome.traces)
    metrics = {
        "tensor.fit.busy_s": get("tensor.fit", "busy_s"),
        "tensor.fit.calls": get("tensor.fit", "calls"),
        "tensor.evaluate.busy_s": get("tensor.evaluate", "busy_s"),
        "tensor.build.busy_s": get("tensor.build", "busy_s"),
        "checkpoint.load.calls": get("checkpoint.load", "calls"),
        "checkpoint.load.busy_s": get("checkpoint.load", "busy_s"),
        "checkpoint.save.calls": get("checkpoint.save", "calls"),
        "checkpoint.save.busy_s": get("checkpoint.save", "busy_s"),
        "checkpoint.save.bytes": sum(r.ckpt_bytes for r in records),
        "transfer.copy.busy_s": get("transfer.copy", "busy_s"),
        "transfer.bind.busy_s": get("transfer.bind", "busy_s"),
        "transfer.coverage_mean":
            sum(covered) / len(covered) if covered else 0.0,
        "transfer.copied_bytes": copied,
        "analysis.admits.calls": get("analysis.admits", "calls"),
        "analysis.admits.busy_s": get("analysis.admits", "busy_s"),
        "analysis.proxy.busy_s": get("analysis.proxy", "busy_s"),
        "analysis.reject_ratio": rejected / checked if checked else 0.0,
        "nas.ask.self_s": get("nas.ask", "self_s"),
        "nas.tell.busy_s": get("nas.tell", "busy_s"),
        "cluster.journal.busy_s": get("cluster.journal", "busy_s"),
        "cluster.io_blocked_s": sum(r.io_blocked for r in records),
        "cluster.driver.self_s": sum(v["self_s"] for k, v in names.items()
                                     if k.startswith("cluster.driver.")),
        "service.submit.busy_s": get("service.submit", "busy_s"),
        "service.queue_wait_p50_s": median(
            [s.queue_wait_s for s in outcome.sessions]),
        "service.drive.self_s": get("service.drive", "self_s"),
    }
    wall = table["wall_s"]
    for layer, self_s in table["layers"].items():
        metrics[f"share.{layer}"] = self_s / wall if wall > 0 else 0.0
    return metrics


def calibrate(rounds: int = 4) -> list:
    """Seconds per round of a fixed kernel that uses no repro code: small
    matmuls, elementwise ufuncs and a reduction (the framework's op mix
    at smoke scale) plus a pure-Python loop.  It runs before and after
    each search so the runner can take the machine's speed out of the
    timings (see ``run.py``)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((128, 75)), rng.random((75, 32))
    x = rng.random((32, 12, 12, 16))
    out = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(300):
            c = a @ b
            np.maximum(c, 0.0, out=c)
            x.sum(axis=(1, 2))
            np.exp(b)
        acc = 0
        for i in range(60000):
            acc += i
        out.append(time.perf_counter() - t0)
    return out


def _env() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="runner's time.monotonic() at spawn")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="JSONL path for the traced spans")
    args = ap.parse_args(argv)

    from perfbench.spans import SpanRecorder, layer_table
    from perfbench.stats import score_digest
    from perfbench.workloads import WORKLOADS, instrument

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned
    calibration = calibrate()
    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        instrument(recorder)
    try:
        outcome = workload.run()
    finally:
        if recorder is not None:
            recorder.restore()
    calibration += calibrate()
    records = outcome.records
    result = {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "records": len(records),
        "expected_records": outcome.expected_records,
        "failed_records": sum(not r.ok for r in records),
        # one unit per candidate: its dispatch-to-score latency and the
        # wall time since the previous completion (the gaps and rest_s
        # add up to wall_s)
        "units": [[key, 1e3 * latency, at - prev] for (key, latency, at),
                  prev in zip(outcome.completions,
                              [0.0] + [c[2] for c in outcome.completions])],
        "rest_s": outcome.wall_s - max(
            (c[2] for c in outcome.completions), default=0.0),
        "sessions": [[s.session_id, s.submitted_at_s, s.last_unit]
                     for s in outcome.sessions],
        "sessions_not_done": [s.session_id for s in outcome.sessions
                              if s.state != "done"],
        "sessions_with_faults": [s.session_id for s in outcome.sessions
                                 if s.fault_stats],
        "admission_errors": outcome.admission_errors,
        "digest": score_digest(outcome.rows),
        "calibration_s": calibration,
        "env": _env(),
    }
    if recorder is not None:
        result["layers"] = layer_metrics(layer_table(recorder.spans),
                                         outcome)
        if args.spans:
            recorder.write_jsonl(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
