"""Record the score digest of each workload for a range of seeds.

    python3 perfbench/record_digests.py --seeds 0-31 [--workload NAME]

Runs one search per (workload, seed) in a fresh worker, exactly as
``run.py`` does, and merges the digests into ``perfbench/digests.json``.
Re-record only when a change is meant to alter scores.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BENCH, ROOT, RUN_DIR, _child_env, _pin_prefix, _spawn


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/record_digests.py")
    ap.add_argument("--seeds", required=True, help="inclusive range a-b")
    ap.add_argument("--workload")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lo, hi = (int(v) for v in args.seeds.split("-"))
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    path = BENCH / "digests.json"
    digests = json.loads(path.read_text())
    RUN_DIR.mkdir(exist_ok=True)
    env, pin = _child_env(), _pin_prefix()
    for name in names:
        for seed in range(lo, hi + 1):
            result = _spawn(name, seed, False, seed, pin, env)
            if result["failed_records"] or result["sessions_not_done"]:
                print(f"{name} seed {seed}: failed records", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = result["digest"]
            path.write_text(json.dumps(digests, indent=1, sort_keys=True)
                            + "\n")
            print(name, seed, result["digest"][:16], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
