"""Order statistics and output digests shared by the runner and workers.

Stdlib only: the runner process aggregates without importing numpy.
"""

from __future__ import annotations

import hashlib
import math

#: percentiles considered for a timing's reported tail, lowest first
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
#: a percentile is reported only with this many samples beyond it
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no samples")
    pos = (len(vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile
    (exact for ladder values: ``q`` is taken in tenths of a percent)."""
    tenths = round(q * 10)
    return n * (1000 - tenths) // 1000


def tail(values) -> dict:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    samples beyond it, with its value and the sample count.  ``q`` is
    None when there are too few samples for even the median."""
    n = len(values)
    best = None
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return {"q": best, "n": n,
            "value": percentile(values, best) if best is not None else None}


def median(values) -> float:
    return percentile(values, 50.0)


def score_digest(rows) -> str:
    """sha256 over ``(session, candidate_id, arch_seq, score)`` rows; the
    score enters as ``float.hex`` so the digest is bit-exact."""
    h = hashlib.sha256()
    for session, cid, arch, score in sorted(rows, key=lambda r: (r[0], r[1])):
        h.update(f"{session}|{cid}|{list(arch)}|{float(score).hex()}\n"
                 .encode())
    return h.hexdigest()
