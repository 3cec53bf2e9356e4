"""Summary arithmetic for the benchmark: tail percentiles and input
fingerprints."""

from __future__ import annotations

import hashlib

import numpy as np

# Percentiles a run may report as its tail (tail_ms), highest first.
TAIL_CANDIDATES = (95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None when no candidate has."""
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def latency_summary(samples_s: list[float]) -> dict:
    """Median and tail of request latencies in milliseconds.

    The tail is the highest candidate percentile that has at least
    MIN_BEYOND samples beyond it; with too few samples for any, it is the
    slowest request (percentile 100)."""
    ms = np.asarray(samples_s, dtype=float) * 1e3
    p = tail_percentile(ms.size)
    tail = float(np.max(ms)) if p is None else float(np.percentile(ms, p))
    return {
        "p50_ms": float(np.median(ms)),
        "tail_ms": tail,
        "tail_percentile": 100.0 if p is None else p,
        "samples": int(ms.size),
    }


def fingerprint(*parts) -> str:
    """SHA-256 over the raw bytes of arrays (and the UTF-8 of strings)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
        else:
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
            data = arr.tobytes()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()
