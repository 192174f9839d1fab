"""Small statistics helpers: every percentile travels with its sample count."""

from __future__ import annotations

from typing import Dict, Sequence


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The exact nearest-rank q-quantile of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    permille = round(q * 1000)
    rank = max(1, min(len(ordered), -(-permille * len(ordered) // 1000)))
    return ordered[rank - 1]


def percentiles(samples: Sequence[float], qs=(0.5, 0.99)) -> Dict[str, float]:
    """``{"p50": ..., "p99": ..., "count": n}`` (values in the samples' unit).

    An empty sample reports ``count: 0`` and no percentiles rather than
    inventing a value.
    """
    out: Dict[str, float] = {"count": len(samples)}
    if samples:
        for q in qs:
            out[f"p{round(q * 100):d}"] = nearest_rank(samples, q)
    return out
