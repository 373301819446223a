"""Pure helpers: percentiles, answer signatures, layer tiling, halves.

Kept free of I/O so ``selftest.py`` can check them directly.
"""

from __future__ import annotations

import math
import statistics

#: Candidate percentiles, highest first, for the tail rule.
TAIL_CANDIDATES = (99.9, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, q: float) -> int:
    # Rounded first: 99.9 / 100 * 10_000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(q / 100.0 * n, 6)))


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of n."""
    return n - _rank(n, q)


def supported_percentile(n: int, min_beyond: int = 10) -> float | None:
    """Highest candidate percentile with ``min_beyond`` samples beyond it."""
    for q in TAIL_CANDIDATES:
        if beyond(n, q) >= min_beyond:
            return q
    return None


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def signature(result) -> tuple:
    """Everything a caller acts on in a search answer, hashable.

    Works on :class:`repro.service.ServiceResult`; the reference side is
    decoded through the same wire codec, so both sides compare exactly.
    """
    return (
        result.htk_vertices,
        result.htk_edges,
        bool(result.partial),
        tuple(
            (
                tuple(entry.weight),
                tuple(tuple(sorted(c)) for c in entry.communities),
            )
            for entry in result.partitions
        ),
    )


def tile_layers(t_send: float, t_done: float, spans: dict,
                tier: str) -> dict[str, float] | None:
    """Split one request's client latency into consecutive layers (s).

    ``spans`` maps span layer name -> ``(start, end, info)`` for this
    request's label.  Every boundary is a timestamp, so the returned
    layers sum to ``t_done - t_send`` exactly; ``None`` when a span is
    missing (a request the server never decoded, e.g. rejected).
    """
    decode = spans.get("protocol.decode")
    executor = spans.get(
        "service.executor" if tier == "threads" else "pool.search"
    )
    if decode is None or executor is None:
        return None
    layers = {
        "service.inbound": decode[0] - t_send,
        "protocol.decode": decode[1] - decode[0],
        "service.queue": executor[0] - decode[1],
    }
    executor_s = executor[1] - executor[0]
    if tier == "threads":
        engine = spans.get("engine.search")
        encode = spans.get("protocol.encode")
        if engine is None or encode is None:
            return None
        layers["engine.search"] = engine[1] - engine[0]
        layers["protocol.encode"] = encode[1] - encode[0]
        layers["service.executor"] = (
            executor_s - layers["engine.search"] - layers["protocol.encode"]
        )
    else:
        engine_s = float(executor[2] or 0.0)  # the reply's ``elapsed``
        layers["engine.search"] = engine_s
        layers["pool.dispatch"] = executor_s - engine_s
    layers["service.outbound"] = t_done - executor[1]
    return layers


def relative_change(first: float, second: float) -> float:
    """|second / first - 1|, or 0 when both are 0."""
    if first == 0:
        return 0.0 if second == 0 else math.inf
    return abs(second / first - 1.0)
