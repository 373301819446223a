"""Reference LS threshold probing: re-peel every score-ranked prefix.

The original form of ``LocalSearch._threshold_candidates``, kept as the
oracle of the entry-size sweep that replaced it.  Per probe weight it
sorts H^t_k by ``(-score_at, id)``, binary-searches the smallest prefix
whose k-ĉore holds Q, then walks the prefix sizes ``lo, lo + step, ...``
collecting each new k-ĉore — every size a fresh dict k-core peel
(``tests/oracles/local_search.kcore_members``).
"""

from __future__ import annotations

from repro.core.local_search import LocalSearch

from tests.oracles.local_search import kcore_members


def threshold_candidates(
    ls: LocalSearch, per_probe: int = 6, step: int = 2
) -> list[frozenset[int]]:
    probes = [ls.region.pivot()]
    probes.extend(ls.region.corners())
    out: list[frozenset[int]] = []
    seen_rankings: set[tuple[int, ...]] = set()
    for w in probes:
        ranked = sorted(ls._all, key=lambda v: (-ls.gd.score_at(v, w), v))
        signature = tuple(ranked)
        if signature in seen_rankings:
            continue
        seen_rankings.add(signature)

        def core_of(size: int):
            return kcore_members(ls, ranked[:size])

        lo, hi = ls.k + 1, len(ranked)
        if core_of(hi) is None:
            continue
        while lo < hi:
            mid = (lo + hi) // 2
            if core_of(mid) is None:
                lo = mid + 1
            else:
                hi = mid
        found = 0
        previous: frozenset[int] | None = None
        for size in range(lo, len(ranked) + step, step):
            fs = core_of(min(size, len(ranked)))
            if fs is None:
                continue
            if fs != previous:
                previous = fs
                if fs not in out:
                    out.append(fs)
                found += 1
                if found >= per_probe:
                    break
    return out
