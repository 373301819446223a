"""Boot ``repro serve`` in this process, optionally recording layer spans.

    python3 perfbench/launcher.py [--spans FILE] serve <repro serve args>

Without ``--spans`` this is exactly ``python -m repro.cli serve ...``.
With it, public entry points of each layer are wrapped *from outside*
before the server starts (nothing under ``src/`` changes), every call
appends one span ``(layer, key, start, end, info)`` to an in-memory
list, and the list is written to FILE as JSON when the server shuts
down.  Timestamps are ``time.monotonic()``, which the load generator
also uses: the clock is shared by every process on the host.

Spans are keyed by the request ``label``, which travels on the wire and
is excluded from every cache identity.  Forked pool workers inherit the
wrapped classes but record nothing (the pid check): engine time on the
pool tier comes from each reply's ``elapsed`` and ``engine.timings``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class SpanRecorder:
    """Collects spans from the wrapped entry points of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.pid = os.getpid()

    def wrap(self, owner, name: str, layer: str, key=None, info=None) -> None:
        """Replace ``owner.name`` by a timing wrapper.

        ``key(args)`` extracts the request label from the call's
        positional arguments; ``info(result)`` a small JSON-able detail
        of the return value.
        """
        raw = owner.__dict__.get(name, getattr(owner, name))
        is_classmethod = isinstance(raw, classmethod)
        original = getattr(owner, name)  # bound to ``owner`` if classmethod
        spans, pid = self.spans, self.pid

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return original(*args, **kwargs)
            start = time.monotonic()
            result = original(*args, **kwargs)
            end = time.monotonic()
            spans.append((
                layer,
                key(args) if key is not None else None,
                start,
                end,
                info(result) if info is not None else None,
            ))
            return result

        if is_classmethod:
            setattr(owner, name, classmethod(
                lambda cls, *args, **kwargs: wrapper(*args, **kwargs)
            ))
        else:
            setattr(owner, name, wrapper)

    def install(self) -> None:
        import repro.pool.pool as pool_module
        import repro.service.executor as executor_module
        import repro.service.server as server_module
        from repro.engine.engine import MACEngine
        from repro.pool.pool import WorkerPool
        from repro.service.executor import EngineExecutor
        from repro.social.roadsocial import RoadSocialNetwork

        def wire_label(args):
            obj = args[0]
            return obj.get("label") if isinstance(obj, dict) else None

        def request_label(args):
            return args[-1].label

        def result_label(args):
            return args[0].extra.get("engine", {}).get("label")

        self.wrap(server_module, "request_from_wire", "protocol.decode",
                  key=wire_label)
        self.wrap(EngineExecutor, "search_wire", "service.executor",
                  key=request_label)
        self.wrap(executor_module, "result_to_wire", "protocol.encode",
                  key=result_label)
        self.wrap(MACEngine, "search", "engine.search", key=request_label)
        self.wrap(MACEngine, "apply", "live.apply",
                  info=lambda summary: summary.get("repaired_entries"))
        self.wrap(MACEngine, "load", "store.load")
        self.wrap(WorkerPool, "search_wire", "pool.search",
                  key=request_label,
                  info=lambda wire: wire.get("elapsed"))
        self.wrap(WorkerPool, "mutate_wire", "pool.mutate")
        self.wrap(WorkerPool, "start", "pool.start")
        self.wrap(pool_module, "network_fingerprint", "store.fingerprint")
        self.wrap(RoadSocialNetwork, "build_gtree", "road.gtree_build")

    def write(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": self.pid, "spans": self.spans}))
        tmp.replace(path)


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = Path(argv[1]), argv[2:]
    from repro.cli import main as repro_main

    if spans_path is None:
        return repro_main(argv)
    recorder = SpanRecorder()
    recorder.install()
    try:
        return repro_main(argv)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
