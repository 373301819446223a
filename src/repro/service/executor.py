"""`EngineExecutor`: the in-process (threads) execution backend.

:class:`~repro.service.MACService` talks to its compute tier through a
small executor protocol — ``search_wire`` / ``explain_wire`` /
``telemetry_wire`` plus liveness introspection and the zero-downtime
admin surface (``reload`` / ``resize`` / ``mutate_wire`` /
``snapshot_wire``) — so the
same server fronts either one shared engine on a thread pool (this
module, the default) or a multi-process worker tier
(:class:`repro.pool.PoolExecutor`, ``repro serve --worker-processes N``).
"""

from __future__ import annotations

import time

from repro.engine.request import MACRequest
from repro.errors import ReloadError, SnapshotError
from repro.service.protocol import (
    plan_to_wire,
    result_to_wire,
    telemetry_to_wire,
)


class EngineExecutor:
    """Executor over one in-process engine shared across server threads.

    ``remote`` is false: calls run in the server process, so the server
    keeps dispatching them on its bounded engine-call thread pool and
    answering ``explain`` directly on the event loop.
    """

    kind = "threads"
    remote = False
    num_workers = 0

    def __init__(
        self,
        engine,
        *,
        source: str | None = None,
        index_digest: str | None = None,
    ) -> None:
        self.engine = engine
        self._generation = 0
        self._source = source
        self._index_digest = index_digest

    def search_wire(self, request: MACRequest) -> dict:
        return result_to_wire(self.engine.search(request))

    def explain_wire(self, request: MACRequest) -> dict:
        return plan_to_wire(self.engine.explain(request))

    def telemetry_wire(self) -> dict:
        return telemetry_to_wire(self.engine.telemetry())

    def fingerprint(self) -> str:
        return self.engine.identity()[0]

    def mutate_wire(self, mutations: list) -> dict:
        """Apply one live mutation batch to the engine, in place.

        The threads tier has a single shared engine, so one
        :meth:`~repro.engine.MACEngine.apply` call mutates what every
        slot serves — and advances the engine's content digest in the
        same critical section.
        """
        return self.engine.apply(mutations)

    def snapshot_wire(self) -> dict:
        # One read of the pair: a mutation landing between two separate
        # reads could pair the old digest with the new delta_seq.
        fingerprint, delta_seq = self.engine.identity()
        return {
            "fingerprint": fingerprint,
            "generation": self._generation,
            "source": self._source,
            "index_digest": self._index_digest,
            "delta_seq": delta_seq,
        }

    def workers_wire(self) -> dict:
        return {
            "alive": 1,
            "total": 1,
            "restarts": 0,
            "generation": self._generation,
            "stalled_workers": 0,
            "workers": [],
        }

    def pool_wire(self) -> dict | None:
        return None

    def reload(self, snapshot_path) -> dict:
        """Reload the engine from a snapshot, in place.

        The threads tier has no fleet to swap: in-flight searches finish
        on the old engine object, new calls see the new one (one
        attribute assignment).  Validation failures raise a typed
        :class:`~repro.errors.ReloadError`, old engine untouched.
        """
        from repro.engine.engine import MACEngine
        from repro.store.snapshot import snapshot_digest

        path = str(snapshot_path)
        started = time.monotonic()
        try:
            digest = snapshot_digest(path)
            engine = MACEngine.load(path, self.engine.network)
        except SnapshotError as exc:
            raise ReloadError(
                f"reload of {path} rolled back, engine untouched: {exc}"
            ) from exc
        self.engine = engine
        self._generation += 1
        self._source = path
        self._index_digest = digest
        return {
            "generation": self._generation,
            "fingerprint": self.fingerprint(),
            "source": path,
            "index_digest": digest,
            "workers": 0,
            "drained": 0,
            "terminated": 0,
            "elapsed_s": round(time.monotonic() - started, 3),
        }

    def resize(self, num_workers: int) -> dict:
        raise ReloadError(
            "the in-process thread executor has no worker fleet to resize; "
            "boot with `repro serve --worker-processes N` for a resizable tier"
        )

    def close(self, timeout: float | None = None) -> None:
        pass  # the engine outlives the service (callers own it)
