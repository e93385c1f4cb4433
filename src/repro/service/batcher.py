"""Dynamic micro-batching: coalesce identical in-flight requests.

Simulations are deterministic given ``(algo, n, seed, profile)``, so two
concurrent requests for the same key need exactly one execution.  The first
arrival (the *leader*) opens a batch and executes at once; requests arriving
while that execution runs attach to it, and the payload fans out to every
waiter when it lands.  A duplicate arriving after that is a cache hit (the
server writes the cache before the batch closes), so holding a batch open
any longer would save no execution.

All bookkeeping runs on the event-loop thread; the only awaits are the
execution itself and the waiters' future."""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable

__all__ = ["BatchOutcome", "Batcher"]


@dataclass
class _Batch:
    future: asyncio.Future
    waiters: int = 1


@dataclass(frozen=True)
class BatchOutcome:
    """One request's view of a batched execution."""

    payload: dict
    #: True when this request shared an execution with at least one other
    batched: bool
    #: True when this request was the one that executed
    leader: bool
    #: waiters sharing the execution, as seen at fan-out time
    batch_size: int = 1


@dataclass
class Batcher:
    """Coalesce identical in-flight work onto single executions."""

    _inflight: dict[str, _Batch] = field(default_factory=dict)

    def depth(self) -> int:
        """Open batches right now (each maps to at most one execution)."""
        return len(self._inflight)

    async def submit(
        self,
        key: str,
        execute: Callable[[], Awaitable[dict]],
    ) -> BatchOutcome:
        """Join the in-flight batch for ``key``, or lead a new one.

        The leader's exceptions propagate to every waiter.  Cancelling a
        waiter never cancels the shared execution."""
        batch = self._inflight.get(key)
        if batch is not None:
            batch.waiters += 1
            payload = await asyncio.shield(batch.future)
            return BatchOutcome(
                payload=payload,
                batched=True,
                leader=False,
                batch_size=batch.waiters,
            )

        batch = _Batch(asyncio.get_running_loop().create_future())
        self._inflight[key] = batch
        try:
            payload = await execute()
        except BaseException as exc:
            # closing the batch and resolving the future happen back-to-back
            # with no await in between, so late arrivals either joined before
            # (and see the exception) or open a fresh batch after
            self._inflight.pop(key, None)
            if batch.waiters > 1:
                batch.future.set_exception(exc)
            else:
                batch.future.cancel()
            raise
        self._inflight.pop(key, None)
        batch.future.set_result(payload)
        return BatchOutcome(
            payload=payload,
            batched=batch.waiters > 1,
            leader=True,
            batch_size=batch.waiters,
        )
