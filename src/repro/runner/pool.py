"""A bounded pool of persistent worker processes.

Every simulation that runs out of process runs here: the sweep points of
``repro bench run`` and the tuner (:func:`~repro.runner.executor.run_points`)
and the requests of ``repro serve`` (:mod:`repro.service.executor`).
Workers stay alive (imports warm, registry loaded) and cost one pipe
round-trip per task instead of one fork; the child protocol is
:func:`~repro.runner.worker.pool_worker_main`, built on
:func:`~repro.runner.worker.run_suite_point`.

Failure semantics:

* a task that exceeds its timeout gets its worker killed (SIGKILL) and
  replaced; the caller sees :class:`PoolTimeout`.  The timeout covers the
  task only: a freshly spawned replacement finishes its warm-up handshake
  first;
* a worker that dies mid-task (segfault, OOM-kill) is joined and replaced;
  the caller sees :class:`PoolCrash`, whose message names the exit code;
* a deterministic exception inside the point function travels back as a
  formatted traceback and raises :class:`PoolTaskError` — the worker stays
  alive;
* :meth:`WorkerPool.close` stops the idle workers and kills the busy ones,
  whose callers see :class:`PoolError`; a closed pool spawns no worker.

:meth:`WorkerPool.run` blocks and is thread-safe; async callers wrap it in
``asyncio.to_thread`` (see :mod:`repro.service.executor`).  Workers are
forked at construction time — create the pool *before* starting threads or
an event loop.
"""

from __future__ import annotations

import multiprocessing
import threading

from .worker import pool_worker_main

__all__ = ["PoolError", "PoolTimeout", "PoolCrash", "PoolTaskError", "WorkerPool", "mp_context"]

#: seconds a new worker may take to start before it counts as crashed
STARTUP_TIMEOUT = 60.0


def mp_context():
    """The multiprocessing context of every worker process.

    fork keeps the (already imported) registry warm in children; fall back
    to spawn where fork does not exist.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix
        return multiprocessing.get_context("spawn")


class PoolError(RuntimeError):
    """Base class for pool-side failures; a closed pool raises it directly."""


class PoolTimeout(PoolError):
    """The task exceeded its deadline; the worker was killed and replaced."""


class PoolCrash(PoolError):
    """The worker died without reporting; it was replaced."""


class PoolTaskError(PoolError):
    """The point function raised; carries the child's formatted traceback."""


class _Worker:
    def __init__(self, ctx, bench_dir: str) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=pool_worker_main,
            args=(child_conn, bench_dir),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        #: True once the child's ("ready", pid) handshake has been consumed
        self.warm = False

    def consume_ready(self, timeout: float = 0.0) -> bool:
        """Consume the warm-up handshake if it has arrived; True when warm."""
        if self.warm:
            return True
        try:
            if self.conn.poll(timeout):
                self.conn.recv()  # the first message is always ("ready", pid)
                self.warm = True
        except (EOFError, OSError):
            return False
        return self.warm

    def stop(self, graceful: bool = True) -> None:
        self.ask_stop(graceful)
        self.reap()

    def ask_stop(self, graceful: bool = True) -> None:
        """Tell the worker to exit without waiting for it (see :meth:`reap`)."""
        if graceful:
            try:
                self.conn.send(None)
            except (OSError, ValueError):
                pass
        else:
            # a hung or dead worker: SIGKILL at once, rather than waiting
            # out the join below, and a signal no inherited handler (such as
            # the server's SIGTERM drain handler) can intercept
            self.proc.kill()
        try:
            self.conn.close()
        except OSError:
            pass

    def reap(self) -> None:
        """Join the worker, terminating it if it has not exited in 2 s."""
        self.proc.join(timeout=2)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2)


class WorkerPool:
    """``size`` persistent worker processes behind a blocking ``run()``."""

    def __init__(self, size: int = 2, bench_dir: str = "") -> None:
        self.size = max(1, int(size))
        self.bench_dir = str(bench_dir or "")
        self._ctx = mp_context()
        self._lock = threading.Lock()
        self._slots = threading.Semaphore(self.size)
        self._closed = False
        self._busy: set[_Worker] = set()
        self._idle = [self._spawn() for _ in range(self.size)]
        #: lifetime counters (read under no lock; informational only)
        self.tasks = 0
        self.replaced = 0

    def _spawn(self) -> _Worker:
        return _Worker(self._ctx, self.bench_dir)

    def run(
        self,
        suite_name: str,
        params: dict,
        seed: int,
        profile: bool = False,
        *,
        timeout: float = 60.0,
        trace: dict | None = None,
    ) -> dict:
        """Execute one point on an idle worker; block until it answers.

        ``trace`` optionally carries distributed-tracing context (the parent
        span's ids) into the worker's task envelope; workers without tracing
        enabled ignore it.  Thread-safe: at most ``size`` tasks execute
        concurrently, excess callers wait on the slot semaphore.
        """
        self._slots.acquire()
        with self._lock:
            if self._closed:
                self._slots.release()
                raise PoolError("worker pool is closed")
            worker = self._idle.pop()
            self._busy.add(worker)
        self.tasks += 1
        answer = None  # the worker's (kind, payload), once it reported
        timed_out = False
        try:
            # a replacement worker may still be starting; its start-up
            # is not part of this task's execution deadline
            if worker.consume_ready(STARTUP_TIMEOUT):
                worker.conn.send(
                    (suite_name, dict(params), int(seed), bool(profile), trace)
                )
                if worker.conn.poll(timeout):
                    answer = worker.conn.recv()
                else:
                    timed_out = True
        except (EOFError, OSError):
            worker.proc.join(timeout=1)  # reap it: the exit code is final
        finally:
            self._release(worker, dead=answer is None)
        if timed_out:
            raise PoolTimeout(f"no result within {timeout:.1f}s")
        if answer is None:
            if self._closed:
                raise PoolError("worker pool closed mid-task")
            raise PoolCrash(f"pool worker died mid-task (exit code {worker.proc.exitcode})")
        kind, payload = answer
        if kind == "error":
            raise PoolTaskError(str(payload))
        return payload

    def _release(self, worker: _Worker, dead: bool) -> None:
        """Hand a worker back after a task: idle again, or stopped (and
        replaced while the pool is open) when it hung or died."""
        if dead:
            worker.stop(graceful=False)
        with self._lock:
            self._busy.discard(worker)
            keep = not self._closed
            if keep:
                if dead:
                    worker = self._spawn()
                    self.replaced += 1
                self._idle.append(worker)
        if not keep and not dead:
            worker.stop()
        self._slots.release()

    def ready(self) -> bool:
        """True once every worker has completed its warm-up handshake.

        Workers currently executing a task count as warm (they answered or
        are answering); idle workers are polled without blocking.  A fresh
        pool therefore reports not-ready until each forked/spawned child has
        entered its task loop — the signal ``/readyz`` needs.
        """
        with self._lock:
            if self._closed:
                return False
            idle = list(self._idle)
            busy = self.size - len(idle)
            warm = sum(1 for w in idle if w.consume_ready())
        return warm + busy == self.size

    def close(self) -> None:
        """Stop every worker.  A task still running has its worker killed
        (its caller sees :class:`PoolError`); drain first to avoid that."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._idle = self._idle, []
            busy = list(self._busy)
        for w in busy:
            w.proc.kill()  # its caller reaps it
        # every idle worker hears its stop before the first join, so they
        # exit side by side
        for w in workers:
            w.ask_stop()
        for w in workers:
            w.reap()

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
