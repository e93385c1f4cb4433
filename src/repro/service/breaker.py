"""Per-backend circuit breakers for the fleet gateway.

The state machine is the classic three-state breaker, with the repo's
fault-recovery discipline applied: every timing decision is seeded and
deterministic, and every transition is recorded so it can be asserted on
from ``/metrics``.

* **closed** — traffic flows; consecutive failures are counted and
  ``failure_threshold`` of them trip the breaker open.
* **open** — traffic is rejected until a cooldown (with deterministic,
  seeded jitter so a fleet of breakers does not probe in lockstep)
  expires; the next ``allow()`` after that moves to half-open.
* **half-open** — exactly one probe request is admitted.  Success closes
  the breaker and resets the cooldown; failure re-opens it with the
  cooldown doubled (capped at ``max_cooldown_s``).

The breaker never touches wall-clock state on its own: callers drive it
through ``allow()`` / ``record_success()`` / ``record_failure()``, and the
clock is injectable for tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

__all__ = ["CLOSED", "HALF_OPEN", "OPEN", "BreakerConfig", "CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tunables for one :class:`CircuitBreaker`."""

    #: consecutive failures in the closed state that trip the breaker
    failure_threshold: int = 3
    #: initial open-state cooldown before a half-open probe is admitted
    cooldown_s: float = 2.0
    #: cooldown cap as repeated probe failures keep doubling it
    max_cooldown_s: float = 30.0
    #: +/- fraction of the cooldown drawn from the seeded rng per trip
    jitter: float = 0.2


class CircuitBreaker:
    """Three-state breaker with seeded jitter and a transition log."""

    def __init__(
        self,
        name: str = "",
        config: BreakerConfig | None = None,
        *,
        seed: int = 0,
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self.config = config or BreakerConfig()
        self._clock = clock
        self._rng = random.Random(seed)
        self.state = CLOSED
        self.consecutive_failures = 0
        self.failures = 0
        self.successes = 0
        self.rejected = 0
        self.transitions: list[dict] = []
        #: optional ``(name, transition_record)`` observer — the gateway uses
        #: it to emit typed trace events alongside the in-memory log
        self.on_transition = None
        self._cooldown = self.config.cooldown_s
        self._open_until = 0.0
        self._probe_inflight = False

    # -- state machine ---------------------------------------------------
    def _transition(self, to: str, reason: str) -> None:
        record = {
            "t": round(self._clock(), 3),
            "from": self.state,
            "to": to,
            "reason": reason,
        }
        self.transitions.append(record)
        del self.transitions[:-256]  # the log keeps the latest 256
        self.state = to
        if self.on_transition is not None:
            self.on_transition(self.name, record)

    def _trip_open(self, reason: str) -> None:
        jitter = 1.0 + self.config.jitter * (2.0 * self._rng.random() - 1.0)
        self._open_until = self._clock() + self._cooldown * jitter
        self._probe_inflight = False
        self._transition(OPEN, reason)

    def allow(self) -> bool:
        """May a request be sent now?  Consumes the half-open probe slot."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self._clock() < self._open_until:
                self.rejected += 1
                return False
            self._transition(HALF_OPEN, "cooldown elapsed")
            self._probe_inflight = True
            return True
        # half-open: one probe at a time
        if self._probe_inflight:
            self.rejected += 1
            return False
        self._probe_inflight = True
        return True

    def would_allow(self) -> bool:
        """Non-mutating availability check (no probe slot is consumed)."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            return self._clock() >= self._open_until
        return not self._probe_inflight

    def release(self) -> None:
        """Return an unused probe slot (the admitted attempt was cancelled)."""
        self._probe_inflight = False

    def record_success(self) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        if self.state != CLOSED:
            self._cooldown = self.config.cooldown_s
            self._probe_inflight = False
            self._transition(CLOSED, "probe succeeded")

    def record_failure(self, reason: str = "error") -> None:
        self.failures += 1
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            self._cooldown = min(self._cooldown * 2.0, self.config.max_cooldown_s)
            self._trip_open(f"probe failed: {reason}")
        elif (
            self.state == CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self._trip_open(reason)
        # a failure while already open (an in-flight request finishing after
        # the trip) only bumps the counters

    # -- observability ---------------------------------------------------
    def seconds_until_probe(self) -> float:
        """Time until the next half-open probe would be admitted."""
        if self.state != OPEN:
            return 0.0
        return max(0.0, self._open_until - self._clock())

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failures": self.failures,
            "successes": self.successes,
            "rejected": self.rejected,
            "cooldown_s": round(self._cooldown, 3),
            "seconds_until_probe": round(self.seconds_until_probe(), 3),
            "transitions": list(self.transitions),
        }
