"""Retry policies with deterministic backoff, and a timeout wrapper.

A :class:`RetryPolicy` is a frozen description of *when* to retry (an
exception allowlist), *how often* (``max_attempts``), and *how long to
wait* between attempts (exponential backoff capped at ``max_delay``,
with seeded jitter so two runs of the same seeded job produce the same
delay schedule — reproducibility extends to the failure path).

:func:`call_with_retry` executes a callable under a policy;
:func:`run_with_timeout` bounds a call's wall time. Both are available
to any pipeline stage.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

import numpy as np

from repro.obs.recorder import current_recorder

__all__ = ["RetryPolicy", "RetryError", "call_with_retry", "run_with_timeout"]

R = TypeVar("R")


class RetryError(RuntimeError):
    """All attempts of a retried call failed.

    ``last_exception`` carries the final failure; ``attempts`` how many
    were made.
    """

    def __init__(self, attempts: int, last_exception: BaseException) -> None:
        super().__init__(
            f"call failed after {attempts} attempt(s): {last_exception!r}"
        )
        self.attempts = attempts
        self.last_exception = last_exception


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry a failing call.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (``1`` means "no retries").
    base_delay, multiplier, max_delay:
        Attempt ``k`` (0-based) waits ``min(base_delay * multiplier**k,
        max_delay)`` seconds before the *next* try.
    jitter:
        Fraction of the delay added/subtracted uniformly at random
        (``0.1`` → ±10%). Drawn from a generator seeded with ``seed``,
        so the schedule is deterministic per policy instance state.
    seed:
        Jitter seed. ``None`` seeds from OS entropy (non-deterministic).
    retry_on:
        Exception types that trigger a retry; anything else propagates
        immediately.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int | None = None
    retry_on: tuple[type[BaseException], ...] = field(default=(Exception,))

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        if not self.retry_on:
            raise ValueError("retry_on must name at least one exception type")

    def should_retry(self, exc: BaseException) -> bool:
        """Is ``exc`` one of the retryable types?"""
        return isinstance(exc, self.retry_on)

    def delay_schedule(self, attempts: int | None = None) -> list[float]:
        """The deterministic wait (seconds) after each failed attempt.

        Entry ``k`` is the sleep between attempt ``k`` and ``k + 1``;
        the list has ``max_attempts - 1`` entries unless ``attempts``
        overrides it. Jitter is applied from a fresh seeded stream, so
        the same policy always yields the same schedule.
        """
        count = (self.max_attempts if attempts is None else attempts) - 1
        rng = np.random.default_rng(self.seed)
        delays: list[float] = []
        for k in range(max(count, 0)):
            delay = min(self.base_delay * self.multiplier**k, self.max_delay)
            if self.jitter:
                delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            delays.append(max(delay, 0.0))
        return delays


def call_with_retry(
    fn: Callable[..., R],
    *args: Any,
    policy: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, BaseException], None] | None = None,
    **kwargs: Any,
) -> R:
    """Call ``fn(*args, **kwargs)``, retrying per ``policy``.

    ``on_retry(attempt, exc)`` is invoked before each re-attempt (the
    1-based attempt number that just failed). Raises :class:`RetryError`
    wrapping the last exception once attempts are exhausted;
    non-retryable exceptions propagate unwrapped and immediately.
    """
    policy = policy or RetryPolicy()
    delays = policy.delay_schedule()
    rec = current_recorder()
    last: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - filtered just below
            if not policy.should_retry(exc):
                raise
            last = exc
            if attempt < policy.max_attempts:
                rec.inc("retry.attempts")
                rec.event(
                    "retry.attempt",
                    level="warning",
                    attempt=attempt,
                    error=repr(exc),
                    backoff_s=delays[attempt - 1],
                )
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(delays[attempt - 1])
    rec.inc("retry.exhausted")
    rec.event(
        "retry.exhausted",
        level="error",
        attempts=policy.max_attempts,
        error=repr(last),
    )
    assert last is not None
    raise RetryError(policy.max_attempts, last) from last


def run_with_timeout(
    fn: Callable[..., R],
    timeout: float,
    *args: Any,
    **kwargs: Any,
) -> R:
    """Run ``fn`` and raise :class:`TimeoutError` after ``timeout`` seconds.

    The call executes in a daemon worker thread; on timeout the *caller*
    regains control but the thread keeps running to completion in the
    background (Python offers no safe preemption) — use this for calls
    whose side effects are idempotent or absent. Exceptions from ``fn``
    propagate unchanged.
    """
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    executor = concurrent.futures.ThreadPoolExecutor(max_workers=1)
    try:
        future = executor.submit(fn, *args, **kwargs)
        try:
            return future.result(timeout=timeout)
        except concurrent.futures.TimeoutError:
            raise TimeoutError(
                f"call did not finish within {timeout} seconds"
            ) from None
    finally:
        # Don't block on the still-running call; let the thread die with
        # the process if it never returns.
        executor.shutdown(wait=False)
