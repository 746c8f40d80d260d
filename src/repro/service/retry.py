"""Retry policy: exponential backoff with bounded jitter.

Pure arithmetic over an injected RNG — no clocks, no sleeping — so the
schedule is a deterministic function of ``(policy, rng seed)`` and unit
tests can assert exact bounds.  The service derives each request's RNG
seed from its fingerprint, which makes retry timing reproducible across
runs of the same batch (the same spirit as the deterministic
``-finject-fault`` windows).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for one request on one representation.

    ``max_attempts`` counts attempts, not retries: 3 means one initial
    attempt plus up to two retries.  Retry *i* (0-based) waits
    ``base_delay_s * multiplier**i`` seconds, capped at ``max_delay_s``,
    then scaled by a uniform jitter factor in ``[1 - jitter, 1 + jitter]``
    to avoid synchronized retry storms.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    # ------------------------------------------------------------------
    def backoff(
        self, retry_index: int, rng: Optional[random.Random] = None
    ) -> float:
        """Delay before 0-based retry *retry_index*."""
        raw = min(
            self.base_delay_s * self.multiplier**retry_index,
            self.max_delay_s,
        )
        if rng is not None and self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw

    def bounds(self, retry_index: int) -> tuple[float, float]:
        """Inclusive ``[lo, hi]`` envelope of :meth:`backoff` for tests
        and capacity planning."""
        raw = min(
            self.base_delay_s * self.multiplier**retry_index,
            self.max_delay_s,
        )
        return raw * (1.0 - self.jitter), raw * (1.0 + self.jitter)
