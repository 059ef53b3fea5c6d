"""Supervised fan-out over two execution substrates.

One function, :func:`run_fanout` — see :mod:`repro.scheduler.base`
for the contract and ``docs/scheduling.md`` for the two backends
(``inprocess`` / ``localpool``).
"""

from repro.scheduler.base import (
    BACKENDS,
    DEFAULT_RETRIES,
    FanoutOutcome,
    POLICIES,
    PointFailure,
    check_backend,
    pool_chunksize,
    run_fanout,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_RETRIES",
    "FanoutOutcome",
    "POLICIES",
    "PointFailure",
    "check_backend",
    "pool_chunksize",
    "run_fanout",
]
