"""Pluggable execution substrates behind one job-lifecycle protocol.

``submit / poll / shutdown`` — see :mod:`repro.scheduler.base` for the
contract and ``docs/scheduling.md`` for the two backends
(``inprocess`` / ``localpool``).
"""

from typing import Any, Type

from repro.errors import ConfigError
from repro.scheduler.base import (
    DEFAULT_RETRIES,
    DONE,
    FAILED,
    FanoutOutcome,
    PENDING,
    POLICIES,
    PointFailure,
    RUNNING,
    Scheduler,
    SchedulerJob,
    run_fanout,
)
from repro.scheduler.inprocess import InprocessScheduler
from repro.scheduler.localpool import LocalPoolScheduler, pool_chunksize

#: Every backend, by the name ``create_scheduler`` and ``--scheduler``
#: accept.
BACKENDS = {
    InprocessScheduler.name: InprocessScheduler,
    LocalPoolScheduler.name: LocalPoolScheduler,
}


def scheduler_class(name: str) -> Type[Scheduler]:
    """The backend class behind ``name``; ConfigError on unknown names."""
    cls = BACKENDS.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown scheduler backend {name!r}; "
            f"expected one of {tuple(sorted(BACKENDS))}")
    return cls


def create_scheduler(name: str, **options: Any) -> Scheduler:
    """Instantiate a backend by name."""
    return scheduler_class(name)(**options)


__all__ = [
    "BACKENDS",
    "DEFAULT_RETRIES",
    "DONE",
    "FAILED",
    "FanoutOutcome",
    "InprocessScheduler",
    "LocalPoolScheduler",
    "PENDING",
    "POLICIES",
    "PointFailure",
    "RUNNING",
    "Scheduler",
    "SchedulerJob",
    "create_scheduler",
    "pool_chunksize",
    "run_fanout",
    "scheduler_class",
]
