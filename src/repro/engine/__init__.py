"""The unified execution-engine layer.

Three concerns every backend and every experiment share, factored out
of the individual models and drivers:

- :mod:`repro.engine.registry` — the :class:`Engine` protocol and the
  architecture table (``ARCHS`` / ``create_engine``): one row for
  every model the evaluation compares,
- :mod:`repro.engine.instrumentation` — the observer protocol: both
  simulator backends deliver their step / transfer / evict / repack /
  prefetch events as one ``ReplayBatch`` per OEI pair or stream to
  ``Observer.on_replay``, with a zero-observer fast path,
- :mod:`repro.engine.cache` — the persistent on-disk result cache
  keyed by content (config hash + code version).

Sweep fan-out is one function, :func:`repro.scheduler.run_fanout`.
"""

from repro.engine.cache import CODE_VERSION, CacheEntry, ResultCache
from repro.engine.instrumentation import (
    FILL_STEP,
    CounterObserver,
    EventLogObserver,
    Instrumentation,
    Observer,
    StepTraceObserver,
)
from repro.engine.registry import (
    ArchSpec,
    Engine,
    arch_names,
    create_engine,
    get_arch,
)

__all__ = [
    "ArchSpec",
    "CODE_VERSION",
    "CacheEntry",
    "CounterObserver",
    "Engine",
    "EventLogObserver",
    "FILL_STEP",
    "Instrumentation",
    "Observer",
    "ResultCache",
    "StepTraceObserver",
    "arch_names",
    "create_engine",
    "get_arch",
]
