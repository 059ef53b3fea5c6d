"""The in-process backend: serial, deterministic, debuggable.

Every job runs in the submitting process, one ``poll`` at a time, in
submission order — no pickling, no forks, breakpoints work. This is
the reference implementation of the protocol semantics: the pool
backend must be observationally equivalent to it for pure functions
(the conformance suite enforces exactly that).

Driving is *lazy and per-job*: ``poll(job)`` executes that job and
nothing else, so an ``on_error="raise"`` fan-out stops at the first
failure without touching later items — the historical serial
short-circuit behavior.
"""

from __future__ import annotations

from repro.scheduler.base import Scheduler, SchedulerJob


class InprocessScheduler(Scheduler):
    """Serial execution in the submitting process."""

    name = "inprocess"

    def _drive(self, job: SchedulerJob) -> None:
        self._execute_inprocess(job)
