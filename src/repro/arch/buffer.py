"""On-chip buffer model: the CSR reuse window (Section IV-B / IV-D3).

The buffer tracks, per pipeline step, the matrix elements that have
been loaded (column-wise by the OS stage or eagerly row-wise) but not
yet consumed by the IS stage — the cross-iteration reuse window of
Table I. Elements are grouped by the step at which the IS stage will
scatter them; on overflow the controller evicts the rows with the
highest ``row_idx`` first (the paper's OOM policy), charging a reload
at their scatter step — the "memory ping-pong" the Fig 15(d) case
suffers from.

Repacking (consumed-element compaction) is counted as events: this
model's accounting is exact, so repacking affects statistics rather
than capacity.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.errors import BufferError_
from repro.util.validation import check_positive


class OnChipBuffer:
    """CSR-window residency tracker for one simulation."""

    def __init__(
        self,
        capacity_bytes: float,
        csr_window_fraction: float,
        element_bytes: float,
        repack_threshold: float,
    ) -> None:
        check_positive("capacity_bytes", capacity_bytes)
        check_positive("element_bytes", element_bytes)
        self.capacity_bytes = float(capacity_bytes)
        self.csr_capacity_bytes = capacity_bytes * csr_window_fraction
        self.element_bytes = float(element_bytes)
        self._repack_threshold = repack_threshold

        #: scatter step -> resident element count
        self._live: Dict[int, int] = {}
        self._live_elements = 0
        #: step -> bytes that must be re-fetched (evicted under OOM)
        self._reload_due: Dict[int, float] = {}
        #: bytes currently held by the eager prefetcher (column data
        #: loaded ahead of the OS stage)
        self.prefetch_resident_bytes = 0.0

        self.peak_bytes = 0.0
        self.evicted_bytes = 0.0
        self.repack_events = 0
        self._consumed_since_repack = 0
        self._resident_heap_hint = 0  # highest scatter step seen

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    @property
    def live_bytes(self) -> float:
        return self._live_elements * self.element_bytes

    @property
    def occupied_bytes(self) -> float:
        return self.live_bytes + self.prefetch_resident_bytes

    def slack_bytes(self) -> float:
        """Space the eager prefetcher may use this step."""
        return max(0.0, self.csr_capacity_bytes - self.occupied_bytes)

    # ------------------------------------------------------------------
    # Window transitions
    # ------------------------------------------------------------------
    def admit(self, counts: Mapping[int, int]) -> None:
        """Elements entering the CSR window, keyed by scatter step."""
        for r, c in counts.items():
            if c < 0:
                raise BufferError_(f"negative admit count {c} for step {r}")
            if c:
                self._live[r] = self._live.get(r, 0) + int(c)
                self._live_elements += int(c)
                if r > self._resident_heap_hint:
                    self._resident_heap_hint = r
        self.peak_bytes = max(self.peak_bytes, self.occupied_bytes)

    def release(self, step: int) -> int:
        """IS consumed everything scheduled for ``step``; returns the
        element count released."""
        consumed = self._live.pop(step, 0)
        self._live_elements -= consumed
        self._consumed_since_repack += consumed
        if (
            self._live_elements > 0
            and self._consumed_since_repack
            > self._repack_threshold * (self._live_elements + self._consumed_since_repack)
        ):
            self.repack_events += 1
            self._consumed_since_repack = 0
        return consumed

    def enforce_capacity(self, current_step: int) -> float:
        """Evict furthest-reload elements until the window fits.

        Returns the bytes evicted now; the same bytes are charged as
        ``csr_reload`` demand at their scatter steps.
        """
        evicted_now = 0.0
        while self.live_bytes > self.csr_capacity_bytes and self._live:
            victim_step = max(self._live)
            if victim_step <= current_step:
                # Everything resident is needed immediately; nothing
                # sane to evict — stop rather than thrash.
                break
            over_elements = int(
                -(-(self.live_bytes - self.csr_capacity_bytes) // self.element_bytes)
            )
            take = min(over_elements, self._live[victim_step])
            self._live[victim_step] -= take
            if self._live[victim_step] == 0:
                del self._live[victim_step]
            self._live_elements -= take
            n_bytes = take * self.element_bytes
            self._reload_due[victim_step] = (
                self._reload_due.get(victim_step, 0.0) + n_bytes
            )
            self.evicted_bytes += n_bytes
            evicted_now += n_bytes
        return evicted_now

    def pop_reload(self, step: int) -> float:
        """Reload bytes that must be fetched for the IS stage at ``step``."""
        return self._reload_due.pop(step, 0.0)

    def drain_check(self) -> None:
        """At end of a pair the window must be empty — anything left is
        a scheduling bug."""
        if self._live_elements != 0:
            raise BufferError_(
                f"{self._live_elements} elements left in the reuse window "
                "after pair drain"
            )
