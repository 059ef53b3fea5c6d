"""Per-stage timeline capture and Chrome/Perfetto ``trace_event`` export.

:class:`TimelineObserver` subscribes to the simulator event stream
(:mod:`repro.engine.instrumentation`) and rebuilds the lock-step
pipeline of Fig 13 as a timeline: one *pipeline* track of step spans,
one track per compute stage (OS, E-Wise, IS, extra) showing its busy
cycles inside each step, a *DRAM channel* track, a *loaders* track of
eager-prefetch instants (Fig 9), and a *buffer* track of evict/repack
instants (Fig 15d's ping-pong). Timestamps are **simulated cycles**
(the trace metadata says so); per track they are monotone by
construction because the cursor only ever advances by each committed
step's duration.

``to_chrome_trace()`` emits the Trace Event Format JSON that both
``chrome://tracing`` and https://ui.perfetto.dev load directly;
:func:`validate_chrome_trace` is the schema check the test suite (and
CI) run over every exported document.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.arch.stats import TRAFFIC_CATEGORIES
from repro.engine.instrumentation import FILL_STEP, Observer, ReplayBatch

#: Process id for the simulated Sparsepipe instance.
TRACE_PID = 1

#: Track (thread) ids, rendering top-to-bottom like Fig 13.
TRACK_IDS = {
    "pipeline": 1,
    "os": 2,
    "ewise": 3,
    "is": 4,
    "extra": 5,
    "dram": 6,
    "loaders": 7,
    "buffer": 8,
}

#: Human-readable track names emitted as thread_name metadata.
TRACK_NAMES = {
    "pipeline": "pipeline steps",
    "os": "OS core",
    "ewise": "E-Wise core",
    "is": "IS core",
    "extra": "extra ops",
    "dram": "DRAM channel",
    "loaders": "eager CSR loader",
    "buffer": "on-chip buffer",
}

#: stage_cycles keys -> track keys (memory renders on the DRAM track).
_STAGE_TRACK = {
    "os": "os", "ewise": "ewise", "is": "is", "extra": "extra",
    "memory": "dram",
}


class TimelineObserver(Observer):
    """Builds the per-core/per-stage timeline of one simulated run.

    Each step's events are stamped with the step's start cycle: its
    pipeline span, its stage spans, a DRAM byte counter, then its
    prefetch / evict / repack instants in firing order — the exported
    order is deterministic for a deterministic run.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []
        self.total_cycles = 0.0
        self.steps = 0
        self.bytes_by_category: Dict[str, float] = {
            c: 0.0 for c in TRAFFIC_CATEGORIES
        }

    def on_replay(self, batch: ReplayBatch) -> None:
        """Consume one batch wholesale.

        The timestamp sequence is a sequential ``total_cycles += cycles``
        fold over the steps — a seeded ``cumsum``, never a re-associated
        base-plus-offset — so the exported document is byte-identical
        whichever backend produced the batch. The event dicts built on a
        batch's first replay double as its template (cached on the
        batch); later replays copy and restamp them instead of
        rebuilding.
        """
        cols = batch.column_data()
        cyc = cols["cycles"]
        buf = np.empty(cyc.size + 1)
        buf[0] = self.total_cycles
        buf[1:] = cyc
        ends = buf.cumsum().tolist()
        events = self.events
        tmpl = batch.cache.get("timeline")
        if tmpl is None:
            tmpl = self._first_replay(batch, ends, events)
            batch.cache["timeline"] = tmpl
        else:
            for j, proto in tmpl:
                ev = dict(proto)
                ev["ts"] = ends[j]
                events.append(ev)
        by_cat = self.bytes_by_category
        for cat, amounts in cols["dram"]:
            # In-order adds of every fired transfer; zero amounts in a
            # kernel column are the float-addition identity here.
            if amounts.size:
                fold = np.empty(amounts.size + 1)
                fold[0] = by_cat[cat]
                fold[1:] = amounts
                by_cat[cat] = float(fold.cumsum()[-1])
        self.total_cycles = ends[-1]
        self.steps += cols["n_real"]

    def _first_replay(self, batch: ReplayBatch, ends: List[float],
                      events: List[Dict[str, object]]) -> list:
        """Build the batch's events directly into ``events`` (stamped
        with this observer's cursor) while recording ``(step_index,
        event)`` template pairs for later replays to copy."""
        tmpl: List = []
        pid, tids = TRACE_PID, TRACK_IDS
        for j, (step, cycles, prefetch, transfers, evict, repack,
                moved, stage_cycles) in enumerate(batch.steps):
            start = ends[j]
            fill = step == FILL_STEP
            ev: Dict[str, object] = {
                "name": "fill" if fill else f"step {step}",
                "ph": "X", "ts": start, "dur": float(cycles), "pid": pid,
                "tid": tids["pipeline"], "cat": "sim",
                "args": {"step": int(step),
                         "moved_bytes": float(sum(moved.values()))},
            }
            tmpl.append((j, ev))
            events.append(ev)
            if stage_cycles:
                for stage, busy in stage_cycles.items():
                    track = _STAGE_TRACK.get(stage)
                    if track is not None and busy > 0.0:
                        ev = {
                            "name": stage, "ph": "X", "ts": start,
                            "dur": float(busy), "pid": pid,
                            "tid": tids[track], "cat": "sim", "args": {},
                        }
                        tmpl.append((j, ev))
                        events.append(ev)
            if transfers or not fill:
                pending: Dict[str, float] = {}
                for cat, val in transfers:
                    pending[cat] = pending.get(cat, 0.0) + val
                ev = {
                    "name": "dram bytes", "ph": "C", "ts": start,
                    "pid": pid, "tid": tids["dram"], "cat": "traffic",
                    "args": {c: pending.get(c, 0.0)
                             for c in TRAFFIC_CATEGORIES},
                }
                tmpl.append((j, ev))
                events.append(ev)
            # Instants flush in arrival order: the loop fires prefetch
            # before transfers, evict after them, repack last.
            if prefetch:
                ev = {"name": "prefetch", "ph": "i", "ts": start,
                      "s": "t", "pid": pid, "tid": tids["loaders"],
                      "cat": "sim", "args": {"bytes": float(prefetch)}}
                tmpl.append((j, ev))
                events.append(ev)
            if evict:
                ev = {"name": "evict", "ph": "i", "ts": start, "s": "t",
                      "pid": pid, "tid": tids["buffer"], "cat": "sim",
                      "args": {"bytes": float(evict)}}
                tmpl.append((j, ev))
                events.append(ev)
            if repack:
                ev = {"name": "repack", "ph": "i", "ts": start, "s": "t",
                      "pid": pid, "tid": tids["buffer"], "cat": "sim",
                      "args": {}}
                tmpl.append((j, ev))
                events.append(ev)
        return tmpl

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def total_bytes(self) -> float:
        """Summed exported DRAM bytes, in canonical category order (so
        the float sum matches ``TrafficBreakdown.total_bytes`` exactly)."""
        return sum(self.bytes_by_category[c] for c in TRAFFIC_CATEGORIES)

    def _metadata_events(self) -> List[Dict[str, object]]:
        out = [{
            "name": "process_name", "ph": "M", "pid": TRACE_PID, "tid": 0,
            "args": {"name": "sparsepipe-sim"},
        }]
        for track, tid in TRACK_IDS.items():
            out.append({
                "name": "thread_name", "ph": "M", "pid": TRACE_PID,
                "tid": tid, "args": {"name": TRACK_NAMES[track]},
            })
        return out

    def to_chrome_trace(
        self, manifest: Optional[object] = None
    ) -> Dict[str, object]:
        """The full Trace Event Format document.

        ``manifest`` (a :class:`~repro.obs.manifest.RunManifest`)
        embeds its *stable* fields — never wall-time — so the document
        is byte-identical across reruns of the same configuration.
        """
        metadata: Dict[str, object] = {
            "tsUnit": "cycles",
            "totalCycles": float(self.total_cycles),
            "steps": int(self.steps),
        }
        if manifest is not None:
            metadata["manifest"] = manifest.stable_dict()
            metadata["manifestDigest"] = manifest.digest()
        return {
            "traceEvents": self._metadata_events() + self.events,
            "displayTimeUnit": "ns",
            "metadata": metadata,
        }

    def write(
        self, path: Union[str, Path], manifest: Optional[object] = None
    ) -> Path:
        """Write the trace JSON deterministically (sorted keys)."""
        path = Path(path)
        doc = self.to_chrome_trace(manifest)
        path.write_text(json.dumps(doc, sort_keys=True, indent=1))
        return path


# ----------------------------------------------------------------------
# Schema validation (used by the test suite and CI)
# ----------------------------------------------------------------------
REQUIRED_EVENT_FIELDS = ("name", "ph", "pid", "tid")


def validate_chrome_trace(doc: Dict[str, object]) -> List[Dict[str, object]]:
    """Check a document against the Trace Event Format contract.

    Raises ``ValueError`` naming the first violation; returns the event
    list on success. Checks: the ``traceEvents`` envelope; required
    ``ph``/``pid``/``tid`` fields; ``ts`` on every non-metadata event
    plus ``dur`` on complete (``"X"``) events; and per-track monotone
    non-decreasing timestamps.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    last_ts: Dict[object, float] = {}
    for i, ev in enumerate(events):
        for field in REQUIRED_EVENT_FIELDS:
            if field not in ev:
                raise ValueError(f"event {i} missing required field {field!r}")
        ph = ev["ph"]
        if ph == "M":
            continue
        if "ts" not in ev:
            raise ValueError(f"event {i} ({ev['name']!r}) missing 'ts'")
        if ph == "X" and "dur" not in ev:
            raise ValueError(f"complete event {i} ({ev['name']!r}) missing 'dur'")
        ts = float(ev["ts"])
        track = (ev["pid"], ev["tid"])
        if ts < last_ts.get(track, 0.0):
            raise ValueError(
                f"event {i} ({ev['name']!r}) breaks timestamp monotonicity "
                f"on track {track}: {ts} < {last_ts[track]}"
            )
        last_ts[track] = ts
    return events
