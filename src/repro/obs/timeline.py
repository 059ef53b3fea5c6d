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

Events are held as their final JSON text: each kernel's events are
rendered once, through one format string per event shape, and every
later iteration only stamps in its timestamps. ``write()`` streams that
text as the Trace Event Format JSON that both ``chrome://tracing`` and
https://ui.perfetto.dev load directly — byte for byte what
``json.dumps(doc, sort_keys=True, indent=1)`` gives for the document —
and ``to_chrome_trace()`` parses it back into the dict view;
:func:`validate_chrome_trace` is the schema check the test suite (and
CI) run over every exported document.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _str_text
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.arch.stats import TRAFFIC_CATEGORIES
from repro.engine.instrumentation import (
    FILL_STEP,
    Observer,
    ReplayBatch,
    left_fold,
    running_total,
)
from repro.util.numeric import left_sum

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


# ----------------------------------------------------------------------
# Event text: json's own leaf encoders and one format string per shape
# ----------------------------------------------------------------------
_INF = float("inf")


def _float_text(value: object) -> str:
    """``json``'s text for a float leaf: ``float.__repr__`` after
    ``float()`` (a ``numpy.float64`` or an int renders as the float it
    stands for), with json's ``NaN`` / ``Infinity`` spellings."""
    x = float(value)
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _shape(**event: object) -> str:
    """The format string of one event shape: the exact text
    ``json.dumps(..., sort_keys=True, indent=1)`` gives ``event`` as an
    item of the document's event list (depth 2), cut after ``"ts": ``
    (``ts`` sorts last among every event's keys). Each ``None`` field
    is a ``%s`` slot, filled in the text's sorted-key order. A slot's
    bare ``null`` is followed by a line break; one inside a string
    never is, because json escapes line breaks in strings."""
    text = json.dumps(dict(event, ts=None), sort_keys=True, indent=1)
    text = "  " + text.replace("%", "%%").replace("\n", "\n  ")
    return re.sub(r"null(?=,?\n)", "%s", text[:text.rindex("null")])


#: Pipeline step span. Slots: moved_bytes, step, dur, name.
_STEP = _shape(name=None, ph="X", dur=None, pid=TRACE_PID,
               tid=TRACK_IDS["pipeline"], cat="sim",
               args={"step": None, "moved_bytes": None})
#: Stage busy span, per mapped stage key. Slot: dur.
_STAGE = {
    stage: _shape(name=stage, ph="X", dur=None, pid=TRACE_PID,
                  tid=TRACK_IDS[track], cat="sim", args={})
    for stage, track in _STAGE_TRACK.items()
}
#: DRAM byte counter. Slots: one per category, in sorted order.
_DRAM_SLOTS = tuple(sorted(TRAFFIC_CATEGORIES))
_DRAM = _shape(name="dram bytes", ph="C", pid=TRACE_PID,
               tid=TRACK_IDS["dram"], cat="traffic",
               args=dict.fromkeys(TRAFFIC_CATEGORIES))
#: Loader and buffer instants. Slot: bytes (repack has none).
_PREFETCH = _shape(name="prefetch", ph="i", s="t", pid=TRACE_PID,
                   tid=TRACK_IDS["loaders"], cat="sim",
                   args={"bytes": None})
_EVICT = _shape(name="evict", ph="i", s="t", pid=TRACE_PID,
                tid=TRACK_IDS["buffer"], cat="sim", args={"bytes": None})
_REPACK = _shape(name="repack", ph="i", s="t", pid=TRACE_PID,
                 tid=TRACK_IDS["buffer"], cat="sim", args={}) % ()
#: What follows an event's ``ts`` value: its closing brace.
_CLOSE = "\n  }"


def _render(batch: ReplayBatch) -> List[Tuple[int, str]]:
    """A batch's template: one ``(step_index, prefix)`` pair per event,
    in export order, where ``prefix`` is the event's exact text up to
    its ``ts`` value.

    Per step: its pipeline span, its stage spans, a DRAM byte counter,
    then its instants in arrival order — the loop fires prefetch before
    transfers, evict after them, repack last. The closing fill span
    moves nothing and has no counter.
    """
    tmpl: List[Tuple[int, str]] = []
    add = tmpl.append
    for j, cycles, moved, evict, repack, stages in batch.rows():
        add((j, _STEP % (
            _float_text(left_sum(moved.values())), int.__repr__(j),
            _float_text(cycles), _str_text(f"step {j}"),
        )))
        for stage, busy in stages.items():
            shape = _STAGE.get(stage)
            if shape is not None and busy > 0.0:
                add((j, shape % _float_text(busy)))
        add((j, _DRAM % tuple(
            _float_text(moved.get(c) or 0.0) for c in _DRAM_SLOTS
        )))
        prefetch = moved.get("csr_eager")
        if prefetch:
            add((j, _PREFETCH % _float_text(prefetch)))
        if evict:
            add((j, _EVICT % _float_text(evict)))
        if repack:
            add((j, _REPACK))
    add((batch.cycles.size, _STEP % (
        "0.0", int.__repr__(FILL_STEP), _float_text(batch.fill),
        _str_text("fill"),
    )))
    return tmpl


class TimelineObserver(Observer):
    """Builds the per-core/per-stage timeline of one simulated run.

    Each step's events are stamped with the step's start cycle: its
    pipeline span, its stage spans, a DRAM byte counter, then its
    prefetch / evict / repack instants in firing order — the exported
    order is deterministic for a deterministic run. ``events`` holds
    one exact JSON text per exported event (metadata events aside).
    """

    def __init__(self) -> None:
        self.events: List[str] = []
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
        whichever backend produced the batch. A batch's events are
        rendered once, on its first replay, into ``(step_index,
        prefix)`` pairs cached on the batch; every replay appends
        ``prefix + ts + "\\n  }"`` per event.
        """
        ends = running_total(self.total_cycles, batch.all_cycles()).tolist()
        tmpl = batch.cache.get("timeline")
        if tmpl is None:
            tmpl = batch.cache["timeline"] = _render(batch)
        stamps = [_float_text(t) + _CLOSE for t in ends]
        self.events += [prefix + stamps[j] for j, prefix in tmpl]
        by_cat = self.bytes_by_category
        for cat, amounts in batch.moved:
            by_cat[cat] = left_fold(by_cat[cat], amounts)
        self.total_cycles = ends[-1]
        self.steps += batch.cycles.size

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def total_bytes(self) -> float:
        """Summed exported DRAM bytes, in canonical category order (so
        the float sum matches ``TrafficBreakdown.total_bytes`` exactly)."""
        return left_sum(self.bytes_by_category[c] for c in TRAFFIC_CATEGORIES)

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

    def _text(self, manifest: Optional[object]) -> Tuple[str, ...]:
        """The document's JSON text, in pieces.

        ``json.dumps`` renders the head — ``displayTimeUnit``, the
        ``metadata`` object and the metadata events; ``traceEvents``
        sorts last, so that text ends with the event list's closing
        ``"\\n ]\\n}"``, and the replayed events' text goes in just
        before it.

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
        head = json.dumps({
            "traceEvents": self._metadata_events(),
            "displayTimeUnit": "ns",
            "metadata": metadata,
        }, sort_keys=True, indent=1)
        if not self.events:
            return (head,)
        cut = head.rindex("\n ]\n}")
        return head[:cut], ",\n", ",\n".join(self.events), head[cut:]

    def to_chrome_trace(
        self, manifest: Optional[object] = None
    ) -> Dict[str, object]:
        """The full Trace Event Format document, parsed from the exact
        text :meth:`write` writes (so the two cannot disagree)."""
        return json.loads("".join(self._text(manifest)))

    def write(
        self, path: Union[str, Path], manifest: Optional[object] = None
    ) -> Path:
        """Write the trace JSON deterministically: the bytes of
        ``json.dumps(self.to_chrome_trace(manifest), sort_keys=True,
        indent=1)``, streamed from the pre-rendered event text."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as f:
            f.writelines(self._text(manifest))
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
