"""Text rendering of the OEI pipeline schedule — Fig 13 as ASCII.

``render_pipeline`` draws, for a handful of sub-tensors, which pipeline
stage touches which sub-tensor at each step: the CSC loader one step
ahead of the OS stage, the e-wise stage one behind, the IS stage two
behind. Useful in docs and for eyeballing schedule changes.

:class:`PipelineActivityObserver` is the *measured* counterpart: it
plugs into :meth:`SparsepipeSimulator.run
<repro.arch.simulator.SparsepipeSimulator.run>` as an instrumentation
observer and records which component bound each simulated step, so
``render_bottlenecks`` shows where the lock-step pipeline actually
spent its time rather than the nominal schedule.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.engine.instrumentation import Observer, ReplayBatch
from repro.oei.schedule import OEISchedule

#: Row order of the rendering, matching Fig 13 top-to-bottom.
STAGES = ("csc load", "os", "e-wise", "is")


def render_pipeline(n: int, subtensor_cols: int, max_steps: int = 12) -> str:
    """Render the schedule of one OEI pair as an ASCII Gantt chart.

    Cells contain the sub-tensor index each stage processes at that
    step (``.`` when idle); the CSC loader runs one step ahead of the
    OS stage per Fig 13.
    """
    schedule = OEISchedule(n, subtensor_cols)
    n_steps = min(schedule.n_steps + 1, max_steps)
    header = "step      " + " ".join(f"{s:>3}" for s in range(n_steps))
    lines: List[str] = [header, "-" * len(header)]
    for stage in STAGES:
        cells = []
        for step in range(n_steps):
            if stage == "csc load":
                target = step + 1  # loading for the OS stage of step+1
                sub = (
                    schedule.subtensor(target)
                    if 0 <= target < schedule.n_subtensors
                    else None
                )
            elif stage == "os":
                sub = schedule.os_at(step)
            elif stage == "e-wise":
                sub = schedule.ewise_at(step)
            else:
                sub = schedule.is_at(step)
            cells.append(f"{sub.index:>3}" if sub is not None else "  .")
        lines.append(f"{stage:<9} " + " ".join(cells))
    if schedule.n_steps + 1 > max_steps:
        lines.append(f"... ({schedule.n_steps} steps total)")
    return "\n".join(lines)


class PipelineActivityObserver(Observer):
    """Records per-step component timings from a live simulation.

    Register with ``SparsepipeSimulator(...).run(..., observers=[obs])``;
    afterwards ``bottlenecks()`` names the slowest component of each
    step and ``render_bottlenecks()`` draws the lock-step occupancy as
    ASCII (``#`` where a component set the step's duration, ``+`` where
    it was within 10% of it).
    """

    def __init__(self) -> None:
        #: (step index, step cycles, component -> cycles)
        self.steps: List[Tuple[int, float, Dict[str, float]]] = []

    def on_replay(self, batch: ReplayBatch) -> None:
        self.steps += [
            (step, cycles, stages)
            for step, cycles, _, _, _, stages in batch.rows()
        ]

    def bottlenecks(self) -> List[str]:
        """The slowest component per recorded step (``overhead`` when
        the fixed step overhead set the duration)."""
        out = []
        for _, cycles, stages in self.steps:
            name, worst = max(stages.items(), key=lambda kv: kv[1])
            out.append(name if worst >= cycles else "overhead")
        return out

    def render_bottlenecks(self, max_steps: int = 16) -> str:
        """ASCII occupancy chart of the measured pipeline steps."""
        if not self.steps:
            return "(no steps recorded)"
        shown = self.steps[:max_steps]
        components = sorted({c for _, _, stages in shown for c in stages})
        header = "step      " + " ".join(
            f"{s:>3}" for s, _, _ in shown
        )
        lines = [header, "-" * len(header)]
        for comp in components:
            cells = []
            for _, cycles, stages in shown:
                v = stages.get(comp, 0.0)
                if v >= cycles:
                    cells.append("  #")
                elif cycles > 0 and v >= 0.9 * cycles:
                    cells.append("  +")
                else:
                    cells.append("  .")
            lines.append(f"{comp:<9} " + " ".join(cells))
        if len(self.steps) > max_steps:
            lines.append(f"... ({len(self.steps)} steps total)")
        return "\n".join(lines)
