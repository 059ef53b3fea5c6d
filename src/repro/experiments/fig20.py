"""Fig 20: (a) storage footprint of the blocked dual format relative to
naive dual storage (paper: 39.2% on average), and (b) relative
performance-per-area vs CPU and GPU (paper: 9.84x and 5.38x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.arch.area import AreaModel, CPU_AREA_MM2, GPU_AREA_MM2
from repro.experiments.report import format_table
from repro.experiments.runner import ExperimentContext, GPU_WORKLOADS
from repro.util.numeric import geomean, left_sum


@dataclass(frozen=True)
class Fig20aRow:
    matrix: str
    ratio_no_reorder: float     #: blocked / naive dual, natural order
    ratio_reordered: float      #: blocked / naive dual, after reorder


@dataclass(frozen=True)
class Fig20bRow:
    system: str
    area_mm2: float
    relative_perf: float        #: geomean speedup normalized to CPU
    perf_per_area: float        #: normalized to CPU


def run_storage(context: Optional[ExperimentContext] = None) -> List[Fig20aRow]:
    context = context or ExperimentContext()
    rows: List[Fig20aRow] = []
    for matrix in context.all_matrices():
        natural = context.prepared(matrix, reorder=None, block_size=256)
        reordered = context.prepared(matrix, reorder="vanilla", block_size=256)
        rows.append(
            Fig20aRow(matrix, natural.storage_ratio, reordered.storage_ratio)
        )
    return rows


def run_perf_per_area(
    context: Optional[ExperimentContext] = None,
) -> List[Fig20bRow]:
    context = context or ExperimentContext()
    area = AreaModel()
    sp_area = area.sparsepipe_mm2()
    # Relative performance from the Fig 17 working set (the four
    # GPU-comparable applications across all matrices).
    sp_vs_cpu = geomean(
        context.speedup(w, m, over="cpu")
        for w in GPU_WORKLOADS
        for m in context.all_matrices()
    )
    gpu_vs_cpu = geomean(
        context.simulate("gpu", w, m).speedup_over(context.simulate("cpu", w, m))
        for w in GPU_WORKLOADS
        for m in context.all_matrices()
    )
    systems = [
        ("cpu", CPU_AREA_MM2, 1.0),
        ("gpu", GPU_AREA_MM2, gpu_vs_cpu),
        ("sparsepipe", sp_area, sp_vs_cpu),
    ]
    cpu_ppa = 1.0 / CPU_AREA_MM2
    return [
        Fig20bRow(name, a, perf, (perf / a) / cpu_ppa)
        for name, a, perf in systems
    ]


def main(context: Optional[ExperimentContext] = None) -> str:
    context = context or ExperimentContext()
    storage = run_storage(context)
    average = left_sum(r.ratio_reordered for r in storage) / len(storage)
    text = format_table(
        ["matrix", "blocked/dual (natural)", "blocked/dual (reordered)"],
        [(r.matrix, r.ratio_no_reorder, r.ratio_reordered) for r in storage],
        title="Fig 20a: blocked dual storage relative to naive dual storage",
    )
    text += f"\naverage {100 * average:.1f}% of naive dual storage (paper: 39.2%)\n\n"

    ppa = run_perf_per_area(context)
    text += format_table(
        ["system", "area (mm^2)", "relative perf", "perf/area vs CPU"],
        [(r.system, r.area_mm2, r.relative_perf, r.perf_per_area) for r in ppa],
        title="Fig 20b: relative performance per area",
    )
    sp = next(r for r in ppa if r.system == "sparsepipe")
    gpu = next(r for r in ppa if r.system == "gpu")
    text += (
        f"\nSparsepipe perf/area: {sp.perf_per_area:.2f}x CPU (paper: 9.84x), "
        f"{sp.perf_per_area / gpu.perf_per_area:.2f}x GPU (paper: 5.38x)"
    )
    print(text)
    return text


if __name__ == "__main__":
    main()
