"""Fig 15: memory bandwidth utilization timeline, sampled at every 4%
of execution, for the four highlighted (workload, matrix) pairs:
sssp-bu (well-performing), knn-eu (eager CSR reclaims bandwidth),
kcore-eu (compute-intensive), sssp-wi (skewed non-zeros ping-pong)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.arch.stats import BandwidthSample
from repro.engine.instrumentation import StepTraceObserver
from repro.engine.registry import run_engine
from repro.experiments.report import format_bar_series
from repro.experiments.runner import ExperimentContext, FIG15_PAIRS
from repro.matrices.suite import SUITE
from repro.util.numeric import left_sum


@dataclass(frozen=True)
class Fig15Series:
    workload: str
    matrix: str
    speedup_over_ideal: float
    samples: Tuple[BandwidthSample, ...]

    @property
    def mean_utilization(self) -> float:
        if not self.samples:
            return 0.0
        return left_sum(s.utilization for s in self.samples) / len(self.samples)


def run(context: Optional[ExperimentContext] = None) -> List[Fig15Series]:
    context = context or ExperimentContext()
    out: List[Fig15Series] = []
    for workload, matrix in FIG15_PAIRS:
        # This figure needs the per-step bandwidth samples, which a
        # StepTraceObserver records. The vectorized backend synthesizes
        # the event stream post-hoc, so sampling costs no reference-loop
        # run.
        result = run_engine(
            "sparsepipe",
            context.config,
            context.profile(workload, matrix),
            context.prepared(matrix),
            paper_nnz=SUITE[matrix].paper_nnz,
            observers=[StepTraceObserver()],
        )
        speedup = context.speedup(workload, matrix, over="ideal")
        out.append(
            Fig15Series(workload, matrix, speedup, tuple(result.bandwidth_samples))
        )
    return out


def main(context: Optional[ExperimentContext] = None) -> str:
    series_list = run(context)
    chunks = []
    for s in series_list:
        labels = [f"{int(sample.progress * 100):3d}%" for sample in s.samples]
        values = [sample.utilization for sample in s.samples]
        chunks.append(
            format_bar_series(
                labels,
                values,
                title=(
                    f"Fig 15 {s.workload}-{s.matrix}: bandwidth utilization per 4% "
                    f"interval (speedup over ideal {s.speedup_over_ideal:.2f}x, "
                    f"mean util {s.mean_utilization:.2f})"
                ),
            )
        )
    text = "\n\n".join(chunks)
    print(text)
    return text


if __name__ == "__main__":
    main()
