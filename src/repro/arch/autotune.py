"""Sub-tensor size auto-tuning (Section IV-F).

The paper: Sparsepipe "can either operate on a fixed sub-tensor size
for an already optimized configuration or explore the optimal
sub-tensor size in the initial steps of the OEI dataflow". This module
implements that exploration: candidate widths are evaluated on a
bounded prefix of the run (the "initial steps") and the fastest is
adopted for the remainder.

Candidate probes are independent pure simulations, so they always run
through :func:`repro.scheduler.run_fanout` (``scheduler="localpool"``
probes widths in parallel; ``docs/scheduling.md``). Selection is
deterministic either way: lowest cycle count wins, first candidate
wins ties.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.arch.config import SparsepipeConfig
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult
from repro.engine.registry import run_engine
from repro.errors import ConfigError
from repro.formats.coo import COOMatrix
from repro.preprocess.pipeline import PreprocessResult
from repro.scheduler import run_fanout

#: Default widths explored, bracketing the paper's configuration.
DEFAULT_CANDIDATES = (32, 64, 128, 256, 512)


def autotune_subtensor_cols(
    profile: WorkloadProfile,
    matrix: Union[COOMatrix, PreprocessResult],
    config: SparsepipeConfig = SparsepipeConfig(),
    candidates: Sequence[int] = DEFAULT_CANDIDATES,
    paper_nnz: Optional[int] = None,
    probe_iterations: int = 2,
    arch: str = "sparsepipe",
    scheduler: Optional[str] = None,
    max_workers: Optional[int] = None,
) -> Tuple[int, SimResult]:
    """Pick the fastest sub-tensor width by probing one OEI pair.

    Returns ``(best_width, full_run_result_at_best_width)``. The probe
    charges only ``probe_iterations`` iterations per candidate, so the
    exploration cost stays a small fraction of the full run — exactly
    the paper's "initial steps" budget. ``arch`` dispatches through
    the architecture registry, so any registered config-taking engine
    can be tuned the same way. ``scheduler`` (a backend name) is the
    ``run_fanout`` backend of the candidate probes; ``None`` probes
    serially in-process.
    """
    if not candidates:
        raise ConfigError("autotuning needs at least one candidate width")
    if probe_iterations < 1:
        raise ConfigError(f"probe_iterations must be >= 1, got {probe_iterations}")
    widths = []
    for width in candidates:
        if width <= 0:
            raise ConfigError(f"sub-tensor width must be positive, got {width}")
        widths.append(int(width))
    probe_profile = replace(
        profile, n_iterations=min(probe_iterations, profile.n_iterations)
    )
    cycles_by_width = _probe_cycles(
        widths, arch, config, probe_profile, matrix, paper_nnz, scheduler,
        max_workers,
    )
    best_width = None
    best_cycles = None
    for width, cycles in zip(widths, cycles_by_width):
        if best_cycles is None or cycles < best_cycles:
            best_cycles = cycles
            best_width = width
    final_config = replace(config, subtensor_cols=best_width)
    result = run_engine(arch, final_config, profile, matrix, paper_nnz=paper_nnz)
    return best_width, result


def _probe_cycles(
    widths: Sequence[int], arch, config, probe_profile, matrix, paper_nnz,
    scheduler: Optional[str], max_workers: Optional[int],
) -> List[float]:
    outcome = run_fanout(
        _probe_width, widths,
        backend=scheduler or "inprocess",
        max_workers=max_workers,
        initializer=_init_probe_worker,
        initargs=(arch, config, probe_profile, matrix, paper_nnz),
        labels=[f"width={w}" for w in widths],
    )
    return outcome.results


# ----------------------------------------------------------------------
# Probe worker side (module-level: must be picklable for the pool
# backend)
# ----------------------------------------------------------------------
_PROBE_STATE: Optional[Tuple] = None


def _init_probe_worker(arch, config, probe_profile, matrix, paper_nnz) -> None:
    """Ship the shared probe inputs once per worker process."""
    global _PROBE_STATE
    _PROBE_STATE = (arch, config, probe_profile, matrix, paper_nnz)


def _probe_width(width: int) -> float:
    """Cycle count of one candidate width on the probe prefix."""
    arch, config, probe_profile, matrix, paper_nnz = _PROBE_STATE
    probe_config = replace(config, subtensor_cols=int(width))
    probe = run_engine(
        arch, probe_config, probe_profile, matrix, paper_nnz=paper_nnz
    )
    return probe.cycles
