"""Golden fixtures for the layers below the simulator.

``tests/test_goldens.py`` freezes the simulator's ``SimResult``s on
``gy``. These fixtures freeze the two layers that feed it, on every
suite matrix, so a host-side optimization of either cannot change an
output unseen:

- ``tests/goldens/preprocess.json`` — per matrix, under the default
  ``vanilla`` reorder and 256-wide blocking: digests of the permutation,
  the deduplicated reordered COO and the blocked layout, plus the dual
  and blocked storage byte accounts;
- ``tests/goldens/functional.json`` — per (workload, matrix), the
  :class:`~repro.workloads.base.FunctionalResult` iteration count,
  activity tuple and a bitwise digest of the output. gcn profiles
  without a functional run; its recorded count and activity are what
  ``GCN.profile`` assumes, on every suite matrix.

It also freezes what the simulator's observers see, the layer above it:

- ``tests/goldens/observed.json`` — per (workload, variant) on ``gy``,
  with every stock observer attached: the sha256 of the sorted
  Chrome-trace JSON, the metrics-registry digest,
  ``CounterObserver.as_dict()``, and digests of the ``EventLogObserver``
  stream, the ``StepTraceObserver`` samples and the
  ``PipelineActivityObserver`` steps. Both backends must reproduce it.

A failing golden prints a field-level diff; regenerate deliberately
with::

    PYTHONPATH=src python -m pytest tests/test_goldens_layers.py --update-goldens
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.arch.config import SparsepipeConfig
from repro.arch.pipeline_viz import PipelineActivityObserver
from repro.arch.simulator import SparsepipeSimulator
from repro.engine.instrumentation import (
    CounterObserver,
    EventLogObserver,
    StepTraceObserver,
)
from repro.experiments.runner import ExperimentContext
from repro.graphblas.matrix import Matrix
from repro.matrices.suite import SUITE, load_suite_matrix, suite_names
from repro.obs.metrics import MetricsObserver
from repro.obs.timeline import TimelineObserver
from repro.preprocess.pipeline import preprocess
from repro.testing import array_digest, diff_docs
from repro.workloads.base import FunctionalResult, Workload
from repro.workloads.gcn import GCN
from repro.workloads.registry import get_workload, workload_names

GOLDEN_DIR = Path(__file__).parent / "goldens"
PREPROCESS_PATH = GOLDEN_DIR / "preprocess.json"
FUNCTIONAL_PATH = GOLDEN_DIR / "functional.json"
OBSERVED_PATH = GOLDEN_DIR / "observed.json"

MATRICES = tuple(suite_names())
WORKLOADS = tuple(workload_names())


def preprocess_doc(prep) -> dict:
    """Golden document of one ``vanilla``/256 :class:`PreprocessResult`."""
    coo, blocked = prep.matrix, prep.blocked
    return {
        "permutation": array_digest(prep.permutation),
        "matrix": array_digest(coo.rows, coo.cols, coo.vals),
        "nnz": coo.nnz,
        "blocked_layout": array_digest(
            blocked.block_rows, blocked.block_cols, blocked.block_ptr,
            blocked.local_rows, blocked.local_cols, blocked.vals,
            blocked.col_block_ids,
        ),
        "dual_bytes": prep.dual_bytes,
        "blocked_payload_bytes": blocked.payload_bytes(),
        "blocked_index_bytes": blocked.index_bytes(),
        "blocked_bytes": prep.blocked_bytes,
    }


def _functional_doc(workload: str, matrix: Matrix) -> dict:
    result = get_workload(workload).run_functional(matrix)
    return {
        "n_iterations": result.n_iterations,
        "activity": list(result.activity),
        "output": array_digest(result.output),
    }


def _sha256(doc: object) -> str:
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Observed-run variants: flat and banked DRAM, plus a 20 kB buffer —
#: the default buffer never spills on ``gy``, so only the tight one
#: exercises the evict events.
OBSERVED_VARIANTS = {
    "flat": {},
    "banked": {"detailed_dram": True},
    "tight": {"buffer_bytes": 20000},
}


def _observed_doc(context, workload: str, variant: dict,
                  backend: str) -> dict:
    matrix = "gy"
    config = SparsepipeConfig(backend=backend, **variant)
    timeline, metrics = TimelineObserver(), MetricsObserver()
    counter, log = CounterObserver(), EventLogObserver()
    steps, activity = StepTraceObserver(), PipelineActivityObserver()
    result = SparsepipeSimulator(config).run(
        context.profile(workload, matrix), context.prepared(matrix),
        paper_nnz=SUITE[matrix].paper_nnz,
        observers=(timeline, metrics, counter, log, steps, activity),
    )
    return {
        "trace": _sha256(timeline.to_chrome_trace()),
        "metrics_digest": metrics.finalize(result).digest(),
        "counters": counter.as_dict(),
        "events": _sha256(log.events),
        "samples": _sha256([
            (b.progress, b.utilization, b.category_share)
            for b in steps.samples(config.bytes_per_cycle)
        ]),
        # The reference loop reports some stage cycles as ints; the
        # value, not its Python type, is what is frozen.
        "activity": _sha256([
            (step, cycles, {k: float(v) for k, v in stages.items()})
            for step, cycles, stages in activity.steps
        ]),
    }


@pytest.fixture(scope="module")
def matrices():
    return {name: Matrix(load_suite_matrix(name)) for name in MATRICES}


def _check(path: Path, actual: dict, update: bool) -> None:
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, sort_keys=True, indent=2) + "\n")
        return
    assert path.exists(), (
        f"missing golden {path.name}; generate it with --update-goldens"
    )
    expected = json.loads(path.read_text())
    diff = diff_docs(expected, actual)
    assert not diff, (
        f"{path.name} mismatch ({len(diff)} field(s) differ):\n" + "\n".join(diff)
    )


def test_preprocess_golden(update_goldens):
    actual = {
        name: preprocess_doc(preprocess(
            load_suite_matrix(name), reorder="vanilla", block_size=256))
        for name in MATRICES
    }
    _check(PREPROCESS_PATH, actual, update_goldens)


def test_functional_golden(matrices, update_goldens):
    actual = {
        f"{workload}/{name}": _functional_doc(workload, matrices[name])
        for workload in WORKLOADS
        for name in MATRICES
    }
    _check(FUNCTIONAL_PATH, actual, update_goldens)


#: gcn's profile fields that its own layer sizes set; no functional
#: run feeds them.
GCN_OWN_FIELDS = (
    "feature_dim", "extra_ops_per_iteration", "extra_dram_bytes_per_iteration",
)


@pytest.mark.parametrize("name", MATRICES)
def test_gcn_profile_is_its_recorded_functional_run(name, matrices, monkeypatch):
    """gcn profiles without a functional run (its count is ``n_layers``
    and it records no activity); the functional golden proves that is
    what the run would have measured, on every suite matrix."""
    recorded = json.loads(FUNCTIONAL_PATH.read_text())[f"gcn/{name}"]
    assert recorded["n_iterations"] == GCN().n_layers
    assert recorded["activity"] == []

    replayed = GCN()
    replayed.run_functional = lambda matrix, **params: FunctionalResult(
        output=np.empty(0),
        n_iterations=recorded["n_iterations"],
        activity=tuple(recorded["activity"]),
    )
    driven = Workload.profile(replayed, matrices[name])

    def no_functional_run(self, matrix, **params):
        raise AssertionError("gcn.profile ran the functional workload")

    monkeypatch.setattr(GCN, "run_functional", no_functional_run)
    got = GCN().profile(matrices[name])
    assert replace(driven, **{f: getattr(got, f) for f in GCN_OWN_FIELDS}) == got


def test_context_characterizes_gcn_without_a_functional_run(monkeypatch):
    def no_functional_run(self, matrix, **params):
        raise AssertionError("gcn.profile ran the functional workload")

    monkeypatch.setattr(GCN, "run_functional", no_functional_run)
    context = ExperimentContext(workloads=("gcn",), matrices=("gy",))
    assert context.profile("gcn", "gy").n_iterations == GCN().n_layers


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_observed_golden(backend, update_goldens):
    context = ExperimentContext(matrices=("gy",))
    actual = {
        f"{workload}/{name}": _observed_doc(
            context, workload, variant, backend)
        for workload in context.all_workloads()
        for name, variant in OBSERVED_VARIANTS.items()
    }
    _check(OBSERVED_PATH, actual, update_goldens)
