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
  activity tuple and a bitwise digest of the output.

A failing golden prints a field-level diff; regenerate deliberately
with::

    PYTHONPATH=src python -m pytest tests/test_goldens_layers.py --update-goldens
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.graphblas.matrix import Matrix
from repro.matrices.suite import load_suite_matrix, suite_names
from repro.preprocess.pipeline import preprocess
from repro.testing import array_digest, diff_docs
from repro.workloads.registry import get_workload, workload_names

GOLDEN_DIR = Path(__file__).parent / "goldens"
PREPROCESS_PATH = GOLDEN_DIR / "preprocess.json"
FUNCTIONAL_PATH = GOLDEN_DIR / "functional.json"

MATRICES = tuple(suite_names())
WORKLOADS = tuple(workload_names())


def _preprocess_doc(matrix_name: str) -> dict:
    prep = preprocess(load_suite_matrix(matrix_name), reorder="vanilla",
                      block_size=256)
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
    actual = {name: _preprocess_doc(name) for name in MATRICES}
    _check(PREPROCESS_PATH, actual, update_goldens)


def test_functional_golden(matrices, update_goldens):
    actual = {
        f"{workload}/{name}": _functional_doc(workload, matrices[name])
        for workload in WORKLOADS
        for name in MATRICES
    }
    _check(FUNCTIONAL_PATH, actual, update_goldens)
