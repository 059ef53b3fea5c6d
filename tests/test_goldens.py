"""Golden regression fixtures: frozen SimResult + metrics digests.

One golden file per fig workload (``tests/goldens/<workload>.json``)
freezes the full :meth:`SimResult.to_dict` document and the metrics
digest for the Sparsepipe simulator on the smallest suite matrix, under
the zero-observer contract — so both backends are checked against the
same frozen numbers. A failing golden prints a field-level diff (not
two opaque hashes); regenerate deliberately with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

Any diff here means the performance model's numbers moved — either a
bug, or an intentional model change that must re-freeze the goldens in
the same commit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.arch.config import SparsepipeConfig
from repro.arch.simulator import SparsepipeSimulator
from repro.experiments.runner import ExperimentContext
from repro.matrices.suite import SUITE
from repro.obs.metrics import registry_from_result
from repro.testing import diff_docs, digest
from repro.workloads.registry import workload_names

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The golden matrix: the smallest suite member, so the fixtures stay
#: cheap enough for tier-1.
MATRIX = "gy"

WORKLOADS = tuple(workload_names())


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(workloads=WORKLOADS, matrices=(MATRIX,))


def _golden_doc(context, workload: str, backend: str) -> dict:
    profile = context.profile(workload, MATRIX)
    prep = context.prepared(MATRIX)
    result = SparsepipeSimulator(SparsepipeConfig(backend=backend)).run(
        profile, prep, paper_nnz=SUITE[MATRIX].paper_nnz, observers=()
    )
    metrics = registry_from_result(result)
    return {
        "workload": workload,
        "matrix": MATRIX,
        "result": result.to_dict(),
        "metrics_digest": metrics.digest(),
    }


def _golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden(context, update_goldens, workload):
    actual = _golden_doc(context, workload, backend="vectorized")
    path = _golden_path(workload)
    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, sort_keys=True, indent=2) + "\n")
        return
    assert path.exists(), (
        f"missing golden {path.name}; generate it with --update-goldens"
    )
    expected = json.loads(path.read_text())
    diff = diff_docs(expected, actual)
    assert not diff, (
        f"golden mismatch for {workload}-{MATRIX} "
        f"({len(diff)} field(s) differ):\n" + "\n".join(diff)
    )
    # The digest is redundant with the field diff but pins the metrics
    # schema itself: a renamed counter fails here even if values match.
    assert expected["metrics_digest"] == actual["metrics_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_backend_matches_golden(context, update_goldens, workload):
    """The frozen numbers hold for *both* backends — the golden is a
    regression pin and a cross-backend differential in one."""
    if update_goldens:
        pytest.skip("goldens are generated from the vectorized backend")
    path = _golden_path(workload)
    assert path.exists(), (
        f"missing golden {path.name}; generate it with --update-goldens"
    )
    expected = json.loads(path.read_text())
    actual = _golden_doc(context, workload, backend="reference")
    diff = diff_docs(expected, actual)
    assert not diff, (
        f"reference backend diverges from golden for {workload}-{MATRIX}:\n"
        + "\n".join(diff)
    )


def test_goldens_have_no_strays():
    """Every checked-in golden corresponds to a registered workload or
    to one of the layer fixtures of ``tests/test_goldens_layers.py``."""
    known = {f"{w}.json" for w in WORKLOADS} | {
        "preprocess.json", "functional.json", "observed.json"}
    stray = [p.name for p in GOLDEN_DIR.glob("*.json") if p.name not in known]
    assert not stray, f"stray golden files: {stray}"


def test_digest_is_stable():
    doc = {"b": 2.0, "a": [1, {"c": 3.5}]}
    assert digest(doc) == digest(json.loads(json.dumps(doc)))
    assert digest(doc) != digest({"b": 2.0, "a": [1, {"c": 3.6}]})
