"""Shared helpers for the test and benchmark harnesses.

``tests/conftest.py`` and ``benchmarks/conftest.py`` had grown duplicate
copies of the deterministic-matrix and env-subset helpers; both now
import from here (the package is importable from either rootdir via
``PYTHONPATH=src``). Also home to the golden-fixture machinery used by
``tests/test_goldens.py``: stable digests and field-level diffs over
:meth:`~repro.arch.stats.SimResult.to_dict` documents.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.formats.coo import COOMatrix


# ----------------------------------------------------------------------
# Deterministic inputs
# ----------------------------------------------------------------------
def random_coo(
    seed: int, n: int = 25, density: float = 0.12,
    lo: float = -2.0, hi: float = 2.0,
) -> COOMatrix:
    """Deterministic random square COO used by parametrized tests."""
    gen = np.random.default_rng(seed)
    dense = (gen.random((n, n)) < density) * gen.uniform(lo, hi, (n, n))
    return COOMatrix.from_dense(dense)


# ----------------------------------------------------------------------
# Benchmark sweep subsetting
# ----------------------------------------------------------------------
def env_subset(name: str) -> Optional[Tuple[str, ...]]:
    """Comma-separated env var as a tuple, ``None`` when unset/empty."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def is_full_sweep() -> bool:
    """True when no env-var subsetting is active (claims may be asserted)."""
    return (
        env_subset("REPRO_BENCH_WORKLOADS") is None
        and env_subset("REPRO_BENCH_MATRICES") is None
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Time a driver exactly once (the sweeps are deterministic and
    heavy; statistical repetition adds nothing)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


# ----------------------------------------------------------------------
# Golden fixtures
# ----------------------------------------------------------------------
def canonical_json(doc: dict) -> str:
    """Stable serialization: sorted keys, full float repr."""
    return json.dumps(doc, sort_keys=True, indent=2)


def digest(doc: dict) -> str:
    """Content hash of a canonicalized document."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:16]


def array_digest(*arrays: np.ndarray) -> str:
    """Bitwise content hash of numpy arrays: dtype, shape and raw bytes,
    so ``-0.0`` vs ``0.0`` and NaN payloads count as differences."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def flatten_doc(doc: object, prefix: str = "") -> Dict[str, object]:
    """Flatten nested dicts/lists to ``dotted.path -> leaf`` pairs."""
    flat: Dict[str, object] = {}
    if isinstance(doc, dict):
        for key in sorted(doc):
            flat.update(flatten_doc(doc[key], f"{prefix}{key}." if prefix or key else prefix))
    elif isinstance(doc, (list, tuple)):
        for i, item in enumerate(doc):
            flat.update(flatten_doc(item, f"{prefix}{i}."))
    else:
        flat[prefix[:-1] if prefix.endswith(".") else prefix] = doc
    return flat


def diff_docs(expected: dict, actual: dict) -> List[str]:
    """Field-level diff between two nested documents.

    Returns one line per differing leaf (``path: expected != actual``),
    empty when the documents are identical — the failure message a
    golden mismatch prints instead of two opaque hashes.
    """
    exp = flatten_doc(expected)
    act = flatten_doc(actual)
    lines: List[str] = []
    for path in sorted(set(exp) | set(act)):
        if path not in exp:
            lines.append(f"  {path}: <absent in golden> != {act[path]!r}")
        elif path not in act:
            lines.append(f"  {path}: {exp[path]!r} != <absent in result>")
        elif exp[path] != act[path]:
            lines.append(f"  {path}: {exp[path]!r} != {act[path]!r}")
    return lines
