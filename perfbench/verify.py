"""Output checks: every operation's result against committed digests.

The simulator is deterministic, so a speed-only benchmark can demand
that every simulated statistic repeats exactly. Each operation (one
sweep point or one trace capture) is reduced to a digest and compared
with ``expected.json``, which was recorded from the program when the
benchmark was defined. The ``gy`` Sparsepipe points are additionally
diffed field by field against the test suite's goldens
(``tests/goldens/<workload>.json``).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
GOLDEN_DIR = BENCH_DIR.parent / "tests" / "goldens"

#: The trace manifest embeds the producing tree's git revision, which
#: differs between a git checkout and an exported tree; it (and the
#: manifest digest covering it) is normalized before hashing.
_GIT_REV = re.compile(rb'"git_rev": (?:null|"[^"]*")')
_MANIFEST_DIGEST = re.compile(rb'"manifestDigest": "[0-9a-f]*"')


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, str]]:
    return json.loads(path.read_text())


def trace_digest(trace_bytes: bytes, metrics_digest: str) -> str:
    """Digest of one capture: the trace-file bytes (git revision
    normalized) plus the capture's ``MetricsRegistry.digest()``."""
    body = _GIT_REV.sub(b'"git_rev": null', trace_bytes)
    body = _MANIFEST_DIGEST.sub(b'"manifestDigest": ""', body)
    return f"{hashlib.sha256(body).hexdigest()[:16]}-{metrics_digest}"


def mismatches(
    expected: Mapping[str, str], actual: Mapping[str, str]
) -> List[str]:
    """Operation ids whose digest differs from (or is absent in) the
    expectations."""
    return sorted(op for op, got in actual.items() if expected.get(op) != got)


def golden_diff(workload: str, result_doc: dict, metrics_digest: str,
                golden_dir: Path = GOLDEN_DIR) -> List[str]:
    """Field-level diff of one ``gy`` Sparsepipe result against the
    test-suite golden; empty when identical."""
    from repro.testing import diff_docs

    path = golden_dir / f"{workload}.json"
    if not path.exists():
        return [f"missing golden {path.name}"]
    golden = json.loads(path.read_text())
    lines = diff_docs(golden["result"], result_doc)
    if golden.get("metrics_digest") != metrics_digest:
        lines.append(f"  metrics_digest: {golden.get('metrics_digest')!r} "
                     f"!= {metrics_digest!r}")
    return lines


def self_test(expected: Mapping[str, str], actual: Mapping[str, str],
              corrupt_op: str, corrupt_digest: str,
              golden_fired: Optional[bool] = None) -> bool:
    """Anti-vacuity check: replacing one operation's digest by the
    digest of a deliberately corrupted result must be caught (and the
    golden diff must fire on the corrupted document, when given)."""
    corrupted = dict(actual)
    corrupted[corrupt_op] = corrupt_digest
    caught = mismatches(expected, corrupted) == sorted(
        set(mismatches(expected, actual)) | {corrupt_op})
    return caught and golden_fired is not False

