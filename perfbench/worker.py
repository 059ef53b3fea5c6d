"""One measured repetition of one workload, in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/worker.py '<spec json>'``;
prints one JSON line with the repetition's timings, peak memory,
checked operations and (when traced) per-layer metrics. ``setup_s``
runs from the parent's spawn timestamp (``CLOCK_MONOTONIC`` is
system-wide) to a constructed context: interpreter start, ``repro``
imports and context construction, never any characterization.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _dir_mb(path) -> float:
    if path is None:
        return 0.0
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total / 1e6


def main(spec: dict) -> dict:
    import spans
    import verify
    import work

    tracer = installation = None
    if spec["traced"]:
        tracer = spans.Tracer()
        installation = spans.install(tracer)
    clock = work.Segments(tracer)
    job = work.JOBS[spec["workload"]](
        spec["seed"], spec.get("store"), Path(spec["scratch"]))
    setup_s = time.monotonic() - spec["spawned"]
    if spec.get("setup_only"):
        return {"setup_s": setup_s}
    job.run(clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if installation is not None:
        installation.remove()

    out = {
        "setup_s": setup_s,
        "wall_s": clock.wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": job.attempted,
    }
    if spec.get("record"):
        out["ops"] = job.ops
        return out
    expected = verify.load_expected()[job.family]
    failed = sorted(set(verify.mismatches(expected, job.ops)) | set(job.failed))
    out["failed"] = failed
    op, bad_digest, golden_fired = job.corruption
    out["self_test"] = verify.self_test(
        expected, job.ops, op, bad_digest, golden_fired)
    if tracer is not None:
        out["layers"] = spans.layer_metrics(
            tracer.spans, clock.wall_s, store_mb=_dir_mb(spec.get("store")))
        tracer.dump(Path(spec["spans_path"]))
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
