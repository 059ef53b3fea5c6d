"""Host-time benchmark of the sweep pipeline.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_grid --seed 1 --seconds 25 --trace 0

Runs fresh-interpreter repetitions of one workload (``perfbench/worker.py``)
for about ``--seconds`` seconds and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics (medians over the repetitions),
with ``--trace 1`` the per-layer metrics of one extra traced
repetition. ``--record`` rewrites ``perfbench/expected.json`` from the
current program instead. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, traces and spans (inside the checkout).
WORK = ROOT / ".perfbench"

WORKLOADS = ("cold_grid", "design_sweep", "trace_capture", "warm_grid")
#: Workloads that start from the store a cold grid leaves behind.
NEEDS_STORE = ("design_sweep", "warm_grid")
#: Thread pools pinned to one thread in every measured process: a
#: spinning OpenBLAS pool otherwise occupies the second core.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: Hard ceiling on one repetition (the whole run must end in 180 s).
REP_TIMEOUT_S = 150.0
#: Extra set-up-only interpreters per measured repetition, so the
#: reported set-up time is a median over several samples.
SETUP_SAMPLES = 2


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(spec: dict) -> dict:
    """Run one repetition in a fresh interpreter; its last stdout line
    is its JSON report."""
    spec = dict(spec, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{spec['workload']} repetition failed "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_hash() -> str:
    """Content hash of the program and the benchmark: names the cached
    store so it can never outlive the code that wrote it."""
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def filled_store(scratch: Path) -> Path:
    """The store a cold grid leaves behind, built once per source tree
    by a cold-grid repetition and reused by later runs."""
    store = WORK / f"store-{source_hash()}"
    if not store.is_dir():
        building = scratch / "store-building"
        spawn({"workload": "cold_grid", "seed": 0, "store": str(building),
               "scratch": str(scratch), "traced": False, "record": True})
        building.rename(store)
    return store


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        **THREAD_ENV,
    }


def run_reps(workload: str, seed: int, seconds: float, trace: bool,
             scratch: Path) -> tuple:
    """Untraced repetitions for the run length (half of it in a traced
    run, which then adds one traced repetition)."""
    store = filled_store(scratch) if workload in NEEDS_STORE else None

    def rep(name: str, traced: bool = False, setup_only: bool = False) -> dict:
        rep_store = None
        if workload == "cold_grid":
            rep_store = scratch / f"store-{name}"
        elif store is not None:
            # Design-sweep repetitions write into their copy; warm-grid
            # repetitions only read, so one copy serves the whole run.
            shared = workload == "warm_grid" or setup_only
            rep_store = scratch / ("store" if shared else f"store-{name}")
            if not rep_store.exists():
                shutil.copytree(store, rep_store)
        report = spawn({
            "workload": workload, "seed": seed,
            "store": None if rep_store is None else str(rep_store),
            "scratch": str(scratch / "traces"), "traced": traced,
            "setup_only": setup_only,
            "spans_path": str(WORK / "spans" / f"{workload}.json"),
        })
        if rep_store is not None and rep_store.name != "store":
            shutil.rmtree(rep_store)
        return report

    budget = seconds / 2 if trace else seconds
    reps, setups = [], []
    started = time.monotonic()
    while not reps or time.monotonic() - started < budget:
        reps.append(rep(str(len(reps))))
        setups.append(reps[-1]["setup_s"])
        setups.extend(rep(f"setup-{len(setups)}", setup_only=True)["setup_s"]
                      for _ in range(SETUP_SAMPLES))
    traced = rep("traced", traced=True) if trace else None
    return reps, traced, setups


def record(scratch: Path) -> None:
    """Rewrite expected.json from one repetition of each family."""
    expected = {}
    for workload, family in (("cold_grid", "grid"), ("design_sweep", "design"),
                             ("trace_capture", "captures")):
        store = None
        if workload == "cold_grid":
            store = scratch / "record-store"
        elif workload == "design_sweep":
            store = scratch / "record-design"
            shutil.copytree(filled_store(scratch), store)
        report = spawn({"workload": workload, "seed": 0,
                        "store": None if store is None else str(store),
                        "scratch": str(scratch / "traces"), "traced": False,
                        "record": True})
        expected[family] = dict(sorted(report["ops"].items()))
        print(f"{family}: {len(report['ops'])} operations")
    (BENCH_DIR / "expected.json").write_text(
        json.dumps(expected, indent=0, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    compileall.compile_dir(str(SRC), quiet=1)
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        if args.record:
            record(scratch)
            return 0
        print("environment: " + json.dumps(environment(), sort_keys=True))
        reps, traced, setups = run_reps(args.workload, args.seed, args.seconds,
                                        bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    reports = reps + ([traced] if traced else [])
    failed = sum(len(r["failed"]) for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    correct = failed == 0 and all(r["self_test"] for r in reports)
    for i, r in enumerate(reports):
        print(f"rep {i}{' (traced)' if r is traced else ''}: "
              f"wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} attempted={r['attempted']} "
              f"failed={len(r['failed'])} self_test={r['self_test']}"
              + (f" first failures: {r['failed'][:5]}" if r["failed"] else ""))
    wall = statistics.median(r["wall_s"] for r in reps)
    if traced:
        import spans

        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - wall
        if layers["trace.coverage"] < spans.COVERAGE_GATE:
            print(f"trace coverage {layers['trace.coverage']:.3f} is below "
                  f"{spans.COVERAGE_GATE}")
            correct = False
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in reps), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
