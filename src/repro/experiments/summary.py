"""Whole-evaluation summary: every headline claim of Section VI in one
table, paper vs measured (the data behind EXPERIMENTS.md)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments import (
    fig14,
    fig16,
    fig17,
    fig18,
    fig19,
    fig20,
    fig21,
    fig23,
)
from repro.experiments.report import format_table
from repro.experiments.runner import ExperimentContext
from repro.util.numeric import geomean, left_sum


@dataclass(frozen=True)
class Claim:
    """One comparable headline number."""

    claim: str
    paper: str
    measured: str
    holds: bool


def run(context: Optional[ExperimentContext] = None) -> List[Claim]:
    context = context or ExperimentContext()
    # One fan-out warms every (arch, workload, matrix) cell the figure
    # drivers below will read; with max_workers set this is where the
    # whole evaluation parallelizes.
    context.simulate_many(
        context.cross_product(("sparsepipe", "ideal", "oracle", "cpu", "gpu"))
    )
    claims: List[Claim] = []

    r14 = fig14.run(context)
    oei_rows = [r for r in r14 if r.workload not in ("cg", "bgs")]
    non_oei_rows = [r for r in r14 if r.workload in ("cg", "bgs")]
    oei_lo = min(r.geomean for r in oei_rows)
    oei_hi = max(r.geomean for r in oei_rows)
    claims.append(Claim(
        "speedup over ideal accel (OEI apps, geomean band)",
        "1.21x-2.62x", f"{oei_lo:.2f}x-{oei_hi:.2f}x",
        1.0 < oei_lo and oei_hi < 2.8,
    ))
    overall_max = max(r.max for r in r14)
    claims.append(Claim(
        "max speedup over ideal accel", "3.59x", f"{overall_max:.2f}x",
        1.5 < overall_max < 3.7,
    ))
    if non_oei_rows:
        lo = min(r.geomean for r in non_oei_rows)
        hi = max(r.geomean for r in non_oei_rows)
        claims.append(Claim(
            "cg/bgs band (producer-consumer only)",
            "0.75x-1.20x", f"{lo:.2f}x-{hi:.2f}x", 0.7 < lo and hi < 1.6,
        ))

    r16 = fig16.run(context)
    non_gcn = [r for r in r16 if r.workload != "gcn"] or r16
    lo = min(r.iso_gpu_geomean for r in non_gcn)
    hi = max(r.iso_gpu_geomean for r in non_gcn)
    claims.append(Claim(
        "speedup over CPU (iso-GPU, per-app geomean band)",
        "12.20x-35.14x", f"{lo:.2f}x-{hi:.2f}x", lo > 5.0,
    ))
    lo = min(r.iso_cpu_geomean for r in non_gcn)
    hi = max(r.iso_cpu_geomean for r in non_gcn)
    claims.append(Claim(
        "speedup over CPU (iso-CPU: pure OEI benefit)",
        "1.31x-3.57x", f"{lo:.2f}x-{hi:.2f}x", lo > 1.0 and hi < 4.5,
    ))

    r17 = fig17.run(context)
    overall = fig17.overall_geomean(r17)
    claims.append(Claim(
        "speedup over GPU (geomean)", "4.65x", f"{overall:.2f}x",
        2.0 < overall < 8.0,
    ))

    r18 = fig18.run(context)
    avg = fig18.average_fraction(r18)
    claims.append(Claim(
        "fraction of oracle performance (avg)", "66.78%",
        f"{100 * avg:.1f}%", 0.5 < avg <= 1.0,
    ))

    r19 = fig19.run(context)
    by_variant = {r.variant: r for r in r19}
    claims.append(Claim(
        "unoptimized Sparsepipe over baseline", "1.37x",
        f"{by_variant['none'].geomean:.2f}x",
        by_variant["none"].geomean > 1.1,
    ))
    gain = by_variant["both"].geomean / by_variant["none"].geomean
    claims.append(Claim(
        "gain from both preprocessing optimizations",
        "1.05x-1.34x", f"{gain:.2f}x", 1.0 <= gain < 1.45,
    ))

    storage = fig20.run_storage(context)
    avg_ratio = left_sum(r.ratio_reordered for r in storage) / len(storage)
    claims.append(Claim(
        "blocked dual storage vs naive dual", "39.2%",
        f"{100 * avg_ratio:.1f}%", 0.3 < avg_ratio < 0.5,
    ))

    r21 = fig21.run(context)
    stats = fig21.summary(r21)
    claims.append(Claim(
        "bandwidth utilization (memory-bound apps)", "92.94%",
        f"{100 * stats['memory_bound']:.1f}%", stats["memory_bound"] > 0.8,
    ))

    r23 = fig23.run(context)
    savings = fig23.savings_summary(r23)
    claims.append(Claim(
        "energy saving vs baseline (total)", "54.98%",
        f"{savings['total']:.1f}%", savings["total"] > 20.0,
    ))
    return claims


def main(context: Optional[ExperimentContext] = None) -> str:
    context = context or ExperimentContext()
    claims = run(context)
    text = format_table(
        ["claim", "paper", "measured", "holds"],
        [(c.claim, c.paper, c.measured, "yes" if c.holds else "NO") for c in claims],
        title="Section VI headline claims, paper vs measured",
    )
    n_hold = sum(c.holds for c in claims)
    text += f"\n{n_hold}/{len(claims)} claims hold"
    text += "\n\nsweep metrics (repro.obs registry):\n"
    text += context.metrics_report()
    print(text)
    return text


if __name__ == "__main__":
    main()
