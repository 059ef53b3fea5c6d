"""Differential backend suite: vectorized must equal reference, exactly.

The vectorized backend (:mod:`repro.arch.fastpath`) and the batched
semiring kernels (:mod:`repro.semiring.kernels`) claim *bit-identical*
results — ``==``, never ``approx`` — against the step-by-step reference
implementations. This suite is that claim, executed:

- the full architecture grid (every registered engine × the four paper
  semirings) through :class:`ExperimentContext`, including the sweep
  metrics registry;
- the Sparsepipe simulator head-to-head under the zero-observer
  contract, where both backends produce the identical ``SimResult``;
- the prefetch scan over the design-sweep axes (sub-tensor width,
  memory, DRAM model), on a run where every step kind of the scan
  occurs, and on runs that reach its resident clamp and its
  capacity-bound budget;
- hypothesis property runs over random matrices, widths, and configs;
- the OEI executor and masked/accumulated ``vxm`` under
  ``kernel="reference"`` vs ``kernel="batched"``.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import fastpath, simulator
from repro.arch.config import CPU_DDR4, GPU_GDDR6X, SparsepipeConfig
from repro.arch.loaders import EagerPrefetcher
from repro.arch.profile import WorkloadProfile
from repro.arch.simulator import SparsepipeSimulator
from repro.engine.instrumentation import StepTraceObserver
from repro.engine.registry import arch_names
from repro.experiments.runner import ExperimentContext
from repro.graphblas.mask import Mask
from repro.graphblas.matrix import Matrix
from repro.graphblas.ops import mxv, vxm
from repro.graphblas.vector import Vector
from repro.oei import run_oei_pairs, run_reference
from repro.preprocess.pipeline import preprocess
from repro.semiring import AND_OR, ARIL_ADD, MIN, MIN_ADD, MUL_ADD, PLUS
from tests.conftest import random_coo
from tests.strategies import coo_matrices, subtensor_widths
from tests.test_oei_executor import bfs_program, pagerank_program, sssp_program

#: Workload exercising each paper semiring (Table III).
SEMIRING_WORKLOADS = (
    ("mul_add", "pr"),
    ("and_or", "bfs"),
    ("min_add", "sssp"),
    ("aril_add", "kpp"),
)

PAPER_SEMIRINGS = (MUL_ADD, AND_OR, MIN_ADD, ARIL_ADD)


def assert_exact(a, b):
    """Exact SimResult equality (dataclass ==, plus the serialized
    document so a failure names the differing field)."""
    assert a.to_dict() == b.to_dict()
    assert a == b


@pytest.fixture(scope="module")
def contexts():
    """One context per backend over the full differential grid."""
    kwargs = dict(
        workloads=tuple(w for _, w in SEMIRING_WORKLOADS), matrices=("gy",)
    )
    return (
        ExperimentContext(config=SparsepipeConfig(backend="reference"), **kwargs),
        ExperimentContext(config=SparsepipeConfig(backend="vectorized"), **kwargs),
    )


class TestFullArchitectureGrid:
    """Every registered architecture × every paper semiring."""

    @pytest.mark.parametrize("semiring,workload", SEMIRING_WORKLOADS)
    @pytest.mark.parametrize("arch", arch_names())
    def test_simresult_exact(self, contexts, arch, semiring, workload):
        ref_ctx, vec_ctx = contexts
        ref = ref_ctx.simulate(arch, workload, "gy")
        vec = vec_ctx.simulate(arch, workload, "gy")
        # Both contexts run unobserved points with observers=(), so the
        # whole result must match bit for bit.
        assert ref == vec
        assert ref.to_dict() == vec.to_dict()

    def test_metrics_registry_exact(self, contexts):
        ref_ctx, vec_ctx = contexts
        for arch in arch_names():
            for _, workload in SEMIRING_WORKLOADS:
                ref_ctx.simulate(arch, workload, "gy")
                vec_ctx.simulate(arch, workload, "gy")
        assert vec_ctx.metrics.to_dict() == ref_ctx.metrics.to_dict()
        assert vec_ctx.metrics.digest() == ref_ctx.metrics.digest()


class TestSimulatorHeadToHead:
    """Zero-observer contract: identical SimResult from both backends."""

    @pytest.mark.parametrize("semiring,workload", SEMIRING_WORKLOADS)
    def test_paper_workloads_exact(self, contexts, semiring, workload):
        ref_ctx, _ = contexts
        profile = ref_ctx.profile(workload, "gy")
        prep = ref_ctx.prepared("gy")
        results = {
            backend: SparsepipeSimulator(
                SparsepipeConfig(backend=backend)
            ).run(profile, prep, observers=())
            for backend in ("reference", "vectorized")
        }
        assert_exact(results["reference"], results["vectorized"])

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(buffer_bytes=4096),
            dict(buffer_bytes=20000, eager_is=False),
            dict(subtensor_cols=37, repack_threshold=0.3),
            dict(subtensor_cols=96, step_overhead_cycles=2, dram_efficiency=0.8),
        ],
    )
    def test_config_corners_exact(self, contexts, knobs):
        ref_ctx, _ = contexts
        profile = ref_ctx.profile("sssp", "gy")
        prep = ref_ctx.prepared("gy")
        ref = SparsepipeSimulator(
            SparsepipeConfig(backend="reference", **knobs)
        ).run(profile, prep, observers=())
        vec = SparsepipeSimulator(
            SparsepipeConfig(backend="vectorized", **knobs)
        ).run(profile, prep, observers=())
        assert_exact(ref, vec)

    def test_observers_stay_on_vectorized_backend(self, contexts):
        """A vectorized config with observers attached stays on the
        vectorized backend — batched event synthesis replays the PR-3
        event stream post-hoc instead of falling back to the reference
        loop, and the samples match bit for bit."""
        ref_ctx, _ = contexts
        profile = ref_ctx.profile("pr", "gy")
        prep = ref_ctx.prepared("gy")
        obs_ref, obs_vec = StepTraceObserver(), StepTraceObserver()
        sim_ref = SparsepipeSimulator(SparsepipeConfig(backend="reference"))
        ref = sim_ref.run(profile, prep, observers=(obs_ref,))
        sim_vec = SparsepipeSimulator(SparsepipeConfig(backend="vectorized"))
        vec = sim_vec.run(profile, prep, observers=(obs_vec,))
        assert sim_ref.last_backend == "reference"
        assert sim_vec.last_backend == "vectorized"  # no silent fallback
        assert_exact(ref, vec)
        assert obs_vec.samples(1.0) == obs_ref.samples(1.0)
        assert obs_vec.samples(1.0)  # the stream actually fired


#: The design-sweep corners: sub-tensor width x memory x DRAM model.
DESIGN_CORNERS = list(itertools.product(
    (32, 256), (GPU_GDDR6X, CPU_DDR4), (False, True)))


class TestDesignAxes:
    """The vectorized prefetch scan serves a step from the untouched or
    the fully prefetched trajectory and runs the scalar formula only for
    a partially prefetched column. gcn on ``gy`` fires the prefetcher
    and leaves partial columns in every design corner (and pulls whole
    columns on GDDR6X), so all three step kinds are held to the
    reference here, not only through the benchmark's digests."""

    @pytest.mark.parametrize(
        "cols,memory,detailed", DESIGN_CORNERS,
        ids=[f"sc{c}-{m.technology}-dd{int(d)}" for c, m, d in DESIGN_CORNERS],
    )
    def test_design_corner_exact(self, contexts, monkeypatch,
                                 cols, memory, detailed):
        ref_ctx, _ = contexts
        profile = ref_ctx.profile("gcn", "gy")
        prep = ref_ctx.prepared("gy")
        kinds = Counter()
        real_scan = fastpath._FastRun._scan_pair

        def counting_scan(run, *args, **kwargs):
            out = real_scan(run, *args, **kwargs)
            n_sub = run.plan.n_subtensors
            full, due = run._csc0[:n_sub], out[1][:n_sub]
            kinds["fetched"] += int(np.sum((due == 0.0) & (full > 0.0)))
            kinds["partial"] += int(np.sum((due > 0.0) & (due < full)))
            return out

        monkeypatch.setattr(fastpath._FastRun, "_scan_pair", counting_scan)
        results = [
            SparsepipeSimulator(SparsepipeConfig(
                backend=backend, subtensor_cols=cols, memory=memory,
                detailed_dram=detailed, csr_window_fraction=0.5,
            )).run(profile, prep, observers=())
            for backend in ("reference", "vectorized")
        ]
        assert_exact(*results)
        assert results[0].traffic.bytes_by_category["csr_eager"] > 0.0
        assert kinds["partial"] > 0
        if memory is GPU_GDDR6X:
            assert kinds["fetched"] > 0

    #: (branch, workload, matrix, knobs): knn on ``ro`` at 128 columns
    #: on DDR4 clamps the residency (a rounding-level negative that
    #: moves ``buffer_peak_bytes`` if left unclamped); gcn on ``gy``
    #: with a 20 kB buffer has its budget bounded by the slack.
    SCAN_BRANCHES = [
        ("clamp", "knn", "ro", dict(subtensor_cols=128, memory=CPU_DDR4)),
        ("capacity", "gcn", "gy",
         dict(subtensor_cols=32, memory=GPU_GDDR6X, buffer_bytes=20000)),
    ]

    @pytest.mark.parametrize("branch,workload,matrix,knobs", SCAN_BRANCHES,
                             ids=[b[0] for b in SCAN_BRANCHES])
    def test_scan_branch_exact(self, contexts, monkeypatch,
                               branch, workload, matrix, knobs):
        """The two scan branches no step-kind count shows: the resident
        clamp (``resident - released < 0.0`` becomes ``0.0``) and the
        capacity-bound budget (buffer slack below the leftover
        bandwidth). The reference loop runs the same recurrence step
        for step, so each branch is counted there, on the run the scan
        must match bit for bit."""
        ref_ctx, _ = contexts
        profile = ref_ctx.profile(workload, matrix)
        prep = ref_ctx.prepared(matrix)
        fired = Counter()

        def counting_max(*args):
            # simulator.py's one two-argument max is the resident clamp.
            if len(args) == 2 and args[1] < 0.0:
                fired["clamp"] += 1
            return max(*args)

        real_prefetch = EagerPrefetcher.prefetch

        def counting_prefetch(self, current, budget_bytes, slack_bytes):
            if self._enabled and 0.0 < slack_bytes < budget_bytes:
                fired["capacity"] += 1
            return real_prefetch(self, current, budget_bytes, slack_bytes)

        real_scan = fastpath._FastRun._scan_pair

        def counting_scan(run, *args, **kwargs):
            fired["scans"] += 1
            return real_scan(run, *args, **kwargs)

        monkeypatch.setattr(simulator, "max", counting_max, raising=False)
        monkeypatch.setattr(EagerPrefetcher, "prefetch", counting_prefetch)
        monkeypatch.setattr(fastpath._FastRun, "_scan_pair", counting_scan)
        results = [
            SparsepipeSimulator(SparsepipeConfig(
                backend=backend, csr_window_fraction=0.5, **knobs,
            )).run(profile, prep, observers=())
            for backend in ("reference", "vectorized")
        ]
        assert_exact(*results)
        assert fired["scans"] > 0
        assert fired[branch] > 0, fired


@st.composite
def synthetic_profiles(draw):
    semiring = draw(st.sampled_from([s.name for s in PAPER_SEMIRINGS]))
    n_iterations = draw(st.integers(1, 5))
    activity = tuple(
        draw(st.floats(0.0, 1.0)) for _ in range(draw(st.integers(0, n_iterations)))
    )
    return WorkloadProfile(
        name="synthetic",
        semiring_name=semiring,
        has_oei=draw(st.booleans()),
        n_iterations=n_iterations,
        path_ewise_ops=draw(st.integers(0, 3)),
        side_ewise_ops=draw(st.integers(0, 2)),
        aux_streams=draw(st.integers(0, 2)),
        writeback_streams=draw(st.integers(0, 2)),
        activity=activity,
    )


class TestPropertyDifferential:
    @settings(max_examples=20, deadline=None)
    @given(
        coo=coo_matrices(max_n=40),
        profile=synthetic_profiles(),
        width=subtensor_widths(4, 8, 16, 37, 64),
        buffer_bytes=st.sampled_from([4096, 20000, None]),
        eager=st.booleans(),
    )
    def test_random_runs_exact(self, coo, profile, width, buffer_bytes, eager):
        prep = preprocess(coo)
        ref = SparsepipeSimulator(
            SparsepipeConfig(
                backend="reference", subtensor_cols=width,
                buffer_bytes=buffer_bytes, eager_is=eager,
            )
        ).run(profile, prep, observers=())
        vec = SparsepipeSimulator(
            SparsepipeConfig(
                backend="vectorized", subtensor_cols=width,
                buffer_bytes=buffer_bytes, eager_is=eager,
            )
        ).run(profile, prep, observers=())
        assert_exact(ref, vec)

    @pytest.mark.slow
    @settings(max_examples=120, deadline=None)
    @given(
        coo=coo_matrices(max_n=64),
        profile=synthetic_profiles(),
        width=subtensor_widths(1, 3, 4, 8, 16, 37, 64, 128),
        buffer_bytes=st.sampled_from([4096, 8192, 20000, None]),
        eager=st.booleans(),
        repack=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    def test_random_runs_exact_deep(
        self, coo, profile, width, buffer_bytes, eager, repack
    ):
        prep = preprocess(coo)
        results = [
            SparsepipeSimulator(
                SparsepipeConfig(
                    backend=backend, subtensor_cols=width,
                    buffer_bytes=buffer_bytes, eager_is=eager,
                    repack_threshold=repack,
                )
            ).run(profile, prep, observers=())
            for backend in ("reference", "vectorized")
        ]
        assert_exact(*results)


class TestExecutorKernels:
    """kernel="batched" vs kernel="reference" in the OEI executor."""

    def _equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        return bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))

    @pytest.mark.parametrize("subtensor_cols", [3, 10, 37])
    @pytest.mark.parametrize(
        "prog_builder,x0_builder,kwargs",
        [
            (
                pagerank_program,
                lambda n: np.full(n, 1.0 / n),
                {"scalar_update": lambda k, x: {"teleport": 0.15 / x.size}},
            ),
            (
                sssp_program,
                lambda n: np.where(np.arange(n) == 0, 0.0, np.inf),
                {"aux_provider": lambda k, x: {"dist": x}},
            ),
            (
                bfs_program,
                lambda n: (np.arange(n) == 3).astype(float),
                {},
            ),
        ],
        ids=["pr", "sssp", "bfs"],
    )
    def test_oei_pairs_exact(self, prog_builder, x0_builder, kwargs, subtensor_cols):
        from repro.formats.csc import CSCMatrix
        from repro.formats.csr import CSRMatrix

        coo = random_coo(11, n=47, density=0.15)
        csc, csr = CSCMatrix.from_coo(coo), CSRMatrix.from_coo(coo)
        x0 = x0_builder(47)
        runs = {
            kernel: run_oei_pairs(
                csc, csr, prog_builder(), x0, 5,
                subtensor_cols=subtensor_cols, kernel=kernel, **kwargs
            )
            for kernel in ("reference", "batched")
        }
        for a, b in zip(runs["reference"].x_history, runs["batched"].x_history):
            assert self._equal(a, b)
        for a, b in zip(runs["reference"].y_history, runs["batched"].y_history):
            assert self._equal(a, b)

    def test_run_reference_exact(self):
        from repro.formats.csc import CSCMatrix

        coo = random_coo(12, n=40, density=0.2)
        csc = CSCMatrix.from_coo(coo)
        x0 = np.full(40, 1.0 / 40)
        scal = lambda k, x: {"teleport": 0.15 / 40}
        a = run_reference(csc, pagerank_program(), x0, 4,
                          scalar_update=scal, kernel="reference")
        b = run_reference(csc, pagerank_program(), x0, 4,
                          scalar_update=scal, kernel="batched")
        for ya, yb in zip(a.y_history, b.y_history):
            assert self._equal(ya, yb)

    @pytest.mark.parametrize("semiring", PAPER_SEMIRINGS, ids=lambda s: s.name)
    def test_masked_accumulated_vxm_exact(self, semiring):
        gen = np.random.default_rng(17)
        a = Matrix(random_coo(13, n=35, density=0.2))
        v = Vector(35, gen.uniform(0.1, 2.0, 35), gen.random(35) >= 0.3)
        out = Vector(35, gen.uniform(0.1, 2.0, 35), gen.random(35) >= 0.4)
        mask = Mask(Vector(35, np.zeros(35), gen.random(35) < 0.6))
        for op in (vxm, mxv):
            ref = op(v, a, semiring, mask=mask, accum=PLUS, out=out,
                     kernel="reference") if op is vxm else op(
                     a, v, semiring, mask=mask, accum=PLUS, out=out,
                     kernel="reference")
            bat = op(v, a, semiring, mask=mask, accum=PLUS, out=out,
                     kernel="batched") if op is vxm else op(
                     a, v, semiring, mask=mask, accum=PLUS, out=out,
                     kernel="batched")
            assert np.array_equal(ref.present, bat.present)
            assert self._equal(ref.values[ref.present], bat.values[bat.present])

    @pytest.mark.parametrize("semiring", PAPER_SEMIRINGS, ids=lambda s: s.name)
    def test_plain_and_min_accum_vxm_exact(self, semiring):
        gen = np.random.default_rng(23)
        a = Matrix(random_coo(14, n=30, density=0.15))
        v = Vector(30, gen.uniform(0.1, 2.0, 30))
        out = Vector(30, gen.uniform(0.1, 2.0, 30))
        ref = vxm(v, a, semiring, accum=MIN, out=out, kernel="reference")
        bat = vxm(v, a, semiring, accum=MIN, out=out, kernel="batched")
        assert np.array_equal(ref.present, bat.present)
        assert self._equal(ref.values[ref.present], bat.values[bat.present])
        ref = vxm(v, a, semiring, kernel="reference")
        bat = vxm(v, a, semiring, kernel="batched")
        assert np.array_equal(ref.present, bat.present)
        assert self._equal(ref.values[ref.present], bat.values[bat.present])
