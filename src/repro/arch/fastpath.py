"""Vectorized execution backend for the Sparsepipe simulator.

:func:`run_fastpath` produces the same :class:`~repro.arch.stats.SimResult`
as the reference step loop in :mod:`repro.arch.simulator` — **bit-identical**,
not approximately equal — while replacing the ``O(n_steps)`` Python iteration
per pair with numpy precomputation plus per-pair memoization. The
differential suite (``tests/test_backend_differential.py``) and the golden
fixtures (``tests/test_goldens.py``) lock the equality down.

Exactness strategy
------------------
Floating-point addition is not associative, so "the same numbers" is not
enough: every accumulation that reaches a ``SimResult`` field must fold in
the reference's exact operand order and association. Concretely:

- Per-step scalars (``vec_read``, ``demand``, core cycle costs, ...) are
  rebuilt elementwise with the reference's operator association; numpy's
  elementwise ops match Python scalar ops bit for bit.
- Run-wide accumulators (cycles, per-category traffic, compute ops, IS ops,
  evicted bytes) become ``np.cumsum(...)[-1]`` over the per-increment
  sequence in run order — ``cumsum`` is a strict left fold, unlike
  ``np.sum``/``ufunc.reduce`` which pairwise-sum and drift in the low bits.
- ``peak_bytes`` is a running ``max`` — truly associative, so ``np.max``
  over the admit-time candidates is exact.
- The banked DRAM model (``detailed_dram``) is a per-category elementwise
  formula (:meth:`~repro.arch.dram.BankedDRAM.cycles_batch`) left-folded in
  the reference demand-dict order; zero-byte categories cost exactly
  ``0.0``, so folding them in is a bitwise no-op.

Decomposition
-------------
The on-chip buffer's admit/release/evict machine depends only on the load
plan (``enter_counts``) and the capacity: eviction thresholds compare
``live_bytes``, never the prefetch residency. It is therefore *static per
run* and replayed once (:class:`_BufferStatics`, cached across runs per
``(plan, capacity, window, threshold)``). What remains sequential is
the eager prefetcher: its budget is the leftover bandwidth of a step, which
depends on that step's demand, which depends on earlier prefetches. When the
static no-prefetch trajectory proves the prefetcher can never fire, a pair is
fully closed-form; otherwise a lean scalar scan over the first
``n_subtensors`` steps reproduces the recurrence (the tail steps issue no
demand and release nothing, so they are static again). A step's cost
depends on the recurrence only through its column demand, so the scan
reads it from one of two trajectories precomputed with numpy — the
static one (column untouched) and the same expressions at zero column
demand (column fully prefetched) — and runs the scalar formula only for
a partially prefetched column (8% of the steps a design sweep scans;
55% are untouched, 36% fully prefetched). The loop converts to Python
lists only the arrays most steps read, indexes the partial-column
inputs in place, calls no builtin per step, moves the prefetch
frontier past a column as soon as it empties it, and records the
per-step residency, from which one numpy add builds the peak
candidates. It stays a scalar loop: 44% of the scanned steps prefetch,
in runs of ~8 steps between idle stretches of ~10, so an exact
skip-ahead over the idle steps costs more than it saves, and each
prefetching step moves bytes that later steps' budgets depend on,
which rules out an exact vectorization. Either way the result
is memoized per ``(act1, act2, prefetch-residency carry)`` — workloads with
uniform per-iteration activity simulate one pair and replay it.

Repack events never feed back into timing (the buffer model's accounting is
exact), so the repack counter is replayed separately from the static release
sequence, memoized per inter-pair carry.

Batched event synthesis
-----------------------
Observed runs do not fall back to the reference loop. When an
:class:`~repro.engine.instrumentation.Instrumentation` carries observers,
each pair/stream reaches them as one
:class:`~repro.engine.instrumentation.ReplayBatch` of per-step columns —
the kernel's own ``step_cycles``, ``moved`` and stage vectors, the
buffer statics' per-step evictions and the pair's repack pattern, closed
by the ``FILL_STEP`` charge — the same form the reference loop builds
from the values it collects. Same columns, same values, so traces,
metrics, and Fig 15 bandwidth samples are byte-identical while the
simulation itself stays vectorized. Batches are memoized per (kernel,
repack pattern), so every pair that reuses a kernel replays the same
batch.
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.config import VECTOR_ELEMENT_BYTES, SparsepipeConfig
from repro.arch.dram import BankedDRAM
from repro.arch.loaders import LoadPlan
from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult, TrafficBreakdown
from repro.engine.instrumentation import (
    Instrumentation,
    ReplayBatch,
    StepTraceObserver,
)
from repro.errors import BufferError_
from repro.oei.schedule import oei_passes

#: Traffic categories in the order the reference pair loop transfers them.
_PAIR_CATEGORIES = ("csc", "csr_reload", "csr_eager", "vector", "writeback")

#: Default burst-size hint when a category has none (matches
#: ``MemoryController.demand_cycles``).
_DEFAULT_BURST_HINT = 4096.0


def burst_hints(plan: LoadPlan, profile: WorkloadProfile) -> Dict[str, float]:
    """Average DRAM burst sizes per traffic category, from matrix
    structure (used only by the banked DRAM model; one definition shared
    with the reference loop's :class:`~repro.arch.memory.MemoryController`).

    Column sub-tensors stream contiguously; eager/reload row traffic
    arrives as per-row fragments; vector slices are contiguous runs of
    one sub-tensor width.
    """
    row_avg = plan.matrix_stream_bytes / max(1, plan.n)
    vector_run = (
        plan.subtensor_cols * VECTOR_ELEMENT_BYTES * profile.feature_dim
    )
    return {
        "csc": plan.matrix_stream_bytes / max(1, plan.n_subtensors),
        "csr_eager": row_avg,
        "csr_reload": row_avg,
        "vector": vector_run,
        "writeback": vector_run,
    }


def _fold(chunks: List[np.ndarray]) -> float:
    """Strict left-fold sum of concatenated increment arrays (the exact
    float the reference's ``+=`` accumulator chain produces)."""
    if not chunks:
        return 0.0
    seq = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    if seq.size == 0:
        return 0.0
    return float(np.cumsum(seq)[-1])


class _BufferStatics:
    """Activity-independent replay of the on-chip buffer over one pair.

    Mirrors :class:`~repro.arch.buffer.OnChipBuffer` admit/release/evict
    exactly, recording the per-step quantities the dynamic part consumes.
    """

    def __init__(self, plan: LoadPlan, capacity: float, config: SparsepipeConfig):
        elem = plan.element_bytes
        # Same expression as OnChipBuffer.__init__ (int capacity included).
        csr_cap = capacity * config.csr_window_fraction
        n_steps = plan.n_steps

        live: Dict[int, int] = {}
        live_elements = 0
        reload_due: Dict[int, float] = {}

        reload_bytes = np.zeros(n_steps)
        live_before_admit = np.zeros(n_steps, dtype=np.int64)
        live_after_admit = np.zeros(n_steps, dtype=np.int64)
        release_seq: List[Tuple[int, int]] = []
        evict_events: List[float] = []
        evict_step_bytes = np.zeros(n_steps)

        entries = list(plan.enter_counts)
        entries += [None] * (n_steps - len(entries))
        for s, counts in enumerate(entries):
            reload_bytes[s] = reload_due.pop(s, 0.0)
            live_before_admit[s] = live_elements
            if counts is not None:
                for r, c in counts.items():
                    if c:
                        live[r] = live.get(r, 0) + int(c)
                        live_elements += int(c)
            live_after_admit[s] = live_elements
            consumed = live.pop(s, 0)
            live_elements -= consumed
            release_seq.append((consumed, live_elements))
            step_evicted = 0.0  # enforce_capacity's per-call accumulator
            while live_elements * elem > csr_cap and live:
                victim = max(live)
                if victim <= s:
                    break
                over = int(-(-(live_elements * elem - csr_cap) // elem))
                take = min(over, live[victim])
                live[victim] -= take
                if live[victim] == 0:
                    del live[victim]
                live_elements -= take
                n_bytes = take * elem
                reload_due[victim] = reload_due.get(victim, 0.0) + n_bytes
                evict_events.append(n_bytes)
                step_evicted += n_bytes
            evict_step_bytes[s] = step_evicted

        self.csr_capacity_bytes = csr_cap
        self.reload_bytes = reload_bytes
        #: Live reuse-window bytes at each step, before and after its
        #: admit (the list is the scan's copy).
        self.live_bytes_before = live_before_admit * elem
        self.live_bytes_before_list = self.live_bytes_before.tolist()
        self.live_bytes_after = live_after_admit * elem
        self.release_seq = release_seq
        self.evict_events = np.asarray(evict_events, dtype=np.float64)
        self.evict_step_bytes = evict_step_bytes
        self.undrained_elements = live_elements
        self._repack_threshold = config.repack_threshold
        self._repack_memo: Dict[int, Tuple[int, int, Tuple[bool, ...]]] = {}

    def drain_check(self) -> None:
        if self.undrained_elements != 0:
            raise BufferError_(
                f"{self.undrained_elements} elements left in the reuse window "
                "after pair drain"
            )

    def repack_replay(self, carry: int) -> Tuple[int, int, Tuple[bool, ...]]:
        """Repack events over one pair given the inter-pair consumed-element
        carry; returns ``(events, carry_out, fired_per_step)``. Integer
        recurrence, memoized."""
        memo = self._repack_memo.get(carry)
        if memo is not None:
            return memo
        carry_in = carry
        thr = self._repack_threshold
        events = 0
        fired: List[bool] = []
        for consumed, live in self.release_seq:
            carry += consumed
            if live > 0 and carry > thr * (live + carry):
                events += 1
                carry = 0
                fired.append(True)
            else:
                fired.append(False)
        memo = (events, carry, tuple(fired))
        self._repack_memo[carry_in] = memo
        return memo


#: Cross-run cache of buffer statics. The replay depends only on the load
#: plan and the two capacity knobs, and load plans are themselves cached
#: per matrix (:meth:`LoadPlan.from_matrix`), so sweeps that revisit a
#: matrix — the backend bench grid, autotuning — pay the buffer replay
#: once. Entries die with their plan (weakref finalizer on the plan).
_STATICS_CACHE: Dict[Tuple[int, float, float, float], _BufferStatics] = {}


def _statics_for(plan: LoadPlan, capacity: float,
                 config: SparsepipeConfig) -> _BufferStatics:
    key = (
        id(plan), float(capacity),
        float(config.csr_window_fraction), float(config.repack_threshold),
    )
    statics = _STATICS_CACHE.get(key)
    if statics is None:
        statics = _BufferStatics(plan, capacity, config)
        _STATICS_CACHE[key] = statics
        weakref.finalize(plan, _STATICS_CACHE.pop, key, None)
    return statics


class _PairKernel:
    """Per-(act1, act2, residency-carry) simulation of one OEI pair."""

    __slots__ = (
        "step_cycles", "moved", "compute_ops", "is_ops", "peak_candidates",
        "resident_out", "stages",
    )

    def __init__(self, step_cycles, moved, compute_ops, is_ops,
                 peak_candidates, resident_out, stages):
        self.step_cycles = step_cycles          #: (n_steps,)
        self.moved = moved                      #: category -> (n_steps,)
        self.compute_ops = compute_ops          #: (3 * n_steps,) interleaved
        self.is_ops = is_ops                    #: (n_steps,)
        self.peak_candidates = peak_candidates  #: (n_subtensors,) occupied at admit
        self.resident_out = resident_out        #: prefetch residency carry-out
        self.stages = stages                    #: (stage, busy) pairs


class _StreamKernel:
    """Per-activity simulation of one producer-consumer-fused pass."""

    __slots__ = ("step_cycles", "moved", "compute_ops", "stages")

    def __init__(self, step_cycles, moved, compute_ops, stages):
        self.step_cycles = step_cycles
        self.moved = moved
        self.compute_ops = compute_ops
        self.stages = stages                    #: (stage, busy) pairs


class _FastRun:
    """One vectorized run: statics built once, pair/stream kernels memoized."""

    def __init__(self, config: SparsepipeConfig, plan: LoadPlan,
                 profile: WorkloadProfile, capacity: float):
        self.config = config
        self.plan = plan
        self.profile = profile
        self.capacity = capacity

        self._pes = config.pes_per_core
        self._achievable = config.bytes_per_cycle * config.dram_efficiency
        self._overhead = float(config.step_overhead_cycles)
        # Same expression as ComputePipeline.tree_depth / the reference fill.
        tree_depth = max(1, int(math.ceil(math.log2(config.pes_per_core))))
        self._fill = float(config.read_latency_cycles + tree_depth)

        # Banked DRAM (detailed_dram): same model object and per-category
        # burst hints the reference MemoryController uses.
        if config.detailed_dram:
            self._banked: Optional[BankedDRAM] = BankedDRAM(
                config.memory, config.clock_ghz,
                stream_efficiency=config.dram_efficiency,
            )
            self._hints = burst_hints(plan, profile)
        else:
            self._banked = None
            self._hints = {}

        n_steps, n_sub = plan.n_steps, plan.n_subtensors
        # width(s) and its lagged views, zero outside [0, n_subtensors).
        w = np.zeros(n_steps)
        w[:n_sub] = plan.subtensor_width.astype(np.float64)
        self._w = w
        self._w1 = np.concatenate(([0.0], w[:-1]))          # width(s - 1)
        self._w2 = np.concatenate(([0.0, 0.0], w[:-2]))     # width(s - 2)
        self._os_nnz = np.zeros(n_steps)
        self._os_nnz[:n_sub] = plan.os_nnz
        self._csc0 = np.zeros(n_steps)
        self._csc0[:n_sub] = plan.csc_bytes                 # untouched demand
        # Any column bytes left beyond sub-tensor s the prefetcher could pull?
        future = np.zeros(n_steps, dtype=bool)
        if n_sub > 1:
            remaining_after = np.cumsum(plan.csc_bytes[::-1])[::-1]
            future[: n_sub - 1] = remaining_after[1:] > 0
        self._future_csc = future

        self._buffer: Optional[_BufferStatics] = None
        self._pair_memo: Dict[Tuple[float, float, float], _PairKernel] = {}
        self._stream_memo: Dict[float, _StreamKernel] = {}
        # Synthesized event batches, memoized per (kernel, repack firing
        # pattern). The kernels above keep the ids stable for the run's
        # lifetime, and the batch objects double as the anchor for any
        # observer-side templates (ReplayBatch.cache).
        self._batch_memo: Dict[tuple, ReplayBatch] = {}

    # -- shared per-step cost pieces (exact reference association) --------
    def _ceil_div_cycles(self, amount: np.ndarray, feature_dim: int) -> np.ndarray:
        """``math.ceil(amount * f / pes)`` with the <=0 guard, elementwise."""
        raw = np.ceil(amount * feature_dim / self._pes)
        return np.where(amount > 0, raw, 0.0)

    def _banked_cycles(self, category: str, n_bytes) -> np.ndarray:
        return self._banked.cycles_batch(
            n_bytes, self._hints.get(category, _DEFAULT_BURST_HINT)
        )

    def _buffer_statics(self) -> _BufferStatics:
        if self._buffer is None:
            self._buffer = _statics_for(self.plan, self.capacity, self.config)
        return self._buffer

    # ------------------------------------------------------------------
    # OEI pair
    # ------------------------------------------------------------------
    def pair(self, act1: float, act2: float, resident_in: float) -> _PairKernel:
        key = (act1, act2, resident_in)
        kern = self._pair_memo.get(key)
        if kern is None:
            kern = self._build_pair(act1, act2, resident_in)
            self._pair_memo[key] = kern
        return kern

    def _build_pair(self, act1: float, act2: float,
                    resident_in: float) -> _PairKernel:
        plan, profile, config = self.plan, self.profile, self.config
        buf = self._buffer_statics()
        buf.drain_check()
        f = profile.feature_dim
        both = act1 + act2
        n_ops = profile.total_ewise_ops
        extra_dram_share = 2 * profile.extra_dram_bytes_per_iteration / plan.n_steps
        extra_ops_share = 2 * profile.extra_ops_per_iteration / plan.n_steps
        n_sub = plan.n_subtensors

        reload = buf.reload_bytes
        vec_read = (VECTOR_ELEMENT_BYTES * f) * (
            self._w * act1 + (self._w1 * profile.aux_streams) * both
        )
        writeback = (
            ((VECTOR_ELEMENT_BYTES * f) * self._w2) * profile.writeback_streams
        ) * both
        vector_cat = vec_read + extra_dram_share

        os_c = self._ceil_div_cycles(self._os_nnz * act1, f)
        ew_elems = self._w1 * both
        ew_c = np.where(
            (ew_elems > 0) & (n_ops > 0),
            np.ceil(ew_elems * f / self._pes) * n_ops, 0.0,
        )
        is_c = self._ceil_div_cycles(plan.scatter_nnz * act2, f)
        extra_c = extra_ops_share / self._pes if extra_ops_share > 0 else 0.0
        fixed_c = np.maximum.reduce([ew_c, is_c, np.maximum(os_c, extra_c)])
        fixed_c = np.maximum(fixed_c, self._overhead)

        # Column-demand-independent memory terms, in the reference
        # demand-dict order (csc, csr_reload, vector, writeback — eager
        # pays no demand): byte volumes for the flat model, per-category
        # cycle costs for the banked one.
        if self._banked is None:
            static_mem = (reload, vector_cat, writeback)
        else:
            static_mem = (
                self._banked_cycles("csr_reload", reload),
                self._banked_cycles("vector", vector_cat),
                self._banked_cycles("writeback", writeback),
            )

        def trajectory(csc):
            """``(step cycles, memory cycles, leftover bandwidth)`` per
            step for one column-demand vector, with the reference's
            association."""
            rl_m, vc_m, wb_m = static_mem
            if self._banked is None:
                mem = (((csc + rl_m) + vc_m) + wb_m) / self._achievable
            else:
                mem = ((self._banked_cycles("csc", csc) + rl_m) + vc_m) + wb_m
            cyc = np.maximum(fixed_c, mem)
            demand = (((csc + reload) + vec_read) + writeback) + extra_dram_share
            return cyc, mem, cyc * self._achievable - demand

        # Static (no-prefetch) trajectory: every column untouched.
        csc0 = self._csc0
        untouched = trajectory(csc0)
        step_cycles0, mem_c0, leftover0 = untouched
        slack0 = buf.csr_capacity_bytes - (buf.live_bytes_before + resident_in)

        fires = (
            config.eager_is
            and bool(np.any((leftover0 > 0) & (slack0 > 0) & self._future_csc))
        )
        if not fires:
            step_cycles, csc, eager, resident_out = (
                step_cycles0, csc0, np.zeros(plan.n_steps), resident_in,
            )
            mem_c = mem_c0
            peak_candidates = buf.live_bytes_after[:n_sub] + resident_in
        else:
            step_cycles, csc, eager, peak_candidates, resident_out, mem_c = (
                self._scan_pair(
                    fixed_c, static_mem, reload, vec_read, writeback,
                    extra_dram_share, resident_in, buf,
                    untouched, trajectory(np.zeros(plan.n_steps)),
                )
            )

        moved = {
            "csc": csc,
            "csr_reload": reload,
            "csr_eager": eager,
            "vector": vector_cat,
            "writeback": writeback,
        }

        # _os_nnz is zero-padded past n_subtensors, matching the
        # reference's explicit `else 0.0` at drain steps.
        os_ops = (self._os_nnz * act1) * f
        ew_ops = ((self._w1 * both) * n_ops) * f
        is_ops = (plan.scatter_nnz * act2) * f
        compute = np.empty((plan.n_steps, 3))
        compute[:, 0] = os_ops
        compute[:, 1] = ew_ops
        compute[:, 2] = is_ops + extra_ops_share
        return _PairKernel(
            step_cycles, moved, compute.ravel(), is_ops, peak_candidates,
            resident_out, (("os", os_c), ("ewise", ew_c), ("is", is_c),
                           ("extra", extra_c), ("memory", mem_c)),
        )

    def _scan_pair(self, fixed_c, static_mem, reload, vec_read, writeback,
                   extra_dram_share, resident_in, buf, untouched, fetched):
        """Lean scalar replay of the prefetch recurrence over the load
        steps (only called when the prefetcher can fire, so ``eager_is``
        holds); the ``IS_LAG`` drain tail is static (no demand, no
        release, nothing left to prefetch).

        A step's cost depends on the recurrence only through its column
        demand, so ``untouched`` (the static trajectory) and ``fetched``
        (the same expressions with zero column demand) serve every step
        whose column the prefetcher left alone or pulled entirely; only
        a partially prefetched column runs the scalar formula.

        The loop keeps only its state and the arrays most steps read as
        Python lists; the partial-column inputs (8% of steps) are
        indexed in place. It writes down the partial steps' costs and
        the residency after each step, and the outputs are assembled
        with numpy afterwards. ``r if r > 0.0 else
        0.0`` is the same float as ``max(0.0, r)`` for every ``r``,
        ``-0.0`` and NaN included, without a builtin call per step. A
        column the prefetcher empties moves ``first_nz`` past it at
        once instead of on the next visit; empty columns take nothing,
        so the same bytes move in the same order. No skip-ahead: 44% of
        steps prefetch, in runs of ~8, so the idle stretches between
        them (~10 steps) are too short to pay for finding them.
        """
        n_sub = self.plan.n_subtensors
        achievable = self._achievable
        csr_cap = buf.csr_capacity_bytes
        banked = self._banked
        csc_hint = self._hints.get("csc", _DEFAULT_BURST_HINT)
        rl_m, vc_m, wb_m = static_mem

        # Prefetches only ever reach columns past the current step, so
        # ``remaining`` ends as each step's column demand.
        csc0 = self._csc0.tolist()
        remaining = csc0.copy()
        left0 = untouched[2].tolist()
        leftf = fetched[2].tolist()
        live_before = buf.live_bytes_before_list
        prefetched = [0.0] * n_sub
        resident_at = [0.0] * n_sub
        eager = [0.0] * len(csc0)
        partial = {}  # step -> (step cycles, memory cycles)

        resident = resident_in
        first_nz = 0
        for s in range(n_sub):
            r = resident - prefetched[s]
            resident = r if r > 0.0 else 0.0  # == max(0.0, r), NaN included
            csc_due = remaining[s]
            if csc_due == csc0[s]:
                leftover = left0[s]
            elif csc_due == 0.0:
                leftover = leftf[s]
            else:
                if banked is None:
                    mem = float(
                        (((csc_due + rl_m[s]) + vc_m[s]) + wb_m[s]) / achievable)
                else:
                    mem = float((
                        (banked.cycles(csc_due, csc_hint) + rl_m[s]) + vc_m[s]
                    ) + wb_m[s])
                fixed = float(fixed_c[s])
                cyc = fixed if fixed >= mem else mem
                demand = float(
                    (((csc_due + reload[s]) + vec_read[s]) + writeback[s])
                    + extra_dram_share
                )
                partial[s] = (cyc, mem)
                leftover = cyc * achievable - demand
            if leftover > 0:
                slack = csr_cap - (live_before[s] + resident)
                if slack > 0:
                    budget = leftover if leftover <= slack else slack
                    if first_nz <= s:
                        first_nz = s + 1
                    t = first_nz
                    moved = 0.0
                    while t < n_sub:
                        rem = remaining[t]
                        if rem > 0:
                            if budget < rem:
                                remaining[t] = rem - budget
                                prefetched[t] += budget
                                moved += budget
                                break
                            remaining[t] = 0.0
                            prefetched[t] += rem
                            moved += rem
                            budget -= rem
                            if t == first_nz:
                                first_nz = t + 1
                            if budget <= 0:
                                break
                        elif t == first_nz:
                            first_nz = t + 1
                        t += 1
                    resident += moved
                    eager[s] = moved
            resident_at[s] = resident

        # Per-step outputs: the static trajectory (which also covers the
        # drain tail), overwritten where a column was touched. A step's
        # column demand is final once the scan is past it, so the fully
        # prefetched steps are the nonempty columns left at zero.
        due = np.asarray(remaining)
        fetched_steps = np.flatnonzero((due == 0.0) & (self._csc0 != 0.0))
        step_cycles, mem_c = untouched[0].copy(), untouched[1].copy()
        step_cycles[fetched_steps] = fetched[0][fetched_steps]
        mem_c[fetched_steps] = fetched[1][fetched_steps]
        if partial:
            steps = list(partial)
            step_cycles[steps], mem_c[steps] = zip(*partial.values())
        peak_candidates = buf.live_bytes_after[:n_sub] + np.asarray(resident_at)
        return (step_cycles, due, np.asarray(eager), peak_candidates,
                resident, mem_c)

    # ------------------------------------------------------------------
    # Streamed single iteration
    # ------------------------------------------------------------------
    def stream(self, act: float) -> _StreamKernel:
        kern = self._stream_memo.get(act)
        if kern is None:
            kern = self._build_stream(act)
            self._stream_memo[act] = kern
        return kern

    def _build_stream(self, act: float) -> _StreamKernel:
        plan, profile = self.plan, self.profile
        f = profile.feature_dim
        n_ops = profile.total_ewise_ops
        n_sub = plan.n_subtensors
        extra_dram_share = profile.extra_dram_bytes_per_iteration / max(1, n_sub)
        extra_ops_share = profile.extra_ops_per_iteration / max(1, n_sub)

        w = plan.subtensor_width.astype(np.float64)
        csc = plan.csc_bytes.astype(np.float64)
        vec_read = ((VECTOR_ELEMENT_BYTES * f) * w) * (
            act + profile.aux_streams * act
        )
        writeback = (((VECTOR_ELEMENT_BYTES * f) * w) * profile.writeback_streams) * act
        vector_cat = vec_read + extra_dram_share

        os_c = self._ceil_div_cycles(plan.os_nnz * act, f)
        ew_elems = w * act
        ew_c = np.where(
            (ew_elems > 0) & (n_ops > 0),
            np.ceil(ew_elems * f / self._pes) * n_ops, 0.0,
        )
        extra_c = extra_ops_share / self._pes if extra_ops_share > 0 else 0.0
        if self._banked is None:
            mem_total = (csc + vector_cat) + writeback
            mem_c = mem_total / self._achievable
        else:
            mem_c = (
                self._banked_cycles("csc", csc)
                + self._banked_cycles("vector", vector_cat)
            ) + self._banked_cycles("writeback", writeback)
        step_cycles = np.maximum.reduce(
            [os_c, ew_c, np.maximum(np.full(n_sub, extra_c), mem_c)]
        )
        step_cycles = np.maximum(step_cycles, self._overhead)

        compute = ((plan.os_nnz * act) * f + (ew_elems * n_ops) * f) + extra_ops_share
        moved = {"csc": csc, "vector": vector_cat, "writeback": writeback}
        return _StreamKernel(
            step_cycles, moved, compute, (("os", os_c), ("ewise", ew_c),
                                          ("extra", extra_c), ("memory", mem_c)),
        )

    # ------------------------------------------------------------------
    # Batched event synthesis (replay through the instrumentation)
    # ------------------------------------------------------------------
    def replay(self, instr: Instrumentation, kern,
               repack_fired: Optional[Tuple[bool, ...]]) -> None:
        """Deliver one pair's or stream's steps as a memoized
        :class:`ReplayBatch` of the kernel's own vectors. A stream
        (``repack_fired is None``) evicts and repacks nothing; the
        scalar ``extra`` stage share is broadcast to a column."""
        key = (id(kern), repack_fired)
        batch = self._batch_memo.get(key)
        if batch is None:
            n = kern.step_cycles.size
            if repack_fired is None:
                evict, repack = np.zeros(n), np.zeros(n, dtype=bool)
            else:
                evict = self._buffer_statics().evict_step_bytes
                repack = np.array(repack_fired, dtype=bool)
            batch = ReplayBatch(
                kern.step_cycles, tuple(kern.moved.items()), evict, repack,
                tuple((s, np.broadcast_to(busy, n)) for s, busy in kern.stages),
                self._fill,
            )
            self._batch_memo[key] = batch
        instr.replay(batch)


def run_fastpath(
    config: SparsepipeConfig,
    plan: LoadPlan,
    profile: WorkloadProfile,
    capacity: float,
    instr: Optional[Instrumentation] = None,
) -> SimResult:
    """Vectorized equivalent of the reference iteration loop — same
    ``SimResult`` for every configuration (flat or banked DRAM).

    ``instr`` is the caller's instrumentation dispatcher. With observers
    attached, each pair/stream's synthesized records reach them as one
    :class:`ReplayBatch` (byte-identical traces/metrics, Fig 15 samples
    via any registered :class:`StepTraceObserver`); a falsy/absent
    ``instr`` is the zero-observer fast path — no batches,
    ``bandwidth_samples=[]``.
    """
    run = _FastRun(config, plan, profile, capacity)
    replay = instr if instr else None

    cycle_chunks: List[np.ndarray] = []
    traffic_chunks: Dict[str, List[np.ndarray]] = {
        c: [] for c in _PAIR_CATEGORIES
    }
    compute_chunks: List[np.ndarray] = []
    is_ops_chunks: List[np.ndarray] = []
    peak_values: List[np.ndarray] = []
    n_pairs = 0
    repack_events = 0
    repack_carry = 0
    resident_carry = 0.0
    fill = np.array([run._fill])

    for k, paired in oei_passes(profile.n_iterations, profile.has_oei):
        if paired:
            kern = run.pair(
                profile.activity_at(k), profile.activity_at(k + 1), resident_carry
            )
            cycle_chunks.append(kern.step_cycles)
            cycle_chunks.append(fill)
            for cat in _PAIR_CATEGORIES:
                traffic_chunks[cat].append(kern.moved[cat])
            compute_chunks.append(kern.compute_ops)
            is_ops_chunks.append(kern.is_ops)
            peak_values.append(kern.peak_candidates)
            events, new_carry, fired = (
                run._buffer_statics().repack_replay(repack_carry)
            )
            repack_carry = new_carry
            repack_events += events
            if replay is not None:
                run.replay(replay, kern, fired)
            resident_carry = kern.resident_out
            n_pairs += 1
        else:
            kern = run.stream(profile.activity_at(k))
            cycle_chunks.append(kern.step_cycles)
            cycle_chunks.append(fill)
            for cat, arr in kern.moved.items():
                traffic_chunks[cat].append(arr)
            compute_chunks.append(kern.compute_ops)
            if replay is not None:
                run.replay(replay, kern, None)

    cycles = _fold(cycle_chunks)
    traffic = TrafficBreakdown()
    for cat, chunks in traffic_chunks.items():
        traffic.bytes_by_category[cat] = _fold(chunks)
    compute_ops = _fold(compute_chunks)
    is_ops = _fold(is_ops_chunks)

    evicted = 0.0
    peak = 0.0
    if n_pairs:
        buf = run._buffer_statics()
        if buf.evict_events.size:
            evicted = _fold([buf.evict_events] * n_pairs)
        if peak_values:
            peak = max(0.0, float(np.max(np.concatenate(peak_values))))

    return sparsepipe_result(
        config, profile, instr, capacity, cycles=cycles, traffic=traffic,
        compute_ops=compute_ops, is_ops=is_ops, buffer_peak_bytes=peak,
        oom_evicted_bytes=evicted, repack_events=repack_events,
    )


def sparsepipe_result(
    config: SparsepipeConfig, profile: WorkloadProfile,
    instr: Optional[Instrumentation], capacity: float, *,
    cycles: float, traffic: TrafficBreakdown, compute_ops: float,
    is_ops: float, buffer_peak_bytes: float, oom_evicted_bytes: float,
    repack_events: int,
) -> SimResult:
    """The one :class:`SimResult` assembly of both Sparsepipe backends.
    Fig 15's bandwidth samples come from a :class:`StepTraceObserver`
    registered on ``instr``; without one they stay empty."""
    trace_obs = instr.find(StepTraceObserver) if instr is not None else None
    total_bytes = traffic.total_bytes
    deliverable = cycles * config.bytes_per_cycle
    return SimResult(
        name=profile.name,
        cycles=cycles,
        seconds=config.seconds(cycles),
        traffic=traffic,
        bandwidth_utilization=(
            min(1.0, total_bytes / deliverable) if deliverable else 0.0
        ),
        bandwidth_samples=(
            trace_obs.samples(config.bytes_per_cycle)
            if trace_obs is not None else []
        ),
        compute_ops=compute_ops,
        buffer_peak_bytes=buffer_peak_bytes,
        oom_evicted_bytes=oom_evicted_bytes,
        repack_events=repack_events,
        n_iterations=profile.n_iterations,
        sram_access_bytes=(
            2.0 * total_bytes + is_ops * 2 * VECTOR_ELEMENT_BYTES
        ),
        extra={"buffer_capacity_bytes": float(capacity)},
    )
