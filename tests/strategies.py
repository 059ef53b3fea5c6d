"""Shared hypothesis strategies for the property-based suites.

Every property test file imports its strategies from here — the single
home for the finite-float domain, seed/dimension integers, the monoid
name samplers, and the random e-wise program generator — instead of
redeclaring private copies. ``tests/test_strategies.py`` smoke-tests
the generators themselves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.arch.stats import TRAFFIC_CATEGORIES
from repro.dataflow.program import EWiseInstr, OEIProgram, Operand, OperandKind
from repro.engine.instrumentation import ReplayBatch
from repro.formats.coo import COOMatrix
from repro.obs.manifest import RunManifest
from repro.semiring import MONOIDS

#: Finite floats bounded away from overflow — the shared numeric domain
#: of every algebraic property test.
finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

#: Full-range RNG seeds for deterministic random-matrix construction.
seeds = st.integers(0, 2**31 - 1)

#: Plain booleans (re-exported so test files need no ``st`` import).
booleans = st.booleans()


def dims(lo: int, hi: int):
    """Matrix/vector dimensions (or iteration counts) in ``[lo, hi]``."""
    if not 0 <= lo <= hi:
        raise ValueError(f"invalid dimension bounds [{lo}, {hi}]")
    return st.integers(lo, hi)


def finite_lists(max_size: int = 20):
    """Lists of finite floats, possibly empty (reduction inputs)."""
    return st.lists(finite, min_size=0, max_size=max_size)


def monoid_names(*names: str):
    """Sampler over monoid names — a subset, or every registered
    monoid when called without arguments."""
    pool = list(names) if names else sorted(MONOIDS)
    unknown = [n for n in pool if n not in MONOIDS]
    if unknown:
        raise ValueError(f"unknown monoid name(s): {unknown}")
    return st.sampled_from(pool)


def subtensor_widths(*widths: int):
    """Sampler over sub-tensor column widths for schedule sweeps."""
    if not widths:
        raise ValueError("subtensor_widths needs at least one width")
    return st.sampled_from(list(widths))


#: Binary ops that stay finite on bounded inputs.
SAFE_BINARY = ("plus", "minus", "times", "min", "max", "abs_diff")
#: Semirings whose add/mul keep bounded inputs bounded.
SAFE_SEMIRINGS = ("mul_add", "min_add", "max_times")


@st.composite
def coo_matrices(draw, max_n: int = 48, allow_empty: bool = True):
    """A deterministic random square COO matrix.

    Draws the seed/size/density (so shrinking walks toward small, sparse
    inputs) and builds the matrix with numpy — including the degenerate
    shapes the vectorized kernels must survive: fully empty matrices,
    empty rows/columns, and single-nonzero matrices.
    """
    n = draw(st.integers(1, max_n))
    seed = draw(seeds)
    density = draw(st.floats(0.0 if allow_empty else 0.05, 0.4))
    gen = np.random.default_rng(seed)
    dense = (gen.random((n, n)) < density) * gen.uniform(-2.0, 2.0, (n, n))
    if draw(st.booleans()) and n > 2:
        dense[draw(st.integers(0, n - 1)), :] = 0.0   # an empty row
        dense[:, draw(st.integers(0, n - 1))] = 0.0   # an empty column
    return COOMatrix.from_dense(dense)


#: Float values the duplicate-summing fast paths must fold exactly like
#: ``np.add.at``: signed zeros, quiet NaNs of both signs, infinities.
EDGE_FLOATS = (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 0.5)

#: Value dtypes of :func:`raw_coo`: float64 takes the ``bincount``
#: fold, the others must stay on ``np.add.at``.
COO_DTYPES = ("float64", "float32", "int64", "bool")


@st.composite
def raw_coo(draw, max_n: int = 12, max_nnz: int = 40):
    """Unnormalized COO input as ``(shape, rows, cols, vals)``.

    Covers what :meth:`COOMatrix.deduplicate` and
    :func:`coo_to_compressed` must survive: empty input, duplicate
    coordinates, explicit zeros, ``-0.0``, NaN, and input that is
    already canonical (strictly increasing row-major keys) next to
    shuffled input, over float64, float32, int64 and bool values.
    """
    nrows = draw(st.integers(1, max_n))
    ncols = draw(st.integers(1, max_n))
    dtype = draw(st.sampled_from(COO_DTYPES))
    coords = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    pairs = draw(st.lists(coords, max_size=max_nnz))
    if draw(st.booleans()):
        pairs = sorted(set(pairs))  # canonical: sorted, no duplicates
    if dtype == "bool":
        values = st.booleans()
    elif dtype == "int64":
        values = st.integers(-3, 3)
    else:
        values = st.one_of(st.sampled_from(EDGE_FLOATS), finite)
    vals = np.array([draw(values) for _ in pairs], dtype=dtype)
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    cols = np.array([c for _, c in pairs], dtype=np.int64)
    return (nrows, ncols), rows, cols, vals


@st.composite
def random_programs(draw):
    """A random straight-line e-wise program of 1-4 instructions."""
    n_instr = draw(st.integers(1, 4))
    instructions = []
    aux_used = draw(st.booleans())
    scalar_used = draw(st.booleans())
    for i in range(n_instr):
        op = draw(st.sampled_from(SAFE_BINARY))
        sources = [Operand(OperandKind.Y)]
        if i > 0:
            sources.append(Operand(OperandKind.REG, draw(st.integers(0, i - 1))))
        choices = ["const"]
        if aux_used:
            choices.append("aux")
        if scalar_used:
            choices.append("scalar")
        kind = draw(st.sampled_from(choices))
        if kind == "const":
            extra = Operand(
                OperandKind.CONST,
                draw(st.floats(-2.0, 2.0, allow_nan=False)),
            )
        elif kind == "aux":
            extra = Operand(OperandKind.AUX, "a0")
        else:
            extra = Operand(OperandKind.SCALAR, "s0")
        srcs = (sources[-1], extra) if len(sources) > 1 else (sources[0], extra)
        instructions.append(EWiseInstr(op, i, srcs))
    semiring = draw(st.sampled_from(SAFE_SEMIRINGS))
    return OEIProgram(
        name="random",
        semiring_name=semiring,
        instructions=tuple(instructions),
        result_reg=n_instr - 1,
        aux_vectors=("a0",) if aux_used else (),
        scalar_names=("s0",) if scalar_used else (),
        n_registers=n_instr,
        has_oei=True,
    )


#: Float leaves the trace writer must render exactly as ``json`` does:
#: signed zeros, the smallest subnormal, huge magnitudes and the
#: non-finite values ``json`` spells ``NaN`` / ``Infinity``.
TRACE_FLOATS = (0.0, -0.0, 5e-324, 1e300, -1e300, 0.1, np.nan, np.inf,
                -np.inf)

#: Stage names: the five the timeline maps to tracks, plus one it does
#: not.
TRACE_STAGES = ("os", "ewise", "is", "extra", "memory", "decode")


def trace_leaves():
    """Numeric event fields: the edge floats, any bounded float, the
    same as ``numpy.float64``, and ints past 2**64 (the reference loop
    reports some stage cycles as ints, which its batch turns into
    float64 columns)."""
    floats = st.floats(-1e300, 1e300)
    return st.one_of(
        st.sampled_from(TRACE_FLOATS),
        floats,
        floats.map(np.float64),
        st.integers(-2**70, 2**70),
    )


@st.composite
def replay_batches(draw, max_steps: int = 4):
    """One columnar :class:`ReplayBatch`: up to ``max_steps`` steps,
    any subset of the traffic categories (in any order) and of
    ``TRACE_STAGES``, amounts that are often zero (events that never
    fired), and any fill charge."""
    n = draw(st.integers(0, max_steps))
    leaf = trace_leaves()

    def column(values):
        return np.array(
            draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64
        )

    maybe = st.one_of(st.just(0.0), leaf)
    categories = draw(st.lists(st.sampled_from(TRAFFIC_CATEGORIES), unique=True))
    stages = draw(st.lists(st.sampled_from(TRACE_STAGES), unique=True))
    return ReplayBatch(
        column(leaf),
        tuple((cat, column(maybe)) for cat in categories),
        column(maybe),
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                 dtype=bool),
        tuple((stage, column(leaf)) for stage in stages),
        float(draw(leaf)),
    )


@st.composite
def replay_streams(draw, max_batches: int = 3, max_steps: int = 4):
    """A synthetic event stream: batches in replay order, where a
    batch may come back, as a memoized kernel's does once per
    iteration."""
    batches = [
        draw(replay_batches(max_steps))
        for _ in range(draw(st.integers(1, max_batches)))
    ]
    order = st.integers(0, len(batches) - 1)
    return [batches[i] for i in draw(st.lists(order, max_size=6))]


#: Strings ``json`` must escape: quotes, backslashes, control and
#: non-ASCII characters.
escaped_text = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\u00e9\u2603\u2028'), st.characters()),
    max_size=8,
)


@st.composite
def run_manifests(draw):
    """A :class:`RunManifest` whose strings need escaping."""
    return RunManifest(
        arch=draw(escaped_text),
        workload=draw(escaped_text),
        matrix=draw(escaped_text),
        config_key=draw(escaped_text),
        reorder=draw(st.one_of(st.none(), escaped_text)),
        block_size=draw(st.one_of(st.none(), st.integers(1, 2**70))),
        code_version=draw(escaped_text),
        metrics_digest=draw(escaped_text),
        seed=draw(st.one_of(st.none(), st.integers(0, 2**31 - 1))),
    )
