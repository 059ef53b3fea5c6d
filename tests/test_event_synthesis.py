"""Batched event synthesis: golden byte-identity plus backend routing.

The vectorized backend does not run the per-step loop, yet observed
runs must be indistinguishable from the reference stream — the
synthesized replay (:class:`~repro.engine.instrumentation.ReplayBatch`)
claims *byte-identical* artifacts, not merely equal summaries. This
suite executes that claim:

- golden grid: every registered workload on the ``gy`` matrix, flat
  and banked DRAM, comparing the serialized Chrome trace, the metrics
  registry document and digest, the raw ordered event log, the Fig 15
  bandwidth samples, the event counters, the per-step pipeline
  activity, and the ``SimResult`` itself;
- a hypothesis property over random matrices and synthetic profiles
  with observers attached;
- ``run_engine`` routing: the backend default comes from the config
  (objects missing the attribute inherit the documented
  ``"vectorized"`` default), and an ``observers=`` request a backend
  cannot honor raises SP907 instead of silently downgrading.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import SparsepipeConfig
from repro.arch.pipeline_viz import PipelineActivityObserver
from repro.arch.simulator import SparsepipeSimulator
from repro.engine import registry
from repro.engine.instrumentation import (
    CounterObserver,
    EventLogObserver,
    StepTraceObserver,
)
from repro.errors import ConfigError
from repro.experiments.runner import ExperimentContext
from repro.matrices.suite import SUITE
from repro.obs.metrics import MetricsObserver
from repro.obs.timeline import TimelineObserver, validate_chrome_trace
from repro.preprocess.pipeline import preprocess
from tests.strategies import coo_matrices, subtensor_widths
from tests.test_backend_differential import synthetic_profiles


@pytest.fixture(scope="module")
def context():
    return ExperimentContext()


#: Everything ``observed_artifacts`` returns that both backends must
#: reproduce exactly.
ARTIFACTS = ("result", "trace", "metrics", "digest", "events",
             "samples", "counters", "activity")


def observed_artifacts(config, profile, prep, paper_nnz=None):
    """One observed run -> everything the byte-identity claim covers."""
    timeline = TimelineObserver()
    metrics = MetricsObserver()
    log = EventLogObserver()
    steps = StepTraceObserver()
    counter = CounterObserver()
    activity = PipelineActivityObserver()
    sim = SparsepipeSimulator(config)
    result = sim.run(
        profile, prep, paper_nnz=paper_nnz,
        observers=(timeline, metrics, log, steps, counter, activity),
    )
    registry_ = metrics.finalize(result)
    trace = timeline.to_chrome_trace()
    validate_chrome_trace(trace)
    return {
        "result": result,
        "trace": json.dumps(trace, sort_keys=True),
        "metrics": registry_.to_dict(),
        "digest": registry_.digest(),
        "events": log.events,
        "samples": steps.samples(config.bytes_per_cycle),
        "counters": counter.as_dict(),
        "activity": activity.steps,
        "backend": sim.last_backend,
    }


class TestGoldenByteIdentity:
    """Synthesized replay vs in-loop reference stream, artifact by
    artifact, over every paper workload and both DRAM models."""

    @pytest.mark.parametrize("detailed_dram", [False, True],
                             ids=["flat", "banked"])
    def test_every_workload_matches(self, context, detailed_dram):
        matrix = "gy"
        prep = context.prepared(matrix)
        nnz = SUITE[matrix].paper_nnz
        for workload in context.all_workloads():
            profile = context.profile(workload, matrix)
            ref = observed_artifacts(
                SparsepipeConfig(backend="reference",
                                 detailed_dram=detailed_dram),
                profile, prep, paper_nnz=nnz,
            )
            vec = observed_artifacts(
                SparsepipeConfig(backend="vectorized",
                                 detailed_dram=detailed_dram),
                profile, prep, paper_nnz=nnz,
            )
            assert vec["backend"] == "vectorized", workload
            for artifact in ARTIFACTS:
                assert ref[artifact] == vec[artifact], (
                    f"{workload}: {artifact} differs"
                )


class TestPropertySynthesis:
    @settings(max_examples=15, deadline=None)
    @given(
        coo=coo_matrices(max_n=40),
        profile=synthetic_profiles(),
        width=subtensor_widths(4, 8, 16, 37, 64),
        buffer_bytes=st.sampled_from([4096, 20000, None]),
        detailed=st.booleans(),
    )
    def test_random_observed_runs_byte_identical(
        self, coo, profile, width, buffer_bytes, detailed
    ):
        prep = preprocess(coo)
        artifacts = [
            observed_artifacts(
                SparsepipeConfig(
                    backend=backend, subtensor_cols=width,
                    buffer_bytes=buffer_bytes, detailed_dram=detailed,
                ),
                profile, prep,
            )
            for backend in ("reference", "vectorized")
        ]
        ref, vec = artifacts
        assert vec["backend"] == "vectorized"
        for artifact in ARTIFACTS:
            assert ref[artifact] == vec[artifact], f"{artifact} differs"


class _StubEngine:
    """Records what run_engine forwarded to it."""

    #: Every instance built, in order (reset per test by ``stub_engines``).
    built: list = []

    def __init__(self, config=None):
        self.config = config
        self.calls = []
        _StubEngine.built.append(self)

    def run(self, profile, matrix, paper_nnz=None, **kwargs):
        self.calls.append(kwargs)
        return "ran"


@pytest.fixture
def stub_engines(monkeypatch):
    """The engines run_engine builds for an observable, config-taking
    ``stub-observable`` row of the architecture table."""
    monkeypatch.setitem(registry.ARCHS, "stub-observable",
                        (__name__, "_StubEngine", True, True, "test stub"))
    monkeypatch.setattr(_StubEngine, "built", [])
    return _StubEngine.built


class TestRunEngineRouting:
    def test_backend_default_is_documented_vectorized(self):
        assert SparsepipeConfig.backend == "vectorized"

    def test_config_missing_backend_attr_inherits_default(self, stub_engines):
        """A config object without a ``backend`` attribute (baseline
        configs) must inherit the vectorized default, not crash and not
        silently pin the reference loop."""
        class NoBackendConfig:
            pass

        out = registry.run_engine(
            "stub-observable", NoBackendConfig(), profile=None, matrix=None
        )
        assert out == "ran"
        # Vectorized default -> the zero-observer contract is requested
        # explicitly rather than leaving the engine to guess.
        assert stub_engines[0].calls == [{"observers": ()}]

    def test_reference_config_runs_with_zero_observers(self, stub_engines):
        """Unobserved points get ``observers=()`` on either backend, so
        both store the same result (no Fig 15 samples)."""
        registry.run_engine(
            "stub-observable", SparsepipeConfig(backend="reference"),
            profile=None, matrix=None,
        )
        assert stub_engines[0].calls == [{"observers": ()}]

    def test_observers_on_non_observable_arch_raises_sp907(self):
        with pytest.raises(ConfigError, match=r"\[SP907\]"):
            registry.run_engine(
                "cpu", None, profile=None, matrix=None,
                observers=[TimelineObserver()],
            )

    def test_explicit_observers_forwarded_verbatim(self, stub_engines):
        obs = (TimelineObserver(),)
        registry.run_engine(
            "stub-observable", SparsepipeConfig(), profile=None, matrix=None,
            observers=obs,
        )
        assert stub_engines[0].calls == [{"observers": obs}]
