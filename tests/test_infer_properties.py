"""Property-based invariants of the shape-polymorphic compiled engine.

The contract under randomized stress: any sequence of batch sizes
served by one engine stays **bitwise identical** to the module forward
with **zero tape rebuilds after warmup** — the whole point of the
polymorphic plan.

Profiles are registered in ``conftest.py`` (``REPRO_HYPOTHESIS_PROFILE``
selects ``default``/``ci``); the hypothesis classes skip when hypothesis
is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core import TimeKDConfig  # noqa: E402
from repro.core.student import StudentModel  # noqa: E402
from repro.infer import CompiledStudent  # noqa: E402

L, N, M = 32, 3, 8
MAX_BATCH = 16


def tiny_config(**overrides) -> TimeKDConfig:
    base = TimeKDConfig(history_length=L, horizon=M, num_variables=N,
                        d_model=16, num_heads=2, num_layers=1, ffn_dim=32)
    return base.with_updates(**overrides) if overrides else base


def make_student(config: TimeKDConfig | None = None,
                 seed: int = 0) -> StudentModel:
    student = StudentModel(config or tiny_config())
    student.eval()
    rng = np.random.default_rng(seed)
    for p in student.parameters():
        p.data[...] = rng.standard_normal(p.data.shape).astype(
            np.float32) * 0.1
    return student


@pytest.fixture(scope="module")
def student() -> StudentModel:
    return make_student()


class TestShapePolymorphicProperties:
    @given(batch_sizes=st.lists(st.integers(1, MAX_BATCH),
                                min_size=1, max_size=12),
           data_seed=st.integers(0, 2**31 - 1))
    def test_any_batch_sequence_is_bitwise_parity_with_zero_rebuilds(
            self, student, batch_sizes, data_seed):
        engine = CompiledStudent(student, max_batch=MAX_BATCH)
        assert engine.rebuilds == 1  # warmup: the one eager compile
        rng = np.random.default_rng(data_seed)
        for batch in batch_sizes:
            x = rng.standard_normal((batch, L, N)).astype(np.float32)
            compiled = engine.predict(x)
            module = student.predict(x)
            assert compiled.tobytes() == module.tobytes()
        stats = engine.plan_stats()
        assert stats["rebuilds"] == 1  # no batch size caused a rebuild
        assert stats["hits"] + stats["misses"] == len(batch_sizes)
        assert stats["misses"] == len(set(batch_sizes))
        assert stats["bindings"] == len(set(batch_sizes))

    @given(batch_sizes=st.lists(st.integers(1, 40),
                                min_size=2, max_size=8),
           data_seed=st.integers(0, 2**31 - 1))
    def test_capacity_growth_preserves_parity_then_freezes(
            self, student, batch_sizes, data_seed):
        engine = CompiledStudent(student)  # lazy: grows on demand
        rng = np.random.default_rng(data_seed)
        windows = [rng.standard_normal((b, L, N)).astype(np.float32)
                   for b in batch_sizes]
        for x in windows:
            assert (engine.predict(x).tobytes()
                    == student.predict(x).tobytes())
        assert engine.capacity >= max(batch_sizes)
        # Replaying the same sizes is pure cache traffic: zero rebuilds.
        rebuilds = engine.rebuilds
        for x in windows:
            assert (engine.predict(x).tobytes()
                    == student.predict(x).tobytes())
        assert engine.rebuilds == rebuilds

    @given(batch_sizes=st.lists(st.integers(1, MAX_BATCH),
                                min_size=1, max_size=12),
           data_seed=st.integers(0, 2**31 - 1))
    def test_plan_cache_eviction_never_breaks_parity(
            self, student, batch_sizes, data_seed):
        engine = CompiledStudent(student, max_batch=MAX_BATCH,
                                 plan_cache_size=2)
        rng = np.random.default_rng(data_seed)
        for batch in batch_sizes:
            x = rng.standard_normal((batch, L, N)).astype(np.float32)
            assert (engine.predict(x).tobytes()
                    == student.predict(x).tobytes())
        stats = engine.plan_stats()
        assert stats["bindings"] <= 2
        assert stats["evictions"] == stats["misses"] - stats["bindings"]
        assert stats["rebuilds"] == 1
