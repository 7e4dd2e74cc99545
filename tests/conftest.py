"""Shared fixtures for the test suite.

Expensive objects (pretrained backbone, prepared datasets) are session-
scoped so each test stays fast on the 1-CPU substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset, make_forecasting_data
from repro.llm import CalibratedLanguageModel, Vocabulary, build_backbone, pretrain_backbone


def _configure_hypothesis() -> None:
    """Register hypothesis profiles and pick one from the environment.

    ``default`` keeps local runs fast on the 1-CPU substrate; ``ci``
    buys more coverage; ``big`` is the nightly search of the property
    and parity modules.  Select with ``REPRO_HYPOTHESIS_PROFILE=ci``.
    A test that pins ``max_examples`` in its own ``@settings`` keeps it
    under every profile.
    Guarded so the suite still collects when hypothesis is absent
    (property tests skip themselves via ``importorskip``).
    """
    import os

    try:
        from hypothesis import HealthCheck, settings
    except ImportError:  # pragma: no cover - optional dependency
        return

    base = dict(
        # CPU available to test runs varies wildly; "too slow" data
        # generation says nothing about the code under test.
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    settings.register_profile("default", max_examples=25, **base)
    settings.register_profile("ci", max_examples=100, **base)
    settings.register_profile(
        "big",
        max_examples=10000,
        # Caps each state-machine run: at the default 50 steps, 10,000
        # runs of the gateway's metering machine would dominate a run.
        stateful_step_count=20,
        **base)
    settings.load_profile(
        os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))


_configure_hypothesis()


@pytest.fixture(scope="session")
def vocab() -> Vocabulary:
    return Vocabulary()


@pytest.fixture(scope="session")
def tiny_backbone(vocab):
    """A briefly pretrained gpt2-tiny backbone shared across tests."""
    model = build_backbone("gpt2-tiny", vocab=vocab)
    pretrain_backbone(model, vocab=vocab, steps=25, batch_size=4)
    return model


@pytest.fixture(scope="session")
def tiny_clm(tiny_backbone):
    return CalibratedLanguageModel(tiny_backbone, delta=1.0)


@pytest.fixture(scope="session")
def ett_data():
    """Small ETTm1 forecasting data: history 96, horizon 24."""
    series = load_dataset("ETTm1", length=700)
    return make_forecasting_data(series, history_length=96, horizon=24)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
