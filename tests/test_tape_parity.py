"""A search for configurations where the compiled step leaves autograd.

Hypothesis draws a TimeKD configuration (every ``TimeKDConfig.ablation``
variant, the projection head shared or not, 1 or 2 layers, dropout 0 or
0.25) and a run of batch sizes mixing full and tail batches.  A compiled
trainer and an autograd trainer from one initialisation then take the
teacher warm-up and the joint or two-phase student phase side by side;
the loss and every parameter must have the same bytes after every step.
Inputs are random arrays of the step's shapes, so the CLM never runs.

The example count comes from the active profile
(``REPRO_HYPOTHESIS_PROFILE``, see ``conftest.py``), so the nightly
``big`` run explores it much further than tier-1 does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import TimeKDConfig
from repro.data import load_dataset, make_forecasting_data

from test_tape import Run, make_pair

VARIANTS = [None, "pi", "ca", "clm", "sca", "cd", "fd"]


@pytest.fixture(scope="module")
def small_data():
    series = load_dataset("ETTm1", length=240)
    return make_forecasting_data(series, history_length=16, horizon=4)


@st.composite
def cases(draw):
    variant = draw(st.sampled_from(VARIANTS))
    config = TimeKDConfig(
        history_length=16, horizon=4, d_model=8, num_heads=2,
        num_layers=draw(st.sampled_from([1, 2])), ffn_dim=16,
        dropout=draw(st.sampled_from([0.0, 0.25])),
        share_projection_head=draw(st.booleans()),
        seed=draw(st.integers(0, 3)))
    if variant is not None:
        config = config.ablation(variant)
    full = draw(st.integers(2, 5))
    tail = draw(st.integers(1, full - 1))
    sizes = st.lists(st.sampled_from([full, tail]), min_size=3, max_size=7)
    return (config, draw(st.sampled_from(["joint", "student"])),
            draw(sizes), draw(sizes), draw(st.integers(0, 2**16)))


def random_inputs(trainer, size, rng):
    config = trainer.config
    n = config.num_variables
    history = rng.normal(size=(size, config.history_length, n))
    future = rng.normal(size=(size, config.horizon, n))
    history, future = history.astype(np.float32), future.astype(np.float32)
    if config.use_clm:
        dim = trainer.clm.dim
        gt, hd = (rng.normal(size=(size, n, dim)).astype(np.float32)
                  for _ in range(2))
    else:
        gt, hd = trainer.teacher.embed_values(history, future)
    if not config.use_privileged_info:
        gt = None
    return gt, hd, history, future


def steps_match(pair, name, sizes, rng) -> None:
    runs = [Run.of_phase(trainer, name, compiled)
            for trainer, compiled in zip(pair, (True, False))]
    for index, size in enumerate(sizes):
        inputs = random_inputs(pair[0], size, rng)
        losses = [np.float64(run(inputs)).tobytes() for run in runs]
        assert losses[0] == losses[1], f"{name} loss differs at step {index}"
        assert runs[0].state() == runs[1].state(), \
            f"{name} parameters differ at step {index}"


@given(cases())
def test_compiled_steps_match_autograd(small_data, tiny_clm, case):
    config, second, warmup, sizes, seed = case
    pair = make_pair(config, small_data, tiny_clm)
    rng = np.random.default_rng(seed)
    steps_match(pair, "teacher", warmup, rng)
    steps_match(pair, second, sizes, rng)
