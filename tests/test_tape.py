"""The compiled training step replays autograd bit for bit.

``TimeKDTrainer`` runs every step through a ``CompiledStep``: the first
batch of each shape runs through autograd and records a tape, later
batches replay it.  Here two trainers start from one initialisation and
take the same batches side by side, one through the compiled step and
one through plain autograd; the loss and every parameter must have the
same bytes after every step.  Each hazard a tape recorded from the
autograd graph alone would get wrong has a test of its own.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TimeKDConfig
from repro.core.trainer import TimeKDTrainer
from repro.data import load_dataset, make_forecasting_data
from repro.nn import AdamW, CompiledStep, Tape, clip_grad_norm
from repro.nn.functional import smooth_l1_loss
from repro.nn.tensor import Tensor, _moments, no_grad

#: The fit-distill model: N=7, H=96, M=24, d_model 32, batch 16.
FIT_DISTILL = TimeKDConfig(
    history_length=96, horizon=24, d_model=32, num_heads=2, num_layers=1,
    ffn_dim=64, batch_size=16, prompt_value_stride=8)
VARIANTS = [None, "pi", "ca", "clm", "sca", "cd", "fd"]
#: Full batches, then a tail batch of 2: the first step binds the
#: gradients (its recording is dropped), the second records, the third
#: replays; the tail records its own tape, then replays it.
BATCHES = [16, 16, 16, 2, 16, 2]


def autograd(loss_fn):
    """The reference step: forward, backward, loss as a float."""
    def step(*inputs):
        loss = loss_fn(*inputs)
        loss.backward()
        return loss.item()
    return step


def phase(trainer: TimeKDTrainer, name: str):
    """``(parameters, loss function, modules to train)`` of a phase, as
    ``train_teacher``, ``train_student`` and ``train_joint`` set it up."""
    teacher, student = trainer.teacher, trainer.student
    if name == "teacher":
        return teacher.parameters(), trainer._reconstruction_loss, [teacher]
    if name == "student":
        teacher.eval()
        return student.parameters(), trainer._distillation_loss, [student]
    return (teacher.parameters() + student.parameters(), trainer._joint_loss,
            [teacher, student])


class Run:
    """One trainer stepping ``loss_fn`` over ``parameters`` with AdamW,
    compiled or through autograd."""

    def __init__(self, trainer: TimeKDTrainer, parameters, loss_fn,
                 compiled: bool, history: bool = True):
        self.trainer = trainer
        self.history = history
        config = trainer.config
        self.parameters = parameters
        self.optimizer = AdamW(parameters, lr=config.learning_rate,
                               weight_decay=config.weight_decay)
        self.step = CompiledStep(loss_fn) if compiled else autograd(loss_fn)

    @classmethod
    def of_phase(cls, trainer: TimeKDTrainer, name: str, compiled: bool):
        parameters, loss_fn, modules = phase(trainer, name)
        for module in modules:
            module.train()
        return cls(trainer, parameters, loss_fn, compiled,
                   history=name != "teacher")

    def __call__(self, inputs) -> float:
        gt, hd, history, target = inputs
        self.optimizer.zero_grad(set_to_none=False)
        loss = self.step(gt, hd, history if self.history else None, target)
        clip_grad_norm(self.optimizer, self.trainer.config.grad_clip)
        self.optimizer.step()
        return loss

    def state(self) -> list[bytes]:
        return [p.data.tobytes() for p in self.parameters]


def batch_inputs(trainer: TimeKDTrainer, indices) -> tuple:
    dataset = trainer.data.train
    indices = np.asarray(indices)
    history, future = dataset.batch(indices)
    gt, hd = trainer._teacher_inputs(dataset, indices, history, future,
                                     cache=True)
    return gt, hd, history.astype(np.float32), future.astype(np.float32)


def schedule(sizes, seed: int = 0, windows: int = 360):
    """Window indices for batches of ``sizes``, drawn without repeats."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(windows)
    out, start = [], 0
    for size in sizes:
        out.append(order[start:start + size])
        start += size
    return out


def side_by_side(pair, name, batches, between=None, runs=None):
    """Step both trainers of ``pair`` through ``batches`` of phase
    ``name`` (or the given ``runs``), comparing loss and parameter bytes
    after every step; ``between(index, runs)`` runs after each step.
    Returns the runs."""
    if runs is None:
        runs = [Run.of_phase(trainer, name, compiled)
                for trainer, compiled in zip(pair, (True, False))]
    for index, indices in enumerate(batches):
        inputs = batch_inputs(pair[0], indices)
        losses = [np.float64(run(inputs)).tobytes() for run in runs]
        assert losses[0] == losses[1], f"loss differs at step {index}"
        assert runs[0].state() == runs[1].state(), \
            f"parameters differ at step {index}"
        if between is not None:
            between(index, runs)
    return runs


def make_pair(config, data, clm):
    if not config.use_clm:
        clm = None
    return [TimeKDTrainer(config, data, clm=clm) for _ in range(2)]


# ----------------------------------------------------------------------
# every phase, every ablation variant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mode", ["joint", "two-phase"])
def test_steps_match_autograd_bitwise(ett_data, tiny_clm, variant, mode):
    config = FIT_DISTILL if variant is None else FIT_DISTILL.ablation(variant)
    pair = make_pair(config, ett_data, tiny_clm)
    side_by_side(pair, "teacher", schedule([16, 16, 16, 2], seed=1))
    second = "joint" if mode == "joint" else "student"
    runs = side_by_side(pair, second, schedule(BATCHES, seed=2))
    # Two shapes, one tape each.
    assert len(runs[0].step._tapes) == 2


def test_unshared_head_matches_autograd(ett_data, tiny_clm):
    config = FIT_DISTILL.with_updates(share_projection_head=False,
                                      num_layers=2)
    pair = make_pair(config, ett_data, tiny_clm)
    side_by_side(pair, "joint", schedule(BATCHES))


# ----------------------------------------------------------------------
# the hazards of recording the graph alone
# ----------------------------------------------------------------------
def test_revin_statistics_follow_each_batch(ett_data):
    """RevIN's mean and std are constants to autograd, computed with
    raw numpy; replayed as recorded they would be the first batch's."""
    pair = make_pair(FIT_DISTILL.ablation("clm"), ett_data, None)

    def forecast(trainer):
        def loss_fn(gt, hd, history, target):
            output = trainer.student(history)
            return smooth_l1_loss(output.prediction, Tensor(target))
        return loss_fn

    runs = [Run(trainer, trainer.student.parameters(), forecast(trainer),
                compiled) for trainer, compiled in zip(pair, (True, False))]
    side_by_side(pair, None, schedule([16] * 4), runs=runs)


def test_no_grad_teacher_forward_is_replayed(ett_data, tiny_clm):
    """The two-phase student step runs the teacher under no_grad: no
    graph, but its attention and embeddings are the distillation
    targets of every batch."""
    pair = make_pair(FIT_DISTILL, ett_data, tiny_clm)
    side_by_side(pair, "student", schedule([16, 16, 16, 16]))


def test_dropout_masks_are_drawn_every_replay(ett_data, tiny_clm):
    config = FIT_DISTILL.with_updates(dropout=0.25)
    pair = make_pair(config, ett_data, tiny_clm)

    def generators(index, runs):
        states = [[m._rng.bit_generator.state["state"]["state"]
                   for m in run.trainer.student.modules()
                   if hasattr(m, "_rng")] for run in runs]
        assert states[0] == states[1]

    side_by_side(pair, "joint", schedule([16, 16, 16, 16]),
                 between=generators)


def test_dropout_switched_off_records_again(ett_data, tiny_clm):
    config = FIT_DISTILL.with_updates(dropout=0.25)
    pair = make_pair(config, ett_data, tiny_clm)

    def evaluate_mode(index, runs):
        if index == 2:
            for run in runs:
                run.trainer.student.eval()

    side_by_side(pair, "joint", schedule([16] * 5), between=evaluate_mode)


def test_a_new_dropout_generator_records_again(ett_data, tiny_clm):
    """A tape draws its masks from the generator it recorded with; a
    module given a new one must not keep drawing from the old."""
    config = FIT_DISTILL.with_updates(dropout=0.25)
    pair = make_pair(config, ett_data, tiny_clm)

    def reseed(index, runs):
        if index == 2:
            for run in runs:
                for module in run.trainer.student.modules():
                    if hasattr(module, "_rng"):
                        module._rng = np.random.default_rng(11)

    side_by_side(pair, "joint", schedule([16] * 5), between=reseed)


def test_new_optimizer_rebinds_parameters(ett_data, tiny_clm):
    """``Optimizer.__init__`` moves every ``p.data`` into its own flat
    buffer; a tape holding the old arrays must record again."""
    pair = make_pair(FIT_DISTILL, ett_data, tiny_clm)
    replaced = []

    def tape(run):
        return next(iter(run.step._tapes.values()))

    def new_optimizer(index, runs):
        if index == 2:
            replaced.append(tape(runs[0]))
            for run in runs:
                trained = [p for p in run.parameters if p.requires_grad]
                before = [p.data for p in trained]
                run.optimizer = AdamW(run.parameters, lr=5e-4)
                assert all(p.data is not old
                           for p, old in zip(trained, before))
        if index == 3:
            # The gradients are still the ones the tape recorded, but
            # the parameters are not: the step recorded a new tape.
            assert tape(runs[0]) is not replaced[0]

    runs = side_by_side(pair, "joint", schedule([16] * 6),
                        between=new_optimizer)
    assert tape(runs[0]).valid()


def test_load_state_dict_rebinds_parameters(ett_data, tiny_clm):
    """``Module.load_state_dict`` replaces ``p.data``; the next step
    must read the loaded values, not the arrays the tape recorded."""
    pair = make_pair(FIT_DISTILL, ett_data, tiny_clm)
    saved = []

    def reload(index, runs):
        if index == 1:
            saved.extend(run.trainer.student.state_dict() for run in runs)
        if index == 3:
            for run, state in zip(runs, saved):
                run.trainer.student.load_state_dict(state)

    side_by_side(pair, "joint", schedule([16] * 6), between=reload)


def test_tail_batch_records_its_own_tape(ett_data, tiny_clm):
    pair = make_pair(FIT_DISTILL, ett_data, tiny_clm)
    runs = side_by_side(pair, "joint", schedule([16, 16, 2, 16, 2, 16, 2]))
    shapes = sorted(key[1][0][0] for key in runs[0].step._tapes)
    assert shapes == [2, 16]


def test_a_tail_batch_of_one_keeps_its_strides(ett_data):
    """Without the CLM the teacher's inputs are transposed views; at
    batch 1 numpy may give a copy another stride on the extent-1 axis,
    so the tape copies the input's strides exactly."""
    pair = make_pair(FIT_DISTILL.ablation("clm"), ett_data, None)
    side_by_side(pair, "joint", schedule([16, 16, 1, 16, 1]))


# ----------------------------------------------------------------------
# the step itself
# ----------------------------------------------------------------------
def test_replay_copies_inputs_and_leaves_callers_arrays_alone():
    w = Tensor(np.ones((3, 2), np.float32), requires_grad=True)
    w.grad = np.zeros_like(w.data)
    step = CompiledStep(lambda x: (Tensor(x).matmul(w) * 0.5).mean())
    first = np.arange(12, dtype=np.float32).reshape(4, 3)
    second = first[::-1].copy()
    kept = second.copy()
    for x in (first, second, second):
        w.grad.fill(0.0)
        step(x)
    np.testing.assert_array_equal(second, kept)
    assert len(step._tapes) == 1
    reference = Tensor(second).matmul(Tensor(w.data, requires_grad=True))
    (reference * 0.5).mean().backward()
    np.testing.assert_array_equal(w.grad, reference._parents[1].grad)
    with pytest.raises(ValueError, match="dense"):
        step(first[::2])


def test_a_step_binding_first_gradients_keeps_no_tape():
    """A parameter's first gradient is a new array, bound next by the
    optimizer: no replay could write it, so that step's recording is
    dropped and the step finishes through autograd."""
    w = Tensor(np.ones((3, 2), np.float32), requires_grad=True)
    step = CompiledStep(lambda x: (Tensor(x).matmul(w) * 0.5).mean())
    x = np.arange(12, dtype=np.float32).reshape(4, 3)
    losses = [step(x)]
    assert not step._tapes
    first = w.grad.copy()
    for _ in range(2):  # accumulates: records, then replays
        losses.append(step(x))
        assert len(step._tapes) == 1
    assert losses[0] == losses[1] == losses[2]
    np.testing.assert_array_equal(w.grad, first * 3)
    # Gradients dropped before every step: every step binds a first
    # gradient, so none is recorded and each runs through autograd.
    for _ in range(2):
        w.grad = None
        assert step(x) == losses[0]
        np.testing.assert_array_equal(w.grad, first)


def test_an_op_without_a_tape_form_refuses_to_record():
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    step = CompiledStep(lambda a: Tensor(a).exp().sum() * x.sum())
    with pytest.raises(NotImplementedError, match="'exp'"):
        step(np.ones(3, np.float32))


def test_tapes_pool_the_step_arrays(ett_data, tiny_clm):
    """The arrays a tape overwrites in full share one arena, far
    smaller than the recorded step's arrays."""
    pair = make_pair(FIT_DISTILL, ett_data, tiny_clm)
    runs = side_by_side(pair, "joint", schedule([16, 16, 16]))
    tape = next(iter(runs[0].step._tapes.values()))
    inputs = {id(buffer.base) for buffer in tape.inputs if buffer is not None}
    arenas = {id(arg.base): arg.base for op in tape.ops for arg in op.args
              if isinstance(arg, np.ndarray) and arg.base is not None
              and arg.base.dtype == np.uint8 and id(arg.base) not in inputs}
    assert len(arenas) == 1
    arena = next(iter(arenas.values()))
    assert arena.nbytes < 3_000_000
    assert isinstance(tape, Tape) and len(tape.ops) > 500


@pytest.mark.parametrize("shape,axis", [((16, 96, 7), 1), ((16, 7, 32), -1),
                                        ((2, 24, 7), 1), ((5, 3), 0)])
def test_moments_are_numpys_bits(shape, axis):
    """RevIN and LayerNorm take their statistics from ``_moments``:
    numpy's steps one call at a time while training or recording,
    numpy's ``mean`` and ``var`` under ``no_grad``.  The bits agree."""
    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 1e4):
        x = (rng.standard_normal(shape) * scale + scale).astype(np.float32)
        expected = [x.mean(axis, keepdims=True).tobytes(),
                    x.var(axis, keepdims=True).tobytes()]
        assert [m.tobytes() for m in _moments(x, axis)] == expected
        with no_grad():
            assert [m.tobytes() for m in _moments(x, axis)] == expected


# ----------------------------------------------------------------------
# whole fits
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def short_data():
    series = load_dataset("ETTm1", length=320)
    return make_forecasting_data(series, history_length=24, horizon=8)


def tiny_config(**updates) -> TimeKDConfig:
    return TimeKDConfig(
        history_length=24, horizon=8, d_model=16, num_heads=2, num_layers=1,
        ffn_dim=32, teacher_epochs=1, student_epochs=2, batch_size=16,
        prompt_value_stride=8, dropout=0.25, **updates)


def fitted(config, data, clm):
    trainer = TimeKDTrainer(config, data, clm=clm).fit()
    return (trainer.history,
            [value.tobytes() for value in trainer.student.state_dict().values()],
            trainer.evaluate(data.test)["mse"])


@pytest.mark.parametrize("mode", ["joint", "two-phase"])
def test_two_fits_in_one_process_are_bit_identical(short_data, tiny_clm,
                                                   mode):
    config = tiny_config(training_mode=mode)
    assert fitted(config, short_data, tiny_clm) == fitted(
        config, short_data, tiny_clm)


@pytest.mark.parametrize("mode", ["joint", "two-phase"])
def test_fit_matches_an_autograd_fit(short_data, tiny_clm, mode, monkeypatch):
    config = tiny_config(training_mode=mode)
    compiled = fitted(config, short_data, tiny_clm)
    monkeypatch.setattr(CompiledStep, "__call__",
                        lambda self, *inputs: autograd(self.loss_fn)(*inputs))
    assert fitted(config, short_data, tiny_clm) == compiled
