"""Two-phase TimeKD training (paper Algorithms 1 and 2).

Phase A trains the cross-modality teacher on the reconstruction task;
Phase B distills it into the student while optimizing the forecasting
loss.  The frozen CLM's prompt embeddings are computed once per window
and replayed from the :class:`EmbeddingStore` across epochs.

Every step of every phase runs through one
:class:`~repro.nn.tape.CompiledStep` per phase: the first batch of each
shape runs through autograd and records a tape, later batches replay it
bitwise (see :mod:`repro.nn.tape`).  The tapes are recorded inside
:meth:`TimeKDTrainer.fit` and dropped when their phase returns.
"""

from __future__ import annotations

import os
import re
import zipfile

import numpy as np

from ..data.prompts import PromptFactory
from ..data.windows import ForecastingData, WindowDataset
from ..llm import CalibratedLanguageModel, Vocabulary, get_pretrained
from ..llm.tokenizer import TokenizedPrompt
from ..nn import AdamW, CompiledStep, clip_grad_norm, no_grad
from ..nn import init as nn_init
from ..nn.functional import mae_loss, mse_loss, smooth_l1_loss
from ..nn.tensor import Tensor
from .config import TimeKDConfig
from .distill import pkd_loss
from .store import EmbeddingStore, embedding_fingerprint, weights_digest
from .student import StudentModel, evaluate_student
from .teacher import CrossModalityTeacher

__all__ = ["TimeKDTrainer"]


class TimeKDTrainer:
    """Train a TimeKD teacher/student pair on prepared forecasting data.

    Parameters
    ----------
    config:
        Full TimeKD configuration (shapes, switches, optimization).
    data:
        Output of :func:`repro.data.make_forecasting_data`.
    clm:
        Optionally inject a prebuilt frozen CLM (shared across
        experiments to amortize pretraining); built on demand otherwise.
    """

    def __init__(self, config: TimeKDConfig, data: ForecastingData,
                 clm: CalibratedLanguageModel | None = None):
        if config.num_variables != data.num_variables:
            config = config.with_updates(num_variables=data.num_variables)
        if config.frequency_minutes != data.frequency_minutes:
            config = config.with_updates(frequency_minutes=data.frequency_minutes)
        self.config = config
        self.data = data
        nn_init.seed_everything(config.seed)

        self.vocab = Vocabulary()
        if config.use_clm:
            if clm is None:
                backbone = get_pretrained(
                    config.llm_name, vocab=self.vocab,
                    steps=config.llm_pretrain_steps)
                clm = CalibratedLanguageModel(
                    backbone, delta=config.calibration_delta)
            else:
                clm.delta = config.calibration_delta
            self.clm = clm
        else:
            self.clm = None

        self.prompt_factory = PromptFactory(
            vocab=self.vocab,
            frequency_minutes=data.frequency_minutes,
            value_stride=config.prompt_value_stride,
        )
        self.teacher = CrossModalityTeacher(config, clm=self.clm)
        self.student = StudentModel(config)
        if config.share_projection_head:
            # Figure 3 "Shared": one Linear(D -> M) decodes both the
            # teacher's privileged embeddings and the student's features.
            self.student.head = self.teacher.recon_head
        self.store = EmbeddingStore(capacity=len(data.train))
        self.history: dict[str, list[float]] = {
            "teacher_loss": [], "student_loss": [], "val_mse": []}
        self._best_student_state: dict | None = None

    # ------------------------------------------------------------------
    # prompt embedding with storage
    # ------------------------------------------------------------------
    def _flatten_prompt(self, prompts: list[TokenizedPrompt]) -> TokenizedPrompt:
        return TokenizedPrompt(
            np.concatenate([p.token_ids for p in prompts], axis=0),
            np.concatenate([p.modality for p in prompts], axis=0),
        )

    def _compute_clm_embeddings(
        self, dataset: WindowDataset, indices: list[int],
        with_privileged: bool,
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """CLM last-token embeddings for the given window indices."""
        gt_prompts, hd_prompts = [], []
        for index in indices:
            history, future = dataset[index]
            hd_prompts.append(
                self.prompt_factory.historical(history, self.config.horizon))
            if with_privileged:
                gt_prompts.append(
                    self.prompt_factory.ground_truth(history, future))
        num_vars = self.config.num_variables
        hd_flat = self._flatten_prompt(hd_prompts)
        gt_flat = self._flatten_prompt(gt_prompts) if gt_prompts else None
        gt, hd = self.teacher.encode_prompts(gt_flat, hd_flat, num_vars)
        return gt, hd

    def _teacher_inputs(
        self, dataset: WindowDataset, indices: np.ndarray,
        history: np.ndarray, future: np.ndarray, cache: bool,
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Embeddings feeding the teacher, via the store when possible."""
        config = self.config
        if not config.use_clm:
            gt, hd = self.teacher.embed_values(history, future)
            return (gt if config.use_privileged_info else None), hd
        if cache:
            return self.store.get_batch(
                indices,
                lambda missing: self._compute_clm_embeddings(
                    dataset, missing, config.use_privileged_info),
            )
        return self._compute_clm_embeddings(
            dataset, [int(i) for i in indices], config.use_privileged_info)

    # ------------------------------------------------------------------
    # embedding precompute + disk cache (paper "Embeddings Storage")
    # ------------------------------------------------------------------
    def _should_precompute(self) -> bool:
        if not self.config.use_clm:
            return False
        if self.config.precompute_embeddings is None:
            # Auto: with capped epochs only a small shuffled subset of
            # windows is ever visited, so lazy filling is cheaper.
            return self.config.max_batches_per_epoch is None
        return bool(self.config.precompute_embeddings)

    def embedding_fingerprint(self) -> str:
        """Digest of everything the stored train embeddings depend on."""
        config = self.config
        return embedding_fingerprint(
            dataset=self.data.name,
            split="train",
            num_windows=len(self.data.train),
            history_length=config.history_length,
            horizon=config.horizon,
            num_variables=config.num_variables,
            frequency_minutes=config.frequency_minutes,
            prompt_value_stride=config.prompt_value_stride,
            llm_name=config.llm_name,
            llm_pretrain_steps=config.llm_pretrain_steps,
            llm_weights=weights_digest(self.clm.backbone),
            calibration_delta=config.calibration_delta,
            pooling=self.clm.pooling,
            use_privileged_info=config.use_privileged_info,
        )

    def _embedding_cache_path(self) -> str | None:
        """Cache file for the current store, or None when disabled.

        Raises a clear :class:`RuntimeError` when caching is configured
        but the store has no fingerprint yet (i.e.
        :meth:`prepare_embeddings` has not run) — the fingerprint names
        the file, so there is nothing meaningful to read or write.
        """
        directory = self.config.embedding_cache_dir
        if not directory or not self.config.use_clm:
            return None
        if self.store.fingerprint is None:
            raise RuntimeError(
                "embedding store has no fingerprint yet; call "
                "prepare_embeddings() (or fit()) before touching the "
                "disk cache")
        dataset = re.sub(r"[^A-Za-z0-9_.-]+", "_", self.data.name) or "data"
        return os.path.join(
            directory, f"{dataset}-train-{self.store.fingerprint}.npz")

    def prepare_embeddings(self) -> None:
        """Make the store ready for training epochs.

        Loads a fingerprint-matching ``.npz`` cache when one exists
        (stale fingerprints are recomputed, not trusted), then — in
        precompute mode — encodes every remaining train window in large
        CLM chunks so the training epochs are pure gather + forward.
        """
        if not self.config.use_clm:
            return
        self.store.fingerprint = self.embedding_fingerprint()
        path = self._embedding_cache_path()
        if path and os.path.exists(path):
            try:
                self.store = EmbeddingStore.load(
                    path, expected_fingerprint=self.store.fingerprint)
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                # The cache is best-effort: a stale fingerprint
                # (StoreFingerprintMismatch is a ValueError) or a
                # corrupt/truncated file means re-encode, not crash.
                pass
        if self._should_precompute():
            dataset = self.data.train
            self.store.precompute(
                dataset,
                lambda chunk: self._compute_clm_embeddings(
                    dataset, chunk, self.config.use_privileged_info),
                chunk_size=self.config.precompute_chunk_size,
            )

    def save_embeddings(self) -> str | None:
        """Persist whatever the store holds to the configured cache dir.

        Returns the written path, or None when nothing was written
        (caching disabled, store empty/clean).  A store that was loaded
        from disk and gained no new windows is not rewritten.  Calling
        this before :meth:`prepare_embeddings` with caching configured
        raises a clear :class:`RuntimeError` instead of tripping an
        assert.
        """
        path = self._embedding_cache_path()
        if path and self.store.dirty and len(self.store) > 0:
            self.store.save(path)
            return path
        return None

    # ------------------------------------------------------------------
    # the objectives one step minimizes: ``(gt, hd, history, target)``
    # arrays in, scalar loss Tensor out
    # ------------------------------------------------------------------
    def _reconstruction_loss(self, gt, hd, history, target) -> Tensor:
        """Algorithm 1: the teacher reconstructs the ground truth."""
        output = self.teacher(gt, hd)
        loss = smooth_l1_loss(output.reconstruction, Tensor(target))
        return loss * self.config.lambda_recon

    def _distillation_loss(self, gt, hd, history, target) -> Tensor:
        """Algorithm 2 plus forecasting, from a frozen teacher."""
        config = self.config
        with no_grad():
            teacher_out = self.teacher(gt, hd)
        output = self.student(history)
        fcst = smooth_l1_loss(output.prediction, Tensor(target))
        loss = fcst * config.lambda_fcst
        distill = pkd_loss(
            config,
            teacher_out.attention.data,
            teacher_out.embeddings.data,
            output.attention,
            output.features,
        )
        return loss + distill * config.lambda_pkd

    def _joint_loss(self, gt, hd, history, target) -> Tensor:
        """Eq. 30: reconstruction, forecasting and PKD together."""
        config = self.config
        teacher_out = self.teacher(gt, hd)
        student_out = self.student(history)
        target = Tensor(target)
        return (
            smooth_l1_loss(teacher_out.reconstruction, target)
            * config.lambda_recon
            + smooth_l1_loss(student_out.prediction, target)
            * config.lambda_fcst
            + pkd_loss(
                config,
                teacher_out.attention,
                teacher_out.embeddings,
                student_out.attention,
                student_out.features,
                detach_teacher=False,
            ) * config.lambda_pkd
        )

    # ------------------------------------------------------------------
    # one epoch of compiled steps
    # ------------------------------------------------------------------
    def _epoch(self, step: CompiledStep, optimizer, seed: int,
               with_history: bool = True) -> float:
        """Run ``step`` over one shuffled epoch; returns the mean loss.

        Every batch zeroes the gradients, runs the step's forward and
        backward (through autograd on the first batch of each shape,
        from that batch's tape after), then clips and updates."""
        config = self.config
        dataset = self.data.train
        loader = _indexed_loader(dataset, config, seed=seed)
        epoch_loss, batches = 0.0, 0
        for indices, history, future in loader:
            gt, hd = self._teacher_inputs(
                dataset, indices, history, future, cache=True)
            # Buffer-reusing zeroing: grads accumulate into the
            # same allocations every step (optim.py's contract).
            optimizer.zero_grad(set_to_none=False)
            epoch_loss += step(
                gt, hd, history.astype(np.float32) if with_history else None,
                future.astype(np.float32))
            clip_grad_norm(optimizer, config.grad_clip)
            optimizer.step()
            batches += 1
        return epoch_loss / max(batches, 1)

    def _distill_epochs(self, step: CompiledStep, optimizer,
                        modules) -> list[float]:
        """``student_epochs`` epochs of ``step`` with ``modules`` in
        training mode, validating after each; keeps the student with the
        best validation MSE."""
        config = self.config
        losses = []
        best_val = float("inf")
        for epoch in range(config.student_epochs):
            for module in modules:
                module.train()
            losses.append(self._epoch(step, optimizer,
                                      config.seed + 100 + epoch))
            self.history["student_loss"].append(losses[-1])

            val_mse = self.evaluate(self.data.val)["mse"]
            self.history["val_mse"].append(val_mse)
            if val_mse < best_val:
                best_val = val_mse
                self._best_student_state = self.student.state_dict()
        if self._best_student_state is not None:
            self.student.load_state_dict(self._best_student_state)
        return losses

    # ------------------------------------------------------------------
    # Phase A — Algorithm 1
    # ------------------------------------------------------------------
    def train_teacher(self) -> list[float]:
        """Train the teacher on reconstruction; returns per-epoch losses."""
        config = self.config
        optimizer = AdamW(self.teacher.parameters(), lr=config.learning_rate,
                          weight_decay=config.weight_decay)
        step = CompiledStep(self._reconstruction_loss)
        losses = []
        for epoch in range(config.teacher_epochs):
            losses.append(self._epoch(step, optimizer, config.seed + epoch,
                                      with_history=False))
            self.history["teacher_loss"].append(losses[-1])
        return losses

    # ------------------------------------------------------------------
    # Phase B — Algorithm 2 + forecasting loss
    # ------------------------------------------------------------------
    def train_student(self) -> list[float]:
        """Distill the teacher into the student; returns epoch losses."""
        config = self.config
        optimizer = AdamW(self.student.parameters(), lr=config.learning_rate,
                          weight_decay=config.weight_decay)
        self.teacher.eval()
        return self._distill_epochs(CompiledStep(self._distillation_loss),
                                    optimizer, [self.student])

    # ------------------------------------------------------------------
    # joint objective — paper Eq. 30
    # ------------------------------------------------------------------
    def train_joint(self) -> list[float]:
        """Optimize ``λr·L_recon + λp·L_PKD + λf·L_fcst`` in one loop.

        Teacher and student update together: PKD gradients flow into
        both, so the teacher's privileged features settle on the
        *predictable* component of the future — the LUPI mechanism the
        paper builds on.  A short teacher warm-up (``teacher_epochs``)
        first anchors the features to the reconstruction task.
        """
        config = self.config
        if config.teacher_epochs > 0:
            self.train_teacher()
        parameters = self.teacher.parameters() + self.student.parameters()
        optimizer = AdamW(parameters, lr=config.learning_rate,
                          weight_decay=config.weight_decay)
        return self._distill_epochs(CompiledStep(self._joint_loss), optimizer,
                                    [self.teacher, self.student])

    def fit(self) -> "TimeKDTrainer":
        """Train according to ``config.training_mode``.

        The frozen CLM's embeddings are prepared first (cache load and,
        in precompute mode, a one-pass encode of the train split), so
        the epochs below never touch the CLM once the store is warm.
        """
        if self.config.training_mode not in ("joint", "two-phase"):
            raise ValueError(
                f"unknown training_mode {self.config.training_mode!r}")
        self.prepare_embeddings()
        if self.config.training_mode == "joint":
            self.train_joint()
        else:
            self.train_teacher()
            self.train_student()
        self.save_embeddings()
        return self

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, dataset: WindowDataset, batch_size: int = 32) -> dict:
        """MSE/MAE of the student on every window of ``dataset``.

        Delegates to :func:`repro.core.student.evaluate_student`, the
        shared test protocol.
        """
        return evaluate_student(self.student, dataset,
                                batch_size=batch_size)


def _indexed_loader(dataset: WindowDataset, config: TimeKDConfig, seed: int):
    """Yield ``(indices, history, future)`` batches for one epoch."""
    rng = np.random.default_rng(seed)
    indices = np.arange(len(dataset))
    rng.shuffle(indices)
    max_batches = config.max_batches_per_epoch
    count = 0
    for start in range(0, len(indices), config.batch_size):
        if max_batches is not None and count >= max_batches:
            return
        batch = indices[start:start + config.batch_size]
        history, future = dataset.batch(batch)
        yield batch, history, future
        count += 1
