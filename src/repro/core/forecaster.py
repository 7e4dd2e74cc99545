"""Public TimeKD API: fit / predict / evaluate / inspect / save.

:class:`TimeKDForecaster` is the entry point downstream users interact
with (see ``examples/quickstart.py``)::

    from repro import TimeKDConfig, TimeKDForecaster
    from repro.data import load_dataset, make_forecasting_data

    data = make_forecasting_data(load_dataset("ETTm1"), horizon=24)
    model = TimeKDForecaster(TimeKDConfig(horizon=24))
    model.fit(data)
    forecast = model.predict(history_window)

Deployment round-trip: :meth:`TimeKDForecaster.save` writes a
self-contained artifact bundle (weights + config + scaler + provenance)
and :meth:`TimeKDForecaster.from_artifact` restores a predict-ready
forecaster from it without constructing a trainer, a CLM or a dataset.
"""

from __future__ import annotations

import numpy as np

from ..data.scaler import StandardScaler
from ..data.windows import ForecastingData, WindowDataset
from ..llm import CalibratedLanguageModel
from ..nn import no_grad
from .config import TimeKDConfig
from .student import StudentModel, evaluate_student
from .trainer import TimeKDTrainer

__all__ = ["TimeKDForecaster"]


class TimeKDForecaster:
    """High-level TimeKD forecaster.

    Only the student runs at inference time; the teacher and the frozen
    CLM exist during :meth:`fit` and can be dropped afterwards
    (:meth:`compact`), mirroring the paper's deployment story.  A
    forecaster restored with :meth:`from_artifact` never has them at
    all.
    """

    def __init__(self, config: TimeKDConfig | None = None,
                 clm: CalibratedLanguageModel | None = None):
        self.config = config or TimeKDConfig()
        self._injected_clm = clm
        self._clm_released = False
        self.trainer: TimeKDTrainer | None = None
        self._student: StudentModel | None = None
        self._compiled = None
        self._scaler: StandardScaler | None = None
        #: Provenance of the bundle this forecaster was restored from
        #: (empty for fitted forecasters until :meth:`save`).
        self.artifact_metadata: dict = {}

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, data: ForecastingData) -> "TimeKDForecaster":
        """Train teacher and student on prepared forecasting data."""
        if self._clm_released:
            raise RuntimeError(
                "fit() after compact(): the injected CLM was released; "
                "construct a new forecaster (or inject a CLM again) to "
                "retrain")
        self.trainer = TimeKDTrainer(self.config, data, clm=self._injected_clm)
        self.config = self.trainer.config  # may absorb data shape updates
        self.trainer.fit()
        self._student = self.trainer.student
        self._compiled = None  # stale: compiled against the old weights
        self._scaler = data.scaler
        return self

    @property
    def student(self) -> StudentModel:
        self._check_fitted()
        return self._student

    @property
    def scaler(self) -> StandardScaler | None:
        """Fitted dataset scaler (from :meth:`fit` or the loaded bundle)."""
        return self._scaler

    @property
    def teacher(self):
        self._check_trainer()
        return self.trainer.teacher

    @property
    def history(self) -> dict[str, list[float]]:
        self._check_trainer()
        return self.trainer.history

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def compile(self, force: bool = False):
        """Tape-free :class:`repro.infer.CompiledStudent` of the student.

        Compiled once and cached (``fit()`` invalidates the cache).  The
        engine snapshots derived constants at compile time, so after
        mutating student weights — in place or via ``load_state_dict``
        — recompile with ``force=True`` or the cached engine serves
        stale forecasts.
        """
        from ..infer import CompiledStudent

        self._check_fitted()
        if self._compiled is None or force:
            self._student.eval()
            self._compiled = CompiledStudent(self._student)
        return self._compiled

    def predict(self, history: np.ndarray, raw_values: bool = False,
                engine: str = "module") -> np.ndarray:
        """Forecast ``(B, M, N)`` (or ``(M, N)``) from history windows.

        With ``raw_values=True`` the input is interpreted in original
        data units: the fitted scaler z-scales it before the student
        forward and inverse-transforms the forecast back, so callers
        never touch the training-time normalization.

        ``engine="compiled"`` routes through the cached
        :meth:`compile` engine — bitwise identical to the module
        forward, several times faster per window.
        """
        from ..infer import resolve_engine

        self._check_fitted()
        engine = resolve_engine(engine)
        history = np.asarray(history, dtype=np.float32)
        squeeze = history.ndim == 2
        if raw_values:
            if self._scaler is None:
                raise RuntimeError(
                    "raw_values=True needs a fitted scaler; this "
                    "forecaster has none (bundle saved without one)")
            history = self._scaler.transform(history).astype(np.float32)
        if engine == "compiled":
            prediction = self.compile().predict(history)
        else:
            prediction = self._student.predict(history)
        if raw_values:
            prediction = self._scaler.inverse_transform(prediction)
        return prediction[0] if squeeze else prediction

    def evaluate(self, dataset: WindowDataset, batch_size: int = 32,
                 engine: str = "module") -> dict:
        """Student MSE/MAE over a window dataset (test protocol).

        Works for fitted and artifact-restored forecasters alike — only
        the student runs.  ``engine="compiled"`` evaluates through the
        cached compiled engine (identical metrics, faster).
        """
        self._check_fitted()
        if engine == "compiled":
            engine = self.compile()
        return evaluate_student(self._student, dataset,
                                batch_size=batch_size, engine=engine)

    def evaluate_splits(self) -> dict[str, dict]:
        """Metrics on the fitted data's val and test splits."""
        self._check_trainer()
        return {
            "val": self.evaluate(self.trainer.data.val),
            "test": self.evaluate(self.trainer.data.test),
        }

    # ------------------------------------------------------------------
    # interpretability (Figures 8 and 9)
    # ------------------------------------------------------------------
    def attention_maps(self, history: np.ndarray,
                       future: np.ndarray) -> dict[str, np.ndarray]:
        """Head-averaged attention of both Transformers (Figure 8).

        Returns ``{"privileged": A_PE, "student": A_TSE}`` as
        ``(N, N)`` arrays averaged over the batch.
        """
        teacher_out, student_out = self._run_both(history, future)
        return {
            "privileged": teacher_out.attention.data.mean(axis=0),
            "student": student_out.attention.data.mean(axis=0),
        }

    def feature_maps(self, history: np.ndarray,
                     future: np.ndarray) -> dict[str, np.ndarray]:
        """Self-relation feature matrices ``F F^T`` (Figure 9)."""
        teacher_out, student_out = self._run_both(history, future)
        teacher_features = teacher_out.embeddings.data.mean(axis=0)
        student_features = student_out.features.data.mean(axis=0)
        return {
            "privileged": teacher_features @ teacher_features.T,
            "student": student_features @ student_features.T,
        }

    def _run_both(self, history: np.ndarray, future: np.ndarray):
        self._check_trainer()
        trainer = self.trainer
        history = np.asarray(history, dtype=np.float32)
        if history.ndim == 2:
            history = history[None]
        future = np.asarray(future, dtype=np.float32)
        if future.ndim == 2:
            future = future[None]
        # Training may leave either model in train() mode (dropout
        # active); these are analysis forwards and must be deterministic.
        teacher_was_training = trainer.teacher.training
        student_was_training = trainer.student.training
        trainer.teacher.eval()
        trainer.student.eval()
        try:
            with no_grad():
                if self.config.use_clm:
                    dataset = _SingleWindowDataset(history, future)
                    gt, hd = trainer._compute_clm_embeddings(
                        dataset, list(range(len(history))),
                        self.config.use_privileged_info)
                else:
                    gt, hd = trainer.teacher.embed_values(history, future)
                    if not self.config.use_privileged_info:
                        gt = None
                teacher_out = trainer.teacher(gt, hd)
                student_out = trainer.student(history)
        finally:
            trainer.teacher.train(teacher_was_training)
            trainer.student.train(student_was_training)
        return teacher_out, student_out

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str, metadata: dict | None = None) -> None:
        """Write a self-contained deployable artifact bundle.

        The bundle holds the student ``state_dict``, the resolved
        config, the fitted scaler statistics, and provenance (dataset
        name, embedding fingerprint, plus anything in ``metadata``) —
        everything :meth:`from_artifact` needs.
        """
        from ..serve.artifact import save_student_artifact

        self._check_fitted()
        provenance: dict = {}
        if self.trainer is not None:
            provenance["dataset"] = self.trainer.data.name
            if self.trainer.store.fingerprint is not None:
                provenance["embedding_fingerprint"] = \
                    self.trainer.store.fingerprint
        else:
            provenance.update(self.artifact_metadata)
        provenance.update(metadata or {})
        save_student_artifact(path, self._student, self.config,
                              scaler=self._scaler, metadata=provenance)
        self.artifact_metadata = provenance

    @classmethod
    def from_artifact(cls, path: str) -> "TimeKDForecaster":
        """Restore a predict-ready forecaster from a saved bundle.

        This is the deployment path: no trainer is constructed, no CLM
        is pretrained or loaded, and no :class:`ForecastingData` is
        required — the bundle carries the config and scaler itself.
        Raises :class:`repro.serve.ArtifactError` for corrupt or
        mismatched bundles.
        """
        from ..serve.artifact import load_student_artifact

        artifact = load_student_artifact(path)
        forecaster = cls(artifact.config)
        forecaster._student = artifact.build_student()
        forecaster._scaler = artifact.scaler
        forecaster.artifact_metadata = dict(artifact.metadata)
        return forecaster

    # Alias matching the serve-layer vocabulary.
    load_student = from_artifact

    def compact(self) -> None:
        """Drop teacher/CLM references — keep only the student.

        Clears every CLM handle, including the one injected at
        construction, so the frozen language model becomes unreachable
        and its memory is actually reclaimed.
        """
        self._check_fitted()
        if self.trainer is not None:
            self.trainer.teacher = None
            self.trainer.clm = None
            self.trainer.store.clear()
        self._clm_released = self._injected_clm is not None
        self._injected_clm = None

    def _check_fitted(self) -> None:
        if self._student is None:
            raise RuntimeError(
                "forecaster used before fit() / from_artifact()")

    def _check_trainer(self) -> None:
        self._check_fitted()
        if self.trainer is None:
            raise RuntimeError(
                "this forecaster was restored from an artifact bundle; "
                "teacher/trainer APIs (history, attention_maps, "
                "feature_maps, evaluate_splits) need a fit() run")


class _SingleWindowDataset:
    """Adapter exposing (history, future) pairs like a WindowDataset."""

    def __init__(self, history: np.ndarray, future: np.ndarray):
        self._history = history
        self._future = future

    def __len__(self) -> int:
        return len(self._history)

    def __getitem__(self, index: int):
        return self._history[index], self._future[index]
