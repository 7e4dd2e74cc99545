"""TimeKD reproduction — calibrated language models with privileged
knowledge distillation for multivariate time series forecasting.

Reproduces Liu et al., *Efficient Multivariate Time Series Forecasting
via Calibrated Language Models with Privileged Knowledge Distillation*
(ICDE 2025) from scratch on a numpy substrate.  Top-level re-exports
cover the quickstart path::

    from repro import TimeKDConfig, TimeKDForecaster
    from repro.data import load_dataset, make_forecasting_data

Sub-packages: :mod:`repro.nn` (autograd + layers), :mod:`repro.llm`
(backbones, tokenizer, calibrated LM), :mod:`repro.data` (datasets,
windows, prompts), :mod:`repro.core` (TimeKD), :mod:`repro.serve`
(deployable student artifacts + batched serving), :mod:`repro.stream`
(online ingestion + cadence-driven re-forecasting), :mod:`repro.baselines`,
:mod:`repro.eval`, :mod:`repro.experiments`.
"""

from .core import TimeKDConfig, TimeKDForecaster, TimeKDTrainer

__version__ = "1.0.0"

__all__ = ["TimeKDConfig", "TimeKDForecaster", "TimeKDTrainer", "__version__"]
