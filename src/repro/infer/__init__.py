"""``repro.infer`` — tape-free compiled forwards.

The paper's efficiency claim (Section IV-E) is that *only the
lightweight student* runs at inference.  This package takes that to its
conclusion: :class:`CompiledStudent` exports a fitted student into a
flat, pure-numpy forward — no autograd tensors, no graph bookkeeping,
one shape-polymorphic scratch plan serving every batch size up to a
high-water capacity, and distillation-only outputs (the last-layer
attention average) skipped unless requested — while staying **bitwise
identical** to the module forward.

It is the only serving engine: ``ForecastService`` (and therefore the
streaming, sharded and HTTP layers) builds one per resident model.
``StudentModel.predict`` stays as the parity oracle, and
``TimeKDForecaster.predict``/``evaluate`` and ``evaluate_student`` take
an ``engine`` selector from :data:`ENGINES` (``"module"`` |
``"compiled"``) so tests and the CLI can run either forward.

The frozen CLM is the other compiled forward.  Its output is only ever
stored (paper Section IV-B, "embeddings storage"), so
``CalibratedLanguageModel.forward`` encodes prompts through
:func:`encode_pooled`: the same emitters over cache-sized row blocks,
with the final layer's elementwise work cut to the pooled row.  It is
bitwise identical to pooling ``TransformerLM.forward``, which stays for
pretraining and as the parity oracle.
"""

from .engine import ENGINES, CompiledStudent, encode_pooled, resolve_engine

__all__ = ["ENGINES", "CompiledStudent", "encode_pooled", "resolve_engine"]
