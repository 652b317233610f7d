"""BinaryCoP — the end-to-end face-mask wear/positioning classifier.

The high-level API a downstream user touches: pick a prototype, train it
on the (synthetic) MaskedFace-Net pipeline, evaluate, explain with
Grad-CAM, and deploy onto the FINN-style accelerator simulator with the
paper's Table I dimensioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.architectures import (
    ARCHITECTURES,
    GRADCAM_LAYER,
    build_architecture,
    table1_folding,
)
from repro.core.evaluation import ConfusionMatrix, confusion_matrix
from repro.core.gradcam import GradCAM, GradCAMResult
from repro.data.dataset import Dataset, DatasetSplits
from repro.hw.compiler import FinnAccelerator, FoldingConfig, compile_model
from functools import partial

from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam
from repro.nn.schedules import cosine_decay
from repro.nn.sequential import Sequential
from repro.nn.trainer import EarlyStopping, History, Trainer, predict_classes
from repro.utils.rng import RngLike, derive

__all__ = ["TrainingBudget", "BinaryCoP"]


@dataclass(frozen=True)
class TrainingBudget:
    """How much compute to spend training (§IV-A trains up to 300 epochs).

    The paper's budget (``paper()``) is reachable on this pure-numpy
    substrate but slow on one core; ``laptop()`` is the default used by
    tests and benchmarks and reaches within a few points of saturation.
    """

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 3e-3
    early_stopping_patience: Optional[int] = 8
    label_smoothing: float = 0.05
    #: Softmax temperature on the raw binary logits. A BNN's final layer
    #: emits integer logits with magnitude up to its fan-in (±128 for
    #: n-CNV, ±512 for CNV), which saturates softmax and kills gradients;
    #: the loss therefore sees ``logits * logit_scale / sqrt(fan_in)``.
    #: A constant positive scale never changes the argmax, so the
    #: deployed (hardware) semantics are untouched.
    logit_scale: float = 2.0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )

    @staticmethod
    def paper() -> "TrainingBudget":
        """§IV-A: up to 300 epochs, early stop when learning saturates."""
        return TrainingBudget(epochs=300, early_stopping_patience=20)

    @staticmethod
    def laptop() -> "TrainingBudget":
        """Single-core-friendly budget used throughout tests/benchmarks."""
        return TrainingBudget(epochs=30, early_stopping_patience=10)

    @staticmethod
    def smoke() -> "TrainingBudget":
        """A few epochs — just enough to exercise every code path."""
        return TrainingBudget(epochs=3, early_stopping_patience=None)


class BinaryCoP:
    """A (binary) face-mask wear classifier with training and deployment.

    Parameters
    ----------
    architecture:
        ``"cnv"`` | ``"n-cnv"`` | ``"u-cnv"`` | ``"fp32-cnv"``.
    rng:
        Seed controlling weight initialisation (and training shuffles via
        derived streams).
    """

    def __init__(self, architecture: str = "cnv", rng: RngLike = 0) -> None:
        if architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {architecture!r}; "
                f"known: {sorted(ARCHITECTURES)}"
            )
        self.architecture = architecture
        self.model: Sequential = build_architecture(architecture, rng=rng)
        self._rng_seed = rng
        self.history: Optional[History] = None

    @property
    def is_binary(self) -> bool:
        """Whether the prototype is a BNN (deployable to the accelerator)."""
        return self.architecture != "fp32-cnv"

    # -- training ----------------------------------------------------------
    def fit(
        self,
        splits: DatasetSplits,
        budget: Optional[TrainingBudget] = None,
        verbose: bool = False,
    ) -> History:
        """Train on ``splits.train``, early-stopping on ``splits.val``."""
        budget = budget or TrainingBudget.laptop()
        optimizer = Adam(self.model.parameters(), lr=budget.learning_rate)
        final_layer = self.model.layers[-1]
        fan_in = getattr(final_layer, "in_features", 128)
        temperature = budget.logit_scale / float(np.sqrt(fan_in))

        def loss(logits, targets):
            value, grad = cross_entropy(
                logits * temperature,
                targets,
                label_smoothing=budget.label_smoothing,
            )
            return value, grad * temperature

        trainer = Trainer(
            self.model,
            optimizer,
            loss=loss,
            schedule=cosine_decay(budget.epochs, floor=0.05),
        )
        stopper = (
            EarlyStopping(patience=budget.early_stopping_patience)
            if budget.early_stopping_patience
            else None
        )
        self.history = trainer.fit(
            splits.train.images,
            splits.train.labels,
            epochs=budget.epochs,
            batch_size=budget.batch_size,
            x_val=splits.val.images if len(splits.val) else None,
            y_val=splits.val.labels if len(splits.val) else None,
            rng=derive(self._rng_seed, "training-shuffle"),
            early_stopping=stopper,
            verbose=verbose,
        )
        return self.history

    # -- inference -----------------------------------------------------------
    def predict(self, images: np.ndarray, chunk_size: int = 256) -> np.ndarray:
        """Argmax class predictions of the float model (evaluation path).

        This is what Table I accuracy and Grad-CAM describe; the
        deployed integer datapath is ``self.deploy().predict(...)``.
        Arbitrary-size inputs are evaluated in chunks of ``chunk_size``
        images so a huge batch cannot blow up memory in one forward pass.
        """
        if images.ndim == 3:
            images = images[None]
        return predict_classes(self.model, images, chunk_size)

    def evaluate(self, dataset: Dataset) -> Dict[str, float]:
        """Accuracy + per-class recall on a dataset split."""
        cm = self.confusion(dataset)
        out = {"accuracy": cm.overall_accuracy()}
        for name, recall in cm.per_class_recall().items():
            out[f"recall_{name}"] = recall
        return out

    def confusion(self, dataset: Dataset) -> ConfusionMatrix:
        """Confusion matrix on a dataset split (Fig. 2)."""
        preds = self.predict(dataset.images)
        return confusion_matrix(preds, dataset.labels)

    # -- interpretability --------------------------------------------------
    def gradcam(
        self, image: np.ndarray, target_class: Optional[int] = None
    ) -> GradCAMResult:
        """Grad-CAM heat map at the paper's tap layer (conv2_2)."""
        return GradCAM(self.model, layer=GRADCAM_LAYER).compute(image, target_class)

    # -- deployment -----------------------------------------------------------
    def deploy(
        self, folding: Optional[FoldingConfig] = None, name: Optional[str] = None
    ) -> FinnAccelerator:
        """Compile the trained BNN into the accelerator simulator.

        Defaults to the paper's Table I dimensioning for the prototype.
        """
        if not self.is_binary:
            raise ValueError(
                "the FP32 baseline is not deployable on the binary accelerator"
            )
        folding = folding or table1_folding(self.architecture)
        self.model.eval()
        return compile_model(
            self.model, folding, name=name or f"binarycop-{self.architecture}"
        )

    # -- persistence -----------------------------------------------------------
    def save(self, path) -> Path:
        """Checkpoint weights + running stats + architecture metadata."""
        return self.model.save(path, metadata={"architecture": self.architecture})

    @classmethod
    def load(cls, path) -> "BinaryCoP":
        """Restore a checkpointed classifier (architecture read from file)."""
        from repro.utils.serialization import load_arrays

        arrays, meta = load_arrays(path)
        architecture = meta.get("architecture")
        if architecture not in ARCHITECTURES:
            raise ValueError(
                f"checkpoint does not name a known architecture "
                f"(got {architecture!r})"
            )
        clf = cls(architecture=architecture)
        clf.model.load_state_dict(arrays)
        clf.model.eval()
        return clf
