"""BinaryCoP reproduction.

A from-scratch Python implementation of *BinaryCoP: Binary Neural
Network-based COVID-19 Face-Mask Wear and Positioning Predictor on Edge
Devices* (Fasfous et al., IPDPS-W 2021), including every substrate the
paper relies on:

* :mod:`repro.nn` — a numpy deep-learning framework with binary
  conv/dense layers, STE training, batch-norm and optimizers;
* :mod:`repro.data` — a synthetic MaskedFace-Net-style dataset generator
  (key-point-driven deformable masks, 4 wear classes, §IV-A pipeline);
* :mod:`repro.hw` — a FINN-style streaming accelerator simulator
  (XNOR+popcount MVTUs, threshold folding, OR-pooling, cycle/resource/
  power models calibrated to the paper's Table II and §IV-B);
* :mod:`repro.core` — BinaryCoP itself: the CNV/n-CNV/µ-CNV prototypes,
  training, Grad-CAM interpretability and deployment scenarios;
* :mod:`repro.serving` — a dynamically-batched, backpressured inference
  server multiplexing gate-camera traffic onto the deployed accelerator
  datapath (``repro serve`` on the CLI).

Quickstart::

    from repro import BinaryCoP, build_masked_face_dataset

    splits = build_masked_face_dataset(raw_size=4000, rng=0)
    clf = BinaryCoP("n-cnv", rng=0)
    clf.fit(splits)
    print(clf.evaluate(splits.test))
    accelerator = clf.deploy()          # Table I folding, bit-true datapath
    print(accelerator.predict(splits.test.images[:8]))
"""

from repro.core import (
    BinaryCoP,
    ConfusionMatrix,
    CrowdAnalyzer,
    GateMonitor,
    GradCAM,
    TrainingBudget,
    build_architecture,
    confusion_matrix,
    run_study,
    table1_folding,
)
from repro.data import (
    CLASS_NAMES,
    FaceSampleGenerator,
    WearClass,
    build_masked_face_dataset,
)
from repro.hw import (
    FinnAccelerator,
    FoldingConfig,
    PowerModel,
    Z7010,
    Z7020,
    analyze_pipeline,
    compile_model,
    estimate_resources,
)
from repro.runtime import (
    ExecutionConfig,
    create_engine,
    engine_names,
    engine_table,
    resolve_engine_name,
)
from repro.serving import InferenceServer, ServingConfig

__version__ = "1.0.0"

__all__ = [
    "BinaryCoP",
    "CLASS_NAMES",
    "ConfusionMatrix",
    "CrowdAnalyzer",
    "ExecutionConfig",
    "FaceSampleGenerator",
    "FinnAccelerator",
    "FoldingConfig",
    "GateMonitor",
    "GradCAM",
    "PowerModel",
    "TrainingBudget",
    "WearClass",
    "Z7010",
    "Z7020",
    "analyze_pipeline",
    "build_architecture",
    "build_masked_face_dataset",
    "compile_model",
    "confusion_matrix",
    "create_engine",
    "engine_names",
    "engine_table",
    "estimate_resources",
    "resolve_engine_name",
    "run_study",
    "table1_folding",
    "__version__",
]
