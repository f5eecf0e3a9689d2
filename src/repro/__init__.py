"""repro — reliability assessment of systolic arrays against stuck-at faults.

A full reproduction of Agarwal et al., "Towards Reliability Assessment of
Systolic Arrays against Stuck-at Faults" (DSN 2023, Disrupt track), as a
Python library:

* :mod:`repro.systolic` — a cycle-level, bit-accurate systolic-array
  simulator (OS/WS dataflows, INT8 datapath, named MAC signals) plus a
  cross-validated vectorised engine;
* :mod:`repro.faults` — stuck-at / transient / multi-fault models and the
  injection overlay;
* :mod:`repro.ops` — operation tiling, tiled GEMM and im2col convolution;
* :mod:`repro.gemmini` — a functional Gemmini-like accelerator stack;
* :mod:`repro.core` — the FI campaign framework, fault-pattern extraction,
  the six-class taxonomy, and the analytical pattern predictor;
* :mod:`repro.appfi` — application-level FI with an on-the-fly
  systolic-array hardware model (the paper's proposed LLTFI integration);
* :mod:`repro.nn` — a small quantised DNN inference engine for the
  accuracy-degradation and masking studies;
* :mod:`repro.analysis` — spatial statistics and Fig. 3-style rendering.

Static analysis of this code base itself lives in :mod:`repro.checks`
(``repro-fi lint``); it is a development tool, so ``import repro`` does
not load it.

Quickstart
----------
>>> from repro import (MeshConfig, Dataflow, Campaign, GemmWorkload)
>>> mesh = MeshConfig.paper()                      # 16x16 INT8
>>> workload = GemmWorkload.square(16, Dataflow.WEIGHT_STATIONARY)
>>> result = Campaign(mesh, workload).run()        # 256 FI experiments
>>> str(result.dominant_class())
'single-column'
"""

from repro.appfi import AppLevelInjector, HardwareModel, attach_permanent_fault
from repro.mitigation import (
    AbftGemm,
    OffliningGemm,
    TemporalRedundantGemm,
    run_bist,
    select_dataflow,
)
from repro.core import (
    DiagnosisResult,
    StudyReport,
    VulnerabilityProfile,
    analyze_operation,
    diagnose,
    run_paper_study,
)
from repro.core import (
    Campaign,
    CampaignResult,
    Classification,
    ConvWorkload,
    ExperimentResult,
    FaultPattern,
    FaultSpec,
    FillKind,
    GemmWorkload,
    OperationType,
    PatternClass,
    PredictedPattern,
    classify_pattern,
    extract_pattern,
    paper_configurations,
    paper_state_space,
    predict_class,
    predict_pattern,
)
from repro.faults import (
    FaultInjector,
    FaultSet,
    FaultSite,
    StuckAtFault,
    TransientBitFlip,
)
from repro.gemmini import GemminiAccelerator
from repro.ops import (
    ConvGeometry,
    SystolicConv2d,
    TiledGemm,
    TilingPlan,
    reference_conv2d,
    reference_gemm,
)
from repro.systolic import (
    CycleSimulator,
    Dataflow,
    FunctionalSimulator,
    MeshConfig,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # hardware substrate
    "MeshConfig",
    "Dataflow",
    "CycleSimulator",
    "FunctionalSimulator",
    "GemminiAccelerator",
    # fault models
    "FaultSite",
    "StuckAtFault",
    "TransientBitFlip",
    "FaultSet",
    "FaultInjector",
    # operators
    "TiledGemm",
    "SystolicConv2d",
    "ConvGeometry",
    "TilingPlan",
    "reference_gemm",
    "reference_conv2d",
    # FI framework
    "Campaign",
    "CampaignResult",
    "ExperimentResult",
    "GemmWorkload",
    "ConvWorkload",
    "FaultSpec",
    "FillKind",
    "OperationType",
    "PatternClass",
    "Classification",
    "classify_pattern",
    "FaultPattern",
    "extract_pattern",
    "PredictedPattern",
    "predict_pattern",
    "predict_class",
    "paper_configurations",
    "paper_state_space",
    # application-level FI
    "HardwareModel",
    "AppLevelInjector",
    "attach_permanent_fault",
    # diagnosis, analysis & study
    "diagnose",
    "DiagnosisResult",
    "analyze_operation",
    "VulnerabilityProfile",
    "run_paper_study",
    "StudyReport",
    # mitigation
    "AbftGemm",
    "TemporalRedundantGemm",
    "OffliningGemm",
    "run_bist",
    "select_dataflow",
]
