"""The paper's primary contribution: the FI framework and pattern taxonomy.

This package turns the substrates (:mod:`repro.systolic`, :mod:`repro.ops`,
:mod:`repro.faults`) into the paper's experimental machinery:

* :class:`~repro.core.campaign.Campaign` — exhaustive/sampled SSF campaigns;
* :func:`~repro.core.fault_patterns.extract_pattern` — ground-truth diffing;
* :func:`~repro.core.classifier.classify_pattern` — the six-class taxonomy;
* :func:`~repro.core.predictor.predict_pattern` — analytical prediction of
  patterns without simulation (the determinism claim, and the hook for
  application-level FI tools);
* :mod:`~repro.core.sampling` — state-space modelling and Table I configs;
* :mod:`~repro.core.metrics` / :mod:`~repro.core.reports` — campaign
  reductions and report rendering.
"""

from repro.core.campaign import (
    Campaign,
    CampaignResult,
    ConvWorkload,
    ExperimentResult,
    FaultSpec,
    FillKind,
    GemmWorkload,
    OperationType,
    operand_seeds,
)
from repro.core.chaos import ChaosAction, ChaosError, ChaosSpec
from repro.core.executor import (
    GOLDEN_CACHE,
    CampaignExecutor,
    GoldenCache,
    ParallelExecutor,
    SerialExecutor,
    shard_sites,
)
from repro.core.fabric import Coordinator, DistributedExecutor, WorkerAgent
from repro.core.resilience import (
    CampaignExecutionError,
    CampaignInterrupted,
    CheckpointCorrupt,
    FailureKind,
    FailureLadder,
    FailureRecord,
    Lease,
    LeaseExpired,
    LeaseTable,
    OnError,
    PoisonSite,
    PoolBroken,
    ProtocolError,
    RetryPolicy,
    ShardCrash,
    ShardTask,
    ShardTimeout,
    WorkerLost,
)
from repro.core.classifier import Classification, PatternClass, classify_pattern
from repro.core.fault_patterns import FaultPattern, extract_pattern
from repro.core.metrics import (
    CellStats,
    class_census,
    corrupted_cell_stats,
    fault_tolerance_ranking,
    masking_rate,
    msf_coverage_by_ssf,
    pattern_jaccard,
    sdc_rate,
    support_covers,
)
from repro.core.predictor import PredictedPattern, predict_class, predict_pattern
from repro.core.reports import (
    campaign_summary,
    census_rows,
    format_markdown_table,
    format_table,
)
from repro.core.diagnosis import DiagnosisResult, diagnose
from repro.core.statistics import (
    RateEstimate,
    estimate_rate,
    required_sample_size,
    wilson_interval,
)
from repro.core.reliability import (
    ASIL_D_FIT_BUDGET,
    ReliabilityBudget,
    dangerous_fit,
    max_per_mac_fit,
    mission_failure_probability,
    mttf_hours,
)
from repro.core.study import StudyEntry, StudyReport, run_paper_study
from repro.core.vulnerability import VulnerabilityProfile, analyze_operation
from repro.core.serialize import (
    campaign_to_dict,
    checkpoint_header,
    experiment_from_record,
    experiment_record,
    failure_from_record,
    failure_record,
    fault_dictionary,
    is_failure_record,
    load_campaign,
    read_checkpoint,
    save_campaign,
    save_fault_dictionary,
)
from repro.core.sampling import (
    StateSpace,
    all_sites,
    corner_sites,
    diagonal_sites,
    paper_configurations,
    paper_state_space,
    random_sites,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "ExperimentResult",
    "GemmWorkload",
    "ConvWorkload",
    "FaultSpec",
    "FillKind",
    "OperationType",
    "operand_seeds",
    "CampaignExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "GoldenCache",
    "GOLDEN_CACHE",
    "shard_sites",
    "PatternClass",
    "Classification",
    "classify_pattern",
    "FaultPattern",
    "extract_pattern",
    "PredictedPattern",
    "predict_pattern",
    "predict_class",
    "StateSpace",
    "paper_state_space",
    "paper_configurations",
    "all_sites",
    "random_sites",
    "diagonal_sites",
    "corner_sites",
    "class_census",
    "sdc_rate",
    "masking_rate",
    "corrupted_cell_stats",
    "CellStats",
    "fault_tolerance_ranking",
    "pattern_jaccard",
    "support_covers",
    "msf_coverage_by_ssf",
    "campaign_summary",
    "census_rows",
    "format_table",
    "format_markdown_table",
    "campaign_to_dict",
    "save_campaign",
    "load_campaign",
    "fault_dictionary",
    "save_fault_dictionary",
    "checkpoint_header",
    "experiment_record",
    "experiment_from_record",
    "failure_record",
    "failure_from_record",
    "is_failure_record",
    "read_checkpoint",
    "CampaignExecutionError",
    "ShardCrash",
    "ShardTimeout",
    "PoisonSite",
    "PoolBroken",
    "WorkerLost",
    "LeaseExpired",
    "ProtocolError",
    "CheckpointCorrupt",
    "CampaignInterrupted",
    "FailureKind",
    "OnError",
    "RetryPolicy",
    "FailureLadder",
    "FailureRecord",
    "ShardTask",
    "Coordinator",
    "DistributedExecutor",
    "WorkerAgent",
    "Lease",
    "LeaseTable",
    "ChaosSpec",
    "ChaosAction",
    "ChaosError",
    "diagnose",
    "DiagnosisResult",
    "required_sample_size",
    "wilson_interval",
    "estimate_rate",
    "RateEstimate",
    "run_paper_study",
    "StudyReport",
    "StudyEntry",
    "analyze_operation",
    "VulnerabilityProfile",
    "ReliabilityBudget",
    "ASIL_D_FIT_BUDGET",
    "dangerous_fit",
    "max_per_mac_fit",
    "mttf_hours",
    "mission_failure_probability",
]
