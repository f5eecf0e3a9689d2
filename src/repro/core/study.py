"""One-shot reproduction of the paper's full experimental grid.

:func:`run_paper_study` executes every Table I configuration (RQ1-RQ3) as
an SSF campaign and assembles a :class:`StudyReport` — the programmatic
equivalent of the paper's Section IV, with a markdown renderer used by the
CLI (``repro-fi study``) and the full-study example.

The expected pattern class for each configuration is derived from the
analytical predictor, so the report also records whether the simulated
campaigns matched the theory — the study is self-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.campaign import (
    Campaign,
    CampaignResult,
    ConvWorkload,
    FaultSpec,
    FillKind,
    GemmWorkload,
)
from repro.core.classifier import PatternClass
from repro.core.executor import WorkerPool, build_executor
from repro.core.predictor import predict_classes
from repro.core.reports import format_markdown_table, format_table
from repro.core.sampling import paper_configurations
from repro.faults.sites import FaultSite
from repro.systolic.array import MeshConfig

__all__ = ["StudyEntry", "StudyReport", "run_paper_study"]


@dataclass(frozen=True)
class StudyEntry:
    """One configuration's outcome within the study."""

    research_question: str
    configuration: str
    result: CampaignResult
    expected_class: PatternClass

    @property
    def observed_class(self) -> PatternClass:
        return self.result.dominant_class()

    @property
    def matches_theory(self) -> bool:
        """Whether the campaign's dominant class equals the prediction."""
        return self.observed_class is self.expected_class


@dataclass
class StudyReport:
    """The assembled study: entries plus rendering helpers."""

    mesh: MeshConfig
    fault_spec: FaultSpec
    entries: list[StudyEntry] = field(default_factory=list)

    @property
    def all_single_class(self) -> bool:
        """The paper's headline: one class per configuration."""
        return all(entry.result.is_single_class() for entry in self.entries)

    @property
    def all_match_theory(self) -> bool:
        """Whether every campaign matched its analytical prediction."""
        return all(entry.matches_theory for entry in self.entries)

    def _rows(self) -> list[tuple]:
        rows = []
        for entry in self.entries:
            rows.append(
                (
                    entry.research_question,
                    entry.configuration,
                    str(entry.observed_class),
                    str(entry.expected_class),
                    "yes" if entry.result.is_single_class() else "NO",
                    f"{100 * entry.result.sdc_rate():.1f}%",
                    f"{entry.result.mean_corrupted_cells():.1f}",
                )
            )
        return rows

    _HEADERS = (
        "RQ",
        "configuration",
        "observed class",
        "predicted class",
        "single-class",
        "SDC rate",
        "mean corrupted",
    )

    def to_text(self) -> str:
        """Plain-text report for terminals."""
        header = (
            f"Paper study on {self.mesh.rows}x{self.mesh.cols} mesh, "
            f"{self.fault_spec.describe()}\n"
        )
        footer = (
            f"\nall configurations single-class : {self.all_single_class}"
            f"\nall match analytical prediction : {self.all_match_theory}"
        )
        return header + format_table(self._HEADERS, self._rows()) + footer

    def to_markdown(self) -> str:
        """Markdown report (EXPERIMENTS.md-style)."""
        lines = [
            "# Paper study report",
            "",
            f"- mesh: {self.mesh.rows}x{self.mesh.cols} "
            f"({self.mesh.input_dtype})",
            f"- fault model: {self.fault_spec.describe()}",
            f"- experiments per configuration: "
            f"{len(self.entries[0].result.experiments) if self.entries else 0}",
            "",
            format_markdown_table(self._HEADERS, self._rows()),
            "",
            f"All configurations single-class: **{self.all_single_class}**  ",
            f"All match analytical prediction: **{self.all_match_theory}**",
        ]
        return "\n".join(lines)


def _expected_class(
    workload: GemmWorkload | ConvWorkload,
    result: CampaignResult,
    mesh: MeshConfig,
) -> PatternClass:
    """The theory's answer: dominant predicted class over non-masked sites."""
    sites = [
        FaultSite(row, col) for row in range(mesh.rows) for col in range(mesh.cols)
    ]
    counts: dict[PatternClass, int] = {}
    for cls in predict_classes(sites, result.plan, geometry=result.geometry):
        if cls is PatternClass.MASKED:
            continue
        counts[cls] = counts.get(cls, 0) + 1
    if not counts:
        return PatternClass.MASKED
    return max(counts.items(), key=lambda item: item[1])[0]


def run_paper_study(
    mesh: MeshConfig | None = None,
    fault_spec: FaultSpec = FaultSpec(),
    sites: Sequence[tuple[int, int]] | None = None,
    include_large: bool = True,
    fill: FillKind = FillKind.ONES,
    engine: str = "functional",
    jobs: int = 1,
    shard_timeout: float | None = None,
    max_retries: int | None = None,
    on_error: str = "quarantine",
    obs=None,
) -> StudyReport:
    """Run every Table I configuration and assemble the report.

    Parameters
    ----------
    mesh:
        Mesh configuration; defaults to the paper's 16x16.
    sites:
        Site-selection override (e.g. a diagonal sweep for a fast pass);
        ``None`` runs exhaustively, as the paper does.
    include_large:
        Whether to include the 112x112 configurations (the expensive part
        of RQ3).
    engine:
        Execution tier for every campaign of the grid: ``"functional"``
        (default), ``"cycle"``, or ``"analytic"`` (closed-form batched
        deltas — bit-identical report, fastest full grid; see
        :mod:`repro.engines.analytic`).
    jobs:
        Worker-process count per campaign; ``1`` keeps the serial
        reference path, larger values shard each campaign's site sweep
        over one process pool that serves the whole grid (the report is
        identical either way — see :mod:`repro.core.executor`).
    shard_timeout, max_retries, on_error:
        Failure policy forwarded to the parallel executor (ignored when
        ``jobs == 1``); see :mod:`repro.core.resilience` and
        ``docs/resilience.md``.
    obs:
        Observability bundle (see :mod:`repro.obs`) shared by every
        campaign of the study: spans and metrics accumulate across the
        whole grid, and the progress line restarts per configuration.
        ``None`` (default) runs unobserved; either way the report is
        identical.
    """
    pool = WorkerPool(jobs) if jobs > 1 else None
    executor = build_executor(
        {"kind": "parallel", "jobs": jobs} if jobs > 1 else {"kind": "serial"},
        obs=obs,
        pool=pool,
        shard_timeout=shard_timeout,
        max_retries=max_retries,
        on_error=on_error,
    )
    mesh = mesh or MeshConfig.paper()
    report = StudyReport(mesh=mesh, fault_spec=fault_spec)
    seen: set[str] = set()
    try:
        for rq, workloads in paper_configurations(fill=fill).items():
            for workload in workloads:
                description = workload.describe()
                if description in seen:
                    continue  # the grid shares configs across RQs
                seen.add(description)
                if not include_large and "112" in description:
                    continue
                result = Campaign(
                    mesh, workload, fault_spec=fault_spec, sites=sites,
                    engine=engine,
                ).run(executor=executor)
                report.entries.append(
                    StudyEntry(
                        research_question=rq,
                        configuration=description,
                        result=result,
                        expected_class=_expected_class(workload, result, mesh),
                    )
                )
    finally:
        if pool is not None:
            pool.stop()
    return report
