"""Unit tests for the one-shot paper study runner."""

import pytest

from repro.core.campaign import FaultSpec
from repro.core.executor import GOLDEN_CACHE, WorkerPool
from repro.core.sampling import diagonal_sites
from repro.core.study import run_paper_study
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.systolic import MeshConfig

MESH = MeshConfig.paper()


@pytest.fixture(scope="module")
def fast_report():
    return run_paper_study(
        mesh=MESH, sites=diagonal_sites(MESH), include_large=False
    )


class TestStudyExecution:
    def test_covers_every_small_configuration_once(self, fast_report):
        configurations = [e.configuration for e in fast_report.entries]
        assert len(configurations) == len(set(configurations))
        # RQ1: 2 GEMM configs; RQ2 adds 2 convs (the shared GEMM is
        # deduplicated); RQ3's small conv config is shared with RQ2.
        assert len(configurations) == 4

    def test_large_configs_included_on_request(self):
        report = run_paper_study(
            mesh=MESH, sites=[(0, 0)], include_large=True
        )
        assert any("112" in e.configuration for e in report.entries)

    def test_all_single_class_and_theory_matched(self, fast_report):
        assert fast_report.all_single_class
        assert fast_report.all_match_theory
        for entry in fast_report.entries:
            assert entry.matches_theory

    def test_parallel_study_runs_the_grid_on_one_pool(
        self, fast_report, monkeypatch
    ):
        started = []
        start = WorkerPool.start

        def spy(pool):
            started.append(pool)
            start(pool)

        monkeypatch.setattr(WorkerPool, "start", spy)
        report = run_paper_study(
            mesh=MESH, sites=diagonal_sites(MESH), include_large=False,
            jobs=2,
        )
        assert report.to_text() == fast_report.to_text()
        assert len(started) == 1
        assert not started[0].running

    def test_second_pass_serves_every_golden_run_from_the_cache(self):
        # The Table I grid has 7 distinct configurations: a cold pass
        # computes each once, and the bounded golden cache keeps all of
        # them for the next pass.
        GOLDEN_CACHE.clear()
        counts = []
        for _ in range(2):
            metrics = MetricsRegistry()
            run_paper_study(
                mesh=MESH, sites=diagonal_sites(MESH), engine="analytic",
                obs=Observability(metrics=metrics),
            )
            counts.append((
                metrics.value("repro_golden_cache_hits_total"),
                metrics.value("repro_golden_cache_misses_total"),
            ))
        assert counts == [(0, 7), (7, 0)]

    def test_entries_carry_campaign_results(self, fast_report):
        for entry in fast_report.entries:
            assert entry.result.experiments
            assert entry.research_question in ("RQ1", "RQ2", "RQ3")


class TestRendering:
    def test_text_report(self, fast_report):
        text = fast_report.to_text()
        assert "single-element" in text
        assert "single-column" in text
        assert "single-channel" in text
        assert "all match analytical prediction : True" in text

    def test_markdown_report(self, fast_report):
        md = fast_report.to_markdown()
        assert md.startswith("# Paper study report")
        assert "| RQ |" in md
        assert "**True**" in md

    def test_custom_fault_spec_surfaces_in_report(self):
        report = run_paper_study(
            mesh=MESH,
            fault_spec=FaultSpec(bit=9, stuck_value=0),
            sites=[(0, 0)],
            include_large=False,
        )
        assert "stuck-at-0 @ sum[9]" in report.to_text()
