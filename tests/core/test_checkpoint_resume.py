"""Checkpoint/resume behaviour of the parallel campaign executor.

Simulates the interesting failure mode — a campaign killed mid-shard,
leaving a truncated (possibly torn) JSONL stream — and asserts the resumed
campaign is indistinguishable from an uninterrupted one.
"""

from __future__ import annotations

import json

import pytest

from repro.core import (
    Campaign,
    ConvWorkload,
    FaultSpec,
    GemmWorkload,
    ParallelExecutor,
    experiment_from_record,
    experiment_record,
    read_checkpoint,
)
from repro.systolic import Dataflow, MeshConfig

from tests.core._support import (
    assert_campaigns_equivalent,
    assert_experiments_equal,
)

MESH = MeshConfig(rows=4, cols=4)
WORKLOAD = GemmWorkload.square(8, Dataflow.WEIGHT_STATIONARY)


def make_campaign(**kwargs) -> Campaign:
    return Campaign(MESH, WORKLOAD, **kwargs)


@pytest.fixture(scope="module")
def uninterrupted():
    """The reference result of an uninterrupted run."""
    return make_campaign().run()


def run_with_checkpoint(path, jobs: int = 2):
    return make_campaign().run(ParallelExecutor(jobs=jobs, checkpoint=path))


class TestCheckpointStream:
    def test_stream_has_header_plus_one_record_per_site(
        self, tmp_path, uninterrupted
    ):
        path = tmp_path / "campaign.jsonl"
        result = run_with_checkpoint(path)
        assert_campaigns_equivalent(uninterrupted, result)
        header, records = read_checkpoint(path)
        assert header["num_sites"] == MESH.num_macs
        assert header["workload"] == WORKLOAD.describe()
        assert len(records) == MESH.num_macs
        recorded_sites = {
            (r["site"]["row"], r["site"]["col"]) for r in records
        }
        assert recorded_sites == set(make_campaign().sites)

    def test_lines_are_the_list_form_records(self, tmp_path, uninterrupted):
        # Shard records cross the pool pipe with packed cells; the
        # checkpoint still holds, line for line, what experiment_record
        # writes for the serial experiments.
        path = tmp_path / "campaign.jsonl"
        run_with_checkpoint(path)
        lines = path.read_text().splitlines()[1:]
        assert sorted(lines) == sorted(
            json.dumps(experiment_record(e)) for e in uninterrupted.experiments
        )

    def test_record_roundtrip_is_lossless(self, tmp_path, uninterrupted):
        for experiment in uninterrupted.experiments:
            record = json.loads(json.dumps(experiment_record(experiment)))
            rebuilt = experiment_from_record(
                record,
                shape=uninterrupted.golden.shape,
                plan=uninterrupted.plan,
                geometry=uninterrupted.geometry,
            )
            assert_experiments_equal(experiment, rebuilt)

    def test_conv_record_roundtrip(self):
        campaign = Campaign(
            MESH,
            ConvWorkload.paper_kernel(6, (3, 3, 2, 3)),
            sites=[(0, 0), (1, 2)],
        )
        result = campaign.run()
        for experiment in result.experiments:
            rebuilt = experiment_from_record(
                json.loads(json.dumps(experiment_record(experiment))),
                shape=result.golden.shape,
                plan=result.plan,
                geometry=result.geometry,
            )
            assert_experiments_equal(experiment, rebuilt)

    def test_record_without_shape_restores_no_pattern(self, uninterrupted):
        experiment = uninterrupted.experiments[0]
        rebuilt = experiment_from_record(experiment_record(experiment))
        assert rebuilt.pattern is None
        assert rebuilt.classification == experiment.classification


class TestTornRecords:
    """Direct unit coverage of read_checkpoint's corrupt-record path."""

    def test_torn_trailing_line_warns_and_is_skipped(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_with_checkpoint(path)
        _, intact = read_checkpoint(path)
        lineno = len(path.read_text().splitlines()) + 1
        with path.open("a") as stream:
            stream.write('{"site": {"row": 2, "col"')  # torn mid-write
        with pytest.warns(RuntimeWarning) as caught:
            header, records = read_checkpoint(path)
        # The torn line is dropped; every intact record survives.
        assert records == intact
        assert header["kind"] == "campaign-checkpoint"
        message = str(caught[0].message)
        assert f"{path}:{lineno}" in message
        assert "skipping corrupt checkpoint record" in message
        assert "the site will be re-executed" in message

    def test_valid_json_without_site_also_warns(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_with_checkpoint(path)
        _, intact = read_checkpoint(path)
        with path.open("a") as stream:
            stream.write(json.dumps({"rows": 2}) + "\n")
        with pytest.warns(
            RuntimeWarning, match="not an experiment object"
        ):
            _, records = read_checkpoint(path)
        assert records == intact

    def test_torn_middle_record_keeps_later_records(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_with_checkpoint(path)
        lines = path.read_text().splitlines()
        lines.insert(3, '{"half a reco')  # corruption mid-stream
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match=rf"{path}:4 "):
            _, records = read_checkpoint(path)
        # Only the injected line is lost.
        assert len(records) == len(lines) - 2


class TestResume:
    def _truncate(self, path, keep_records: int):
        """Keep the header plus the first ``keep_records`` records."""
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: 1 + keep_records]) + "\n")

    def test_resume_after_midshard_kill(self, tmp_path, uninterrupted):
        path = tmp_path / "campaign.jsonl"
        run_with_checkpoint(path)
        self._truncate(path, keep_records=6)
        resumed = make_campaign().run(ParallelExecutor(jobs=2, resume=path))
        assert_campaigns_equivalent(uninterrupted, resumed)
        # Restored sites were not re-executed: the stream ends with exactly
        # one record per site, no duplicates.
        _, records = read_checkpoint(path)
        assert len(records) == MESH.num_macs

    def test_corrupt_trailing_line_warns_and_resumes(
        self, tmp_path, uninterrupted
    ):
        path = tmp_path / "campaign.jsonl"
        run_with_checkpoint(path)
        self._truncate(path, keep_records=4)
        with path.open("a") as stream:
            stream.write('{"site": {"row": 2, "col"')  # torn mid-write
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint record"):
            resumed = make_campaign().run(
                ParallelExecutor(jobs=2, resume=path)
            )
        assert_campaigns_equivalent(uninterrupted, resumed)

    def test_resume_serial_single_job(self, tmp_path, uninterrupted):
        path = tmp_path / "campaign.jsonl"
        run_with_checkpoint(path, jobs=1)
        self._truncate(path, keep_records=10)
        resumed = make_campaign().run(ParallelExecutor(jobs=1, resume=path))
        assert_campaigns_equivalent(uninterrupted, resumed)

    def test_fully_complete_checkpoint_resumes_without_work(
        self, tmp_path, uninterrupted
    ):
        path = tmp_path / "campaign.jsonl"
        run_with_checkpoint(path)
        before = path.read_text()
        resumed = make_campaign().run(ParallelExecutor(jobs=2, resume=path))
        assert_campaigns_equivalent(uninterrupted, resumed)
        assert path.read_text() == before  # nothing re-executed or appended

    def test_mismatched_campaign_is_refused(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_with_checkpoint(path)
        other = Campaign(MESH, WORKLOAD, fault_spec=FaultSpec(bit=5))
        with pytest.raises(ValueError, match="different campaign"):
            other.run(ParallelExecutor(jobs=2, resume=path))

    def test_missing_resume_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            make_campaign().run(
                ParallelExecutor(jobs=2, resume=tmp_path / "absent.jsonl")
            )

    def test_empty_or_headerless_stream_raises(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_checkpoint(empty)
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text('{"schema_version": 1, "kind": "campaign-ch')
        with pytest.raises(ValueError, match="header"):
            read_checkpoint(corrupt)
