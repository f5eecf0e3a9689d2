"""Chaos harness for the resilient campaign runtime.

Fault injection for the fault injector: every failure mode the runtime
claims to survive — worker raises, hard exits (pool collapse), hangs
(watchdog), corrupt payloads, SIGINT/SIGTERM — is injected on schedule
via :mod:`repro.core.chaos`, and the campaign is asserted to either heal
(transient faults), degrade gracefully (persistent faults are bisected
down to the poison site and quarantined while everything else completes,
bit-identical to serial), or abort with the right taxonomy error.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core import (
    Campaign,
    CampaignInterrupted,
    ChaosAction,
    ChaosError,
    ChaosSpec,
    CheckpointCorrupt,
    FailureKind,
    FailureRecord,
    GemmWorkload,
    ParallelExecutor,
    PoisonSite,
    RetryPolicy,
    ShardCrash,
    ShardTimeout,
    failure_from_record,
    failure_record,
    is_failure_record,
    read_checkpoint,
)
from repro.core.executor import _validate_shard
from repro.core.reports import campaign_summary
from repro.core.serialize import campaign_to_dict, experiment_record
from repro.systolic import Dataflow, MeshConfig

from tests.core._support import (
    REPO_ROOT,
    assert_campaigns_equivalent,
    assert_experiments_equal,
)

MESH = MeshConfig(rows=4, cols=4)
WORKLOAD = GemmWorkload.square(8, Dataflow.WEIGHT_STATIONARY)

#: Fast, deterministic backoff so chaos tests stay quick.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.01, backoff_cap=0.05)


def make_campaign(**kwargs) -> Campaign:
    return Campaign(MESH, WORKLOAD, **kwargs)


@pytest.fixture(scope="module")
def serial():
    """The reference result of an unperturbed serial run."""
    return make_campaign().run()


def run_chaotic(chaos: ChaosSpec, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("retry", FAST_RETRY)
    return make_campaign().run(ParallelExecutor(chaos=chaos, **kwargs))


def assert_degraded_to(result, serial, quarantined: list[tuple[int, int]]):
    """Exactly ``quarantined`` was given up on; every other site is
    bit-identical to the serial reference."""
    assert result.quarantined_sites() == quarantined
    assert not result.is_complete
    ran = [site for site in make_campaign().sites if site not in quarantined]
    assert [
        (e.site.row, e.site.col) for e in result.experiments
    ] == ran
    for row, col in ran:
        assert_experiments_equal(
            serial.result_at(row, col), result.result_at(row, col)
        )


# ----------------------------------------------------------------------
# Policy / taxonomy units
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_deterministic_exponential_backoff(self):
        policy = RetryPolicy(
            max_retries=5, backoff_base=0.05, backoff_factor=2.0,
            backoff_cap=0.15,
        )
        assert policy.delay(1) == pytest.approx(0.05)
        assert policy.delay(2) == pytest.approx(0.10)
        assert policy.delay(3) == pytest.approx(0.15)  # capped
        assert policy.delay(4) == pytest.approx(0.15)
        # Jitter-free: the schedule is a pure function of the attempt.
        assert [policy.delay(n) for n in (1, 2, 3)] == [
            policy.delay(n) for n in (1, 2, 3)
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().delay(0)

    def test_zero_retries_means_one_attempt(self):
        assert RetryPolicy(max_retries=0).max_retries == 0


class TestFailureRecordCodec:
    FAILURE = FailureRecord(
        row=2, col=3, kind=FailureKind.TIMEOUT, attempts=3,
        error="shard exceeded the 0.75s watchdog deadline",
    )

    def test_roundtrip_through_json(self):
        record = json.loads(json.dumps(failure_record(self.FAILURE)))
        assert is_failure_record(record)
        assert failure_from_record(record) == self.FAILURE

    def test_experiment_records_are_not_failure_records(self, serial):
        from repro.core.serialize import experiment_record

        assert not is_failure_record(
            experiment_record(serial.experiments[0])
        )

    def test_describe_names_site_and_kind(self):
        text = self.FAILURE.describe()
        assert "MAC(2,3)" in text
        assert "timeout" in text
        assert "3 attempt(s)" in text


class TestChaosSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosAction("explode")

    def test_bounded_action_requires_state_dir(self):
        with pytest.raises(ValueError, match="state_dir"):
            ChaosSpec.build({(0, 0): ChaosAction("raise", times=1)})

    def test_unbounded_action_needs_no_state_dir(self):
        spec = ChaosSpec.build({(0, 0): ChaosAction("raise", times=None)})
        assert spec.action_for((0, 0)) is not None
        assert spec.action_for((1, 1)) is None

    def test_bounded_firing_counts_persist_on_disk(self, tmp_path):
        spec = ChaosSpec.build(
            {(1, 2): ChaosAction("corrupt", times=2)}, state_dir=tmp_path
        )
        assert spec.fire((1, 2)) is True
        assert spec.fire((1, 2)) is True
        assert spec.fire((1, 2)) is False  # healed after 2 firings
        assert spec.fire((3, 3)) is False  # unscheduled site never fires
        # The counter is the file size: crash-proof cross-process state.
        counter = tmp_path / "site-1-2-corrupt.count"
        assert counter.stat().st_size == 2

    def test_raise_action_throws_chaos_error(self, tmp_path):
        spec = ChaosSpec.build(
            {(0, 1): ChaosAction("raise", times=1)}, state_dir=tmp_path
        )
        with pytest.raises(ChaosError, match=r"\(0, 1\)"):
            spec.fire((0, 1))
        assert spec.fire((0, 1)) is False  # consumed


class TestShardValidation:
    def test_accepts_sound_payload(self, serial):
        sites = [(0, 0), (0, 1)]
        payload = (
            [experiment_record(serial.result_at(r, c)) for r, c in sites], []
        )
        assert _validate_shard(payload, sites) is None

    def test_rejects_wrong_length_and_type(self, serial):
        assert "malformed" in _validate_shard(None, [(0, 0)])
        # The pre-obs payload shape (a bare results list) is malformed now.
        assert "malformed" in _validate_shard([], [(0, 0)])
        assert "malformed" in _validate_shard(([], "events"), [(0, 0)])
        assert "malformed" in _validate_shard(([], []), [(0, 0)])
        problem = _validate_shard(([{"mangled": True}], []), [(0, 0)])
        assert "not an experiment result" in problem

    def test_rejects_mismatched_site(self, serial):
        problem = _validate_shard(
            ([experiment_record(serial.result_at(3, 3))], []), [(0, 0)]
        )
        assert "mismatched site" in problem


# ----------------------------------------------------------------------
# Crash recovery (worker raises)
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_transient_crash_heals_to_full_equivalence(
        self, tmp_path, serial
    ):
        chaos = ChaosSpec.build(
            {(1, 2): ChaosAction("raise", times=2)}, state_dir=tmp_path
        )
        result = run_chaotic(chaos)
        assert result.is_complete
        assert_campaigns_equivalent(serial, result)

    def test_persistent_crash_quarantines_exactly_that_site(
        self, tmp_path, serial
    ):
        path = tmp_path / "campaign.jsonl"
        chaos = ChaosSpec.build({(1, 2): ChaosAction("raise", times=None)})
        result = run_chaotic(chaos, checkpoint=path)
        assert_degraded_to(result, serial, [(1, 2)])
        failure = result.failures[0]
        assert failure.kind is FailureKind.CRASH
        assert failure.attempts == FAST_RETRY.max_retries + 1
        assert "ChaosError" in failure.error
        # The quarantine is a first-class record in the checkpoint stream.
        _, records = read_checkpoint(path)
        quarantines = [r for r in records if is_failure_record(r)]
        assert len(quarantines) == 1
        assert quarantines[0]["site"] == {"row": 1, "col": 2}
        assert len(records) == MESH.num_macs  # 15 experiments + 1 failure

    def test_quarantine_is_sticky_across_resume(self, tmp_path, serial):
        path = tmp_path / "campaign.jsonl"
        chaos = ChaosSpec.build({(2, 2): ChaosAction("raise", times=None)})
        run_chaotic(chaos, checkpoint=path)
        before = path.read_text()
        # Resume WITHOUT chaos: the poison site must not be re-executed.
        resumed = make_campaign().run(ParallelExecutor(jobs=2, resume=path))
        assert_degraded_to(resumed, serial, [(2, 2)])
        assert resumed.failures[0].kind is FailureKind.CRASH
        assert path.read_text() == before  # nothing re-ran or re-recorded

    def test_two_poison_sites_both_isolated(self, tmp_path, serial):
        chaos = ChaosSpec.build(
            {
                (0, 3): ChaosAction("raise", times=None),
                (3, 0): ChaosAction("raise", times=None),
            }
        )
        result = run_chaotic(chaos)
        assert_degraded_to(result, serial, [(0, 3), (3, 0)])

    def test_degraded_result_serializes_with_failures(self, tmp_path):
        chaos = ChaosSpec.build({(1, 1): ChaosAction("raise", times=None)})
        result = run_chaotic(chaos)
        data = campaign_to_dict(result)
        assert len(data["failures"]) == 1
        assert data["failures"][0]["site"] == {"row": 1, "col": 1}
        assert len(data["experiments"]) == MESH.num_macs - 1
        summary = campaign_summary(result)
        assert "quarantined : 1 site(s) [(1,1)]" in summary


# ----------------------------------------------------------------------
# Abort policy
# ----------------------------------------------------------------------


class TestAbortPolicy:
    def test_multi_site_shard_raises_shard_crash(self):
        chaos = ChaosSpec.build({(1, 1): ChaosAction("raise", times=None)})
        with pytest.raises(ShardCrash, match="2 sites"):
            run_chaotic(chaos, on_error="abort")

    def test_single_site_shard_names_the_poison_site(self):
        chaos = ChaosSpec.build({(1, 1): ChaosAction("raise", times=None)})
        with pytest.raises(PoisonSite, match=r"MAC\(1,1\)"):
            # shards_per_worker=8 on 16 sites -> single-site shards.
            run_chaotic(chaos, on_error="abort", shards_per_worker=8)

    def test_hang_raises_shard_timeout(self):
        chaos = ChaosSpec.build(
            {(0, 1): ChaosAction("hang", times=None, seconds=30.0)}
        )
        with pytest.raises(ShardTimeout, match="watchdog"):
            run_chaotic(
                chaos,
                on_error="abort",
                shard_timeout=0.75,
                retry=RetryPolicy(max_retries=0),
            )

    def test_on_error_string_is_validated(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=2, on_error="explode")
        with pytest.raises(ValueError, match="not both"):
            ParallelExecutor(jobs=2, max_retries=1, retry=FAST_RETRY)


# ----------------------------------------------------------------------
# Pool collapse (worker exits hard) and watchdog (worker hangs)
# ----------------------------------------------------------------------


class TestPoolCollapse:
    def test_transient_hard_exit_heals(self, tmp_path, serial):
        chaos = ChaosSpec.build(
            {(2, 3): ChaosAction("exit", times=1)}, state_dir=tmp_path
        )
        result = run_chaotic(chaos)
        assert result.is_complete
        assert_campaigns_equivalent(serial, result)

    def test_persistent_hard_exit_quarantines_the_culprit(
        self, tmp_path, serial
    ):
        chaos = ChaosSpec.build({(2, 3): ChaosAction("exit", times=None)})
        result = run_chaotic(chaos)
        assert_degraded_to(result, serial, [(2, 3)])
        assert result.failures[0].kind is FailureKind.POOL_BROKEN


class TestWatchdog:
    def test_transient_hang_is_killed_and_retried(self, tmp_path, serial):
        chaos = ChaosSpec.build(
            {(0, 1): ChaosAction("hang", times=1, seconds=30.0)},
            state_dir=tmp_path,
        )
        result = run_chaotic(chaos, shard_timeout=0.75)
        assert result.is_complete
        assert_campaigns_equivalent(serial, result)

    def test_persistent_hang_quarantines_with_timeout_kind(
        self, tmp_path, serial
    ):
        chaos = ChaosSpec.build(
            {(0, 1): ChaosAction("hang", times=None, seconds=30.0)}
        )
        result = run_chaotic(
            chaos,
            shard_timeout=0.75,
            retry=RetryPolicy(max_retries=1, backoff_base=0.01),
        )
        assert_degraded_to(result, serial, [(0, 1)])
        failure = result.failures[0]
        assert failure.kind is FailureKind.TIMEOUT
        assert "watchdog" in failure.error


class TestCorruptPayload:
    def test_transient_corruption_is_retried(self, tmp_path, serial):
        chaos = ChaosSpec.build(
            {(3, 0): ChaosAction("corrupt", times=2)}, state_dir=tmp_path
        )
        result = run_chaotic(chaos)
        assert result.is_complete
        assert_campaigns_equivalent(serial, result)

    def test_persistent_corruption_quarantines(self, tmp_path, serial):
        chaos = ChaosSpec.build({(3, 0): ChaosAction("corrupt", times=None)})
        result = run_chaotic(chaos)
        assert_degraded_to(result, serial, [(3, 0)])
        failure = result.failures[0]
        assert failure.kind is FailureKind.CORRUPT_RESULT
        assert "not an experiment result" in failure.error


# ----------------------------------------------------------------------
# Checkpoint durability and hygiene (satellites)
# ----------------------------------------------------------------------


class TestCheckpointDurability:
    def test_record_batches_are_fsynced(self, tmp_path, monkeypatch):
        synced: list[int] = []
        real_fsync = os.fsync

        def counting_fsync(fd: int) -> None:
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        path = tmp_path / "campaign.jsonl"
        make_campaign().run(ParallelExecutor(jobs=2, checkpoint=path))
        # At least: header, one sync per record batch, one on close.
        assert len(synced) >= 3
        _, records = read_checkpoint(path)
        assert len(records) == MESH.num_macs

    def test_torn_header_is_refused_for_appending(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        path.write_text('{"schema_version": 1, "kind": "campaign-ch')
        with pytest.raises(CheckpointCorrupt, match=str(path)):
            make_campaign().run(ParallelExecutor(jobs=2, checkpoint=path))

    def test_alien_header_is_refused_for_appending(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(CheckpointCorrupt, match="header"):
            make_campaign().run(ParallelExecutor(jobs=2, checkpoint=path))

    def test_torn_trailing_line_is_healed_before_appending(
        self, tmp_path, serial
    ):
        path = tmp_path / "campaign.jsonl"
        make_campaign().run(ParallelExecutor(jobs=2, checkpoint=path))
        lines = path.read_text().splitlines()
        # Keep the header + 3 records, then a torn mid-write record with
        # no trailing newline — the classic kill-mid-write artefact.
        path.write_text("\n".join(lines[:4]) + "\n" + '{"site": {"ro')
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint record"):
            resumed = make_campaign().run(
                ParallelExecutor(jobs=2, resume=path)
            )
        assert_campaigns_equivalent(serial, resumed)
        # The torn line was newline-terminated, so no record after it got
        # concatenated onto it: the stream parses to one record per site.
        with pytest.warns(RuntimeWarning):
            _, records = read_checkpoint(path)
        assert len(records) == MESH.num_macs

    def test_duplicate_site_records_warn_keep_last(self, tmp_path, serial):
        path = tmp_path / "campaign.jsonl"
        make_campaign().run(ParallelExecutor(jobs=2, checkpoint=path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines) + "\n" + lines[1] + "\n")
        with pytest.warns(RuntimeWarning, match="duplicate checkpoint record"):
            resumed = make_campaign().run(
                ParallelExecutor(jobs=2, resume=path)
            )
        assert_campaigns_equivalent(serial, resumed)


# ----------------------------------------------------------------------
# Graceful shutdown (SIGINT / SIGTERM)
# ----------------------------------------------------------------------

_DRIVER = """\
import sys
from repro.core import (
    Campaign, CampaignInterrupted, ChaosAction, ChaosSpec, GemmWorkload,
    ParallelExecutor,
)
from repro.systolic import Dataflow, MeshConfig

mesh = MeshConfig(rows=4, cols=4)
workload = GemmWorkload.square(8, Dataflow.WEIGHT_STATIONARY)
# Dilate every experiment so the campaign is reliably mid-flight when the
# signal arrives.
chaos = ChaosSpec.build(
    {(r, c): ChaosAction("sleep", times=None, seconds=0.08)
     for r in range(4) for c in range(4)}
)
executor = ParallelExecutor(jobs=2, checkpoint=sys.argv[1], chaos=chaos)
try:
    Campaign(mesh, workload).run(executor)
except CampaignInterrupted as exc:
    assert exc.checkpoint is not None
    assert exc.remaining > 0
    sys.exit(42)
sys.exit(0)
"""


class TestGracefulShutdown:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_exits_resumable(self, tmp_path, serial, signum):
        driver = tmp_path / "driver.py"
        driver.write_text(_DRIVER)
        path = tmp_path / "campaign.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, str(driver), str(path)],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            # Wait until real progress is on disk, then interrupt.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if path.exists() and len(path.read_text().splitlines()) >= 3:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("campaign never made progress")
            proc.send_signal(signum)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 42, stderr.decode()
        # The stream survived the interrupt in parseable form: header +
        # some-but-not-all records.
        header, records = read_checkpoint(path)
        assert header["kind"] == "campaign-checkpoint"
        assert 0 < len(records) < MESH.num_macs
        # Resume (no chaos) completes the remainder, field-for-field
        # identical to the uninterrupted serial reference.
        resumed = make_campaign().run(ParallelExecutor(jobs=2, resume=path))
        assert_campaigns_equivalent(serial, resumed)
        _, records = read_checkpoint(path)
        assert len(records) == MESH.num_macs  # exactly one record per site

    def test_interrupted_error_reports_progress(self):
        exc = CampaignInterrupted(
            signal.SIGINT, checkpoint=None, completed=6, remaining=10
        )
        assert "SIGINT" in str(exc)
        assert "6 site(s)" in str(exc)
        assert isinstance(exc, KeyboardInterrupt)
