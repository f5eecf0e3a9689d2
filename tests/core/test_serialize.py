"""Unit tests for campaign serialisation and fault dictionaries."""

import base64
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.core.chaos import ChaosAction, ChaosSpec
from repro.core.fabric.worker import WorkerAgent
from repro.core.fault_patterns import FaultPattern
from repro.core.serialize import (
    FABRIC_SETUP_VERSION,
    SCHEMA_VERSION,
    SpecError,
    campaign_to_dict,
    encode_campaign_spec,
    experiment_from_record,
    experiment_record,
    fabric_setup_from_record,
    fabric_setup_record,
    fault_dictionary,
    load_campaign,
    load_metrics,
    metrics_from_dict,
    metrics_to_dict,
    save_campaign,
    save_fault_dictionary,
    save_metrics,
    unpack_cells,
)
from repro.obs.metrics import MetricsRegistry
from repro.systolic import Dataflow, MeshConfig

MESH = MeshConfig(4, 4)


@pytest.fixture(scope="module")
def ws_result():
    return Campaign(MESH, GemmWorkload.square(4, Dataflow.WEIGHT_STATIONARY)).run()


class TestCampaignToDict:
    def test_roundtrips_through_json(self, ws_result):
        data = campaign_to_dict(ws_result)
        restored = json.loads(json.dumps(data))
        assert restored == data

    def test_metadata_fields(self, ws_result):
        data = campaign_to_dict(ws_result)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["mesh"] == {"rows": 4, "cols": 4}
        assert data["dataflow"] == "WS"
        assert data["gemm_shape"] == [4, 4, 4]
        assert data["fault_spec"]["signal"] == "sum"
        assert len(data["experiments"]) == 16

    def test_experiment_entries(self, ws_result):
        entry = campaign_to_dict(ws_result)["experiments"][0]
        assert entry["pattern_class"] == "single-column"
        assert entry["num_corrupted"] == 4
        assert len(entry["corrupted_cells"]) == 4

    def test_no_telemetry_key_on_unobserved_runs(self, ws_result):
        assert ws_result.telemetry is None
        assert "telemetry" not in campaign_to_dict(ws_result)

    def test_telemetry_section_serialised_when_present(self, ws_result):
        telemetry = {"elapsed_seconds": 1.5, "sites": 16, "retries": 0}
        ws_result.telemetry = telemetry
        try:
            data = campaign_to_dict(ws_result)
            assert data["telemetry"] == telemetry
            assert json.loads(json.dumps(data))["telemetry"] == telemetry
        finally:
            ws_result.telemetry = None  # module-scoped fixture: restore

    def test_without_patterns(self):
        result = Campaign(
            MESH,
            GemmWorkload.square(4, Dataflow.WEIGHT_STATIONARY),
            sites=[(0, 0)],
            keep_patterns=False,
        ).run()
        entry = campaign_to_dict(result)["experiments"][0]
        assert entry["corrupted_cells"] is None
        assert entry["num_corrupted"] == 4


class TestSaveLoad:
    def test_save_and_load(self, ws_result, tmp_path):
        path = save_campaign(ws_result, tmp_path / "campaign.json")
        data = load_campaign(path)
        assert data["workload"] == ws_result.workload.describe()

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError):
            load_campaign(path)


class TestMetricsCodec:
    def _registry(self):
        registry = MetricsRegistry()
        registry.gauge("repro_sites_total", "Sites.").set(16)
        registry.counter("repro_sites_completed_total", "Done.").inc(16)
        registry.histogram("repro_shard_seconds", "Latency.").observe(0.25)
        return registry

    def test_envelope(self):
        data = metrics_to_dict(self._registry())
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["kind"] == "metrics-snapshot"
        assert json.loads(json.dumps(data)) == data

    def test_round_trip_restores_values(self):
        restored = metrics_from_dict(metrics_to_dict(self._registry()))
        assert restored.value("repro_sites_total") == 16.0
        assert restored.value("repro_sites_completed_total") == 16.0
        assert restored.histogram_at("repro_shard_seconds").count == 1

    def test_save_and_load(self, tmp_path):
        path = save_metrics(self._registry(), tmp_path / "metrics.json")
        restored = load_metrics(path)
        assert restored.snapshot() == self._registry().snapshot()

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            metrics_from_dict({"schema_version": SCHEMA_VERSION, "kind": "campaign", "metrics": []})

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            metrics_from_dict({"schema_version": 999, "kind": "metrics-snapshot", "metrics": []})


class TestFaultDictionary:
    def test_one_entry_per_site(self, ws_result):
        dictionary = fault_dictionary(ws_result)
        assert len(dictionary["sites"]) == 16
        assert dictionary["hardware"]["dataflow"] == "WS"
        entry = dictionary["sites"]["1,2"]
        assert entry["pattern_class"] == "single-column"
        assert all(cell[1] == 2 for cell in entry["cells"])

    def test_conv_entries_carry_channels(self):
        result = Campaign(
            MESH, ConvWorkload.paper_kernel(6, (3, 3, 2, 3)), sites=[(0, 1)]
        ).run()
        dictionary = fault_dictionary(result)
        assert dictionary["sites"]["0,1"]["channels"] == [1]

    def test_save_fault_dictionary(self, ws_result, tmp_path):
        path = save_fault_dictionary(ws_result, tmp_path / "dict.json")
        data = json.loads(path.read_text())
        assert data["schema_version"] == SCHEMA_VERSION
        assert "stuck-at-1" in data["fault_model"]


# ----------------------------------------------------------------------
# Experiment record codec: the vectorised cell table against the
# per-cell loops it replaced
# ----------------------------------------------------------------------


def loop_cells(pattern):
    """The per-cell encoding loop: one ``[*coords, deviation]`` row per
    corrupted cell, in ``np.argwhere`` order."""
    return [
        [*(int(c) for c in coords), int(pattern.deviation[tuple(coords)])]
        for coords in np.argwhere(pattern.mask)
    ]


def loop_deviation(cells, shape):
    """The per-cell decoding loop."""
    deviation = np.zeros(shape, dtype=np.int64)
    for entry in cells:
        *coords, value = entry
        deviation[tuple(coords)] = value
    return deviation


def loop_record(experiment):
    record = experiment_record(experiment)
    pattern = experiment.pattern
    record["cells"] = loop_cells(pattern) if pattern is not None else None
    return record


class TestRecordCodec:
    @pytest.fixture(scope="class")
    def results(self):
        conv = Campaign(
            MESH,
            ConvWorkload.paper_kernel(6, (3, 3, 2, 3)),
            sites=[(0, 1), (3, 3)],
        ).run()
        gemm_os = Campaign(
            MESH, GemmWorkload.square(2, Dataflow.OUTPUT_STATIONARY),
            sites=[(0, 0), (3, 3)],
        ).run()
        unkept = Campaign(
            MESH,
            GemmWorkload.square(4, Dataflow.WEIGHT_STATIONARY),
            sites=[(0, 1)],
            keep_patterns=False,
        ).run()
        return {"conv": conv, "gemm": gemm_os, "unkept": unkept}

    def test_encoding_bytes_match_the_per_cell_loop(self, results, ws_result):
        experiments = [
            e
            for result in (*results.values(), ws_result)
            for e in result.experiments
        ]
        kinds = {
            "conv": any(e.pattern is not None and e.pattern.is_conv
                        and e.sdc for e in experiments),
            "empty": any(e.pattern is not None and not e.sdc
                         for e in experiments),
            "unkept": any(e.pattern is None for e in experiments),
        }
        assert all(kinds.values()), kinds
        for experiment in experiments:
            assert json.dumps(experiment_record(experiment)) == json.dumps(
                loop_record(experiment)
            )

    def test_decoding_matches_the_per_cell_loop(self, results, ws_result):
        for result in (*results.values(), ws_result):
            for experiment in result.experiments:
                record = json.loads(json.dumps(experiment_record(experiment)))
                back = experiment_from_record(
                    record,
                    shape=result.golden.shape,
                    plan=result.plan,
                    geometry=result.geometry,
                )
                if record["cells"] is None:
                    assert back.pattern is None
                    continue
                expected = loop_deviation(record["cells"], result.golden.shape)
                assert back.pattern.deviation.dtype == np.int64
                assert np.array_equal(back.pattern.deviation, expected)
                assert np.array_equal(back.pattern.mask, expected != 0)
                assert np.array_equal(
                    back.pattern.deviation, experiment.pattern.deviation
                )

    @pytest.mark.parametrize(
        "cells, error",
        [
            ([[0, 1]], ValueError),  # missing a coordinate
            ([[0, 1, 2, 3]], ValueError),  # one coordinate too many
            ([[0, 0.5, 3]], ValueError),  # non-integer coordinate
            ([[0, 1, 3], [2, 3]], ValueError),  # ragged rows
            ([[9, 0, 3]], IndexError),  # outside the output
        ],
    )
    def test_malformed_cells_raise(self, ws_result, cells, error):
        record = experiment_record(ws_result.experiments[0])
        record["cells"] = cells
        with pytest.raises(error):
            experiment_from_record(record, shape=ws_result.golden.shape)


# ----------------------------------------------------------------------
# Cell validation, in both forms: a record's cells must describe the
# pattern its own statistics claim
# ----------------------------------------------------------------------


def pack(rows) -> str:
    """The packed form of a list of ``[row, col, deviation]`` cells."""
    table = np.asarray(rows, dtype="<i8").reshape(-1, 3)
    return base64.b64encode(table.tobytes()).decode("ascii")


class TestCellValidation:
    @pytest.mark.parametrize("form", ["list", "packed"])
    @pytest.mark.parametrize(
        "cells, num_corrupted",
        [
            ([[-1, -1, 5]], 1),  # negative indices would wrap to (3, 3)
            ([[4, 0, 5]], 1),  # past the last row
            ([[1, 1, 0]], 1),  # a zero deviation is no corruption
            ([[1, 1, 5], [1, 1, 7]], 2),  # duplicate cell, last write wins
            ([[1, 1, 5]], 2),  # fewer cells than num_corrupted
            ([], 1),
            ([[1, 1, 5], [2, 2, 6]], 1),  # more cells than num_corrupted
        ],
    )
    def test_inconsistent_cells_raise(self, ws_result, form, cells, num_corrupted):
        record = experiment_record(ws_result.experiments[0])
        record["cells"] = cells if form == "list" else pack(cells)
        record["num_corrupted"] = num_corrupted
        with pytest.raises(ValueError):
            experiment_from_record(record, shape=(4, 4))

    @pytest.mark.parametrize("form", ["list", "packed"])
    def test_consistent_cells_decode(self, ws_result, form):
        cells = [[0, 3, -2], [3, 0, 9]]
        record = experiment_record(ws_result.experiments[0])
        record["cells"] = cells if form == "list" else pack(cells)
        record["num_corrupted"] = 2
        pattern = experiment_from_record(record, shape=(4, 4)).pattern
        assert pattern.num_corrupted == 2
        assert pattern.deviation[0, 3] == -2 and pattern.deviation[3, 0] == 9


# ----------------------------------------------------------------------
# Packed cell tables: round trips and byte-level fuzzing
# ----------------------------------------------------------------------

INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def deviations(draw) -> np.ndarray:
    """A sparse int64 deviation array on a 2-d GEMM or 4-d conv output."""
    shape = draw(st.one_of(
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
        hnp.array_shapes(min_dims=4, max_dims=4, max_side=3),
    ))
    return draw(hnp.arrays(np.int64, shape, elements=st.just(0) | INT64))


def with_pattern(template, deviation: np.ndarray):
    """``template`` carrying ``deviation`` as its pattern."""
    return replace(
        template,
        pattern=FaultPattern(
            deviation.shape,
            np.flatnonzero(deviation),
            deviation[deviation != 0],
        ),
        num_corrupted=int(np.count_nonzero(deviation)),
    )


def decodes_consistently(record: dict, shape: tuple[int, ...]) -> None:
    """Decode ``record``; a decode that succeeds must agree with the
    record's own cell count. Only ``ValueError`` may escape."""
    pattern = experiment_from_record(record, shape=shape).pattern
    assert pattern.num_corrupted == record["num_corrupted"]


class TestPackedCells:
    @settings(max_examples=80, deadline=None)
    @given(deviation=deviations())
    @example(deviation=np.zeros((3, 4), dtype=np.int64))
    @example(deviation=np.zeros((1, 2, 2, 3), dtype=np.int64))
    def test_round_trip_equals_the_list_form(self, ws_result, deviation):
        experiment = with_pattern(ws_result.experiments[0], deviation)
        listed = experiment_record(experiment)
        packed = json.loads(json.dumps(experiment_record(experiment, packed=True)))
        assert isinstance(packed["cells"], str)
        assert {**packed, "cells": None} == {**listed, "cells": None}
        for record in (packed, json.loads(json.dumps(listed))):
            back = experiment_from_record(record, shape=deviation.shape)
            assert back.pattern.deviation.dtype == np.int64
            assert np.array_equal(back.pattern.deviation, deviation)
            assert np.array_equal(back.pattern.mask, deviation != 0)
            assert json.dumps(experiment_record(back)) == json.dumps(listed)
        # The checkpoint line written for a live record is the list form,
        # byte for byte.
        assert json.dumps(unpack_cells(packed, deviation.ndim)) == json.dumps(
            listed
        )

    @settings(max_examples=150, deadline=None)
    @given(deviation=deviations(), data=st.data())
    def test_byte_mutations_raise_only_value_error(
        self, ws_result, deviation, data
    ):
        record = experiment_record(
            with_pattern(ws_result.experiments[0], deviation), packed=True
        )
        cells, shape = record["cells"], deviation.shape
        raw = bytearray(base64.b64decode(cells))
        row_bytes = 8 * (len(shape) + 1)
        kind = data.draw(st.sampled_from(
            ["bad-base64", "truncate", "ragged", "out-of-range",
             "flip-bytes", "any-text"]
        ))
        must_fail = True
        if kind == "bad-base64":
            at = data.draw(st.integers(0, len(cells)))
            junk = data.draw(st.sampled_from(list("!-_.*~ \n\u00e9")))
            mutated = cells[:at] + junk + cells[at:]
        elif kind == "truncate":
            if not cells:
                return
            mutated = cells[: data.draw(st.integers(0, len(cells) - 1))]
        elif kind == "ragged":
            extra = data.draw(st.binary(min_size=1, max_size=row_bytes - 1))
            mutated = base64.b64encode(bytes(raw) + extra).decode("ascii")
        elif kind == "out-of-range":
            if not raw:
                return
            row = data.draw(st.integers(0, len(raw) // row_bytes - 1))
            axis = data.draw(st.integers(0, len(shape) - 1))
            value = data.draw(
                st.integers(-(2**63), -1)
                | st.integers(shape[axis], 2**63 - 1)
            )
            offset = row * row_bytes + 8 * axis
            raw[offset:offset + 8] = value.to_bytes(8, "little", signed=True)
            mutated = base64.b64encode(bytes(raw)).decode("ascii")
        elif kind == "flip-bytes":
            if not raw:
                return
            for _ in range(data.draw(st.integers(1, 4))):
                at = data.draw(st.integers(0, len(raw) - 1))
                raw[at] ^= data.draw(st.integers(1, 255))
            mutated = base64.b64encode(bytes(raw)).decode("ascii")
            must_fail = False
        else:
            mutated = data.draw(st.text(max_size=64))
            must_fail = False
        record["cells"] = mutated
        if must_fail:
            with pytest.raises(ValueError):
                experiment_from_record(record, shape=shape)
            return
        try:
            decodes_consistently(record, shape)
        except ValueError:
            pass


# ----------------------------------------------------------------------
# Fabric setup codec: plain JSON, never a pickle
# ----------------------------------------------------------------------


class _CreatesFile:
    """Unpickling this opens (creates) ``path`` for writing."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def _pickle_b64(obj) -> str:
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


class TestFabricSetupCodec:
    def _campaign(self):
        return Campaign(MESH, GemmWorkload.square(4, Dataflow.OUTPUT_STATIONARY))

    def test_record_is_plain_json(self, tmp_path):
        chaos = ChaosSpec.build(
            {
                (0, 1): ChaosAction("sleep", times=2, seconds=0.5),
                (2, 3): ChaosAction("replay", times=None),
            },
            state_dir=tmp_path,
        )
        record = fabric_setup_record(
            self._campaign(), chaos=chaos, trace=True, shard_timeout=3
        )
        assert record["schema_version"] == FABRIC_SETUP_VERSION != SCHEMA_VERSION
        assert record["campaign"] == encode_campaign_spec(self._campaign())
        wire = json.loads(json.dumps(record))
        campaign, back_chaos, trace, timeout = fabric_setup_from_record(wire)
        assert encode_campaign_spec(campaign) == record["campaign"]
        assert back_chaos == chaos
        assert (trace, timeout) == (True, 3.0)

    @pytest.mark.parametrize("field", ["campaign", "chaos"])
    def test_pickled_setup_is_refused_without_unpickling(self, tmp_path, field):
        target = tmp_path / "pwned"
        setup = fabric_setup_record(self._campaign())
        setup[field] = _pickle_b64(_CreatesFile(str(target)))
        with pytest.raises(SpecError):
            fabric_setup_from_record(setup)
        # The version-1 shape (both fields pickled) fails the version
        # check first.
        legacy = dict(setup, schema_version=1)
        legacy["campaign"] = legacy["chaos"] = setup[field]
        with pytest.raises(ValueError, match="version"):
            fabric_setup_from_record(legacy)
        assert not target.exists()

    def test_agent_refuses_a_pickled_welcome(self, tmp_path):
        target = tmp_path / "pwned"
        setup = fabric_setup_record(self._campaign())
        setup["campaign"] = _pickle_b64(_CreatesFile(str(target)))
        welcome = {
            "type": "welcome",
            "worker_id": 1,
            "setup": setup,
            "heartbeat_interval": 1.0,
        }
        agent = WorkerAgent("127.0.0.1", 1)
        with pytest.raises(SpecError):
            agent._adopt(welcome)
        assert agent._pool is None
        assert not target.exists()

    @pytest.mark.parametrize(
        "chaos",
        [
            {"actions": [[[0, 1], {"kind": "explode"}]], "state_dir": None},
            {"actions": [[[0, 1], {"kind": "raise", "oops": 1}]],
             "state_dir": None},
            {"actions": [[[0, 1, 2], {"kind": "raise"}]], "state_dir": None},
            {"actions": [[[0, 1], {"kind": "raise", "times": 1}]],
             "state_dir": None},  # bounded action without a state_dir
            {"state_dir": None},
        ],
    )
    def test_malformed_chaos_raises_spec_error(self, chaos):
        setup = fabric_setup_record(self._campaign())
        setup["chaos"] = chaos
        with pytest.raises(SpecError, match="chaos"):
            fabric_setup_from_record(setup)

    @pytest.mark.parametrize(
        "field, value", [("trace", "yes"), ("shard_timeout", -1.0)]
    )
    def test_malformed_flags_raise_spec_error(self, field, value):
        setup = fabric_setup_record(self._campaign())
        setup[field] = value
        with pytest.raises(SpecError, match=field):
            fabric_setup_from_record(setup)
