"""JSON serialisation of campaigns and fault dictionaries.

Two consumers motivate this module:

* **Archival** — FI campaigns are expensive at scale; results should be
  storable and reloadable without re-running (``campaign_to_dict`` /
  ``save_campaign`` / ``load_campaign``).
* **Tool hand-off** — the paper's end goal is feeding systolic-array fault
  models to application-level injectors (TensorFI / LLTFI). A *fault
  dictionary* (``fault_dictionary``) is that hand-off artefact: one entry
  per fault site with its pattern class and corruption support, in a plain
  JSON schema any tool can parse.

Patterns are stored as coordinate lists (sparse) because SSF corruption is
sparse in exactly the structured way the taxonomy describes.
"""

from __future__ import annotations

import base64
import json
import os
import struct
import warnings
from pathlib import Path
from typing import IO, Any, Callable

import numpy as np

from repro.core.campaign import (
    ENGINES,
    Campaign,
    CampaignResult,
    ConvWorkload,
    ExperimentResult,
    FaultSpec,
    FillKind,
    GemmWorkload,
)
from repro.core.chaos import ChaosAction, ChaosSpec
from repro.core.classifier import Classification, PatternClass
from repro.core.fault_patterns import FaultPattern
from repro.core.resilience import CheckpointCorrupt, FailureKind, FailureRecord
from repro.faults.sites import FaultSite
from repro.obs.metrics import MetricsRegistry
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import TilingPlan
from repro.systolic import Dataflow, MeshConfig

__all__ = [
    "SCHEMA_VERSION",
    "campaign_to_dict",
    "save_campaign",
    "load_campaign",
    "fault_dictionary",
    "save_fault_dictionary",
    "metrics_to_dict",
    "metrics_from_dict",
    "save_metrics",
    "load_metrics",
    "checkpoint_header",
    "CELL_DTYPE",
    "experiment_record",
    "experiment_from_record",
    "unpack_cells",
    "failure_record",
    "failure_from_record",
    "is_failure_record",
    "read_checkpoint",
    "read_jsonl_stream",
    "open_jsonl_stream",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame",
    "FABRIC_SETUP_VERSION",
    "fabric_setup_record",
    "fabric_setup_from_record",
    "SpecError",
    "encode_campaign_spec",
    "decode_campaign_spec",
    "JOB_STATES",
    "job_registry_header",
    "job_record",
    "job_from_record",
    "read_job_registry",
    "campaign_result_record",
    "campaign_result_from_record",
]

#: Schema version written into every artefact.
SCHEMA_VERSION = 1


def campaign_to_dict(result: CampaignResult) -> dict[str, Any]:
    """Serialise a campaign result to JSON-compatible primitives.

    The golden output itself is summarised (shape only) — experiments carry
    the corruption coordinates, which is all the pattern machinery needs.
    An observability-armed run additionally lands its telemetry summary
    under ``"telemetry"``; plain runs omit the key entirely, so archived
    artefacts of the two differ only by that optional section.
    """
    data: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "workload": result.workload.describe(),
        "operation": str(result.workload.operation),
        "fault_spec": {
            "signal": result.fault_spec.signal,
            "bit": result.fault_spec.bit,
            "stuck_value": result.fault_spec.stuck_value,
        },
        "mesh": {"rows": result.mesh.rows, "cols": result.mesh.cols},
        "dataflow": str(result.plan.dataflow),
        "gemm_shape": [result.plan.m, result.plan.k, result.plan.n],
        "tile_shape": [result.plan.tile_m, result.plan.tile_k, result.plan.tile_n],
        "output_shape": list(result.golden.shape),
        "wall_seconds": result.wall_seconds,
        "failures": [failure_record(f) for f in result.failures],
        "experiments": [
            {
                "site": {
                    "row": e.site.row,
                    "col": e.site.col,
                    "signal": e.site.signal,
                    "bit": e.site.bit,
                },
                "pattern_class": e.pattern_class.value,
                "num_corrupted": e.num_corrupted,
                "max_abs_deviation": e.max_abs_deviation,
                # Lists, not tuples: the artefact should round-trip through
                # JSON unchanged.
                "corrupted_cells": (
                    [list(cell) for cell in e.pattern.corrupted_cells()]
                    if e.pattern is not None
                    else None
                ),
            }
            for e in result.experiments
        ],
    }
    if result.telemetry is not None:
        data["telemetry"] = result.telemetry
    return data


def save_campaign(result: CampaignResult, path: str | Path) -> Path:
    """Write a campaign result as JSON; returns the written path."""
    path = Path(path)
    path.write_text(json.dumps(campaign_to_dict(result), indent=2))
    return path


def load_campaign(path: str | Path) -> dict[str, Any]:
    """Load a previously saved campaign artefact (as plain dicts).

    Raises
    ------
    ValueError
        If the artefact's schema version is unknown.
    """
    data = json.loads(Path(path).read_text())
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported campaign schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return data


def fault_dictionary(result: CampaignResult) -> dict[str, Any]:
    """Build an LLTFI-style fault dictionary from a campaign.

    One entry per fault site, keyed ``"row,col"``, carrying the pattern
    class and — for GEMM outputs — the corrupted coordinates. Downstream
    injectors replay an entry by perturbing exactly those coordinates of
    the operation's output tensor.
    """
    entries: dict[str, Any] = {}
    for experiment in result.experiments:
        key = f"{experiment.site.row},{experiment.site.col}"
        entry: dict[str, Any] = {
            "pattern_class": experiment.pattern_class.value,
            "num_corrupted": experiment.num_corrupted,
        }
        if experiment.pattern is not None:
            entry["cells"] = [
                list(cell) for cell in experiment.pattern.corrupted_cells()
            ]
            if experiment.pattern.is_conv:
                entry["channels"] = list(experiment.pattern.corrupted_channels())
        entries[key] = entry
    return {
        "schema_version": SCHEMA_VERSION,
        "hardware": {
            "mesh_rows": result.mesh.rows,
            "mesh_cols": result.mesh.cols,
            "dataflow": str(result.plan.dataflow),
        },
        "operation": result.workload.describe(),
        "fault_model": result.fault_spec.describe(),
        "sites": entries,
    }


def save_fault_dictionary(result: CampaignResult, path: str | Path) -> Path:
    """Write the fault dictionary as JSON; returns the written path."""
    path = Path(path)
    path.write_text(json.dumps(fault_dictionary(result), indent=2))
    return path


# ----------------------------------------------------------------------
# Metrics snapshot codec (see repro.obs.metrics)
# ----------------------------------------------------------------------


def metrics_to_dict(registry: MetricsRegistry) -> dict[str, Any]:
    """Serialise a metrics registry as a versioned JSON snapshot.

    The instrument dump itself comes from
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`; this adds the
    artefact envelope (schema version, kind tag) every other codec in
    this module carries, so tooling can sniff the file type.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "metrics-snapshot",
        "metrics": registry.snapshot(),
    }


def metrics_from_dict(data: dict[str, Any]) -> MetricsRegistry:
    """Rebuild a :class:`~repro.obs.metrics.MetricsRegistry` snapshot.

    Raises
    ------
    ValueError
        If the envelope is not a metrics snapshot or carries an unknown
        schema version.
    """
    if data.get("kind") != "metrics-snapshot":
        raise ValueError("not a metrics snapshot artefact")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported metrics schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return MetricsRegistry.from_snapshot(data["metrics"])


def save_metrics(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write a metrics snapshot as JSON; returns the written path."""
    path = Path(path)
    path.write_text(json.dumps(metrics_to_dict(registry), indent=2))
    return path


def load_metrics(path: str | Path) -> MetricsRegistry:
    """Load a metrics snapshot written by :func:`save_metrics`."""
    return metrics_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Checkpoint record codec (append-only JSONL, one experiment per line)
# ----------------------------------------------------------------------
#
# A checkpoint file is a JSONL stream: the first line is a header
# identifying the campaign (so a resume can refuse a mismatched file),
# every following line is one completed experiment. Records are written
# in *completion* order — which is nondeterministic under parallel
# execution — and carry the fault site, so the executor can always merge
# them back into canonical site order. The corruption pattern is stored
# sparsely (corrupted coordinates plus their signed deviations), which
# keeps checkpoints small for exactly the reason the paper's taxonomy
# exists: SSF corruption is structured and sparse. A ``FaultPattern`` is
# sparse too (its cells' flat output indices, ascending, plus their
# deviations), so the codec never builds a dense array: encoding
# unravels the indices into row-major ``[*coords, deviation]`` rows —
# the order ``np.argwhere`` gives on the dense mask — and decoding
# ravels them back against the golden output's shape, checking range,
# count, non-zero deviations and distinctness on the cells themselves.
#
# The cells take one of two forms. On disk and in every artefact they
# are a list of ``[*coords, deviation]`` rows. Live shard records — the
# ones a pool child returns and a fabric agent forwards in its ``result``
# frame — carry them *packed*: one base64 string of the same table as
# little-endian int64 (:data:`CELL_DTYPE`), row-major, ``ndim + 1``
# columns. A WS campaign corrupts whole output columns, so the list form
# costs a Python list per cell to build, pickle, frame and parse; the
# packed form is one string. :func:`experiment_from_record` reads both.

#: Element type of a packed cell table: the deviation dtype, fixed
#: little-endian so the bytes mean the same on every host.
CELL_DTYPE = np.dtype("<i8")


class _CellRangeError(ValueError, IndexError):
    """A cell coordinate lies outside the output. Both a ``ValueError``
    (a malformed record, like every other cell fault) and an
    ``IndexError`` (what a NumPy scatter out of bounds raises), as
    NumPy's own ``AxisError`` is."""


def checkpoint_header(campaign: Campaign) -> dict[str, Any]:
    """The identifying first line of a campaign checkpoint stream."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "campaign-checkpoint",
        "workload": campaign.workload.describe(),
        "operation": str(campaign.workload.operation),
        "mesh": {"rows": campaign.mesh.rows, "cols": campaign.mesh.cols},
        "fault_spec": {
            "signal": campaign.fault_spec.signal,
            "bit": campaign.fault_spec.bit,
            "stuck_value": campaign.fault_spec.stuck_value,
        },
        "engine": campaign.engine_kind,
        "num_sites": len(campaign.sites),
    }


def experiment_record(
    experiment: ExperimentResult, packed: bool = False
) -> dict[str, Any]:
    """Serialise one experiment as a JSON-compatible checkpoint record.

    The classification evidence is stored verbatim (not re-derived on
    load) so that a resumed campaign is field-for-field identical to an
    uninterrupted one even when patterns were not kept. ``packed``
    selects the live form of the cells (one base64 string, see the
    notes above) instead of the on-disk list of rows; nothing else in
    the record differs.
    """
    classification = experiment.classification
    cells: list[list[int]] | str | None = None
    if experiment.pattern is not None:
        pattern = experiment.pattern
        table = np.column_stack(
            (*np.unravel_index(pattern.index, pattern.shape), pattern.values)
        )
        if packed:
            cells = base64.b64encode(
                table.astype(CELL_DTYPE, copy=False).tobytes()
            ).decode("ascii")
        else:
            cells = table.tolist()
    return {
        "site": {
            "row": experiment.site.row,
            "col": experiment.site.col,
            "signal": experiment.site.signal,
            "bit": experiment.site.bit,
        },
        "classification": {
            "pattern_class": classification.pattern_class.value,
            "corrupted_tiles": [list(t) for t in classification.corrupted_tiles],
            "local_cells": [list(c) for c in classification.local_cells],
            "corrupted_channels": list(classification.corrupted_channels),
        },
        "num_corrupted": experiment.num_corrupted,
        "max_abs_deviation": experiment.max_abs_deviation,
        "cells": cells,
    }


def _cell_table(cells: list | str, ndim: int) -> np.ndarray:
    """The ``(n, ndim + 1)`` integer table behind either cell form.

    Raises ``ValueError`` when a packed string is not base64 or not a
    whole number of rows, or a list is not integer rows of that width.
    """
    width = ndim + 1
    if isinstance(cells, str):
        try:
            raw = base64.b64decode(cells, validate=True)
        except ValueError as exc:  # binascii.Error, or non-ASCII text
            raise ValueError(f"packed cells are not base64: {exc}") from exc
        if len(raw) % (width * CELL_DTYPE.itemsize):
            raise ValueError(
                f"packed cells hold {len(raw)} bytes, not a whole number "
                f"of {width}-column {CELL_DTYPE.name} rows"
            )
        return np.frombuffer(raw, dtype=CELL_DTYPE).reshape(-1, width)
    if not cells:
        return np.empty((0, width), dtype=CELL_DTYPE)
    table = np.asarray(cells)
    if table.ndim != 2 or table.shape[1] != width or table.dtype.kind != "i":
        raise ValueError(
            f"cells must be [*coords, deviation] integer rows for "
            f"a {ndim}-d output"
        )
    return table


def unpack_cells(record: dict[str, Any], ndim: int) -> dict[str, Any]:
    """``record`` with packed cells turned into the on-disk list form,
    the other fields untouched (``record`` itself when its cells are not
    packed). ``ndim`` is the output's rank; the packed table must decode
    (:func:`experiment_from_record` has checked it)."""
    cells = record.get("cells")
    if not isinstance(cells, str):
        return record
    return {**record, "cells": _cell_table(cells, ndim).tolist()}


def _record_cells(
    cells: list | str, shape: tuple[int, ...], num_corrupted: object
) -> tuple[np.ndarray, np.ndarray]:
    """The strictly ascending flat output indices and deviations of a
    record's cells, without building a dense array.

    Every cell must lie inside ``shape``, deviate by a non-zero amount
    and appear once, and there must be ``num_corrupted`` of them: a
    record that breaks any of these raises ``ValueError`` instead of
    rebuilding a pattern that disagrees with its own statistics. Cells
    out of row-major order are sorted once.
    """
    table = _cell_table(cells, len(shape))
    try:
        flat = np.ravel_multi_index(table[:, :-1].T, shape)
    except ValueError as exc:
        raise _CellRangeError(
            f"a cell lies outside the {shape} output"
        ) from exc
    if len(table) != num_corrupted:
        raise ValueError(
            f"{len(table)} cells for a record of {num_corrupted!r} "
            f"corrupted cells"
        )
    values = np.ascontiguousarray(table[:, -1])
    if np.count_nonzero(values) != len(values):
        raise ValueError("a cell has a zero deviation")
    if np.count_nonzero(flat[1:] <= flat[:-1]):
        order = np.argsort(flat, kind="stable")
        flat, values = flat[order], values[order]
        if np.count_nonzero(flat[1:] == flat[:-1]):
            raise ValueError("a cell appears more than once")
    return flat, values


def experiment_from_record(
    record: dict[str, Any],
    shape: tuple[int, ...] | None = None,
    plan: TilingPlan | None = None,
    geometry: ConvGeometry | None = None,
) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a checkpoint record.

    Parameters
    ----------
    shape:
        Output-tensor shape of the campaign's golden run; required to
        rebuild the pattern from its cells.
        When ``None`` (or the record carries no cells) the pattern is
        restored as ``None``, exactly as a ``keep_patterns=False`` run
        would have produced.
    plan, geometry:
        The campaign's tiling plan and conv geometry, reattached to the
        rebuilt pattern.

    Raises
    ------
    ValueError
        If the cells, in either form, are not integer ``[*coords,
        deviation]`` rows matching ``shape``, a cell lies outside
        ``shape`` (also an ``IndexError``), deviates by zero or repeats,
        the cell count is not ``num_corrupted``, or a field value is
        unknown.
    KeyError, TypeError
        If a field is missing or mistyped.
    """
    site_fields = record["site"]
    site = FaultSite(
        row=site_fields["row"],
        col=site_fields["col"],
        signal=site_fields["signal"],
        bit=site_fields["bit"],
    )
    evidence = record["classification"]
    classification = Classification(
        pattern_class=PatternClass(evidence["pattern_class"]),
        corrupted_tiles=tuple(tuple(t) for t in evidence["corrupted_tiles"]),
        local_cells=tuple(tuple(c) for c in evidence["local_cells"]),
        corrupted_channels=tuple(evidence["corrupted_channels"]),
    )
    pattern: FaultPattern | None = None
    cells = record.get("cells")
    if cells is not None and shape is not None:
        index, values = _record_cells(cells, shape, record["num_corrupted"])
        pattern = FaultPattern(shape, index, values, plan=plan, geometry=geometry)
    return ExperimentResult(
        site=site,
        classification=classification,
        num_corrupted=record["num_corrupted"],
        max_abs_deviation=record["max_abs_deviation"],
        pattern=pattern,
    )


def failure_record(failure: FailureRecord) -> dict[str, Any]:
    """Serialise a quarantined site as a JSON-compatible checkpoint line.

    Distinguished from experiment records by ``"kind": "quarantine"``
    (experiment records have no ``kind`` key); it still carries ``site``
    so checkpoint readers treat it as a first-class record, and a resume
    restores the quarantine instead of re-running the poison site.
    """
    return {
        "kind": "quarantine",
        "site": {"row": failure.row, "col": failure.col},
        "failure": {
            "kind": failure.kind.value,
            "attempts": failure.attempts,
            "error": failure.error,
        },
    }


def failure_from_record(record: dict[str, Any]) -> FailureRecord:
    """Rebuild a :class:`FailureRecord` from a quarantine checkpoint line."""
    site = record["site"]
    evidence = record["failure"]
    return FailureRecord(
        row=site["row"],
        col=site["col"],
        kind=FailureKind(evidence["kind"]),
        attempts=evidence["attempts"],
        error=evidence["error"],
    )


def is_failure_record(record: dict[str, Any]) -> bool:
    """True when a checkpoint record is a quarantine (failure) line."""
    return record.get("kind") == "quarantine"


# ----------------------------------------------------------------------
# Fabric wire codecs (length-prefixed framed JSON; see repro.core.fabric)
# ----------------------------------------------------------------------
#
# The distributed campaign fabric speaks frames: a 4-byte big-endian
# payload length followed by one UTF-8 JSON object with a mandatory
# ``"type"`` key. Results cross the wire as the experiment records the
# pool children encode (``experiment_record`` with packed cells) and
# are read by the same ``experiment_from_record`` that reads checkpoint
# lines, so a packed table that does not decode is a ``ValueError``,
# never an unpickled object — one codec, two cell forms.

#: Upper bound on one frame's payload. Generous — a batched shard result
#: for a large mesh is a few MB of packed cells — but finite, so a
#: corrupt or malicious length prefix cannot make a peer allocate
#: unboundedly.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The 4-byte big-endian unsigned length prefix of every frame.
_FRAME_HEADER = struct.Struct(">I")


def encode_frame(message: dict[str, Any]) -> bytes:
    """Encode one fabric message as a length-prefixed JSON frame.

    Raises
    ------
    ValueError
        If ``message`` lacks a ``"type"`` key or encodes past
        :data:`MAX_FRAME_BYTES`.
    """
    if "type" not in message:
        raise ValueError("fabric messages must carry a 'type' key")
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return _FRAME_HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict[str, Any]:
    """Decode one frame *payload* (the length prefix already consumed).

    Raises
    ------
    ValueError
        If the payload is not a JSON object with a ``"type"`` key.
    """
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ValueError("frame payload is not a typed fabric message")
    return message


#: Version of the fabric ``welcome`` setup record. Version 2 carries the
#: campaign through the spec codec and the chaos schedule as plain JSON;
#: version 1 carried pickles, so an agent that speaks only version 1
#: refuses a version 2 setup through its version check.
FABRIC_SETUP_VERSION = 2


def fabric_setup_record(
    campaign: Campaign,
    chaos: ChaosSpec | None = None,
    trace: bool = False,
    shard_timeout: float | None = None,
) -> dict[str, Any]:
    """The coordinator's ``welcome`` payload: everything a joining worker
    needs to run shards — campaign spec, chaos schedule, trace flag,
    watchdog deadline.

    The campaign travels as its spec document
    (:func:`encode_campaign_spec`) and the chaos schedule as a plain
    JSON record, so an agent decodes its setup without unpickling
    anything from the socket.
    """
    return {
        "kind": "fabric-setup",
        "schema_version": FABRIC_SETUP_VERSION,
        "campaign": encode_campaign_spec(campaign),
        "chaos": (
            {
                "actions": [
                    [list(site), {
                        "kind": action.kind,
                        "times": action.times,
                        "seconds": action.seconds,
                    }]
                    for site, action in chaos.actions
                ],
                "state_dir": chaos.state_dir,
            }
            if chaos is not None
            else None
        ),
        "trace": bool(trace),
        "shard_timeout": shard_timeout,
    }


def fabric_setup_from_record(
    record: dict[str, Any],
) -> tuple[Campaign, ChaosSpec | None, bool, float | None]:
    """Decode a ``welcome`` setup payload back into
    ``(campaign, chaos, trace, shard_timeout)``.

    Raises
    ------
    ValueError
        If the record is not a fabric setup or its version is unknown.
    SpecError
        If the campaign spec, chaos schedule, trace flag or watchdog
        deadline is malformed.
    """
    if not isinstance(record, dict) or record.get("kind") != "fabric-setup":
        raise ValueError("not a fabric setup record")
    version = record.get("schema_version")
    if version != FABRIC_SETUP_VERSION:
        raise ValueError(
            f"unsupported fabric setup schema version {version!r} "
            f"(expected {FABRIC_SETUP_VERSION})"
        )
    campaign, _ = decode_campaign_spec(record.get("campaign"))
    chaos = record.get("chaos")
    if chaos is not None:
        try:
            chaos = ChaosSpec(
                actions=tuple(
                    ((row, col), ChaosAction(**action))
                    for (row, col), action in chaos["actions"]
                ),
                state_dir=chaos["state_dir"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError("chaos", f"malformed chaos schedule: {exc!r}") from exc
    trace = record.get("trace")
    if not isinstance(trace, bool):
        raise SpecError("trace", "expected a boolean")
    shard_timeout = record.get("shard_timeout")
    if shard_timeout is not None:
        shard_timeout = _spec_float(record, "", "shard_timeout", positive=True)
    return campaign, chaos, trace, shard_timeout


#: Wording of the JSONL stream errors, keyed by header kind: the
#: stream's noun, what a refused append asks the user to do, and what
#: a skipped record line means.
_JSONL_STREAMS = {
    "campaign-checkpoint": (
        "checkpoint", "rerun", "; the site will be re-executed",
    ),
    "job-registry": ("job registry", "restart", ""),
}


def read_jsonl_stream(
    path: str | Path, kind: str, parse: Callable[[Any], Any]
) -> tuple[dict[str, Any], list[Any]]:
    """Read a header-plus-records JSONL stream: ``(header, records)``.

    ``kind`` is the header's ``"kind"`` tag; ``parse`` validates one
    decoded record line and returns what to keep, raising
    :class:`ValueError` to reject it. A torn or otherwise corrupt record
    line — the expected artefact of a process killed mid-write — is
    skipped with a :class:`RuntimeWarning` rather than raised, so
    recovery always makes progress from the records that did land. A
    corrupt *header* is unrecoverable (nothing can be validated against
    it) and raises.

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    ValueError
        If the file is empty, the header line is not valid JSON, the
        header is not of ``kind``, or its schema version is unknown.
    """
    noun, _, skipped = _JSONL_STREAMS[kind]
    path = Path(path)
    lines = path.read_text().splitlines()
    stripped = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if not stripped:
        raise ValueError(f"{noun} {path} is empty")
    try:
        header = json.loads(stripped[0][1])
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{noun} {path} has a corrupt header line: {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("kind") != kind:
        raise ValueError(f"{path} is not a {kind.replace('-', ' ')} stream")
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported {noun} schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    records: list[Any] = []
    for lineno, line in stripped[1:]:
        try:
            records.append(parse(json.loads(line)))
        except ValueError as exc:
            warnings.warn(
                f"skipping corrupt {noun} record at {path}:{lineno} "
                f"({exc}){skipped}",
                RuntimeWarning,
                stacklevel=3,
            )
    return header, records


def open_jsonl_stream(path: str | Path, header: dict[str, Any]) -> IO[str]:
    """Open a header-plus-records JSONL stream for appending.

    A new or empty file gets ``header`` as its first line. An existing
    file must start with a complete header line of the same kind — a
    torn header (partial first line, the artefact of a crash during file
    creation) is refused with :class:`CheckpointCorrupt` instead of
    silently continuing a headerless stream. A torn *trailing* line is
    healed by terminating it, so appended records start on a fresh line
    (the torn record itself is skipped, with a warning, by
    :func:`read_jsonl_stream`). Whatever this writes is fsynced.
    """
    kind = header["kind"]
    noun, retry, _ = _JSONL_STREAMS[kind]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    size = path.stat().st_size if path.exists() else 0
    torn_tail = False
    if size > 0:
        with path.open("rb") as probe:
            first = probe.readline()
            found: object = None
            if first.endswith(b"\n"):
                try:
                    found = json.loads(first.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    found = None
            if not isinstance(found, dict) or found.get("kind") != kind:
                raise CheckpointCorrupt(
                    f"{noun} {path} has a torn or unrecognizable header "
                    f"line; refusing to append to it — move the file aside "
                    f"(or delete it) and {retry}"
                )
            probe.seek(-1, os.SEEK_END)
            torn_tail = probe.read(1) != b"\n"
    stream = path.open("a")
    if size == 0:
        stream.write(json.dumps(header) + "\n")
    elif torn_tail:
        stream.write("\n")
    else:
        return stream
    stream.flush()
    os.fsync(stream.fileno())
    return stream


def _checkpoint_line(record: Any) -> dict[str, Any]:
    if not isinstance(record, dict) or "site" not in record:
        raise ValueError("record is not an experiment object")
    return record


def read_checkpoint(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a checkpoint stream: ``(header, experiment records)``.

    See :func:`read_jsonl_stream`: corrupt record lines are skipped with
    a :class:`RuntimeWarning` (their sites re-execute on resume), a
    corrupt header raises :class:`ValueError`.
    """
    return read_jsonl_stream(path, "campaign-checkpoint", _checkpoint_line)


# ----------------------------------------------------------------------
# Campaign spec codec (the service's POST /campaigns request body)
# ----------------------------------------------------------------------
#
# A *spec* is the declarative, JSON-native description of a campaign plus
# the executor that should run it — what a CLI invocation encodes in
# flags, flattened into one typed document. The decoder is strict: every
# unknown field, wrong type, or out-of-range value raises ``SpecError``
# carrying the dotted path of the offending field, so an HTTP 400 can
# point the caller at exactly the broken key instead of echoing a Python
# traceback.


class SpecError(ValueError):
    """A campaign spec failed validation at ``path``."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


_DATAFLOW_BY_VALUE = {d.value: d for d in Dataflow}
_FILL_BY_VALUE = {f.value: f for f in FillKind}
_EXECUTOR_KINDS = ("serial", "parallel", "fabric")

#: Terminal and non-terminal job lifecycle states (see repro.service.jobs).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


def _spec_mapping(value: Any, path: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise SpecError(path, f"expected an object, got {type(value).__name__}")
    return value


def _spec_unknown(data: dict[str, Any], path: str, allowed: frozenset[str]) -> None:
    for key in data:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            raise SpecError(where, "unknown field")


def _spec_int(
    data: dict[str, Any],
    path: str,
    field: str,
    default: Any = ...,
    minimum: int | None = None,
) -> int:
    if field not in data:
        if default is ...:
            raise SpecError(f"{path}.{field}" if path else field, "required field")
        return default
    value = data[field]
    where = f"{path}.{field}" if path else field
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(where, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise SpecError(where, f"must be >= {minimum}, got {value}")
    return value


def _spec_float(
    data: dict[str, Any],
    path: str,
    field: str,
    default: Any = ...,
    positive: bool = False,
) -> float:
    if field not in data:
        if default is ...:
            raise SpecError(f"{path}.{field}" if path else field, "required field")
        return default
    value = data[field]
    where = f"{path}.{field}" if path else field
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(where, f"expected a number, got {type(value).__name__}")
    if positive and not value > 0:
        raise SpecError(where, f"must be > 0, got {value}")
    return float(value)


def _spec_choice(
    data: dict[str, Any],
    path: str,
    field: str,
    choices,
    default: Any = ...,
) -> str:
    if field not in data:
        if default is ...:
            raise SpecError(f"{path}.{field}" if path else field, "required field")
        return default
    value = data[field]
    where = f"{path}.{field}" if path else field
    if value not in choices:
        raise SpecError(
            where, f"must be one of {sorted(choices)}, got {value!r}"
        )
    return value


def _decode_workload(data: dict[str, Any]) -> GemmWorkload | ConvWorkload:
    workload = _spec_mapping(data, "workload")
    op = _spec_choice(workload, "workload", "op", ("gemm", "conv"))
    dataflow = _DATAFLOW_BY_VALUE[
        _spec_choice(workload, "workload", "dataflow", _DATAFLOW_BY_VALUE, "WS")
    ]
    fill = _FILL_BY_VALUE[
        _spec_choice(workload, "workload", "fill", _FILL_BY_VALUE, "ones")
    ]
    seed = _spec_int(workload, "workload", "seed", 0, minimum=0)
    if op == "gemm":
        _spec_unknown(
            workload,
            "workload",
            frozenset({"op", "m", "k", "n", "dataflow", "fill", "seed"}),
        )
        return GemmWorkload(
            m=_spec_int(workload, "workload", "m", minimum=1),
            k=_spec_int(workload, "workload", "k", minimum=1),
            n=_spec_int(workload, "workload", "n", minimum=1),
            dataflow=dataflow,
            fill=fill,
            seed=seed,
        )
    _spec_unknown(
        workload,
        "workload",
        frozenset({
            "op", "input_size", "kernel", "dataflow", "batch",
            "stride", "padding", "fill", "seed",
        }),
    )
    kernel = workload.get("kernel")
    if (
        not isinstance(kernel, list)
        or len(kernel) != 4
        or any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in kernel)
    ):
        raise SpecError(
            "workload.kernel",
            "expected the paper's [R, S, C, K] list of positive integers",
        )
    r, s, c, k = kernel
    return ConvWorkload(
        input_size=_spec_int(workload, "workload", "input_size", minimum=1),
        kernel_rows=r,
        kernel_cols=s,
        in_channels=c,
        out_channels=k,
        dataflow=dataflow,
        batch=_spec_int(workload, "workload", "batch", 1, minimum=1),
        stride=_spec_int(workload, "workload", "stride", 1, minimum=1),
        padding=_spec_int(workload, "workload", "padding", 0, minimum=0),
        fill=fill,
        seed=seed,
    )


def _decode_executor(data: Any) -> dict[str, Any]:
    executor = _spec_mapping(data, "executor")
    kind = _spec_choice(executor, "executor", "kind", _EXECUTOR_KINDS, "serial")
    if kind == "serial":
        _spec_unknown(executor, "executor", frozenset({"kind"}))
        return {"kind": "serial"}
    if kind == "parallel":
        _spec_unknown(executor, "executor", frozenset({"kind", "jobs"}))
        return {
            "kind": "parallel",
            "jobs": _spec_int(executor, "executor", "jobs", 2, minimum=1),
        }
    _spec_unknown(
        executor,
        "executor",
        frozenset({
            "kind", "host", "port", "workers", "lease_seconds",
            "heartbeat_interval", "join_timeout",
        }),
    )
    port = _spec_int(executor, "executor", "port", 0, minimum=0)
    if port > 65535:
        raise SpecError("executor.port", f"must be <= 65535, got {port}")
    lease = _spec_float(executor, "executor", "lease_seconds", 10.0, positive=True)
    heartbeat = _spec_float(
        executor, "executor", "heartbeat_interval", 2.0, positive=True
    )
    if heartbeat >= lease:
        raise SpecError(
            "executor.heartbeat_interval",
            f"({heartbeat}) must be shorter than lease_seconds ({lease}), "
            f"or every lease expires between renewals",
        )
    host = executor.get("host", "127.0.0.1")
    if not isinstance(host, str) or not host:
        raise SpecError("executor.host", "expected a non-empty string")
    return {
        "kind": "fabric",
        "host": host,
        "port": port,
        "workers": _spec_int(executor, "executor", "workers", 2, minimum=1),
        "lease_seconds": lease,
        "heartbeat_interval": heartbeat,
        "join_timeout": _spec_float(
            executor, "executor", "join_timeout", 60.0, positive=True
        ),
    }


_SPEC_FIELDS = frozenset({
    "schema_version", "kind", "mesh", "workload", "fault",
    "engine", "sites", "keep_patterns", "executor",
})


def decode_campaign_spec(data: Any) -> tuple[Campaign, dict[str, Any]]:
    """Validate a campaign spec and build ``(campaign, executor spec)``.

    The executor spec comes back as a normalised plain dict (kind plus
    kind-specific knobs, defaults filled in) rather than a constructed
    executor: ``repro.core.executor.build_executor`` builds the real one
    per *run*, with the caller's checkpoint, interrupt and observability.

    Raises
    ------
    SpecError
        On any unknown field, wrong type, or out-of-range value; the
        error's ``path`` names the offending field (``"workload.m"``).
    """
    spec = _spec_mapping(data, "")
    _spec_unknown(spec, "", _SPEC_FIELDS)
    version = spec.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SpecError(
            "schema_version",
            f"unsupported campaign spec schema version {version!r} "
            f"(expected {SCHEMA_VERSION})",
        )
    kind = spec.get("kind", "campaign-spec")
    if kind != "campaign-spec":
        raise SpecError("kind", f"expected 'campaign-spec', got {kind!r}")

    if "mesh" not in spec:
        _missing("mesh")
    mesh_data = _spec_mapping(spec["mesh"], "mesh")
    _spec_unknown(mesh_data, "mesh", frozenset({"rows", "cols"}))
    mesh = MeshConfig(
        rows=_spec_int(mesh_data, "mesh", "rows", minimum=1),
        cols=_spec_int(mesh_data, "mesh", "cols", minimum=1),
    )

    if "workload" not in spec:
        _missing("workload")
    workload = _decode_workload(spec["workload"])

    fault_data = _spec_mapping(spec.get("fault", {}), "fault")
    _spec_unknown(fault_data, "fault", frozenset({"signal", "bit", "stuck"}))
    signal = fault_data.get("signal", FaultSpec().signal)
    if not isinstance(signal, str):
        raise SpecError("fault.signal", "expected a string")
    try:
        fault_spec = FaultSpec(
            signal=signal,
            bit=_spec_int(fault_data, "fault", "bit", FaultSpec().bit, minimum=0),
            stuck_value=_spec_int(fault_data, "fault", "stuck", 1),
        )
    except (KeyError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError("fault", str(exc)) from exc

    engine = _spec_choice(spec, "", "engine", ENGINES, "functional")

    sites = spec.get("sites")
    if sites is not None:
        if not isinstance(sites, list):
            raise SpecError("sites", "expected a list of [row, col] pairs or null")
        decoded_sites: list[tuple[int, int]] = []
        for index, site in enumerate(sites):
            if (
                not isinstance(site, list)
                or len(site) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in site)
            ):
                raise SpecError(f"sites[{index}]", "expected a [row, col] pair")
            row, col = site
            if not (0 <= row < mesh.rows and 0 <= col < mesh.cols):
                raise SpecError(
                    f"sites[{index}]",
                    f"({row}, {col}) is outside the "
                    f"{mesh.rows}x{mesh.cols} mesh",
                )
            decoded_sites.append((row, col))
        sites = decoded_sites

    keep_patterns = spec.get("keep_patterns", True)
    if not isinstance(keep_patterns, bool):
        raise SpecError("keep_patterns", "expected a boolean")

    executor = _decode_executor(spec.get("executor", {"kind": "serial"}))
    campaign = Campaign(
        mesh,
        workload,
        fault_spec=fault_spec,
        engine=engine,
        sites=sites,
        keep_patterns=keep_patterns,
    )
    return campaign, executor


def _missing(field: str):
    raise SpecError(field, "required field")


def encode_campaign_spec(
    campaign: Campaign, executor: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Serialise a campaign (and optional executor spec) as a spec document.

    ``decode_campaign_spec(encode_campaign_spec(c))`` rebuilds a campaign
    with identical fields — the round-trip contract the codec tests pin.
    """
    workload = campaign.workload
    if isinstance(workload, GemmWorkload):
        workload_data: dict[str, Any] = {
            "op": "gemm",
            "m": workload.m,
            "k": workload.k,
            "n": workload.n,
        }
    else:
        workload_data = {
            "op": "conv",
            "input_size": workload.input_size,
            "kernel": list(workload.kernel_spec),
            "batch": workload.batch,
            "stride": workload.stride,
            "padding": workload.padding,
        }
    workload_data["dataflow"] = workload.dataflow.value
    workload_data["fill"] = workload.fill.value
    workload_data["seed"] = workload.seed
    data: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "campaign-spec",
        "mesh": {"rows": campaign.mesh.rows, "cols": campaign.mesh.cols},
        "workload": workload_data,
        "fault": {
            "signal": campaign.fault_spec.signal,
            "bit": campaign.fault_spec.bit,
            "stuck": campaign.fault_spec.stuck_value,
        },
        "engine": campaign.engine_kind,
        "sites": [list(site) for site in campaign.sites],
        "keep_patterns": campaign.keep_patterns,
        "executor": dict(executor) if executor is not None else {"kind": "serial"},
    }
    return data


# ----------------------------------------------------------------------
# Job registry codec (append-only JSONL, one lifecycle snapshot per line)
# ----------------------------------------------------------------------
#
# The service's job registry reuses the checkpoint stream's torn-write
# discipline: a header line identifying the artefact, then one JSON
# record per state transition, each a *full* snapshot of the job (id,
# state, spec, error) so recovery needs only the last record per job.
# Torn tails — the expected residue of a crashed server — are skipped
# with a warning on read and healed by the writer before appending.


def job_registry_header() -> dict[str, Any]:
    """The identifying first line of a service job registry stream."""
    return {"schema_version": SCHEMA_VERSION, "kind": "job-registry"}


def job_record(
    job_id: str,
    seq: int,
    state: str,
    spec: dict[str, Any],
    error: str | None = None,
) -> dict[str, Any]:
    """One lifecycle snapshot of a service job, JSON-compatible."""
    if state not in JOB_STATES:
        raise ValueError(f"unknown job state {state!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "job",
        "job_id": job_id,
        "seq": seq,
        "state": state,
        "spec": spec,
        "error": error,
    }


_JOB_FIELDS = frozenset({
    "schema_version", "kind", "job_id", "seq", "state", "spec", "error",
})


def job_from_record(record: dict[str, Any]) -> dict[str, Any]:
    """Validate and normalise one job registry record.

    Raises
    ------
    ValueError
        If the record is not a job snapshot, carries an unknown schema
        version or state, or has unknown/missing fields.
    """
    if not isinstance(record, dict) or record.get("kind") != "job":
        raise ValueError("not a job record")
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported job record schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    unknown = set(record) - _JOB_FIELDS
    if unknown:
        raise ValueError(f"unknown job record fields: {sorted(unknown)}")
    for field_name in ("job_id", "seq", "state", "spec"):
        if field_name not in record:
            raise ValueError(f"job record is missing {field_name!r}")
    if record["state"] not in JOB_STATES:
        raise ValueError(f"unknown job state {record['state']!r}")
    if not isinstance(record["spec"], dict):
        raise ValueError("job record spec must be an object")
    return {
        "job_id": record["job_id"],
        "seq": record["seq"],
        "state": record["state"],
        "spec": record["spec"],
        "error": record.get("error"),
    }


def read_job_registry(path: str | Path) -> list[dict[str, Any]]:
    """Read a job registry stream: validated job snapshots in file order.

    See :func:`read_jsonl_stream`: corrupt record lines are skipped with
    a :class:`RuntimeWarning` (recovery proceeds from the snapshots that
    did land), a corrupt or alien header raises :class:`ValueError`.
    """
    return read_jsonl_stream(path, "job-registry", job_from_record)[1]


# ----------------------------------------------------------------------
# Campaign result artefact (the service's GET /campaigns/{id}/result body)
# ----------------------------------------------------------------------


def campaign_result_record(result: CampaignResult) -> dict[str, Any]:
    """Serialise a campaign result at checkpoint (full) fidelity.

    Unlike :func:`campaign_to_dict` — the archival summary — this stores
    the classification evidence and sparse deviation cells of every
    experiment verbatim (via :func:`experiment_record`), so a client
    holding the same campaign spec can rebuild a ``CampaignResult`` that
    is field-for-field identical to the run that produced it.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "campaign-result",
        "workload": result.workload.describe(),
        "operation": str(result.workload.operation),
        "mesh": {"rows": result.mesh.rows, "cols": result.mesh.cols},
        "fault_spec": {
            "signal": result.fault_spec.signal,
            "bit": result.fault_spec.bit,
            "stuck_value": result.fault_spec.stuck_value,
        },
        "wall_seconds": result.wall_seconds,
        "telemetry": result.telemetry,
        "experiments": [experiment_record(e) for e in result.experiments],
        "failures": [failure_record(f) for f in result.failures],
    }


def campaign_result_from_record(
    data: dict[str, Any], campaign: Campaign
) -> CampaignResult:
    """Rebuild a full-fidelity :class:`CampaignResult` from its artefact.

    The golden context (output, plan, geometry) is *recomputed* from
    ``campaign`` — the artefact ships only the sparse per-experiment
    evidence, exactly like a checkpoint stream, and the golden run is
    deterministic given the spec.

    Raises
    ------
    ValueError
        If the artefact is not a campaign result or carries an unknown
        schema version.
    """
    if not isinstance(data, dict) or data.get("kind") != "campaign-result":
        raise ValueError("not a campaign result artefact")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported campaign result schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    golden, plan, geometry = campaign.golden_run()
    shape = golden.shape if campaign.keep_patterns else None
    experiments = [
        experiment_from_record(
            record, shape=shape, plan=plan, geometry=geometry
        )
        for record in data["experiments"]
    ]
    return CampaignResult(
        workload=campaign.workload,
        fault_spec=campaign.fault_spec,
        mesh=campaign.mesh,
        golden=golden,
        plan=plan,
        geometry=geometry,
        experiments=experiments,
        wall_seconds=data["wall_seconds"],
        failures=[failure_from_record(f) for f in data["failures"]],
        telemetry=data.get("telemetry"),
    )
