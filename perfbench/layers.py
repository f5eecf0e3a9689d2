"""Per-layer call accounting for the traced benchmark run.

:func:`install` wraps the public entry points of each ``repro`` layer (plus
``os.fsync`` and the process-pool spawn call) with a timer that
keeps, per wrapped name, the call count, the inclusive time and the *self*
time: inclusive time minus the time spent in nested wrapped calls on the
same thread. Nothing under ``src/`` changes; the wrappers replace module
and class attributes at run time, so only the process that installs them
(and the pool children it forks afterwards) is measured.

Every measured process keeps its own tallies. Worker processes write
them to ``<stats dir>/<pid>.json`` after each shard and at exit, and
:func:`collect` sums the files. A forked child starts from zero (an
``os.register_at_fork`` hook), so nothing is counted twice.

The helpers here import nothing from ``repro`` until :func:`install`
runs, so importing the module is free for the untraced benchmark.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import pickle
import sys
import threading
import time
from pathlib import Path

#: Environment variable naming the stats directory; when set, importing
#: ``launch.py`` (or a spawned pool child whose main module it is)
#: installs the wrappers.
STATS_ENV = "PERFBENCH_STATS"

#: (metric name, layer, "module:attribute path") for every wrapped call.
#: Several targets may share a metric name; their tallies add up.
TARGETS = [
    ("systolic.matmul", "repro.systolic",
     "repro.systolic.functional:FunctionalSimulator.matmul"),
    ("systolic.matmul", "repro.systolic",
     "repro.systolic.simulator:CycleSimulator.matmul"),
    ("analytic.evaluate_batch", "repro.engines.analytic",
     "repro.engines.analytic.engine:evaluate_batch"),
    ("analytic.chain_tile", "repro.engines.analytic",
     "repro.engines.analytic.algebra:ws_chain_tile"),
    ("analytic.chain_tile", "repro.engines.analytic",
     "repro.engines.analytic.algebra:os_chain_tile"),
    ("classifier.classify_cells", "repro.core.classifier",
     "repro.core.classifier:classify_cells"),
    ("classifier.classify_pattern", "repro.core.classifier",
     "repro.core.classifier:classify_pattern"),
    ("fault_patterns.extract_pattern", "repro.core.classifier",
     "repro.core.fault_patterns:extract_pattern"),
    ("predictor.predict_class", "repro.core.predictor",
     "repro.core.predictor:predict_class"),
    ("campaign.run_experiment", "repro.core.campaign",
     "repro.core.campaign:Campaign.run_experiment"),
    ("study.run_paper_study", "repro.core.study",
     "repro.core.study:run_paper_study"),
    ("executor.execute", "repro.core.executor",
     "repro.core.executor:SerialExecutor.execute"),
    ("executor.execute", "repro.core.executor",
     "repro.core.executor:ParallelExecutor.execute"),
    ("executor.golden", "repro.core.executor",
     "repro.core.executor:GoldenCache.golden_run"),
    ("executor.pool_start", "repro.core.executor",
     "concurrent.futures.process:ProcessPoolExecutor._spawn_process"),
    ("executor.dispatch_wait", "repro.core.executor",
     "concurrent.futures:wait"),
    ("executor.merge", "repro.core.executor",
     "repro.core.executor:_merged_result"),
    ("executor.shard", "repro.core.executor",
     "repro.core.executor:_run_shard"),
    ("checkpoint.fsync", "repro.core.serialize", "os:fsync"),
    ("serialize.experiment_record", "repro.core.serialize",
     "repro.core.serialize:experiment_record"),
    ("serialize.experiment_from_record", "repro.core.serialize",
     "repro.core.serialize:experiment_from_record"),
    ("serialize.decode_campaign_spec", "repro.core.serialize",
     "repro.core.serialize:decode_campaign_spec"),
    ("serialize.campaign_result_record", "repro.core.serialize",
     "repro.core.serialize:campaign_result_record"),
    ("fabric.encode_frame", "repro.core.fabric",
     "repro.core.serialize:encode_frame"),
    ("fabric.decode_frame", "repro.core.fabric",
     "repro.core.serialize:decode_frame"),
    ("fabric.dispatch", "repro.core.fabric",
     "repro.core.fabric.coordinator:DistributedExecutor._dispatch"),
    ("obs.ingest", "repro.obs", "repro.obs.trace:TraceRecorder.ingest"),
]

#: Layer of each metric name, for the self-time table.
LAYER_OF = {name: layer for name, layer, _ in TARGETS}

#: The table's rows, in call-stack order from the top.
LAYERS = [
    "repro.core.study",
    "repro.core.campaign",
    "repro.core.executor",
    "repro.core.fabric",
    "repro.service",
    "repro.core.serialize",
    "repro.engines.analytic",
    "repro.core.classifier",
    "repro.core.predictor",
    "repro.systolic",
    "repro.obs",
]


class Tally:
    """One process's counts: per name ``[calls, total_ns, self_ns,
    main_thread_self_ns]`` plus free-form counters."""

    def __init__(self) -> None:
        self.calls: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self.lock = threading.Lock()

    def add(self, name: str, total_ns: int, self_ns: int, main: bool) -> None:
        with self.lock:
            entry = self.calls.setdefault(name, [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += total_ns
            entry[2] += self_ns
            if main:
                entry[3] += self_ns

    def count(self, name: str, amount: float = 1) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "calls": {k: list(v) for k, v in self.calls.items()},
                "counters": dict(self.counters),
            }


TALLY = Tally()
_local = threading.local()
_state = {"enabled": True, "dir": None, "installed": False, "marks": {}}


def enabled(flag: bool) -> None:
    """Pause (``False``) or resume counting in this process; the
    benchmark pauses it while its correctness gate runs."""
    _state["enabled"] = flag


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _wrap(name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not _state["enabled"]:
            return fn(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        stack = _stack()
        frame = [0, name]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            TALLY.add(
                name, elapsed, elapsed - frame[0],
                threading.current_thread() is threading.main_thread(),
            )
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


# -- hooks that turn calls into counters ---------------------------------
#: The program's own golden-cache counters, by benchmark metric name.
GOLDEN_COUNTERS = {
    "executor.golden_cache.hits": "repro_golden_cache_hits_total",
    "executor.golden_cache.misses": "repro_golden_cache_misses_total",
}


def _golden_before(args, kwargs):
    # ``GoldenCache.golden_run`` counts hits and misses on the registry it
    # is given (the run's, or a service job's); its change is the count.
    metrics = kwargs.get("metrics")
    _local.golden = None if metrics is None else {
        name: metrics.value(counter) for name, counter in GOLDEN_COUNTERS.items()
    }


def _golden_after(args, kwargs, result):
    if _local.golden is None:
        return  # called without a registry: the program counted nothing
    for name, counter in GOLDEN_COUNTERS.items():
        TALLY.count(name, kwargs["metrics"].value(counter) - _local.golden[name])


def _experiment_before(args, kwargs):
    # A per-site experiment issued from inside the analytic batch is a
    # fallback to the functional engine.
    if any(frame[1] == "analytic.evaluate_batch" for frame in _stack()):
        TALLY.count("analytic.fallback_sites")


def _shard_after(args, kwargs, result):
    TALLY.count("executor.shards")
    TALLY.count(
        "executor.result_pickle_bytes",
        len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)),
    )
    dump()


def _fsync_after(args, kwargs, result):
    TALLY.count("checkpoint.fsyncs")


def _dispatch_before(args, kwargs):
    _state["marks"]["dispatch"] = time.perf_counter()
    _state["marks"]["joined"] = 0


def _encode_after(args, kwargs, result):
    TALLY.count("fabric.frames")
    TALLY.count("fabric.frame_bytes", len(result))
    marks = _state["marks"]
    if args[0].get("type") == "result" and "welcome" in marks:
        welcome = marks.pop("welcome")
        TALLY.count("fabric.agent_setup_ms", 1e3 * (time.perf_counter() - welcome))


def _decode_after(args, kwargs, result):
    kind = result.get("type")
    marks = _state["marks"]
    if kind == "hello" and "dispatch" in marks:
        marks["joined"] = marks.get("joined", 0) + 1
        if marks["joined"] == 2:  # the benchmark's fleet has two agents
            TALLY.count(
                "fabric.join_ms", 1e3 * (time.perf_counter() - marks["dispatch"])
            )
    elif kind == "welcome":
        marks["welcome"] = time.perf_counter()


HOOKS = {
    "executor.golden": (_golden_before, _golden_after),
    "campaign.run_experiment": (_experiment_before, None),
    "executor.shard": (None, _shard_after),
    "checkpoint.fsync": (None, _fsync_after),
    "fabric.dispatch": (_dispatch_before, None),
    "fabric.encode_frame": (None, _encode_after),
    "fabric.decode_frame": (None, _decode_after),
}


def _resolve(path: str):
    module_name, attr_path = path.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(stats_dir: str | None = None) -> None:
    """Wrap every :data:`TARGETS` entry in this process (idempotent).

    Module-level functions are also replaced wherever a loaded ``repro``
    module imported them by name, so ``from x import f`` call sites are
    covered. ``stats_dir`` is where this process and its workers dump
    their tallies.
    """
    if _state["installed"]:
        return
    _state["installed"] = True
    _state["dir"] = stats_dir
    # Import every layer first so by-name imports are in place to patch.
    for module in ("repro.core", "repro.core.study", "repro.service",
                   "repro.core.fabric.worker", "repro.engines.analytic.engine"):
        importlib.import_module(module)
    for name, _, path in TARGETS:
        owner, attr = _resolve(path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        before, after = HOOKS.get(name, (None, None))
        wrapper = _wrap(name, original, before, after)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        if not path.startswith("concurrent.futures:"):
            setattr(owner, attr, wrapper)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    os.register_at_fork(after_in_child=_reset_in_child)
    if stats_dir is not None:
        atexit.register(dump)


def _reset_in_child() -> None:
    TALLY.calls.clear()
    TALLY.counters.clear()
    TALLY.lock = threading.Lock()
    _local.stack = []
    _state["marks"] = {}


def dump() -> None:
    """Write this process's tallies to ``<stats dir>/<pid>.json``."""
    directory = _state["dir"]
    if directory is None:
        return
    path = Path(directory) / f"{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(TALLY.snapshot()))
    os.replace(tmp, path)


def collect(stats_dir: str | Path) -> dict:
    """Sum the tallies every worker process dumped into ``stats_dir``."""
    total = {"calls": {}, "counters": {}}
    for path in sorted(Path(stats_dir).glob("*.json")):
        merge(total, json.loads(path.read_text()))
    return total


def merge(total: dict, part: dict) -> dict:
    for name, values in part["calls"].items():
        entry = total["calls"].setdefault(name, [0, 0, 0, 0])
        for index, value in enumerate(values):
            entry[index] += value
    for name, value in part["counters"].items():
        total["counters"][name] = total["counters"].get(name, 0) + value
    return total


def self_time_table(local: dict, wall_s: float) -> dict:
    """Rows of main-thread self time per layer plus ``unattributed``.

    ``local`` is the issuing process's own snapshot; its main-thread self
    times, grouped by layer, and the ``unattributed`` remainder sum to
    ``wall_s``. Work done in worker processes is not on this table: the
    issuing thread sees it as time blocked in the executor or fabric.
    """
    rows = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, _, main_self) in local["calls"].items():
        rows[LAYER_OF[name]] += main_self / 1e6
    rows["unattributed"] = wall_s * 1e3 - sum(rows.values())
    return rows


def format_table(rows: dict, wall_s: float, workers: dict) -> str:
    """Human-readable table: issuing-thread self ms and worker self ms."""
    worker_rows = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_ns, _) in workers["calls"].items():
        worker_rows[LAYER_OF[name]] += self_ns / 1e6
    lines = [f"{'layer':<24}{'self ms':>12}{'share':>8}{'worker ms':>12}"]
    for layer, ms in rows.items():
        share = ms / (wall_s * 1e3) if wall_s > 0 else 0.0
        lines.append(
            f"{layer:<24}{ms:>12.1f}{100 * share:>7.1f}%"
            f"{worker_rows.get(layer, 0.0):>12.1f}"
        )
    lines.append(f"{'traced wall':<24}{wall_s * 1e3:>12.1f}{100.0:>7.1f}%")
    return "\n".join(lines)
