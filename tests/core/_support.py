"""Shared assertions for the executor-equivalence and checkpoint tests.

The determinism contract of :mod:`repro.core.executor` is *field-for-field*
equality with the serial reference — dataclass ``==`` is unusable here
because :class:`FaultPattern` holds numpy arrays, so the comparison is
spelled out explicitly.
"""

from __future__ import annotations

import gc
import hashlib
import weakref
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.campaign import CampaignResult, ExperimentResult

#: The checkout's root: the working directory of every test that starts
#: ``python -m repro.cli`` with ``PYTHONPATH=src``.
REPO_ROOT = Path(__file__).resolve().parents[2]


def assert_experiments_equal(a: ExperimentResult, b: ExperimentResult) -> None:
    assert a.site == b.site
    assert a.classification == b.classification
    assert a.num_corrupted == b.num_corrupted
    assert a.max_abs_deviation == b.max_abs_deviation
    assert (a.pattern is None) == (b.pattern is None)
    if a.pattern is not None and b.pattern is not None:
        assert np.array_equal(a.pattern.mask, b.pattern.mask)
        assert np.array_equal(a.pattern.deviation, b.pattern.deviation)
        assert a.pattern.plan == b.pattern.plan
        assert a.pattern.geometry == b.pattern.geometry


def assert_campaigns_equivalent(
    reference: CampaignResult, candidate: CampaignResult
) -> None:
    """Field-for-field equality, modulo wall-clock time."""
    assert np.array_equal(reference.golden, candidate.golden)
    assert reference.plan == candidate.plan
    assert reference.geometry == candidate.geometry
    assert len(reference.experiments) == len(candidate.experiments)
    # Canonical ordering: sites appear in the same order on both sides.
    assert [e.site for e in reference.experiments] == [
        e.site for e in candidate.experiments
    ]
    for ref, cand in zip(reference.experiments, candidate.experiments):
        assert_experiments_equal(ref, cand)
    # The derived reductions the RQ benches consume.
    assert reference.census() == candidate.census()
    assert reference.sdc_rate() == candidate.sdc_rate()
    assert reference.dominant_class() is candidate.dominant_class()
    assert reference.is_single_class() == candidate.is_single_class()


def assert_freed_on_drop(run: Callable[[], CampaignResult]) -> None:
    """Dropping the result of ``run()`` frees its patterns at once.

    The cyclic collector is paused throughout, so a dispatcher left in a
    reference cycle that still held the experiments would keep them
    alive, and the patterns of every finished campaign would pile up
    until the next collection.
    """
    gc.disable()
    try:
        result = run()
        pattern = next(e.pattern for e in result.experiments if e.sdc)
        freed = weakref.ref(pattern.deviation)
        del result, pattern
        assert freed() is None
    finally:
        gc.enable()


def operand_digest(workload) -> str:
    """sha256 over the raw bytes of a workload's operand pair.

    Module-level so a process pool can ship it to a worker — the
    cross-process operand regression pins this digest from both sides of
    a fork.
    """
    digest = hashlib.sha256()
    for operand in workload.operands():
        digest.update(np.ascontiguousarray(operand).tobytes())
    return digest.hexdigest()
