"""Lint engine scaling: the per-file battery over a process pool.

``repro-fi lint --jobs/-j N`` fans the per-file rule battery out over
worker processes (:func:`repro.checks.engine.run_checks`); the
whole-program passes stay in-parent because they are one indivisible
graph-wide fixpoint. This bench measures that fan-out's wall-clock
scaling with the cache off — the cold-lint case the flag exists for —
on a corpus large enough that per-file parsing and rule work dominates
pool startup: the real ``src/repro`` tree replicated under fresh roots
(each replica still resolves to ``repro.*`` dotted names, so scoped
rules apply exactly as on the real tree).

Determinism is asserted at every worker count — the parallel merge must
reproduce the serial findings byte for byte. The speedup assertion
(>= 2x at 4 workers, per the PR acceptance bar) only arms on hosts with
at least 4 usable cores; starved runners still verify equivalence and
print the measured ratios as context.
"""

import shutil
import tempfile
import time
from pathlib import Path

from repro.checks.cache import lint_paths
from repro.checks.engine import run_checks

from _common import banner, parallel_capacity, run_once

#: Copies of src/repro in the corpus: enough file-level work that the
#: pool amortises its startup, small enough to keep the bench quick.
REPLICAS = 3

JOB_COUNTS = (2, 4)


def build_corpus(root: Path) -> Path:
    """Replicate ``src/repro`` REPLICAS times under ``root``.

    Each copy lives at ``root/rep_<i>/repro`` with no ``__init__.py`` in
    ``rep_<i>``, so :func:`repro.checks.engine.module_name` resolves its
    files to ``repro.*`` and the scoped rules all apply.
    """
    source = Path(__file__).resolve().parent.parent / "src" / "repro"
    for i in range(REPLICAS):
        shutil.copytree(
            source, root / f"rep_{i}" / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    return root


def test_lint_scaling(benchmark):
    with tempfile.TemporaryDirectory() as td:
        corpus = build_corpus(Path(td))

        start = time.perf_counter()
        serial = run_checks([corpus])
        serial_seconds = time.perf_counter() - start

        timings = {1: serial_seconds}
        results = {}
        for jobs in JOB_COUNTS:
            start = time.perf_counter()
            results[jobs] = run_checks([corpus], jobs=jobs)
            timings[jobs] = time.perf_counter() - start

        cores = parallel_capacity()
        n_files = sum(1 for _ in corpus.rglob("*.py"))
        print(banner(
            f"Lint scaling — per-file battery, {n_files} files "
            f"({REPLICAS}x src/repro), cache off "
            f"({cores} core(s) available)"
        ))
        print(f"{'jobs':>4}  {'seconds':>8}  {'speedup':>7}")
        for jobs, seconds in sorted(timings.items()):
            print(
                f"{jobs:>4}  {seconds:>8.3f}  "
                f"{serial_seconds / seconds:>6.2f}x"
            )

        # Determinism guarantee: the parallel merge reproduces the
        # serial findings exactly, at every worker count.
        for findings in results.values():
            assert findings == serial

        if cores >= 4:
            assert serial_seconds / timings[4] >= 2.0, (
                f"expected >= 2x speedup at 4 workers on {cores} cores, "
                f"got {serial_seconds / timings[4]:.2f}x"
            )
        else:
            print(
                f"\n(speedup assertion skipped: only {cores} core(s) "
                "available)"
            )

        run_once(benchmark, run_checks, [corpus], jobs=4)


def test_lint_cache_warmup(benchmark):
    """Warm-cache lint stays >= 5x over cold, full battery included.

    The cold run pays parsing, every per-file rule, the project graph,
    and all whole-program passes — the flow engine's fixpoints are the
    costliest; the warm rerun must reduce to hashing plus one JSON read.
    Measured on the real ``src/repro`` tree so the pin tracks the battery
    as it changes.
    """
    source = Path(__file__).resolve().parent.parent / "src" / "repro"
    with tempfile.TemporaryDirectory() as td:
        cache_path = Path(td) / "lint-cache.json"

        start = time.perf_counter()
        cold = lint_paths([source], cache_path=cache_path)
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = lint_paths([source], cache_path=cache_path)
        warm_seconds = time.perf_counter() - start

        ratio = cold_seconds / warm_seconds
        print(banner("Lint cache warm-up — full battery over src/repro"))
        print(f"{'run':>6}  {'seconds':>8}")
        print(f"{'cold':>6}  {cold_seconds:>8.3f}")
        print(f"{'warm':>6}  {warm_seconds:>8.3f}  ({ratio:.1f}x)")

        assert warm == cold
        assert ratio >= 5.0, (
            f"expected warm-cache lint >= 5x over cold, got {ratio:.2f}x "
            f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s)"
        )

        run_once(benchmark, lint_paths, [source], cache_path=cache_path)
