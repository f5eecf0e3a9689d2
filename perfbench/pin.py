"""Derive the correctness gate's pinned digests from the serial reference.

    PYTHONPATH=src:perfbench python3 perfbench/pin.py          # check
    PYTHONPATH=src:perfbench python3 perfbench/pin.py --write  # re-pin

``study_analytic`` pins the Table I study's per-configuration class
census. ``pool_functional`` pins, for every MAC site of each of its three
configurations, the (class, corrupted cells, max |deviation|) triple of a
``SerialExecutor`` run on the functional engine; the benchmark compares
each sampled site against its row. A full functional derivation takes a
few minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads


def derive_study() -> dict:
    from repro.core.executor import GOLDEN_CACHE
    from repro.core.study import run_paper_study

    GOLDEN_CACHE.clear()
    report = run_paper_study(engine="analytic")
    assert report.all_single_class and report.all_match_theory
    return {
        "sites": sum(len(e.result.experiments) for e in report.entries),
        "census_sha256": workloads.sha256(workloads.study_census(report)),
    }


def derive_pool(engine: str = "functional", sites=None) -> dict:
    """Per-site triples of each ``pool_functional`` configuration, in
    row-major site order (or for ``sites`` only)."""
    from repro.core import Campaign, SerialExecutor
    from repro.systolic import MeshConfig

    mesh = MeshConfig.paper()
    tables = {}
    for workload in workloads.pool_configs():
        result = Campaign(mesh, workload, engine=engine, sites=sites).run(
            SerialExecutor()
        )
        tables[workload.describe()] = [
            workloads.site_tuple(e) for e in result.experiments
        ]
    return tables


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite pinned.json instead of checking it")
    args = parser.parse_args(argv)
    derived = {"study_analytic": derive_study(), "pool_functional": derive_pool()}
    if args.write:
        workloads.PINNED.write_text(json.dumps(derived, indent=1) + "\n")
        return 0
    same = derived == workloads.load_pinned()
    print("pinned digests match" if same else "pinned digests DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
