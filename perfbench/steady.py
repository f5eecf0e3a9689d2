"""Run the workloads repeatedly and report how steady each metric is.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads a,b]
                                [--seconds S] [--seed N] [--log FILE]

Runs go one at a time, never two workloads at once. Within a set the
workload order alternates (forward on even rounds, reversed on odd), and
every round uses a new seed. For each workload and end-to-end metric the
report gives the median, the quartiles and the spread (q3 - q1) / median
next to the metric's bound from ``BENCHMARK.json``; with ``--sets 2`` it
also gives how far the second set's median moved from the first's, in
the direction that counts as worse. Each run's wall time is reported so
the whole benchmark's time budget can be checked, with the share of the
host's CPU time stolen by the hypervisor while it ran (from
``/proc/stat``; the main noise source on a shared VM). ``--log`` keeps
every run's JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_times() -> list[int]:
    """The host's aggregate CPU counters (Linux), or ``[]``."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time stolen between two :func:`cpu_times` readings."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode})")
    return json.loads(lines[-1]), wall


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--log", type=Path)
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    results: dict = {(s, w): [] for s in range(args.sets) for w in names}
    walls: dict = {w: [] for w in names}
    for set_index in range(args.sets):
        for round_index in range(args.runs):
            seed = args.seed + set_index * args.runs + round_index
            order = names if round_index % 2 == 0 else names[::-1]
            for workload in order:
                before = cpu_times()
                result, wall = one_run(workload, seed, args.seconds)
                steal = steal_share(before, cpu_times())
                results[(set_index, workload)].append(result)
                walls[workload].append(wall)
                print(f"set {set_index} seed {seed} {workload}: {wall:.1f} s, "
                      f"steal {steal:.3f}", file=sys.stderr, flush=True)
                if args.log:
                    with args.log.open("a") as log:
                        log.write(json.dumps({
                            "set": set_index, "seed": seed,
                            "workload": workload, "wall_s": wall,
                            "steal": steal, **result}) + "\n")
    total = sum(sum(w) / len(w) for w in walls.values())
    runs = 4 + 22 * len(spec["workloads"])
    print(f"mean wall per run: " + ", ".join(
        f"{w} {statistics.mean(v):.1f} s" for w, v in walls.items()))
    print(f"projected benchmark time ({runs} runs): "
          f"{runs * total / len(names):.0f} s")
    for workload in names:
        print(f"\n{workload}")
        print(f"  {'metric':<13}{'bound':>6}" + "".join(
            f"{f'set {s} median':>15}{'q1':>11}{'q3':>11}{'spread':>8}"
            for s in range(args.sets)) + (f"{'shift':>8}" if args.sets > 1 else ""))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:<13}{bound:>6.2f}"
            medians = []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"]
                          for r in results[(s, workload)]]
                median, q1, q3, rel = spread(values)
                medians.append(median)
                line += f"{median:>15.4g}{q1:>11.4g}{q3:>11.4g}{rel:>8.3f}"
            if args.sets > 1:
                first, later = medians[0], medians[1]
                worse = (later - first if metric["better"] == "lower"
                         else first - later)
                line += f"{worse / first:>+8.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
