"""Run one benchmark workload with a seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; ``BENCHMARK.json`` lists the
workloads and metrics, and ``perfbench/README.md`` explains them. With
``--trace 0`` the run sets the workload up in three fresh process sets
(two set-up probes, then the measured one) and reports the median set-up
time beside the steady-state metrics. With ``--trace 1`` it makes one
traced run and reports the per-layer metrics instead. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is non-zero when an output
failed its correctness gate, an operation failed, or a process the run
started outlived it.

This file imports only the standard library; the program under test is
imported by the ``work.py`` processes it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Hard limit for one ``work.py`` process (the run must end within 180 s).
CHILD_TIMEOUT = 150.0

_current: list[subprocess.Popen] = []


def _forward(signum, frame):
    for proc in _current:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    raise SystemExit(128 + signum)


def run_child(mode: str, args, tmp: Path) -> dict:
    """Start ``work.py MODE``; time launch → READY; return its RESULT."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["TMPDIR"] = str(tmp)
    argv = [
        sys.executable, str(HERE / "work.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--tmp", str(tmp),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    _current.append(proc)
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        _current.remove(proc)
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise RuntimeError(f"work.py {mode} exited with {code}")
    result = result or {}
    result["setup_s"] = ready
    return result


def stray_processes(tmp: Path) -> list[int]:
    """Server/agent pids the run started that are still alive (killed)."""
    registry = tmp / "pids.txt"
    if not registry.exists():
        return []
    alive = []
    for pid in map(int, registry.read_text().split()):
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        except OSError:
            continue
        if state.split()[0] != "Z":
            alive.append(pid)
            try:
                os.killpg(pid, signal.SIGKILL)
            except OSError:
                pass
    return alive


def end_to_end(runs: list[dict], measured: dict) -> dict:
    ops = measured["ops"]
    latencies = [seconds for _, seconds in ops]
    sites = sum(count for count, _ in ops)
    busy = measured["wall"]
    # Inclusive quantiles interpolate between observed latencies, so p90
    # is never above the slowest operation the run saw.
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    attempted = max(1, measured["attempted"])
    print(
        f"{len(ops)} operations ({sites} sites) in {busy:.2f} s; "
        f"{sum(1 for t in latencies if t > p90)} beyond p90; "
        f"set-ups {[round(r['setup_s'], 3) for r in runs]}; "
        f"peak RSS {measured['peak_rss_mb']:.1f} MB",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "sites_per_s": (sites / busy, "1/s"),
        "job_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "job_p90_ms": (1e3 * p90, "ms"),
        "jobs_per_s": (len(ops) / busy, "1/s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "ok_frac": (1 - measured["failed"] / attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _forward)
    signal.signal(signal.SIGINT, _forward)
    # Bytecode is compiled before any clock starts, so no set-up pays it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        check=True, stdout=subprocess.DEVNULL,
    )
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        if args.trace:
            outcome = run_child("trace", args, tmp)
            metrics = outcome["metrics"]
        else:
            runs = [run_child("setup", args, tmp)
                    for _ in range(SETUP_SAMPLES - 1)]
            outcome = run_child("measure", args, tmp)
            runs.append(outcome)
            metrics = end_to_end(runs, outcome)
    finally:
        strays = stray_processes(tmp)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    if strays:
        print(f"perfbench: processes outlived the run: {strays}",
              file=sys.stderr)
    correct = outcome["failed"] == 0 and not strays
    if outcome["failed"]:
        print(f"perfbench: {outcome['failed']} of {outcome['attempted']} "
              f"operations failed", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
