"""The benchmark's four workloads and their correctness gates.

Each workload has the same life cycle, driven by ``work.py``:

* ``setup()`` -- everything before the first timed operation can be
  issued (imports, fresh server or agent processes, golden runs that
  users pay once);
* ``op(index)`` -- one timed operation; returns ``(sites, output)``;
* ``check(output)`` -- the correctness gate, run outside the timed
  window; returns ``(attempted, failed)`` site or job counts;
* ``teardown()`` -- reaps every process the workload started.

``service_jobs`` is the exception: its two closed-loop clients run
concurrently, so it implements ``window(seconds | jobs)`` instead of
``op``. Inputs derive only from the seed; ``repro`` is imported inside
``setup`` so that its import cost lands in ``setup_s``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"

#: Sites per configuration in each ``pool_functional`` round: one from
#: each block of the mesh cut into four row bands and two column halves.
POOL_BANDS, POOL_HALVES = 4, 2
POOL_SAMPLE = POOL_BANDS * POOL_HALVES
#: ``repro-fi serve --sse-interval`` for ``service_jobs`` (seconds).
SSE_INTERVAL = 0.05
#: Fewest jobs in a measured ``service_jobs`` window, so that at least
#: ten latencies lie beyond p90; the window outlasts ``--seconds`` when
#: the host is too slow to finish this many in time.
MIN_JOBS = 100
#: Concurrent closed-loop clients / fabric agents (the host's 2 cores).
CLIENTS = 2
AGENTS = 2


def load_pinned() -> dict:
    return json.loads(PINNED.read_text())


def sha256(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def study_census(report) -> list:
    """Per-configuration class census of a study report, in grid order."""
    return [
        [
            entry.configuration,
            str(entry.observed_class),
            str(entry.expected_class),
            sorted((str(cls), n) for cls, n in entry.result.census().items()),
        ]
        for entry in report.entries
    ]


def site_tuple(experiment) -> list:
    """What ``pool_functional`` pins per site."""
    return [
        experiment.classification.pattern_class.value,
        int(experiment.num_corrupted),
        int(experiment.max_abs_deviation),
    ]


def result_digests(result) -> list:
    """One digest per experiment -- site, classification evidence, counts,
    dense mask and deviation -- and one ``None`` per quarantined site."""
    import numpy as np

    digests = []
    for e in result.experiments:
        digest = hashlib.sha256(repr((
            e.site, e.classification, e.num_corrupted, e.max_abs_deviation,
        )).encode())
        if e.pattern is not None:
            digest.update(repr(e.pattern.mask.shape).encode())
            digest.update(np.ascontiguousarray(e.pattern.mask, bool).tobytes())
            digest.update(
                np.ascontiguousarray(e.pattern.deviation, np.int64).tobytes()
            )
        digests.append(digest.hexdigest())
    return digests + [None] * len(result.failures)


def mismatches(want: list, got: list) -> int:
    """Experiment digests of ``got`` that differ from ``want``, plus
    missing and quarantined ones."""
    return abs(len(want) - len(got)) + sum(a != b for a, b in zip(want, got))


def pool_configs():
    from repro.core import ConvWorkload, GemmWorkload
    from repro.systolic import Dataflow

    ws, os_ = Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY
    return [
        GemmWorkload.square(112, ws),
        GemmWorkload.square(112, os_),
        ConvWorkload.paper_kernel(112, (3, 3, 3, 8), dataflow=ws),
    ]


class Processes:
    """Server/agent subprocesses: each in its own session, registered in
    ``pids.txt`` so ``run.py`` can prove none outlives the run."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.procs: list[subprocess.Popen] = []

    def start(self, argv: list[str], env: dict | None = None, **kwargs):
        proc = subprocess.Popen(
            argv, start_new_session=True, env=env or child_env(), **kwargs
        )
        self.procs.append(proc)
        with open(self.tmp / "pids.txt", "a") as registry:
            registry.write(f"{proc.pid}\n")
        return proc

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM (orderly drain), then SIGKILL the whole session."""
        procs, self.procs = self.procs, []
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()


def child_env(stats_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env.pop(layers.STATS_ENV, None)
    if stats_dir is not None:
        env[layers.STATS_ENV] = str(stats_dir)
    return env


def repro_cli(traced: bool) -> list[str]:
    """``repro-fi`` as a module, or through the wrapper-installing
    launcher for the traced run."""
    if traced:
        return [sys.executable, str(HERE / "launch.py")]
    return [sys.executable, "-m", "repro.cli"]


# ----------------------------------------------------------------------
class StudyAnalytic:
    """Table I grid, analytic engine, serial executor, in process."""

    name = "study_analytic"

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed  # the grid is fixed; the seed has nothing to vary
        self.tmp = tmp
        self.obs = None

    def setup(self) -> None:
        import repro.core.study
        from repro.core.executor import GOLDEN_CACHE

        self.cache, self.study = GOLDEN_CACHE, repro.core.study
        self.pinned = load_pinned()[self.name]
        self.op_sites = self.pinned["sites"]

    def op(self, index: int):
        self.cache.clear()
        report = self.study.run_paper_study(engine="analytic", obs=self.obs)
        return sum(len(e.result.experiments) for e in report.entries), report

    def check(self, report) -> tuple[int, int]:
        sites = self.pinned["sites"]
        done = sum(len(e.result.experiments) for e in report.entries)
        ok = (
            report.all_single_class
            and report.all_match_theory
            and done == sites
            and sha256(study_census(report)) == self.pinned["census_sha256"]
        )
        return sites, 0 if ok else sites

    def teardown(self) -> None:
        pass


class PoolFunctional:
    """Three 112x112 functional campaigns per round on a 2-process pool
    with a fresh checkpoint each, over seeded stratified site samples."""

    name = "pool_functional"

    def __init__(self, seed: int, tmp: Path) -> None:
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.obs = None
        self.op_sites = POOL_SAMPLE * 3
        self.checkpoint_records = self.checkpoint_bytes = 0

    def setup(self) -> None:
        from repro.core import Campaign, ParallelExecutor
        from repro.core.executor import GOLDEN_CACHE
        from repro.systolic import MeshConfig

        self.Campaign, self.Parallel = Campaign, ParallelExecutor
        self.mesh = MeshConfig.paper()
        self.configs = pool_configs()
        for workload in self.configs:  # golden runs users pay once
            GOLDEN_CACHE.golden_run(Campaign(self.mesh, workload))
        self.pinned = load_pinned()[self.name]

    def sample(self) -> list:
        """One random site from each block of the mesh. Sites differ
        widely in cost -- a conv fault in columns 0-7 corrupts 12,100
        cells and one in columns 8-15 none -- so a plain random sample
        would change each round's work with the seed."""
        rows, cols = self.mesh.rows // POOL_BANDS, self.mesh.cols // POOL_HALVES
        return [
            (band * rows + self.rng.randrange(rows),
             half * cols + self.rng.randrange(cols))
            for band in range(POOL_BANDS) for half in range(POOL_HALVES)
        ]

    def op(self, index: int):
        outputs = []
        for k, workload in enumerate(self.configs):
            sites = self.sample()
            checkpoint = self.tmp / f"pool-{index}-{k}.jsonl"
            result = self.Campaign(
                self.mesh, workload, engine="functional", sites=sites
            ).run(self.Parallel(jobs=2, checkpoint=checkpoint, obs=self.obs))
            outputs.append((workload.describe(), sites, result, checkpoint))
        return POOL_SAMPLE * len(self.configs), outputs

    def check(self, outputs) -> tuple[int, int]:
        """Per-site (class, corrupted cells, max deviation) digest against
        the table pinned from ``SerialExecutor``; checkpoints are counted
        and deleted."""
        attempted = failed = 0
        for key, sites, result, checkpoint in outputs:
            table = self.pinned[key]
            expected = [table[r * self.mesh.cols + c] for r, c in sites]
            got = [site_tuple(e) for e in result.experiments]
            attempted += len(sites)
            if sha256(got) != sha256(expected):
                mismatched = sum(g != x for g, x in zip(got, expected))
                failed += max(1, mismatched + abs(len(got) - len(expected)))
            with checkpoint.open("rb") as stream:
                self.checkpoint_records += sum(1 for _ in stream) - 1
            self.checkpoint_bytes += checkpoint.stat().st_size
            checkpoint.unlink()
        return attempted, failed

    def teardown(self) -> None:
        for path in self.tmp.glob("pool-*.jsonl"):
            path.unlink()


class FabricCampaigns:
    """Exhaustive 112x112 analytic GEMM campaigns, WS and OS in turn,
    each a fresh random-fill setup, over two ``repro-fi worker`` agents."""

    name = "fabric_campaigns"
    op_sites = 256

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.obs = None
        self.procs = Processes(tmp)

    def setup(self, stats_dir: Path | None = None) -> None:
        # The agents start first and import while this process does.
        listener = self.launch_agents(stats_dir)
        from repro.core import (
            Campaign, DistributedExecutor, FillKind, GemmWorkload,
            SerialExecutor,
        )
        from repro.systolic import Dataflow, MeshConfig

        self.Campaign, self.Distributed = Campaign, DistributedExecutor
        self.Serial, self.Gemm, self.fill = SerialExecutor, GemmWorkload, FillKind
        self.dataflows = (Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY)
        self.mesh = MeshConfig.paper()
        self.await_agents(listener)

    def launch_agents(self, stats_dir: Path | None = None) -> socket.socket:
        """Start the agents against a port held by a plain listener.

        The listener stands in for the coordinator until both agents are
        up: each agent's first hello proves it is ready, and the agents
        take the closed connection as a lost coordinator and keep
        retrying until the first campaign listens on the port.
        """
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(AGENTS)
        listener.settimeout(120)
        self.port = listener.getsockname()[1]
        for _ in range(AGENTS):
            self.procs.start(
                repro_cli(stats_dir is not None) + [
                    "worker", "--connect", f"127.0.0.1:{self.port}",
                    "--jobs", "1", "--stay",
                    "--reconnect-attempts", "1000000",
                    "--reconnect-delay", "0.05",
                ],
                env=child_env(stats_dir),
            )
        return listener

    def await_agents(self, listener: socket.socket) -> None:
        try:
            for _ in range(AGENTS):
                conn, _ = listener.accept()
                conn.close()
        finally:
            listener.close()

    def op(self, index: int):
        workload = self.Gemm(
            112, 112, 112, self.dataflows[index % 2],
            fill=self.fill.RANDOM, seed=self.seed * 1000 + index,
        )
        campaign = self.Campaign(self.mesh, workload, engine="analytic")
        result = campaign.run(self.Distributed(
            port=self.port, expected_workers=AGENTS, join_timeout=60.0,
            obs=self.obs,
        ))
        # A list, so the gate can drop the result before its reference run
        # and the two never take memory at once.
        return len(campaign.sites), [workload, result]

    def check(self, output) -> tuple[int, int]:
        got = result_digests(output.pop())
        reference = self.Campaign(self.mesh, output[0], engine="analytic").run(
            self.Serial()
        )
        want = result_digests(reference)
        return len(want), mismatches(want, got)

    def teardown(self) -> None:
        self.procs.stop()


class ServiceJobs:
    """``repro-fi serve`` subprocess; two closed-loop HTTP clients each
    POST a random-fill 16x16 WS analytic spec on a 2-job pool, ride SSE
    to ``end``, fetch the result, and submit the next."""

    name = "service_jobs"

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.procs = Processes(tmp)
        self.serial = 0

    def setup(self, stats_dir: Path | None = None) -> None:
        self.state = self.tmp / f"service-state-{self.serial}"
        self.serial += 1
        proc = self.procs.start(
            repro_cli(stats_dir is not None) + [
                "serve", "--listen", "127.0.0.1:0",
                "--state-dir", str(self.state),
                "--sse-interval", str(SSE_INTERVAL),
            ],
            env=child_env(stats_dir),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])

    def spec(self, job_seed: int) -> dict:
        return {
            "mesh": {"rows": 16, "cols": 16},
            "workload": {
                "op": "gemm", "m": 16, "k": 16, "n": 16, "dataflow": "WS",
                "fill": "random", "seed": job_seed,
            },
            "engine": "analytic",
            "executor": {"kind": "parallel", "jobs": 2},
        }

    def _request(self, job: dict, method: str, path: str, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            if not 200 <= response.status < 300:
                job["non2xx"] += 1
                response.read()
                return response, None
            return response, conn
        except BaseException:
            conn.close()
            raise

    def job(self, job_seed: int) -> dict:
        """One submit → SSE → fetch cycle, timed from the POST."""
        job = {"seed": job_seed, "non2xx": 0, "frames": 0,
               "state": None, "body": None}
        start = time.perf_counter()
        response, conn = self._request(
            job, "POST", "/campaigns", json.dumps(self.spec(job_seed))
        )
        if conn is None:
            return job
        job_id = json.loads(response.read())["job_id"]
        conn.close()
        response, conn = self._request(job, "GET", f"/campaigns/{job_id}/events")
        if conn is None:
            return job
        running = event = None
        for raw in response:
            line = raw.decode().rstrip("\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                job["frames"] += 1
                data = json.loads(line[len("data: "):])
                if running is None and data.get("state") == "running":
                    running = time.perf_counter()
                if event == "end":
                    job["state"] = data["state"]
                    break
        conn.close()
        ended = time.perf_counter()
        response, conn = self._request(job, "GET", f"/campaigns/{job_id}/result")
        if conn is not None:
            job["body"] = response.read()
            conn.close()
        done = time.perf_counter()
        running = running or ended
        job.update(
            latency=done - start, queue_wait=running - start,
            run=ended - running, fetch=done - ended,
        )
        return job

    def window(self, seconds: float | None = None, jobs: int | None = None,
               first: int = 0, min_jobs: int = 0) -> tuple[list, float]:
        """Run both clients until ``seconds`` pass and ``min_jobs`` were
        issued, or until ``jobs`` were issued; returns the finished jobs
        and the window's wall time. Job seeds count up from ``first``, so
        no two jobs share a golden run."""
        results: list = []
        lock = threading.Lock()
        issued = [0]
        start = time.perf_counter()

        def claim() -> int | None:
            with lock:
                if (
                    seconds is not None
                    and time.perf_counter() - start >= seconds
                    and issued[0] >= min_jobs
                ):
                    return None
                if jobs is not None and issued[0] >= jobs:
                    return None
                issued[0] += 1
                return first + issued[0]

        def client() -> None:
            while (number := claim()) is not None:
                seed = self.seed * 1_000_000 + number
                try:
                    outcome = self.job(seed)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    outcome = {"seed": seed, "state": None, "body": None,
                               "error": repr(exc), "non2xx": 0, "frames": 0}
                with lock:
                    results.append(outcome)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results, time.perf_counter() - start

    def server_metrics(self) -> dict[str, float]:
        """The server's ``GET /metrics`` samples."""
        from repro.obs import parse_prometheus

        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/metrics")
            return parse_prometheus(conn.getresponse().read().decode())
        finally:
            conn.close()

    def check(self, jobs: list) -> tuple[int, int]:
        """Rebuild each artefact and compare it with a serial run."""
        from repro.core import SerialExecutor
        from repro.core.serialize import (
            campaign_result_from_record, decode_campaign_spec,
        )

        failed = 0
        for job in jobs:
            if job["state"] != "done" or job["body"] is None or job["non2xx"]:
                failed += 1
                continue
            campaign, _ = decode_campaign_spec(self.spec(job["seed"]))
            rebuilt = campaign_result_from_record(json.loads(job["body"]), campaign)
            direct = campaign.run(SerialExecutor())
            failed += mismatches(result_digests(direct),
                                 result_digests(rebuilt)) > 0
        return len(jobs), failed

    def teardown(self) -> None:
        self.procs.stop()


WORKLOADS = {
    cls.name: cls
    for cls in (StudyAnalytic, PoolFunctional, ServiceJobs, FabricCampaigns)
}
