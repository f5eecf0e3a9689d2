"""Command-line interface to the FI framework.

Four subcommands mirror the workflows of the paper:

``repro-fi campaign``
    Run an SSF campaign (exhaustive or sampled) for a GEMM or convolution
    workload and print the summary; optionally dump the raw results or an
    LLTFI-style fault dictionary as JSON. The flags are validated as a
    campaign spec, exactly as the service validates one, so a bad flag
    exits 2 with the spec's field path (``error: mesh.rows: ...``).
    ``--jobs/-j`` shards the site sweep over worker processes,
    ``--checkpoint``/``--resume`` stream completed experiments to an
    append-only JSONL file and pick an interrupted campaign back up (see
    ``docs/parallel.md``).
``repro-fi worker``
    Join a fabric coordinator as an elastic worker agent
    (``--connect HOST:PORT``) and execute shards it leases out; pairs
    with ``repro-fi campaign --fabric-listen HOST:PORT`` on the
    coordinator side (see ``docs/distributed.md``).
``repro-fi serve``
    Start the campaign service: an HTTP JSON API to submit campaign
    specs as queued jobs, stream live progress over SSE, fetch
    bit-identical result artefacts, and scrape Prometheus metrics, with
    a crash-safe job registry (``--resume``) behind it (see
    ``docs/service.md``).
``repro-fi predict``
    Analytically predict the fault pattern of one site for a GEMM shape —
    no simulation — and render it.
``repro-fi atlas``
    Print one rendered example of every pattern class.
``repro-fi statespace``
    Print the FI state-space arithmetic of Section III-A.
``repro-fi lint``
    Run the repo's static analysis battery (:mod:`repro.checks`) over
    source paths: per-file invariant rules plus the whole-program
    determinism, dataflow/contract and socket passes. Incremental by
    default (``--no-cache`` disables), with ``--jobs/-j`` to fan the
    per-file battery over worker processes, ``--format sarif`` for
    code-scanning upload, and ``--baseline`` / ``--fail-on new`` for
    staged adoption against a committed baseline. Non-zero exit on
    findings.

Examples
--------
::

    repro-fi campaign --op gemm --size 16 --dataflow WS
    repro-fi campaign --op conv --size 16 --kernel 3,3,3,8 --dict faults.json
    repro-fi campaign --size 16 -j 4 --checkpoint campaign.jsonl
    repro-fi campaign --size 16 -j 4 --resume campaign.jsonl
    repro-fi campaign --size 16 -j 4 --trace trace.json --metrics metrics.prom --progress
    repro-fi campaign --size 16 --fabric-listen 0.0.0.0:7311 --fabric-workers 4
    repro-fi worker --connect coordinator-host:7311 --jobs 4
    repro-fi serve --listen 127.0.0.1:8100 --state-dir .repro-service
    repro-fi serve --listen 127.0.0.1:8100 --state-dir .repro-service --resume
    repro-fi predict --m 112 --k 112 --n 112 --dataflow WS --row 5 --col 9
    repro-fi lint src/repro --format json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.analysis import render_gemm_pattern, summary_table
from repro.core import Campaign, GemmWorkload, diagonal_sites, predict_pattern
from repro.core.campaign import ENGINES
from repro.core.executor import build_executor
from repro.core.reports import campaign_summary, format_table
from repro.core.resilience import CampaignExecutionError, CampaignInterrupted
from repro.core.sampling import StateSpace, random_sites
from repro.core.serialize import (
    SpecError,
    decode_campaign_spec,
    save_campaign,
    save_fault_dictionary,
    save_metrics,
)
from repro.faults.sites import MAC_SIGNALS, PAPER_FAULT_SIGNAL, FaultSite
from repro.obs import (
    NULL_RECORDER,
    MetricsRegistry,
    Observability,
    ProgressReporter,
    TraceRecorder,
    write_chrome_trace,
)
from repro.ops.tiling import plan_gemm_tiling
from repro.systolic import Dataflow, MeshConfig

__all__ = ["main", "build_parser"]

_DATAFLOWS = {d.value: d for d in Dataflow}


def _int_at_least(minimum: int):
    """argparse type for integer flags with a floor (e.g. ``--jobs``)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _positive_float(text: str) -> float:
    """argparse type for flags that must be > 0 (e.g. ``--shard-timeout``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _host_port(text: str) -> tuple[str, int]:
    """argparse type for ``HOST:PORT`` endpoints (IPv6 hosts allowed)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer port, got {port_text!r}"
        )
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port out of range: {port}")
    return host.strip("[]"), port


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        "-j",
        type=_positive_int,
        default=1,
        help="worker processes for the site sweep (1 = serial reference)",
    )


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Failure-policy knobs of the parallel executor (docs/resilience.md)."""
    parser.add_argument(
        "--shard-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="watchdog deadline per shard attempt; a hung worker is "
        "killed, the pool reconstituted, and the shard retried "
        "(default: no deadline)",
    )
    parser.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="retries per shard before bisection/quarantine kicks in "
        "(default: 2, with deterministic exponential backoff)",
    )
    parser.add_argument(
        "--on-error",
        choices=("abort", "quarantine"),
        default="quarantine",
        help="once retries are exhausted: 'abort' raises a typed error, "
        "'quarantine' (default) isolates the poison site into the "
        "checkpoint and completes the rest of the campaign",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability knobs (docs/observability.md)."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record hierarchical spans (parent and workers) and write "
        "them as Chrome trace-event JSON, loadable in Perfetto",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="record run metrics (sites/s, cache hits, retries, shard "
        "latency) and write them here: Prometheus text exposition, or a "
        "JSON snapshot when PATH ends in .json",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress line on stderr "
        "(done/total, sites/s, ETA, retry/quarantine counts)",
    )


def _build_obs(args: argparse.Namespace) -> Observability | None:
    """The observability bundle the flags ask for, or ``None`` for none.

    Any flag arms the metrics registry too — the telemetry summary in the
    campaign output is metrics-derived, and it should appear whenever the
    user opted into observation.
    """
    if not (args.trace or args.metrics or args.progress):
        return None
    return Observability(
        recorder=TraceRecorder() if args.trace else NULL_RECORDER,
        metrics=MetricsRegistry(),
        progress=ProgressReporter() if args.progress else None,
    )


def _write_obs_artifacts(
    args: argparse.Namespace, obs: Observability | None
) -> None:
    """Write the trace / metrics files the flags requested."""
    if obs is None:
        return
    if args.trace:
        path = write_chrome_trace(obs.recorder.events(), args.trace)
        print(f"trace written to {path}")
    if args.metrics:
        if args.metrics.endswith(".json"):
            path = save_metrics(obs.metrics, args.metrics)
        else:
            path = Path(args.metrics)
            path.write_text(obs.metrics.render_prometheus())
        print(f"metrics written to {path}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs generation)."""
    parser = argparse.ArgumentParser(
        prog="repro-fi",
        description="Stuck-at fault injection for systolic arrays "
        "(DSN 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run an SSF campaign")
    campaign.add_argument("--rows", type=int, default=16, help="mesh rows")
    campaign.add_argument("--cols", type=int, default=16, help="mesh cols")
    campaign.add_argument(
        "--op", choices=("gemm", "conv"), default="gemm", help="operation type"
    )
    campaign.add_argument(
        "--size", type=int, default=16, help="square operand / input size"
    )
    campaign.add_argument(
        "--kernel",
        default="3,3,3,3",
        help="conv kernel as R,S,C,K (paper Table I notation)",
    )
    campaign.add_argument(
        "--dataflow", choices=sorted(_DATAFLOWS), default="WS"
    )
    campaign.add_argument(
        "--engine",
        choices=ENGINES,
        default="functional",
        help="execution tier: functional simulator (default), "
        "cycle-accurate reference, or closed-form analytic deltas "
        "(bit-identical, batched)",
    )
    campaign.add_argument("--bit", type=int, default=20, help="stuck bit")
    campaign.add_argument(
        "--stuck", type=int, choices=(0, 1), default=1, help="stuck value"
    )
    campaign.add_argument(
        "--signal",
        default=PAPER_FAULT_SIGNAL,
        choices=MAC_SIGNALS,
        help=f"datapath signal to inject into (paper: {PAPER_FAULT_SIGNAL})",
    )
    campaign.add_argument(
        "--sites",
        choices=("all", "diagonal", "random"),
        default="all",
        help="site-selection strategy",
    )
    campaign.add_argument(
        "--num-random",
        type=_positive_int,
        default=16,
        help="sites when --sites random",
    )
    campaign.add_argument("--json", help="write full results JSON here")
    campaign.add_argument(
        "--dict", dest="dictionary", help="write fault dictionary JSON here"
    )
    _add_jobs_flag(campaign)
    campaign.add_argument(
        "--checkpoint",
        help="append completed experiments to this JSONL stream",
    )
    campaign.add_argument(
        "--resume",
        help="resume an interrupted campaign from this JSONL checkpoint "
        "(completed sites are not re-executed; new ones are appended)",
    )
    _add_resilience_flags(campaign)
    _add_obs_flags(campaign)
    campaign.add_argument(
        "--fabric-listen",
        type=_host_port,
        default=None,
        metavar="HOST:PORT",
        help="run the campaign over the distributed fabric: listen here "
        "for 'repro-fi worker' agents instead of forking a local pool "
        "(port 0 picks a free port; see docs/distributed.md)",
    )
    campaign.add_argument(
        "--fabric-workers",
        type=_positive_int,
        default=2,
        metavar="N",
        help="anticipated fleet size; sizes shard granularity exactly "
        "as --jobs does for the local pool (default: 2)",
    )
    campaign.add_argument(
        "--lease-seconds",
        type=_positive_float,
        default=10.0,
        metavar="SECONDS",
        help="shard lease duration; a worker silent this long forfeits "
        "its shards back to the queue (default: 10)",
    )
    campaign.add_argument(
        "--heartbeat-interval",
        type=_positive_float,
        default=2.0,
        metavar="SECONDS",
        help="worker lease-renewal cadence; must be shorter than "
        "--lease-seconds (default: 2)",
    )
    campaign.add_argument(
        "--join-timeout",
        type=_positive_float,
        default=60.0,
        metavar="SECONDS",
        help="how long the coordinator waits for the first worker "
        "before giving up (default: 60)",
    )

    worker = sub.add_parser(
        "worker",
        help="join a fabric coordinator and execute leased shards",
    )
    worker.add_argument(
        "--connect",
        type=_host_port,
        required=True,
        metavar="HOST:PORT",
        help="coordinator endpoint to join "
        "(the campaign side's --fabric-listen address)",
    )
    worker.add_argument(
        "--jobs",
        "-j",
        type=_positive_int,
        default=1,
        help="local worker processes; also the number of shards leased "
        "to this agent at once (default: 1)",
    )
    worker.add_argument(
        "--reconnect-attempts",
        type=_nonnegative_int,
        default=10,
        metavar="N",
        help="consecutive failed connection attempts before the agent "
        "gives up (default: 10)",
    )
    worker.add_argument(
        "--reconnect-delay",
        type=_positive_float,
        default=1.0,
        metavar="SECONDS",
        help="pause between reconnection attempts (default: 1)",
    )
    worker.add_argument(
        "--stay",
        action="store_true",
        help="outlive the campaign: after a drain, keep reconnecting "
        "and serve the next coordinator on the same endpoint (after a "
        "campaign the agent worked on, it probes the endpoint quickly "
        "for up to one reconnect delay)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve the campaign HTTP API (jobs, SSE progress, metrics; "
        "see docs/service.md)",
    )
    serve.add_argument(
        "--listen",
        type=_host_port,
        default=("127.0.0.1", 8100),
        metavar="HOST:PORT",
        help="address to listen on (port 0 picks a free port; "
        "default: 127.0.0.1:8100)",
    )
    serve.add_argument(
        "--state-dir",
        default=".repro-service",
        metavar="DIR",
        help="job registry, per-job checkpoints, and result artefacts "
        "live here (default: .repro-service)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="restore queued/running jobs from the state dir's registry "
        "before listening (the crash-recovery path)",
    )
    serve.add_argument(
        "--max-queued",
        type=_positive_int,
        default=16,
        metavar="N",
        help="bounded job-queue capacity; past it POST /campaigns "
        "returns 429 (default: 16)",
    )
    serve.add_argument(
        "--max-body-bytes",
        type=_positive_int,
        default=1024 * 1024,
        metavar="BYTES",
        help="request-body size cap (default: 1 MiB)",
    )
    serve.add_argument(
        "--io-timeout",
        type=_positive_float,
        default=30.0,
        metavar="SECONDS",
        help="deadline for every peer-bound read/write (default: 30)",
    )
    serve.add_argument(
        "--sse-interval",
        type=_positive_float,
        default=0.25,
        metavar="SECONDS",
        help="seconds between SSE progress frames (default: 0.25)",
    )

    predict = sub.add_parser(
        "predict", help="analytically predict one fault pattern"
    )
    predict.add_argument("--rows", type=int, default=16)
    predict.add_argument("--cols", type=int, default=16)
    predict.add_argument("--m", type=int, required=True)
    predict.add_argument("--k", type=int, required=True)
    predict.add_argument("--n", type=int, required=True)
    predict.add_argument("--dataflow", choices=sorted(_DATAFLOWS), default="WS")
    predict.add_argument("--row", type=int, required=True, help="faulty MAC row")
    predict.add_argument("--col", type=int, required=True, help="faulty MAC col")

    sub.add_parser("atlas", help="render one example of every pattern class")
    sub.add_parser("statespace", help="print the Section III-A arithmetic")

    study = sub.add_parser(
        "study", help="run the paper's full Table I grid and report"
    )
    study.add_argument("--rows", type=int, default=16)
    study.add_argument("--cols", type=int, default=16)
    study.add_argument(
        "--fast",
        action="store_true",
        help="diagonal site sweep and no 112x112 configs",
    )
    study.add_argument(
        "--engine",
        choices=ENGINES,
        default="functional",
        help="execution tier for every campaign of the grid",
    )
    study.add_argument("--markdown", help="write the report as markdown here")
    _add_jobs_flag(study)
    _add_resilience_flags(study)
    _add_obs_flags(study)

    zoo = sub.add_parser(
        "zoo", help="per-layer vulnerability of a known network's shapes"
    )
    zoo.add_argument(
        "network",
        choices=("lenet5", "alexnet", "resnet18"),
        help="network whose layer shapes to characterise",
    )
    zoo.add_argument("--rows", type=int, default=16)
    zoo.add_argument("--cols", type=int, default=16)
    zoo.add_argument(
        "--dataflow", choices=sorted(_DATAFLOWS), default="WS"
    )

    lint = sub.add_parser(
        "lint",
        help="run the static analysis battery (per-file rules + "
        "whole-program passes) over source paths",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (sarif: SARIF 2.1.0 for code scanning)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print each rule's id, severity, scope, and description, "
        "then exit",
    )
    lint.add_argument(
        "--baseline",
        help="subtract findings recorded in this baseline file; "
        "only new findings fail the run",
    )
    lint.add_argument(
        "--fail-on",
        choices=("any", "new"),
        default="any",
        help="'any' (default) fails on every finding; 'new' fails only "
        "on findings absent from the committed baseline "
        "(lint-baseline.json unless --baseline names another file)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental result cache",
    )
    lint.add_argument(
        "--cache-path",
        default=None,
        help="incremental cache location "
        "(default: .repro-lint-cache.json in the working directory)",
    )
    lint.add_argument(
        "--jobs",
        "-j",
        type=_positive_int,
        default=1,
        help="worker processes for the per-file rule battery "
        "(whole-program passes always run in-parent; 1 = serial)",
    )
    lint.add_argument(
        "--select",
        metavar="RULE[,RULE...]",
        help="run only the named rule ids (comma-separated); subset runs "
        "bypass the incremental cache",
    )
    lint.add_argument(
        "--skip",
        metavar="RULE[,RULE...]",
        help="run everything except the named rule ids (comma-separated); "
        "subset runs bypass the incremental cache",
    )
    return parser


def _campaign_spec(args: argparse.Namespace) -> dict[str, Any]:
    """The campaign spec document the ``campaign`` flags describe.

    The executor kind follows the flags: ``--fabric-listen`` is
    ``fabric``; ``-j > 1``, ``--checkpoint`` or ``--resume`` is
    ``parallel``; anything else is ``serial``. Diagonal and random sites
    are drawn on the validated mesh, so a bad mesh fails as a spec error.
    """
    spec: dict[str, Any] = {
        "mesh": {"rows": args.rows, "cols": args.cols},
        "workload": {"op": args.op, "dataflow": args.dataflow},
        "fault": {"signal": args.signal, "bit": args.bit, "stuck": args.stuck},
        "engine": args.engine,
        "executor": {"kind": "serial"},
    }
    if args.op == "gemm":
        spec["workload"].update(m=args.size, k=args.size, n=args.size)
    else:
        try:
            kernel = [int(part) for part in args.kernel.split(",")]
        except ValueError:
            raise SpecError(
                "workload.kernel", f"expected R,S,C,K, got {args.kernel!r}"
            )
        spec["workload"].update(input_size=args.size, kernel=kernel)
    if args.fabric_listen is not None:
        if args.jobs > 1:
            raise ValueError(
                "--fabric-listen and --jobs > 1 are mutually exclusive "
                "(the fleet's workers bring their own --jobs)"
            )
        host, port = args.fabric_listen
        spec["executor"] = {
            "kind": "fabric", "host": host, "port": port,
            "workers": args.fabric_workers,
            "lease_seconds": args.lease_seconds,
            "heartbeat_interval": args.heartbeat_interval,
            "join_timeout": args.join_timeout,
        }
    elif args.jobs > 1 or args.checkpoint or args.resume:
        spec["executor"] = {"kind": "parallel", "jobs": args.jobs}
    if args.sites != "all":
        mesh = decode_campaign_spec(spec)[0].mesh
        sites = (
            diagonal_sites(mesh) if args.sites == "diagonal"
            else random_sites(mesh, args.num_random)
        )
        spec["sites"] = [list(site) for site in sites]
    return spec


def _announce_fabric(host: str, port: int) -> None:
    print(
        f"fabric listening on {host}:{port}; join with "
        f"'repro-fi worker --connect {host}:{port}'",
        file=sys.stderr,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    obs = _build_obs(args)
    try:
        campaign, executor_spec = decode_campaign_spec(_campaign_spec(args))
        result = campaign.run(
            build_executor(
                executor_spec,
                obs=obs,
                checkpoint=args.checkpoint,
                resume=args.resume,
                announce=_announce_fabric,
                shard_timeout=args.shard_timeout,
                max_retries=args.max_retries,
                on_error=args.on_error,
            )
        )
    except CampaignInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        if exc.checkpoint is not None:
            print(
                f"rerun with --resume {exc.checkpoint} to continue",
                file=sys.stderr,
            )
        return 128 + exc.signum
    except (FileNotFoundError, ValueError) as exc:
        # SpecError is a ValueError: "error: <field path>: <message>".
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CampaignExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(campaign_summary(result))
    _write_obs_artifacts(args, obs)
    if args.json:
        path = save_campaign(result, args.json)
        print(f"\nresults written to {path}")
    if args.dictionary:
        path = save_fault_dictionary(result, args.dictionary)
        print(f"fault dictionary written to {path}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.core.fabric import WorkerAgent

    host, port = args.connect
    agent = WorkerAgent(
        host,
        port,
        jobs=args.jobs,
        reconnect_attempts=args.reconnect_attempts,
        reconnect_delay=args.reconnect_delay,
        stay=args.stay,
    )
    return agent.run()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import CampaignService

    host, port = args.listen

    def announce(bound_host: str, bound_port: int) -> None:
        print(
            f"service listening on http://{bound_host}:{bound_port} "
            f"(state: {args.state_dir})",
            flush=True,
        )

    service = CampaignService(
        host,
        port,
        args.state_dir,
        resume=args.resume,
        max_queued=args.max_queued,
        max_body=args.max_body_bytes,
        io_timeout=args.io_timeout,
        sse_interval=args.sse_interval,
        announce=announce,
    )
    return service.run()


def _cmd_predict(args: argparse.Namespace) -> int:
    mesh = MeshConfig(rows=args.rows, cols=args.cols)
    dataflow = _DATAFLOWS[args.dataflow]
    plan = plan_gemm_tiling(args.m, args.k, args.n, mesh, dataflow)
    site = FaultSite(row=args.row, col=args.col)
    predicted = predict_pattern(site, plan)
    print(f"fault          : {site}")
    print(f"GEMM           : {args.m}x{args.k}x{args.n}, {dataflow}")
    print(f"pattern class  : {predicted.pattern_class}")
    print(f"corrupted cells: {predicted.num_cells}")
    if args.m <= 64 and args.n <= 64:
        from repro.analysis.visualize import render_mask

        print(render_mask(predicted.support))
    return 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    mesh = MeshConfig(rows=4, cols=4)
    cases = [
        ("single-element", GemmWorkload.square(4, Dataflow.OUTPUT_STATIONARY)),
        ("single-element multi-tile",
         GemmWorkload.square(8, Dataflow.OUTPUT_STATIONARY)),
        ("single-column", GemmWorkload.square(4, Dataflow.WEIGHT_STATIONARY)),
        ("single-column multi-tile",
         GemmWorkload.square(8, Dataflow.WEIGHT_STATIONARY)),
        ("single-row", GemmWorkload.square(4, Dataflow.INPUT_STATIONARY)),
        ("single-row multi-tile",
         GemmWorkload.square(8, Dataflow.INPUT_STATIONARY)),
    ]
    for title, workload in cases:
        result = Campaign(mesh, workload, sites=[(1, 2)]).run()
        experiment = result.experiments[0]
        print(f"--- {title} ({workload.describe()}) ---")
        print(render_gemm_pattern(experiment.pattern))
        print()
    return 0


def _cmd_statespace(args: argparse.Namespace) -> int:
    space = StateSpace(mesh=MeshConfig.paper())
    rows = [
        ("MAC units", space.mesh.num_macs),
        ("bits per MAC", space.sites_per_mac),
        ("fault sites", space.num_fault_sites),
        ("total configurations", space.total_configurations),
    ]
    print(format_table(("component", "count"), rows))
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.core.study import run_paper_study

    mesh = MeshConfig(rows=args.rows, cols=args.cols)
    sites = diagonal_sites(mesh) if args.fast else None
    obs = _build_obs(args)
    report = run_paper_study(
        mesh=mesh,
        sites=sites,
        include_large=not args.fast,
        engine=args.engine,
        jobs=args.jobs,
        shard_timeout=args.shard_timeout,
        max_retries=args.max_retries,
        on_error=args.on_error,
        obs=obs,
    )
    print(report.to_text())
    _write_obs_artifacts(args, obs)
    if args.markdown:
        Path(args.markdown).write_text(report.to_markdown())
        print(f"\nmarkdown report written to {args.markdown}")
    return 0 if report.all_match_theory else 1


def _cmd_zoo(args: argparse.Namespace) -> int:
    from repro.core.vulnerability import analyze_operation
    from repro.nn.zoo import NETWORKS

    mesh = MeshConfig(rows=args.rows, cols=args.cols)
    dataflow = _DATAFLOWS[args.dataflow]
    rows = []
    for layer in NETWORKS[args.network]:
        plan = layer.plan(mesh, dataflow)
        profile = analyze_operation(plan, mesh, geometry=layer.geometry())
        m, k, n = layer.gemm_shape()
        rows.append(
            (
                layer.name,
                f"{m}x{k}x{n}",
                f"{100 * profile.architectural_sdc_rate:.0f}%",
                str(profile.dominant_class),
                f"{profile.mean_blast_radius:.0f}",
                f"{100 * profile.mean_output_fraction:.1f}%",
            )
        )
    print(
        f"{args.network} on {mesh.rows}x{mesh.cols} mesh, {dataflow} dataflow"
    )
    print(
        format_table(
            (
                "layer",
                "lowered GEMM",
                "arch. SDC",
                "pattern class",
                "blast radius",
                "of output",
            ),
            rows,
        )
    )
    return 0


def _rule_scope_label(rule) -> str:
    """The scope column of ``--list-rules``."""
    from repro.checks.engine import ProjectRule

    if isinstance(rule, ProjectRule):
        return "whole-program"
    if rule.scopes is None:
        return "all modules"
    return ", ".join(rule.scopes)


def _lint_subset(paths, args: argparse.Namespace):
    """Run a ``--select``/``--skip`` rule subset (cache bypassed).

    Returns the sorted findings, or None after printing an unknown-id
    error (the message carries the sorted known-id list).
    """
    from repro.checks.engine import (
        run_checks,
        run_project_checks,
        select_rules,
    )

    def split(raw: str | None) -> list[str]:
        if not raw:
            return []
        return [part.strip() for part in raw.split(",") if part.strip()]

    try:
        per_file, project = select_rules(
            select=split(args.select) or None, skip=split(args.skip) or None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    findings = run_checks(paths, rules=per_file)
    if project:
        findings.extend(run_project_checks(paths, rules=project))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.checks import render_json, render_text
    from repro.checks.baseline import (
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.checks.cache import DEFAULT_CACHE_PATH, lint_paths
    from repro.checks.engine import rule_catalog
    from repro.checks.sarif import render_sarif

    if args.list_rules:
        rows = sorted(
            (rule.id, str(rule.severity), _rule_scope_label(rule),
             rule.description)
            for rule in rule_catalog()
        )
        print(format_table(("rule", "severity", "scope", "description"), rows))
        return 0
    paths = list(args.paths)
    if not paths:
        default = Path("src") / "repro"
        if not default.is_dir():
            print(
                "error: no paths given and ./src/repro does not exist",
                file=sys.stderr,
            )
            return 2
        paths = [str(default)]
    baseline_path = args.baseline
    if args.fail_on == "new" and not baseline_path:
        baseline_path = "lint-baseline.json"
        if not args.update_baseline and not Path(baseline_path).is_file():
            print(
                "error: --fail-on new needs a committed baseline "
                "(./lint-baseline.json not found; pass --baseline PATH or "
                "create one with --update-baseline)",
                file=sys.stderr,
            )
            return 2
    cache_path = args.cache_path or DEFAULT_CACHE_PATH
    try:
        if args.select or args.skip:
            findings = _lint_subset(paths, args)
            if findings is None:
                return 2
        else:
            findings = lint_paths(
                paths,
                cache_path=cache_path,
                use_cache=not args.no_cache,
                jobs=args.jobs,
            )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        if not baseline_path:
            print(
                "error: --update-baseline requires --baseline PATH "
                "(or --fail-on new for ./lint-baseline.json)",
                file=sys.stderr,
            )
            return 2
        write_baseline(baseline_path, findings)
        print(f"baseline of {len(findings)} finding(s) written to "
              f"{baseline_path}")
        return 0
    if baseline_path:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings, dangling = apply_baseline(findings, baseline)
        for (b_path, b_rule, _), count in sorted(dangling.items()):
            print(
                f"note: baseline entry no longer matches ({b_path} "
                f"[{b_rule}] x{count}); remove it from {baseline_path}",
                file=sys.stderr,
            )
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    heartbeat = getattr(args, "heartbeat_interval", None)
    lease = getattr(args, "lease_seconds", None)
    if heartbeat is not None and lease is not None and heartbeat >= lease:
        # A nonsensical pair used to surface as a raw executor traceback
        # (or, worse, instant lease expiry); reject it at parse time.
        parser.error(
            f"--heartbeat-interval ({heartbeat:g}s) must be shorter than "
            f"--lease-seconds ({lease:g}s); otherwise every lease expires "
            f"between renewals"
        )
    handlers = {
        "campaign": _cmd_campaign,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "predict": _cmd_predict,
        "atlas": _cmd_atlas,
        "statespace": _cmd_statespace,
        "study": _cmd_study,
        "zoo": _cmd_zoo,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
