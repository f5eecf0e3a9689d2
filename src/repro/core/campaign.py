"""Fault-injection campaigns (the paper's experimental engine, Fig. 2).

A campaign fixes a hardware configuration (mesh), a workload (one tensor
operation with chosen operands) and a fault specification (signal, bit,
stuck value), then injects one fault per experiment — by default
exhaustively into every MAC unit, exactly as the paper's "256 FI campaigns
... into every MAC unit of the 16x16 systolic array" (Section III-B).

Each experiment:

1. runs the workload on a golden mesh (once, shared across experiments);
2. runs it again with the fault overlaid;
3. extracts the fault pattern (output diff) and classifies it.

The campaign returns a :class:`CampaignResult` that the RQ benches reduce:
class census, SDC/masking rates, corrupted-cell statistics, and the
paper's headline "all experiments of a configuration share one class"
check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.classifier import Classification, PatternClass, classify_pattern
from repro.core.fault_patterns import FaultPattern, extract_pattern
from repro.core.resilience import FailureRecord
from repro.faults.injector import NO_FAULTS, FaultInjector
from repro.faults.model import FaultDescriptor, FaultSet, StuckAtFault
from repro.faults.sites import PAPER_FAULT_SIGNAL, FaultSite, signal_dtype
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_RECORDER
from repro.ops.conv import SystolicConv2d
from repro.ops.gemm import TiledGemm
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import TilingPlan
from repro.systolic.array import MeshConfig
from repro.systolic.dataflow import Dataflow
from repro.systolic.functional import FunctionalSimulator
from repro.systolic.simulator import CycleSimulator

if TYPE_CHECKING:
    from repro.core.executor import CampaignExecutor

__all__ = [
    "ENGINES",
    "OperationType",
    "FillKind",
    "operand_seeds",
    "GemmWorkload",
    "ConvWorkload",
    "FaultSpec",
    "ExperimentResult",
    "CampaignResult",
    "Campaign",
]


#: The engine tiers a campaign can run on, by name (see :class:`Campaign`).
ENGINES = ("functional", "cycle", "analytic")


class OperationType(enum.Enum):
    """Tensor operator kinds studied in RQ2."""

    GEMM = "GEMM"
    CONV = "Conv"

    def __str__(self) -> str:
        return self.value


class FillKind(enum.Enum):
    """Operand-generation policies.

    ``ONES`` is the paper's anti-masking choice (Challenge 2): uniform
    non-zero operands so that no fault is suppressed by near-zero weights.
    ``RANDOM`` draws INT8 values uniformly (masking becomes possible,
    which the masking bench exploits). ``RAMP`` produces small distinct
    values, useful for debugging dataflow alignment.
    """

    ONES = "ones"
    RANDOM = "random"
    RAMP = "ramp"


def operand_seeds(seed: int) -> tuple[int, int]:
    """The per-operand RNG seeds derived from a workload's base seed.

    Every workload generates its operand pair from ``(seed, seed + 1)``.
    This derivation lives in exactly one place so that every process of a
    sharded campaign (see :mod:`repro.core.executor`) regenerates
    bit-identical operands from the pickled workload spec alone — the
    operands themselves are never shipped between processes.
    """
    return seed, seed + 1


def _fill(shape: tuple[int, ...], fill: FillKind, seed: int) -> np.ndarray:
    if fill is FillKind.ONES:
        return np.ones(shape, dtype=np.int64)
    if fill is FillKind.RANDOM:
        rng = np.random.default_rng(seed)
        return rng.integers(-128, 128, size=shape, dtype=np.int64)
    if fill is FillKind.RAMP:
        return (np.arange(int(np.prod(shape)), dtype=np.int64) % 7 + 1).reshape(shape)
    raise ValueError(f"unsupported fill: {fill!r}")


@dataclass(frozen=True)
class GemmWorkload:
    """A GEMM operation of shape ``(m, k) x (k, n)`` under ``dataflow``.

    The paper's RQ1/RQ3 GEMM workloads are square: 16x16 (mesh-sized, no
    tiling) and 112x112 (tiled 7x7x7 on a 16x16 mesh).
    """

    m: int
    k: int
    n: int
    dataflow: Dataflow
    fill: FillKind = FillKind.ONES
    seed: int = 0

    @classmethod
    def square(
        cls, size: int, dataflow: Dataflow, fill: FillKind = FillKind.ONES
    ) -> "GemmWorkload":
        """The paper's square GEMM of ``size x size`` operands."""
        return cls(m=size, k=size, n=size, dataflow=dataflow, fill=fill)

    @property
    def operation(self) -> OperationType:
        return OperationType.GEMM

    def describe(self) -> str:
        return f"GEMM {self.m}x{self.k}x{self.n}, {self.dataflow}, {self.fill.value}"

    def operands(self) -> tuple[np.ndarray, np.ndarray]:
        """The (A, B) operand pair, deterministic given the spec."""
        seed_a, seed_b = operand_seeds(self.seed)
        a = _fill((self.m, self.k), self.fill, seed_a)
        b = _fill((self.k, self.n), self.fill, seed_b)
        return a, b

    def run(self, engine) -> tuple[np.ndarray, TilingPlan, None]:
        """Execute on ``engine``; returns (output, plan, geometry=None)."""
        a, b = self.operands()
        result = TiledGemm(engine)(a, b, self.dataflow)
        return result.output, result.plan, None


@dataclass(frozen=True)
class ConvWorkload:
    """A convolution workload in the paper's ``R x S x C x K`` notation.

    ``input_size`` is the square spatial extent (the paper uses 16 and
    112); the kernel is given in the paper's Table I order (rows, cols,
    input channels, output channels).
    """

    input_size: int
    kernel_rows: int
    kernel_cols: int
    in_channels: int
    out_channels: int
    dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY
    batch: int = 1
    stride: int = 1
    padding: int = 0
    fill: FillKind = FillKind.ONES
    seed: int = 0

    @classmethod
    def paper_kernel(
        cls,
        input_size: int,
        kernel: tuple[int, int, int, int],
        dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY,
        fill: FillKind = FillKind.ONES,
    ) -> "ConvWorkload":
        """Build from Table I's ``(R, S, C, K)`` kernel tuple."""
        r, s, c, k = kernel
        return cls(
            input_size=input_size,
            kernel_rows=r,
            kernel_cols=s,
            in_channels=c,
            out_channels=k,
            dataflow=dataflow,
            fill=fill,
        )

    @property
    def operation(self) -> OperationType:
        return OperationType.CONV

    @property
    def kernel_spec(self) -> tuple[int, int, int, int]:
        """Kernel as the paper's ``(R, S, C, K)`` tuple."""
        return (
            self.kernel_rows,
            self.kernel_cols,
            self.in_channels,
            self.out_channels,
        )

    def describe(self) -> str:
        r, s, c, k = self.kernel_spec
        return (
            f"Conv {self.input_size}x{self.input_size} input, kernel "
            f"{r}x{s}x{c}x{k}, {self.dataflow}, {self.fill.value}"
        )

    def operands(self) -> tuple[np.ndarray, np.ndarray]:
        """The (input NCHW, kernel KCRS) tensor pair."""
        seed_x, seed_w = operand_seeds(self.seed)
        x = _fill(
            (self.batch, self.in_channels, self.input_size, self.input_size),
            self.fill,
            seed_x,
        )
        w = _fill(
            (self.out_channels, self.in_channels, self.kernel_rows, self.kernel_cols),
            self.fill,
            seed_w,
        )
        return x, w

    def run(self, engine) -> tuple[np.ndarray, TilingPlan, ConvGeometry]:
        """Execute on ``engine``; returns (output, plan, geometry)."""
        x, w = self.operands()
        conv = SystolicConv2d(
            engine, self.dataflow, stride=self.stride, padding=self.padding
        )
        result = conv(x, w)
        return result.output, result.plan, result.geometry


@dataclass(frozen=True)
class FaultSpec:
    """Which fault to inject at each site of a campaign.

    The paper fixes the signal (adder output) and injects a single stuck-at
    fault; the bit position defaults to a mid-high accumulator bit so that
    all-ones workloads never mask it, and can be swept by extension benches.
    """

    signal: str = PAPER_FAULT_SIGNAL
    bit: int = 20
    stuck_value: int = 1

    def __post_init__(self) -> None:
        signal_dtype(self.signal).check_bit(self.bit)
        if self.stuck_value not in (0, 1):
            raise ValueError(f"stuck_value must be 0 or 1, got {self.stuck_value}")

    def fault_at(self, row: int, col: int) -> StuckAtFault:
        """The concrete fault descriptor for MAC ``(row, col)``."""
        site = FaultSite(row=row, col=col, signal=self.signal, bit=self.bit)
        return StuckAtFault(site=site, stuck_value=self.stuck_value)

    def describe(self) -> str:
        return f"stuck-at-{self.stuck_value} @ {self.signal}[{self.bit}]"


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one FI experiment (one fault, one workload run)."""

    site: FaultSite
    classification: Classification
    num_corrupted: int
    max_abs_deviation: int
    pattern: FaultPattern | None = None

    @property
    def pattern_class(self) -> PatternClass:
        return self.classification.pattern_class

    @property
    def sdc(self) -> bool:
        """Whether the fault caused silent data corruption."""
        return self.num_corrupted > 0


@dataclass
class CampaignResult:
    """All experiments of one campaign plus the shared golden context.

    A resilient run may *degrade gracefully*: sites the runtime had to
    quarantine (see :mod:`repro.core.resilience`) are listed in
    ``failures`` instead of ``experiments``. The reductions below then
    describe exactly the sites that ran — still bit-identical to a serial
    run over those sites — and ``is_complete`` distinguishes a full sweep
    from a degraded one.
    """

    workload: GemmWorkload | ConvWorkload
    fault_spec: FaultSpec
    mesh: MeshConfig
    golden: np.ndarray
    plan: TilingPlan
    geometry: ConvGeometry | None
    experiments: list[ExperimentResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    failures: list[FailureRecord] = field(default_factory=list)
    #: Optional run-telemetry summary (elapsed, sites/s, cache hit rate)
    #: attached by an observability-armed executor; ``None`` on plain runs.
    #: Strictly observational — never part of the result-equivalence
    #: contract, exactly like ``wall_seconds``.
    telemetry: dict | None = None

    @property
    def is_complete(self) -> bool:
        """True when no site was quarantined (every experiment ran)."""
        return not self.failures

    def quarantined_sites(self) -> list[tuple[int, int]]:
        """MAC coordinates the runtime gave up on, in site order."""
        return [failure.site for failure in self.failures]

    # ------------------------------------------------------------------
    # Reductions used by the RQ benches
    # ------------------------------------------------------------------
    def census(self) -> dict[PatternClass, int]:
        """Experiment count per pattern class."""
        counts: dict[PatternClass, int] = {}
        for experiment in self.experiments:
            cls = experiment.pattern_class
            counts[cls] = counts.get(cls, 0) + 1
        return counts

    def dominant_class(self) -> PatternClass:
        """The most frequent non-masked class (the configuration's class).

        The paper reports that every experiment of a configuration yields
        the same class; MASKED experiments (faults landing in mesh regions
        unused by the workload) are excluded from the vote, as the paper's
        manual analysis implicitly does.
        """
        counts = self.census()
        counts.pop(PatternClass.MASKED, None)
        if not counts:
            return PatternClass.MASKED
        return max(counts.items(), key=lambda item: item[1])[0]

    def is_single_class(self) -> bool:
        """True if all non-masked experiments share one pattern class."""
        classes = {
            e.pattern_class
            for e in self.experiments
            if e.pattern_class is not PatternClass.MASKED
        }
        return len(classes) <= 1

    def sdc_rate(self) -> float:
        """Fraction of experiments with silent data corruption."""
        if not self.experiments:
            return 0.0
        return sum(e.sdc for e in self.experiments) / len(self.experiments)

    def masking_rate(self) -> float:
        """Fraction of experiments whose fault never reached the output."""
        return 1.0 - self.sdc_rate()

    def mean_corrupted_cells(self) -> float:
        """Average corrupted output elements per experiment.

        This is the quantitative backbone of RQ1's fault-tolerance claim:
        under OS a fault corrupts ~1 cell, under WS a whole column.
        """
        if not self.experiments:
            return 0.0
        return float(np.mean([e.num_corrupted for e in self.experiments]))

    def result_at(self, row: int, col: int) -> ExperimentResult:
        """The experiment whose fault targeted MAC ``(row, col)``."""
        for experiment in self.experiments:
            if experiment.site.row == row and experiment.site.col == col:
                return experiment
        raise KeyError(f"no experiment injected at MAC({row},{col})")


class Campaign:
    """An exhaustive (or sampled) single-stuck-at FI campaign.

    Parameters
    ----------
    mesh:
        Hardware configuration; the paper's is :meth:`MeshConfig.paper`.
    workload:
        The tensor operation under test.
    fault_spec:
        Fault signal/bit/polarity injected at every site.
    engine:
        ``"functional"`` (default, fast, cross-validated), ``"cycle"``
        (the RTL-equivalent reference), or ``"analytic"`` (closed-form
        ``golden + delta`` evaluation, batched over sites — see
        :mod:`repro.engines.analytic`; bit-identical to the other two
        tiers, with per-site functional fallback for fault models the
        delta algebra cannot cover).
    sites:
        MAC coordinates to inject into; defaults to every MAC unit
        (the paper's exhaustive 256-experiment sweep).
    keep_patterns:
        Whether to retain the full diff per experiment (disable for very
        large sweeps to save memory; classifications are always kept).
    """

    def __init__(
        self,
        mesh: MeshConfig,
        workload: GemmWorkload | ConvWorkload,
        fault_spec: FaultSpec = FaultSpec(),
        engine: str = "functional",
        sites: Sequence[tuple[int, int]] | None = None,
        keep_patterns: bool = True,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        self.mesh = mesh
        self.workload = workload
        self.fault_spec = fault_spec
        self.engine_kind = engine
        self.keep_patterns = keep_patterns
        if sites is None:
            sites = [
                (r, c) for r in range(mesh.rows) for c in range(mesh.cols)
            ]
        self.sites = list(sites)

    # ------------------------------------------------------------------
    def _make_engine(self, injector: FaultInjector, recorder=NULL_RECORDER):
        # The analytic tier never simulates per site; its golden run and
        # its per-site fallbacks both ride the functional engine.
        if self.engine_kind == "cycle":
            return CycleSimulator(self.mesh, injector=injector, recorder=recorder)
        return FunctionalSimulator(self.mesh, injector=injector)

    def run_single(
        self, fault: FaultDescriptor | FaultSet, recorder=NULL_RECORDER
    ) -> tuple[np.ndarray, TilingPlan, ConvGeometry | None]:
        """Run the workload once under an arbitrary fault (or fault set)."""
        fault_set = fault if isinstance(fault, FaultSet) else FaultSet.of(fault)
        engine = self._make_engine(FaultInjector(fault_set), recorder=recorder)
        return self.workload.run(engine)

    def golden_run(
        self, recorder=NULL_RECORDER
    ) -> tuple[np.ndarray, TilingPlan, ConvGeometry | None]:
        """The fault-free reference run: (golden output, plan, geometry)."""
        return self.workload.run(self._make_engine(NO_FAULTS, recorder=recorder))

    def run_experiment(
        self,
        row: int,
        col: int,
        golden: np.ndarray,
        plan: TilingPlan,
        geometry: ConvGeometry | None,
        recorder=NULL_RECORDER,
    ) -> ExperimentResult:
        """One FI experiment: inject at MAC ``(row, col)``, diff, classify.

        This is the unit of work every executor — serial or sharded across
        processes — performs per fault site; keeping it on the campaign is
        what makes the execution strategy pluggable without duplicating the
        inject/diff/classify pipeline.

        ``recorder`` is the tracing hook (see :mod:`repro.obs.trace`);
        the default null recorder makes instrumentation free, and spans
        never influence the returned result.
        """
        with recorder.span("experiment", cat="campaign", row=row, col=col):
            fault = self.fault_spec.fault_at(row, col)
            with recorder.span("experiment.simulate", cat="campaign"):
                faulty, _, _ = self.run_single(fault, recorder=recorder)
            with recorder.span("experiment.classify", cat="campaign"):
                pattern = extract_pattern(
                    golden, faulty, plan=plan, geometry=geometry
                )
                classification = classify_pattern(pattern)
            return ExperimentResult(
                site=fault.site,
                classification=classification,
                num_corrupted=pattern.num_corrupted,
                max_abs_deviation=pattern.max_abs_deviation,
                pattern=pattern if self.keep_patterns else None,
            )

    @property
    def min_shard_sites(self) -> int:
        """The fewest sites worth one :meth:`run_batch` call on this
        campaign's engine: every executor's batching granularity.

        The analytic tier amortises per-batch setup (operand
        regeneration, tile walks) over a batch, so one- or two-site
        slivers would forfeit its win: shards carry at least 8 sites and
        a serial sweep is one batch. The simulation tiers gain nothing
        from batching and run one site per batch, which keeps load
        balance, interrupts and progress per site.
        """
        return 8 if self.engine_kind == "analytic" else 1

    def run_batch(
        self,
        sites: Sequence[tuple[int, int]],
        golden: np.ndarray,
        plan: TilingPlan,
        geometry: ConvGeometry | None,
        recorder=NULL_RECORDER,
        metrics=NULL_METRICS,
    ) -> list[ExperimentResult]:
        """One FI experiment per site, in ``sites`` order.

        The engine seam every executor calls. The simulation tiers run
        :meth:`run_experiment` per site. The analytic tier computes
        closed-form deltas for every supported site in a few vectorised
        passes (:func:`repro.engines.analytic.engine.evaluate_batch`);
        sites whose fault the algebra cannot cover fall back to
        :meth:`run_experiment`, counted on the
        ``repro_analytic_fallback_total`` metric. Either way the list is
        field-for-field identical to calling :meth:`run_experiment` on
        each site.
        """
        if self.engine_kind != "analytic":
            return [
                self.run_experiment(
                    row, col, golden, plan, geometry, recorder=recorder
                )
                for row, col in sites
            ]
        from repro.engines.analytic.engine import evaluate_batch

        return evaluate_batch(
            self,
            sites,
            golden,
            plan,
            geometry,
            recorder=recorder,
            metrics=metrics,
        )

    def run(self, executor: "CampaignExecutor | None" = None) -> CampaignResult:
        """Execute the golden run plus one FI experiment per site.

        Parameters
        ----------
        executor:
            Execution strategy; ``None`` selects the serial reference
            implementation. Pass a
            :class:`~repro.core.executor.ParallelExecutor` to fan the site
            sweep out over worker processes (with optional checkpointing) —
            the result is guaranteed identical either way.
        """
        if executor is None:
            from repro.core.executor import SerialExecutor

            executor = SerialExecutor()
        return executor.execute(self)
