"""Exception-contract verifier for the resilient campaign runtime.

The executor's failure protocol (:mod:`repro.core.resilience`) attributes
every worker failure to a :class:`~repro.core.resilience.FailureKind` and
a quarantine record. That attribution is only as good as the exceptions
that reach it: a generic ``raise RuntimeError("...")`` deep in worker
code produces a quarantine record that names no contract, no invariant
and no recovery hint — it defeats the whole point of the typed taxonomy.

``exception-contract`` proves the absence of that hazard: every raise
site whose exception can *escape* a campaign entry point — the worker
closure (``_adopt_setup`` / ``_run_shard`` and every ``pool.submit``/
``map`` callable) and the executor protocol (functions named ``execute``
under :data:`EXECUTOR_MODULE_PREFIX`) — must use an *attributable*
exception type. Attributable means anything except the generic trio
(:data:`GENERIC_RAISES`): a class defined in the analysed tree (the
``core.resilience`` taxonomy and its peers such as ``ChaosError``), or a
semantically precise builtin (``ValueError``, ``TypeError``,
``KeyError``, ``NotImplementedError``, …). Validation raises *are*
attributable — their type and message name the violated precondition and
the parent-side dispatcher records both — so they are deliberately not
findings; the contract targets exceptions that tell the quarantine
record nothing.

Escape, not reachability: a raise absorbed by a lexically enclosing
``except`` on the way up (and not re-raised) is no finding. The
propagation machinery is :class:`repro.checks.flow.EscapeAnalysis`.
"""

from __future__ import annotations

from typing import Iterator

from repro.checks.determinism import _chain_note, _short, discover_worker_entries
from repro.checks.engine import Finding, ProjectRule, Severity
from repro.checks.flow import EscapeAnalysis, RaiseOrigin
from repro.checks.graph import ProjectGraph

__all__ = [
    "GENERIC_RAISES",
    "EXECUTOR_MODULE_PREFIX",
    "contract_entries",
    "ExceptionContractRule",
    "CONTRACT_RULES",
]

#: Exception types that carry no attribution: raising one of these on a
#: campaign path is the hazard this pass exists to catch.
GENERIC_RAISES = frozenset({"RuntimeError", "Exception", "BaseException"})

#: Functions named ``execute`` under this module prefix are campaign
#: entry points (the ``CampaignExecutor`` protocol and its implementers).
EXECUTOR_MODULE_PREFIX = "repro.core"


def contract_entries(graph: ProjectGraph) -> tuple[str, ...]:
    """Every campaign entry point the contract is enforced from."""
    entries = {entry.qualname for entry in discover_worker_entries(graph)}
    for qual, info in graph.functions.items():
        if info.name != "execute":
            continue
        mod_name = info.module.name or info.module.path.stem
        if mod_name == EXECUTOR_MODULE_PREFIX or mod_name.startswith(
            EXECUTOR_MODULE_PREFIX + "."
        ):
            entries.add(qual)
    return tuple(sorted(entries))


class ExceptionContractRule(ProjectRule):
    """Generic exceptions must not escape campaign entry points."""

    id = "exception-contract"
    severity = Severity.ERROR
    description = (
        "raise sites escaping worker/executor entry points must use typed, "
        "attributable exception classes (the core.resilience taxonomy or "
        "equally specific types); a generic RuntimeError/Exception defeats "
        "retry and quarantine attribution"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        entries = contract_entries(graph)
        if not entries:
            return
        analysis = EscapeAnalysis(graph)
        # One finding per raise site, attributed to the first (sorted)
        # entry it escapes from.
        flagged: dict[tuple, tuple[str, RaiseOrigin, str]] = {}
        for entry in entries:
            for name, origin in analysis.escapes(entry).items():
                if name not in GENERIC_RAISES:
                    continue
                key = (origin.path, origin.line, origin.col, name)
                if key not in flagged:
                    flagged[key] = (name, origin, entry)
        for key in sorted(flagged):
            name, origin, entry = flagged[key]
            chain = graph.reachable([entry]).get(origin.qualname, (entry,))
            yield Finding(
                path=origin.path,
                line=origin.line,
                col=origin.col,
                rule=self.id,
                severity=self.severity,
                message=(
                    f"{name} raised in {_short(origin.qualname)} escapes "
                    f"campaign entry {_short(entry)} "
                    f"(path: {_chain_note(chain)}); raise a typed failure "
                    "class so retry/quarantine can attribute it"
                ),
            )


CONTRACT_RULES: tuple[ProjectRule, ...] = (ExceptionContractRule(),)
