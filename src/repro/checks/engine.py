"""The rule engine behind ``repro-fi lint``.

The paper's determinism claim — fault-pattern classes are predictable from
(array config, dataflow, op, fault site) — survives in this reproduction
only while the simulator stays bit-accurate and the cross-layer contracts
(signal registry, frozen fault-site dataclasses, seeded sampling) hold.
Those contracts live in conventions that unit tests cannot see: a stray
``"a_reg"`` string literal or a float sneaking into the datapath is still a
green test run right up until it isn't. This module provides the static
side of that enforcement: a small AST-based linting framework whose rules
(:mod:`repro.checks.rules`) encode the repo's invariants.

Design:

* :class:`SourceModule` — one parsed Python file plus its resolved dotted
  module name and the ``# repro: ignore[...]`` suppressions found in it.
* :class:`Rule` — base class; concrete rules declare an ``id``, a
  :class:`Severity`, a one-line ``description``, and optional dotted-name
  ``scopes`` / ``exempt`` prefixes restricting where they apply. The
  ``check`` hook walks the module's AST and yields :class:`Finding`\\ s.
* :func:`run_checks` — collect files, parse, apply rules, drop suppressed
  findings, and return the rest sorted by location.

Suppressions are per-line: a trailing ``# repro: ignore[rule-id]`` comment
(comma-separated ids allowed) silences the named rules for findings whose
anchor is that physical line; a bare ``# repro: ignore`` silences every
rule on the line. The suppression must sit on the *first* line of the
flagged construct.
"""

from __future__ import annotations

import ast
import enum
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Severity",
    "Finding",
    "SourceModule",
    "Rule",
    "ProjectRule",
    "module_name",
    "iter_python_files",
    "load_module",
    "project_rules",
    "rule_catalog",
    "select_rules",
    "run_checks",
    "run_project_checks",
    "render_text",
    "render_json",
]


class Severity(enum.Enum):
    """How serious a finding is. Any finding fails the lint run."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str

    def render(self) -> str:
        """The canonical one-line ``path:line:col`` rendering."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} [{self.rule}] {self.message}"
        )

    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable representation (used by ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
        }


#: Matches ``# repro: ignore`` / ``# repro: ignore[rule-a, rule-b]``.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([^\]]*)\])?")


def _parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids suppressed on that line.

    The sentinel id ``"*"`` means every rule. The scan is textual, so the
    marker is recognised even inside a string literal — acceptable for a
    comment syntax this unlikely to occur by accident.
    """
    suppressions: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        if match.group(1) is None:
            suppressions[lineno] = frozenset({"*"})
        else:
            ids = {part.strip() for part in match.group(1).split(",")}
            suppressions[lineno] = frozenset(ids - {""})
    return suppressions


@dataclass
class SourceModule:
    """One parsed source file, as seen by every rule."""

    path: Path
    name: str | None
    source: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str]]

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """Whether ``rule_id`` is silenced on physical ``line``."""
        ids = self.suppressions.get(line)
        return ids is not None and ("*" in ids or rule_id in ids)


def module_name(path: Path) -> str | None:
    """Resolve a file to its dotted module name by walking ``__init__.py``.

    ``src/repro/faults/sites.py`` resolves to ``"repro.faults.sites"``
    regardless of the current working directory; a standalone script
    resolves to its stem; a package ``__init__.py`` resolves to the
    package's dotted name. Returns None only for an ``__init__.py`` that
    sits outside any package.
    """
    path = path.resolve()
    parts = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        return None
    return ".".join(reversed(parts))


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, deduplicated, sorted.

    Directories are walked recursively (``__pycache__`` skipped); plain
    files must end in ``.py``. Overlapping inputs (``lint src/repro
    src/repro/checks``) are collapsed: each file is yielded exactly once —
    under its first-seen spelling — and the overall order is canonical
    (sorted by resolved path) regardless of the order or nesting of the
    input paths.

    Raises
    ------
    FileNotFoundError
        If a path does not exist or is not a Python file / directory.
    """
    collected: dict[Path, Path] = {}  # resolved -> first-seen spelling
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file() and path.suffix == ".py":
            candidates = [path]
        else:
            raise FileNotFoundError(
                f"not a Python file or directory: {raw}"
            )
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            collected.setdefault(candidate.resolve(), candidate)
    for resolved in sorted(collected, key=lambda p: p.as_posix()):
        yield collected[resolved]


def load_module(path: Path) -> SourceModule:
    """Parse one file into a :class:`SourceModule`.

    Raises
    ------
    SyntaxError
        If the file does not parse; :func:`run_checks` converts this into
        a ``syntax-error`` finding rather than aborting the run.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return SourceModule(
        path=path,
        name=module_name(path),
        source=source,
        tree=tree,
        suppressions=_parse_suppressions(source),
    )


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scopes`` / ``exempt`` are dotted-module prefixes: a rule applies to a
    module when its resolved name falls under some scope (all modules when
    ``scopes`` is None) and under no exemption. A module whose name cannot
    be resolved only matches unscoped rules.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    scopes: tuple[str, ...] | None = None
    exempt: tuple[str, ...] = ()

    @staticmethod
    def _under(name: str, prefix: str) -> bool:
        return name == prefix or name.startswith(prefix + ".")

    def applies_to(self, module: SourceModule) -> bool:
        """Whether this rule should run on ``module`` at all."""
        name = module.name
        if name is not None and any(self._under(name, p) for p in self.exempt):
            return False
        if self.scopes is None:
            return True
        if name is None:
            return False
        return any(self._under(name, p) for p in self.scopes)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Yield every violation of this rule in ``module``."""
        raise NotImplementedError

    def finding(
        self, module: SourceModule, node: ast.AST | None, message: str
    ) -> Finding:
        """Construct a finding anchored at ``node`` (module top when None)."""
        return Finding(
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=self.severity,
            message=message,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Unlike :class:`Rule`, a project rule does not see one module at a
    time: :meth:`check_project` receives the full
    :class:`repro.checks.graph.ProjectGraph` and may follow call edges
    across files. Findings are still anchored to concrete source
    locations, and per-line ``# repro: ignore[...]`` suppressions apply
    exactly as for per-file rules (enforced by
    :func:`run_project_checks`).
    """

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError(
            f"{self.id} is a project rule; use check_project()"
        )

    def check_project(self, graph) -> Iterator[Finding]:
        """Yield every violation of this rule across the whole graph."""
        raise NotImplementedError


def project_rules() -> tuple["ProjectRule", ...]:
    """The default whole-program battery, in documentation order."""
    # Imported lazily: these modules import this module at load time.
    from repro.checks.contracts import CONTRACT_RULES
    from repro.checks.determinism import DETERMINISM_RULES
    from repro.checks.sockets import SOCKET_RULES

    return (
        *DETERMINISM_RULES,
        *CONTRACT_RULES,
        *SOCKET_RULES,
    )


def rule_catalog() -> tuple[Rule, ...]:
    """Every rule — per-file and whole-program — in one tuple."""
    from repro.checks.rules import ALL_RULES

    return (*ALL_RULES, *project_rules())


def select_rules(
    select: Sequence[str] | None = None,
    skip: Sequence[str] | None = None,
) -> tuple[tuple[Rule, ...], tuple["ProjectRule", ...]]:
    """Resolve ``--select``/``--skip`` rule-id subsets.

    Returns ``(per_file_rules, project_rules)`` after applying the
    filters to the full catalogue. ``select`` keeps only the named ids;
    ``skip`` then removes its ids from whatever survived. Unknown ids —
    in either list — raise ``ValueError`` whose message carries the
    sorted known-id list, so callers can surface it verbatim.
    """
    catalog = rule_catalog()
    known = {rule.id for rule in catalog}
    requested = set(select or []) | set(skip or [])
    unknown = sorted(requested - known)
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(unknown)}; "
            f"known ids: {', '.join(sorted(known))}"
        )
    chosen = set(select) if select else known
    chosen -= set(skip or [])
    per_file = tuple(
        rule for rule in catalog
        if not isinstance(rule, ProjectRule) and rule.id in chosen
    )
    project = tuple(
        rule for rule in catalog
        if isinstance(rule, ProjectRule) and rule.id in chosen
    )
    return per_file, project


def run_project_checks(
    paths: Sequence[str | Path],
    rules: Iterable["ProjectRule"] | None = None,
    graph=None,
) -> list[Finding]:
    """Run the whole-program battery over ``paths``.

    Builds the project graph (unless one is supplied), runs every project
    rule on it, drops suppressed findings, and returns the rest sorted by
    location. Unparseable files are skipped here — :func:`run_checks`
    already reports them as ``syntax-error`` findings.
    """
    if graph is None:
        from repro.checks.graph import ProjectGraph

        graph = ProjectGraph.build(paths)
    if rules is None:
        rules = project_rules()
    by_path = {str(module.path): module for module in graph.modules.values()}
    findings: list[Finding] = []
    for rule in rules:
        for found in rule.check_project(graph):
            module = by_path.get(found.path)
            if module is not None and module.is_suppressed(found.line, rule.id):
                continue
            findings.append(found)
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def _check_single_file(path: str) -> list[Finding]:
    """Pool worker for ``run_checks(jobs=N)``: default battery, one file.

    Module-level so it pickles by reference; the rule battery is
    constructed inside the worker process rather than shipped across the
    pool, so rules never need to be picklable themselves.
    """
    return run_checks([path])


def _run_checks_parallel(files: Sequence[Path], jobs: int) -> list[Finding] | None:
    """Fan the per-file battery out over a process pool.

    Returns None when the pool cannot be used (spawn failure, broken
    pool) so the caller falls back to the serial path — a rule bug that
    raises inside a worker is *not* treated as a pool failure and
    propagates, the same as it would serially.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(files))) as pool:
            batches = list(
                pool.map(_check_single_file, [str(file) for file in files])
            )
    except (BrokenProcessPool, OSError):
        return None
    return sorted(
        (finding for batch in batches for finding in batch),
        key=lambda f: (f.path, f.line, f.col, f.rule),
    )


def run_checks(
    paths: Sequence[str | Path],
    rules: Iterable[Rule] | None = None,
    jobs: int | None = None,
) -> list[Finding]:
    """Lint ``paths`` with ``rules`` (default: the full battery).

    Returns the unsuppressed findings sorted by (path, line, col, rule).
    Unparseable files become ``syntax-error`` findings instead of raising.

    ``jobs`` > 1 runs the *default* battery over a process pool, one file
    per task, and merges the (independent, per-file) results — the sort
    makes the merge order-deterministic. Custom ``rules`` always run
    serially: rule instances are not shipped across the pool.
    """
    if rules is None and jobs is not None and jobs > 1:
        files = list(iter_python_files(paths))
        if len(files) > 1:
            findings = _run_checks_parallel(files, jobs)
            if findings is not None:
                return findings
    if rules is None:
        # Imported lazily: rules.py imports this module at load time.
        from repro.checks.rules import ALL_RULES

        rules = ALL_RULES
    rules = list(rules)
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        try:
            module = load_module(path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=max((exc.offset or 1) - 1, 0),
                    rule="syntax-error",
                    severity=Severity.ERROR,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        for rule in rules:
            if not rule.applies_to(module):
                continue
            for found in rule.check(module):
                if not module.is_suppressed(found.line, rule.id):
                    findings.append(found)
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in findings]
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    if findings:
        lines.append(f"{len(findings)} finding(s): {errors} error(s), "
                     f"{warnings} warning(s)")
    else:
        lines.append("no findings")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (stable key order, sorted findings)."""
    payload = {
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2)
