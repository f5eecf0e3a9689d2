"""Static analysis of the repro code base itself.

The reproduction's correctness rests on cross-layer contracts — the signal
registry in :mod:`repro.faults.sites`, integer-only datapath arithmetic,
seeded sampling, frozen identity dataclasses, explicit ``__all__`` exports
— that unit tests exercise but cannot *enforce*. This package enforces
them statically, at two granularities:

* **per-file rules** — :mod:`repro.checks.engine` is a small AST rule
  engine with per-line ``# repro: ignore[rule]`` suppressions, and
  :mod:`repro.checks.rules` is the battery of repo-specific rules
  (including the numpy tier's explicit-dtype discipline);
* **whole-program passes** — :mod:`repro.checks.graph` builds a
  project-wide import/symbol/call graph, on which
  :mod:`repro.checks.determinism` keeps wall-clock reads and swallowed
  exceptions off the parallel executor's worker-reachable code, and
  :mod:`repro.checks.sockets` proves every networked wait carries a
  deadline;
* **an interprocedural flow pass** — :mod:`repro.checks.flow` computes
  which exception types escape each function over the same graph,
  powering the exception-contract verifier
  (:mod:`repro.checks.contracts`).

Infrastructure: :mod:`repro.checks.cache` (incremental result cache and
the ``lint_paths`` orchestrator), :mod:`repro.checks.baseline` (staged
adoption), :mod:`repro.checks.sarif` (SARIF 2.1.0 output for GitHub
code scanning).

Run it from the CLI (``repro-fi lint src/repro``) or programmatically:

>>> from repro.checks import lint_paths
>>> findings = lint_paths(["src/repro"], cache_path=None)
>>> [f.render() for f in findings]
[]

See ``docs/static_analysis.md`` for the rule catalogue and
``docs/extending.md`` for how to write a rule.
"""

from repro.checks.engine import (
    Finding,
    ProjectRule,
    Rule,
    Severity,
    SourceModule,
    iter_python_files,
    load_module,
    module_name,
    project_rules,
    render_json,
    render_text,
    rule_catalog,
    run_checks,
    run_project_checks,
    select_rules,
)
from repro.checks.rules import (
    ALL_RULES,
    ArrayDtypeClosureRule,
    BitAccuracyRule,
    DataclassContractRule,
    ExportHygieneRule,
    SignalLiteralRule,
    UnseededRandomRule,
    get_rule,
)
from repro.checks.contracts import CONTRACT_RULES, ExceptionContractRule
from repro.checks.flow import EscapeAnalysis
from repro.checks.baseline import (
    apply_baseline,
    baseline_fingerprint,
    load_baseline,
    write_baseline,
)
from repro.checks.cache import DEFAULT_CACHE_PATH, LintCache, lint_paths
from repro.checks.sarif import render_sarif

__all__ = [
    # engine
    "Severity",
    "Finding",
    "SourceModule",
    "Rule",
    "ProjectRule",
    "module_name",
    "iter_python_files",
    "load_module",
    "run_checks",
    "run_project_checks",
    "project_rules",
    "rule_catalog",
    "select_rules",
    "render_text",
    "render_json",
    # rules
    "BitAccuracyRule",
    "SignalLiteralRule",
    "UnseededRandomRule",
    "ExportHygieneRule",
    "DataclassContractRule",
    "ArrayDtypeClosureRule",
    "ALL_RULES",
    "get_rule",
    # flow analysis and pass
    "EscapeAnalysis",
    "ExceptionContractRule",
    "CONTRACT_RULES",
    # infrastructure
    "DEFAULT_CACHE_PATH",
    "LintCache",
    "lint_paths",
    "apply_baseline",
    "baseline_fingerprint",
    "load_baseline",
    "write_baseline",
    "render_sarif",
]
