"""Incremental result cache and the full-battery lint orchestrator.

The whole-program passes make a cold lint run graph-construction-bound:
every file under ``src/repro`` is parsed, symbol tables built, calls
resolved. None of that work depends on anything but file *content*, so
results are cached keyed on content hashes and a warm rerun reduces to
hashing plus one JSON read:

* **per-file findings** are keyed on the file's own sha256 digest — edit
  one file and only that file is re-linted;
* **project findings** (determinism, contracts, sockets) are keyed on
  the digest of the *whole file set* — any edit anywhere rebuilds the
  graph, which is the only sound option for a whole-program analysis;
* both are additionally keyed on a **rules fingerprint** (the digest of
  the ``repro.checks`` package sources), so editing a rule invalidates
  everything it might have produced.

:func:`lint_paths` is the one entry point the CLI uses: it composes the
per-file battery (:func:`repro.checks.engine.run_checks`), the project
battery (:func:`repro.checks.engine.run_project_checks`), and this cache.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.checks.engine import (
    Finding,
    Severity,
    iter_python_files,
    run_checks,
    run_project_checks,
)

__all__ = [
    "DEFAULT_CACHE_PATH",
    "LintCache",
    "rules_fingerprint",
    "lint_paths",
]

#: Where ``repro-fi lint`` keeps its cache unless told otherwise.
DEFAULT_CACHE_PATH = Path(".repro-lint-cache.json")

#: Bumped whenever the cache schema changes; mismatched caches are dropped.
_CACHE_VERSION = 1


def rules_fingerprint() -> str:
    """Digest of the ``repro.checks`` package sources.

    Any edit to the engine, a rule, or an analysis pass changes this
    fingerprint and invalidates every cached result — cached findings are
    only as trustworthy as the code that produced them.
    """
    digest = hashlib.sha256()
    package_dir = Path(__file__).resolve().parent
    for source in sorted(package_dir.glob("*.py")):
        digest.update(source.name.encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finding_to_dict(finding: Finding) -> dict:
    return finding.to_dict()


def _finding_from_dict(raw: dict) -> Finding:
    return Finding(
        path=raw["path"],
        line=raw["line"],
        col=raw["col"],
        rule=raw["rule"],
        severity=Severity(raw["severity"]),
        message=raw["message"],
    )


class LintCache:
    """The on-disk incremental cache (one JSON file)."""

    def __init__(self, path: Path | str = DEFAULT_CACHE_PATH) -> None:
        self.path = Path(path)
        self.fingerprint = rules_fingerprint()
        #: resolved path str -> {"digest": str, "findings": [dict, ...]}
        self.files: dict[str, dict] = {}
        #: {"digest": str, "findings": [dict, ...]} or None
        self.project: dict | None = None
        self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict):
            return
        if raw.get("version") != _CACHE_VERSION:
            return
        if raw.get("rules") != self.fingerprint:
            return  # rules changed: every cached result is stale
        files = raw.get("files")
        if isinstance(files, dict):
            self.files = files
        project = raw.get("project")
        if isinstance(project, dict):
            self.project = project

    def save(self) -> None:
        payload = {
            "version": _CACHE_VERSION,
            "rules": self.fingerprint,
            "files": self.files,
            "project": self.project,
        }
        self.path.write_text(
            json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8"
        )

    # ------------------------------------------------------------------
    def lookup_file(self, key: str, digest: str) -> list[Finding] | None:
        entry = self.files.get(key)
        if entry is None or entry.get("digest") != digest:
            return None
        return [_finding_from_dict(raw) for raw in entry.get("findings", [])]

    def store_file(
        self, key: str, digest: str, findings: Iterable[Finding]
    ) -> None:
        self.files[key] = {
            "digest": digest,
            "findings": [_finding_to_dict(f) for f in findings],
        }

    def lookup_project(self, digest: str) -> list[Finding] | None:
        if self.project is None or self.project.get("digest") != digest:
            return None
        return [
            _finding_from_dict(raw) for raw in self.project.get("findings", [])
        ]

    def store_project(
        self, digest: str, findings: Iterable[Finding]
    ) -> None:
        self.project = {
            "digest": digest,
            "findings": [_finding_to_dict(f) for f in findings],
        }


def lint_paths(
    paths: Sequence[str | Path],
    cache_path: Path | str | None = DEFAULT_CACHE_PATH,
    use_cache: bool = True,
    jobs: int | None = None,
) -> list[Finding]:
    """Run the full battery — per-file and whole-program — over ``paths``.

    With ``use_cache`` (and a writable ``cache_path``), per-file results
    are reused for unchanged files and project results for an unchanged
    file set; a fully warm run does no parsing at all.

    ``jobs`` > 1 spreads the per-file battery over the stale files via a
    process pool (:func:`repro.checks.engine.run_checks`); the
    whole-program passes stay in-parent — they are one indivisible
    graph-wide fixpoint, not a per-file map.
    """
    files = list(iter_python_files(paths))
    digests = {file: _file_digest(file) for file in files}
    keys = {file: str(file.resolve()) for file in files}
    project_digest = hashlib.sha256(
        "\n".join(
            f"{keys[file]}:{digests[file]}" for file in sorted(files, key=keys.get)
        ).encode()
    ).hexdigest()

    cache = LintCache(cache_path) if use_cache and cache_path else None

    findings: list[Finding] = []
    stale: list[Path] = []
    for file in files:
        cached = (
            cache.lookup_file(keys[file], digests[file])
            if cache is not None
            else None
        )
        if cached is not None:
            findings.extend(cached)
        else:
            stale.append(file)
    if jobs is not None and jobs > 1 and len(stale) > 1:
        by_path: dict[str, list[Finding]] = {}
        for finding in run_checks(stale, jobs=jobs):
            by_path.setdefault(finding.path, []).append(finding)
        for file in stale:
            file_findings = by_path.get(str(file), [])
            if cache is not None:
                cache.store_file(keys[file], digests[file], file_findings)
            findings.extend(file_findings)
    else:
        for file in stale:
            file_findings = run_checks([file])
            if cache is not None:
                cache.store_file(keys[file], digests[file], file_findings)
            findings.extend(file_findings)

    project_findings = (
        cache.lookup_project(project_digest) if cache is not None else None
    )
    if project_findings is None:
        project_findings = run_project_checks(paths)
        if cache is not None:
            cache.store_project(project_digest, project_findings)
    findings.extend(project_findings)

    if cache is not None:
        cache.save()
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
