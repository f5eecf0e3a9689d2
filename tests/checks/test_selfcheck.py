"""The linter's standing self-check: the repository must lint clean.

This is the acceptance gate of the checks subsystem — every invariant rule
runs over ``src/repro`` itself, so any future change that breaks a
contract (a float in the datapath, a raw signal literal, an unseeded RNG,
a drifting ``__all__``, an unfrozen contract dataclass, an implicit
platform-default dtype in the vectorised numpy tier, a wall-clock read
or a swallowed exception on a worker path, a generic raise escaping to a
campaign entry, an unbounded socket wait) fails the suite. True positives
get fixed in-source, never baselined here.
"""

from pathlib import Path

from repro.checks import (
    ALL_RULES,
    lint_paths,
    project_rules,
    render_text,
    rule_catalog,
    run_checks,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


def test_package_root_exists():
    assert PACKAGE_ROOT.is_dir(), PACKAGE_ROOT


def test_repository_lints_clean_per_file():
    findings = run_checks([PACKAGE_ROOT])
    assert findings == [], "\n" + render_text(findings)


def test_repository_lints_clean_full_battery():
    findings = lint_paths([PACKAGE_ROOT], cache_path=None)
    assert findings == [], "\n" + render_text(findings)


def test_parallel_lint_matches_serial():
    # ``--jobs`` must be a pure wall-clock knob: the pooled per-file
    # battery merges to exactly the serial findings (here: none).
    assert run_checks([PACKAGE_ROOT], jobs=2) == run_checks([PACKAGE_ROOT])


def test_full_battery_ran():
    # Guard against the self-check silently passing because rules vanished.
    assert {rule.id for rule in ALL_RULES} == {
        "bit-accuracy",
        "signal-literal",
        "unseeded-random",
        "export-hygiene",
        "dataclass-contract",
        "array-dtype-closure",
    }
    assert {rule.id for rule in project_rules()} == {
        "worker-wall-clock",
        "worker-exception-swallow",
        "exception-contract",
        "socket-discipline",
    }
    assert len(rule_catalog()) == len(ALL_RULES) + len(project_rules())
