"""Fixture tests for every shipped lint rule: each rule must fire on a
violating snippet and stay silent on a conforming one."""

import pytest

from repro.checks import Severity, get_rule, run_checks
from repro.checks.rules import (
    ALL_RULES,
    ArrayDtypeClosureRule,
    BitAccuracyRule,
    DataclassContractRule,
    ExportHygieneRule,
    SignalLiteralRule,
    UnseededRandomRule,
)


def rules_fired(path, rule):
    return [f.rule for f in run_checks([path], rules=[rule])]


class TestBitAccuracy:
    def test_float_literal_fires(self, write_module):
        path = write_module("repro.systolic.bad", "SCALE = 0.5\n")
        assert rules_fired(path, BitAccuracyRule()) == ["bit-accuracy"]

    def test_complex_literal_fires(self, write_module):
        path = write_module("repro.faults.bad", "Z = 1j\n")
        assert rules_fired(path, BitAccuracyRule()) == ["bit-accuracy"]

    def test_true_division_fires(self, write_module):
        path = write_module(
            "repro.systolic.bad",
            """
            def halve(x):
                return x / 2
            """,
        )
        assert rules_fired(path, BitAccuracyRule()) == ["bit-accuracy"]

    def test_aug_division_fires(self, write_module):
        path = write_module(
            "repro.faults.bad",
            """
            def halve(x):
                x /= 2
                return x
            """,
        )
        assert rules_fired(path, BitAccuracyRule()) == ["bit-accuracy"]

    def test_float_cast_fires(self, write_module):
        path = write_module("repro.systolic.bad", "X = float(3)\n")
        assert rules_fired(path, BitAccuracyRule()) == ["bit-accuracy"]

    def test_integer_arithmetic_is_clean(self, write_module):
        path = write_module(
            "repro.systolic.good",
            """
            def mac(a, b, acc):
                '''Docstrings with 1.5 floats are fine.'''
                return acc + (a * b) // 1
            """,
        )
        assert rules_fired(path, BitAccuracyRule()) == []

    def test_out_of_scope_module_is_clean(self, write_module):
        path = write_module("repro.analysis.floaty", "MEAN = 0.25\n")
        assert rules_fired(path, BitAccuracyRule()) == []


class TestSignalLiteral:
    def test_raw_signal_name_fires(self, write_module):
        path = write_module("repro.core.bad", "TARGET = 'a_reg'\n")
        findings = run_checks([path], rules=[SignalLiteralRule()])
        assert [f.rule for f in findings] == ["signal-literal"]
        assert "SIGNAL_A_REG" in findings[0].message

    def test_every_registry_name_is_covered(self, write_module):
        path = write_module(
            "repro.core.bad",
            "NAMES = ('a_reg', 'b_reg', 'product', 'sum')\n",
        )
        assert len(rules_fired(path, SignalLiteralRule())) == 4

    def test_constant_reference_is_clean(self, write_module):
        path = write_module(
            "repro.core.good",
            """
            from repro.faults.sites import SIGNAL_SUM

            TARGET = SIGNAL_SUM
            """,
        )
        assert rules_fired(path, SignalLiteralRule()) == []

    def test_docstring_mentioning_a_signal_is_clean(self, write_module):
        path = write_module(
            "repro.core.good",
            """
            def f():
                'sum'
            """,
        )
        assert rules_fired(path, SignalLiteralRule()) == []

    def test_registry_module_itself_is_exempt(self, write_module):
        path = write_module("repro.faults.sites", "SIGNAL_SUM = 'sum'\n")
        assert rules_fired(path, SignalLiteralRule()) == []

    def test_unrelated_strings_are_clean(self, write_module):
        path = write_module(
            "repro.core.good", "MODE = 'summary'\nKIND = 'register'\n"
        )
        assert rules_fired(path, SignalLiteralRule()) == []


class TestUnseededRandom:
    def test_unseeded_default_rng_fires(self, write_module):
        path = write_module(
            "repro.core.bad",
            """
            import numpy as np

            rng = np.random.default_rng()
            """,
        )
        assert rules_fired(path, UnseededRandomRule()) == ["unseeded-random"]

    def test_legacy_numpy_global_fires(self, write_module):
        path = write_module(
            "repro.nn.bad",
            """
            import numpy as np

            noise = np.random.rand(3, 3)
            """,
        )
        assert rules_fired(path, UnseededRandomRule()) == ["unseeded-random"]

    def test_stdlib_random_module_fires(self, write_module):
        path = write_module(
            "repro.core.bad",
            """
            import random

            x = random.random()
            """,
        )
        assert rules_fired(path, UnseededRandomRule()) == ["unseeded-random"]

    def test_stdlib_from_import_fires(self, write_module):
        path = write_module(
            "repro.core.bad",
            """
            from random import randint

            x = randint(0, 7)
            """,
        )
        assert rules_fired(path, UnseededRandomRule()) == ["unseeded-random"]

    def test_seeded_generator_is_clean(self, write_module):
        path = write_module(
            "repro.core.good",
            """
            import numpy as np

            def sample(seed=0):
                rng = np.random.default_rng(seed)
                return rng.random(4)
            """,
        )
        assert rules_fired(path, UnseededRandomRule()) == []

    def test_seed_keyword_is_clean(self, write_module):
        path = write_module(
            "repro.core.good",
            """
            import numpy as np

            rng = np.random.default_rng(seed=123)
            """,
        )
        assert rules_fired(path, UnseededRandomRule()) == []

    def test_sampling_module_is_exempt(self, write_module):
        path = write_module(
            "repro.core.sampling",
            """
            import numpy as np

            rng = np.random.default_rng()
            """,
        )
        assert rules_fired(path, UnseededRandomRule()) == []

    @pytest.mark.parametrize(
        "source",
        [
            "import os\nkey = os.urandom(4)\n",
            "from os import urandom\nkey = urandom(4)\n",
            "import secrets\ntoken = secrets.token_hex(8)\n",
            "from secrets import randbelow\nx = randbelow(7)\n",
            "import uuid\nrun_id = uuid.uuid4()\n",
            "from uuid import uuid1\nrun_id = uuid1()\n",
        ],
        ids=[
            "os-urandom",
            "from-os-urandom",
            "secrets",
            "from-secrets",
            "uuid4",
            "from-uuid1",
        ],
    )
    def test_entropy_source_fires(self, write_module, source):
        path = write_module("repro.core.executor", source)
        assert rules_fired(path, UnseededRandomRule()) == ["unseeded-random"]

    def test_deterministic_uuid_and_os_calls_are_clean(self, write_module):
        path = write_module(
            "repro.core.good",
            """
            import os
            import uuid

            key = uuid.uuid5(uuid.NAMESPACE_URL, "campaign")
            cwd = os.getcwd()
            """,
        )
        assert rules_fired(path, UnseededRandomRule()) == []


class TestExportHygiene:
    def test_public_def_missing_from_all_fires(self, write_module):
        path = write_module(
            "repro.core.bad",
            """
            __all__ = ["visible"]

            def visible():
                return 1

            def leaked():
                return 2
            """,
        )
        findings = run_checks([path], rules=[ExportHygieneRule()])
        assert [f.rule for f in findings] == ["export-hygiene"]
        assert "leaked" in findings[0].message
        assert findings[0].severity is Severity.WARNING

    def test_phantom_all_entry_fires(self, write_module):
        path = write_module(
            "repro.core.bad",
            """
            __all__ = ["ghost"]
            """,
        )
        findings = run_checks([path], rules=[ExportHygieneRule()])
        assert "ghost" in findings[0].message

    def test_missing_all_with_public_names_fires(self, write_module):
        path = write_module(
            "repro.core.bad",
            """
            def exposed():
                return 1
            """,
        )
        findings = run_checks([path], rules=[ExportHygieneRule()])
        assert "no __all__" in findings[0].message

    def test_consistent_module_is_clean(self, write_module):
        path = write_module(
            "repro.core.good",
            """
            from pathlib import Path

            __all__ = ["LIMIT", "helper", "Thing", "Path"]

            LIMIT = 4
            _PRIVATE = 9

            def helper():
                return _PRIVATE

            class Thing:
                pass
            """,
        )
        assert rules_fired(path, ExportHygieneRule()) == []

    def test_empty_module_is_clean(self, write_module):
        path = write_module("repro.core.empty", "")
        assert rules_fired(path, ExportHygieneRule()) == []

    def test_dynamic_all_is_skipped(self, write_module):
        path = write_module(
            "repro.core.dynamic",
            """
            __all__ = [name for name in ("a", "b")]

            def unlisted():
                return 1
            """,
        )
        assert rules_fired(path, ExportHygieneRule()) == []


class TestDataclassContract:
    def test_unfrozen_contract_class_fires(self, write_module):
        path = write_module(
            "repro.systolic.signals",
            """
            from dataclasses import dataclass

            @dataclass
            class SignalEvent:
                cycle: int
            """,
        )
        findings = run_checks([path], rules=[DataclassContractRule()])
        assert [f.rule for f in findings] == ["dataclass-contract"]
        assert "frozen=True" in findings[0].message

    def test_explicit_frozen_false_fires(self, write_module):
        path = write_module(
            "repro.systolic.datatypes",
            """
            from dataclasses import dataclass

            @dataclass(frozen=False)
            class IntType:
                width: int
            """,
        )
        assert rules_fired(path, DataclassContractRule()) == [
            "dataclass-contract"
        ]

    def test_missing_contract_class_fires(self, write_module):
        path = write_module("repro.systolic.signals", "X = 1\n")
        findings = run_checks([path], rules=[DataclassContractRule()])
        assert "no longer defined" in findings[0].message

    def test_frozen_contract_class_is_clean(self, write_module):
        path = write_module(
            "repro.systolic.datatypes",
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class IntType:
                width: int
            """,
        )
        assert rules_fired(path, DataclassContractRule()) == []

    def test_registry_dtype_mismatch_fires(self, write_module):
        path = write_module(
            "repro.faults.sites",
            """
            from dataclasses import dataclass

            SIGNAL_A_REG = "a_reg"
            SIGNAL_B_REG = "b_reg"

            MAC_SIGNALS = (SIGNAL_A_REG, SIGNAL_B_REG)

            _SIGNAL_DTYPES = {SIGNAL_A_REG: None}

            @dataclass(frozen=True)
            class FaultSite:
                row: int
            """,
        )
        findings = run_checks([path], rules=[DataclassContractRule()])
        assert len(findings) == 1
        assert "SIGNAL_B_REG" in findings[0].message

    def test_consistent_registry_is_clean(self, write_module):
        path = write_module(
            "repro.faults.sites",
            """
            from dataclasses import dataclass

            SIGNAL_A_REG = "a_reg"

            MAC_SIGNALS = (SIGNAL_A_REG,)

            _SIGNAL_DTYPES = {SIGNAL_A_REG: None}

            @dataclass(frozen=True)
            class FaultSite:
                row: int
            """,
        )
        assert rules_fired(path, DataclassContractRule()) == []

    def test_other_modules_are_out_of_scope(self, write_module):
        path = write_module(
            "repro.core.other",
            """
            from dataclasses import dataclass

            @dataclass
            class FaultSite:
                row: int
            """,
        )
        assert rules_fired(path, DataclassContractRule()) == []


class TestArrayDtypeClosure:
    @pytest.mark.parametrize(
        "module, body",
        [
            ("repro.systolic.badkernel", "out = np.arange(n)"),
            ("repro.systolic.floatzeros", "out = np.zeros((4, 4))"),
            ("repro.systolic.intlist", "out = np.array([1, 2, 3])"),
            ("repro.engines.analytic.boolsum", "out = (np.ones(n, dtype=np.int64) != 0).sum(axis=0)"),
            ("repro.engines.analytic.cumsum", "out = np.cumsum(np.ones(n, dtype=np.int64), axis=0)"),
        ],
        ids=["bare-arange", "dtypeless-zeros", "int-list-array",
             "bool-mask-sum", "np-cumsum"],
    )
    def test_missing_dtype_fires(self, write_module, module, body):
        path = write_module(
            module,
            f"""
            import numpy as np

            def kernel(n: int):
                {body}
                return out
            """,
        )
        findings = run_checks([path], rules=[ArrayDtypeClosureRule()])
        assert [(f.rule, f.line) for f in findings] == [
            ("array-dtype-closure", 5)
        ]

    @pytest.mark.parametrize(
        "module, body",
        [
            # Explicit widths on constructors and accumulators.
            ("repro.systolic.good", "out = np.arange(n, dtype=np.int64)"),
            ("repro.engines.analytic.good",
             "out = (np.zeros(n, dtype=np.int64) != 0).sum(axis=0, dtype=np.int64)"),
            ("repro.ops.good",
             "out = np.cumsum(np.ones(n, dtype=np.int64), axis=0, dtype=np.int64)"),
            # asarray passes an existing array's dtype through.
            ("repro.systolic.passthrough", "out = np.asarray(n)"),
            # The builtin sum is not a numpy reduction.
            ("repro.ops.builtin", "out = sum([n, n])"),
            # Outside the numpy-kernel packages the rule does not apply.
            ("repro.core.helper", "out = np.zeros(n).sum()"),
            # A justified suppression silences the finding.
            ("repro.systolic.hushed",
             "out = np.arange(n)  # repro: ignore[array-dtype-closure]"),
        ],
        ids=["explicit-arange", "explicit-mask-sum", "explicit-cumsum",
             "asarray", "builtin-sum", "out-of-scope", "suppressed"],
    )
    def test_clean(self, write_module, module, body):
        path = write_module(
            module,
            f"""
            import numpy as np

            def kernel(n: int):
                {body}
                return out
            """,
        )
        assert rules_fired(path, ArrayDtypeClosureRule()) == []


class TestRegistry:
    def test_every_rule_has_id_severity_description(self):
        for rule in ALL_RULES:
            assert rule.id
            assert isinstance(rule.severity, Severity)
            assert rule.description

    def test_rule_ids_are_unique(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))

    def test_get_rule_round_trips(self):
        for rule in ALL_RULES:
            assert get_rule(rule.id) is rule

    def test_get_rule_unknown_id(self):
        with pytest.raises(KeyError):
            get_rule("no-such-rule")
