"""The invariant rules enforced over the repro code base.

Each rule protects one of the cross-layer contracts the reproduction's
correctness rests on (see :mod:`repro.checks.engine` for the framework and
``docs/static_analysis.md`` for the prose contract each rule encodes):

``bit-accuracy``
    The datapath packages (:mod:`repro.systolic`, :mod:`repro.faults`)
    model two's-complement hardware; float/complex literals, ``float()``
    casts, and ``/`` true division have no business there.
``signal-literal``
    MAC signal names are registry constants in :mod:`repro.faults.sites`;
    spelling one as a raw string elsewhere lets the registry and its users
    drift apart silently.
``unseeded-random``
    Campaigns must replay bit-identically; every RNG outside
    :mod:`repro.core.sampling` has to be an explicitly seeded Generator,
    and nothing may draw OS entropy (``os.urandom``, ``secrets``,
    ``uuid1``/``uuid4``).
``export-hygiene``
    ``__all__`` is the public-API contract: it must exist, cover every
    public definition, and name only things that are actually bound.
``dataclass-contract``
    The identity dataclasses shared across layers (fault sites, signal
    events, integer types) stay frozen, and the fault-site dtype registry
    stays in one-to-one correspondence with ``MAC_SIGNALS``.
``array-dtype-closure``
    The vectorised numpy kernels name the width of every array they
    allocate or accumulate: a bare ``np.arange`` or a bool-mask
    ``.sum()`` takes numpy's platform-default int (int32 on 32-bit
    platforms, and on Windows before numpy 2), so a delta tensor that is
    exact on 64-bit Linux wraps elsewhere.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.engine import Finding, Rule, Severity, SourceModule
from repro.faults import sites as _sites
from repro.faults.sites import MAC_SIGNALS

__all__ = [
    "BitAccuracyRule",
    "SignalLiteralRule",
    "UnseededRandomRule",
    "ExportHygieneRule",
    "DataclassContractRule",
    "ArrayDtypeClosureRule",
    "ALL_RULES",
    "get_rule",
]

#: Packages whose arithmetic must stay integer-only.
_DATAPATH_SCOPES = ("repro.systolic", "repro.faults")

#: Reverse map ``"a_reg" -> "SIGNAL_A_REG"`` derived from the registry
#: itself, so the linter can never disagree with the single source of truth.
_CONSTANT_FOR_SIGNAL: dict[str, str] = {
    getattr(_sites, name): name
    for name in _sites.__all__
    if name.startswith("SIGNAL_")
}


def _docstring_constants(tree: ast.Module) -> set[int]:
    """ids of the Constant nodes that are docstrings (exempt from lint)."""
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            exempt.add(id(body[0].value))
    return exempt


class BitAccuracyRule(Rule):
    """No native floating point in the bit-accurate datapath."""

    id = "bit-accuracy"
    severity = Severity.ERROR
    description = (
        "datapath modules (repro.systolic, repro.faults) must use integer "
        "semantics only: no float/complex literals, float() casts, or / "
        "true division"
    )
    scopes = _DATAPATH_SCOPES

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)
            ):
                yield self.finding(
                    module,
                    node,
                    f"{type(node.value).__name__} literal {node.value!r} in "
                    "integer-only datapath code",
                )
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div
            ):
                yield self.finding(
                    module,
                    node,
                    "true division produces a float; use // "
                    "(hardware datapaths have no FPU)",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                yield self.finding(
                    module, node, "float() cast in integer-only datapath code"
                )


class SignalLiteralRule(Rule):
    """MAC signal names must reference the registry, not string literals."""

    id = "signal-literal"
    severity = Severity.ERROR
    description = (
        "raw MAC signal-name string literals are forbidden outside "
        "repro.faults.sites; reference the SIGNAL_* registry constants"
    )
    scopes = ("repro",)
    exempt = ("repro.faults.sites",)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        docstrings = _docstring_constants(module.tree)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in MAC_SIGNALS
                and id(node) not in docstrings
            ):
                constant = _CONSTANT_FOR_SIGNAL.get(node.value)
                hint = (
                    f"repro.faults.sites.{constant}"
                    if constant is not None
                    else "the repro.faults.sites registry"
                )
                yield self.finding(
                    module,
                    node,
                    f"raw signal name {node.value!r}; use {hint} instead",
                )


#: Legacy numpy global-state RNG entry points (np.random.<fn>).
_LEGACY_NUMPY_RANDOM = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "seed",
        "get_state",
        "set_state",
    }
)


#: OS entropy sources outside the ``secrets`` module.
_OS_ENTROPY = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted import target, for every absolute import."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    names[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted_call(func: ast.expr, imports: dict[str, str]) -> str | None:
    """Dotted name of a callee rooted at an imported name, else None."""
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in imports:
        return None
    return ".".join([imports[func.id], *reversed(parts)])


class UnseededRandomRule(Rule):
    """All randomness must flow through explicitly seeded Generators."""

    id = "unseeded-random"
    severity = Severity.ERROR
    description = (
        "outside repro.core.sampling, RNGs must be explicitly seeded "
        "numpy Generators: no default_rng() without a seed, no legacy "
        "numpy.random globals, no stdlib random module, no OS entropy "
        "(os.urandom, secrets, uuid1/uuid4)"
    )
    scopes = ("repro",)
    exempt = ("repro.core.sampling",)

    @staticmethod
    def _hazard(dotted: str) -> str | None:
        """Why calling ``dotted`` breaks replay, or None if it does not."""
        head, _, tail = dotted.rpartition(".")
        if head == "numpy.random" and tail in _LEGACY_NUMPY_RANDOM:
            return (
                f"legacy numpy.random.{tail}() uses hidden global state; "
                "use a seeded default_rng Generator"
            )
        if head == "random":
            return (
                f"stdlib random.{tail}() uses global state; use a seeded "
                "numpy Generator"
            )
        if dotted in _OS_ENTROPY or head == "secrets":
            return (
                f"{dotted}() draws OS entropy; derive the value from a "
                "seeded numpy Generator"
            )
        return None

    def check(self, module: SourceModule) -> Iterator[Finding]:
        imports = _import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # default_rng(...) — any spelling — must pass a seed.
            is_default_rng = (
                isinstance(func, ast.Name) and func.id == "default_rng"
            ) or (isinstance(func, ast.Attribute) and func.attr == "default_rng")
            if is_default_rng:
                if not node.args and not any(
                    kw.arg in (None, "seed") for kw in node.keywords
                ):
                    yield self.finding(
                        module,
                        node,
                        "default_rng() without a seed is nondeterministic; "
                        "pass an explicit seed",
                    )
                continue
            dotted = _dotted_call(func, imports)
            message = self._hazard(dotted) if dotted is not None else None
            if message is not None:
                yield self.finding(module, node, message)


def _assigned_names(target: ast.expr) -> Iterator[str]:
    """Names bound by one assignment target (handles tuple unpacking)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned_names(element)


class ExportHygieneRule(Rule):
    """``__all__`` and the set of public definitions must agree."""

    id = "export-hygiene"
    severity = Severity.WARNING
    description = (
        "every module declares __all__; every public top-level definition "
        "appears in it, and every __all__ entry is actually bound"
    )

    @staticmethod
    def _literal_names(value: ast.expr) -> list[str] | None:
        """The strings of a literal list/tuple, or None if not literal."""
        if not isinstance(value, (ast.List, ast.Tuple)):
            return None
        names: list[str] = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                names.append(element.value)
            else:
                return None
        return names

    def check(self, module: SourceModule) -> Iterator[Finding]:
        bound: set[str] = set()  # every name bound at module top level
        public: dict[str, ast.stmt] = {}  # public *definitions* only
        all_names: list[str] | None = None
        all_node: ast.stmt | None = None
        has_star_import = False
        unparseable_all = False

        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
                if not node.name.startswith("_"):
                    public.setdefault(node.name, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                if isinstance(node, ast.AnnAssign) and node.value is None:
                    continue  # a bare annotation binds nothing
                for target in targets:
                    for name in _assigned_names(target):
                        bound.add(name)
                        if name == "__all__":
                            names = self._literal_names(node.value)
                            if names is None:
                                unparseable_all = True
                            else:
                                all_names = names
                                all_node = node
                        elif not name.startswith("_"):
                            public.setdefault(name, node)
            elif isinstance(node, ast.AugAssign):
                for name in _assigned_names(node.target):
                    if name == "__all__":
                        names = self._literal_names(node.value)
                        if names is None or all_names is None:
                            unparseable_all = True
                        else:
                            all_names = all_names + names
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        has_star_import = True
                    else:
                        bound.add(alias.asname or alias.name)

        if unparseable_all:
            return  # dynamically built __all__: out of static reach
        if all_names is None:
            if public:
                missing = ", ".join(sorted(public))
                yield self.finding(
                    module,
                    None,
                    f"module defines public names but no __all__ "
                    f"(undeclared: {missing})",
                )
            return
        for name, node in sorted(public.items()):
            if name not in all_names:
                yield self.finding(
                    module, node, f"public name {name!r} missing from __all__"
                )
        if not has_star_import:
            for name in all_names:
                if name not in bound:
                    yield self.finding(
                        module,
                        all_node,
                        f"__all__ entry {name!r} is not defined or imported "
                        "in the module",
                    )


#: Dataclasses that are shared, hashed, or cached across layers and must
#: therefore stay immutable. Keyed by dotted module name.
_FROZEN_CONTRACTS: dict[str, tuple[str, ...]] = {
    "repro.faults.sites": ("FaultSite",),
    "repro.systolic.signals": ("SignalEvent",),
    "repro.systolic.datatypes": ("IntType",),
}

#: The module holding the signal/dtype registry the consistency check runs on.
_REGISTRY_MODULE = "repro.faults.sites"


class DataclassContractRule(Rule):
    """Identity dataclasses stay frozen; the dtype registry stays complete."""

    id = "dataclass-contract"
    severity = Severity.ERROR
    description = (
        "contract dataclasses (FaultSite, SignalEvent, IntType) must be "
        "@dataclass(frozen=True), and _SIGNAL_DTYPES must cover exactly "
        "MAC_SIGNALS"
    )
    scopes = tuple(_FROZEN_CONTRACTS)

    @staticmethod
    def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call is not None else decorator
            name = (
                target.id
                if isinstance(target, ast.Name)
                else target.attr
                if isinstance(target, ast.Attribute)
                else None
            )
            if name != "dataclass":
                continue
            if call is None:
                return False  # bare @dataclass: frozen defaults to False
            for keyword in call.keywords:
                if (
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
            return False
        return False

    @staticmethod
    def _tuple_name_ids(value: ast.expr) -> list[str] | None:
        if not isinstance(value, (ast.Tuple, ast.List)):
            return None
        names: list[str] = []
        for element in value.elts:
            if not isinstance(element, ast.Name):
                return None
            names.append(element.id)
        return names

    def _check_registry(self, module: SourceModule) -> Iterator[Finding]:
        """MAC_SIGNALS and _SIGNAL_DTYPES must list the same constants."""
        signals: list[str] | None = None
        dtype_keys: list[str] | None = None
        signals_node: ast.stmt | None = None
        dtypes_node: ast.stmt | None = None
        for node in module.tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            names = [n for t in targets for n in _assigned_names(t)]
            if "MAC_SIGNALS" in names and node.value is not None:
                signals = self._tuple_name_ids(node.value)
                signals_node = node
            elif "_SIGNAL_DTYPES" in names and node.value is not None:
                if isinstance(node.value, ast.Dict) and all(
                    isinstance(key, ast.Name) for key in node.value.keys
                ):
                    dtype_keys = [key.id for key in node.value.keys]  # type: ignore[union-attr]
                dtypes_node = node
        if signals is None:
            yield self.finding(
                module,
                signals_node,
                "MAC_SIGNALS must be a literal tuple of SIGNAL_* constants",
            )
            return
        if dtype_keys is None:
            yield self.finding(
                module,
                dtypes_node,
                "_SIGNAL_DTYPES must be a literal dict keyed by SIGNAL_* "
                "constants",
            )
            return
        for name in signals:
            if name not in dtype_keys:
                yield self.finding(
                    module,
                    dtypes_node,
                    f"signal constant {name} is in MAC_SIGNALS but has no "
                    "entry in _SIGNAL_DTYPES",
                )
        for name in dtype_keys:
            if name not in signals:
                yield self.finding(
                    module,
                    dtypes_node,
                    f"_SIGNAL_DTYPES key {name} is not listed in MAC_SIGNALS",
                )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        classes = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        }
        for expected in _FROZEN_CONTRACTS.get(module.name or "", ()):
            node = classes.get(expected)
            if node is None:
                yield self.finding(
                    module,
                    None,
                    f"contract class {expected} is no longer defined in "
                    f"{module.name}",
                )
            elif not self._is_frozen_dataclass(node):
                yield self.finding(
                    module,
                    node,
                    f"contract class {expected} must be declared "
                    "@dataclass(frozen=True)",
                )
        if module.name == _REGISTRY_MODULE:
            yield from self._check_registry(module)


#: Packages whose vectorised numpy kernels carry the MAC/delta datapath.
_ARRAY_SCOPES = ("repro.engines.analytic", "repro.systolic", "repro.ops")

#: numpy constructors whose default dtype is a platform int or float64.
_NUMPY_CONSTRUCTORS = frozenset(
    {"zeros", "ones", "empty", "full", "arange", "eye", "linspace", "array"}
)

#: Reductions that accumulate into a platform-default int for bool or
#: narrow-int operands.
_NUMPY_REDUCTIONS = frozenset({"sum", "cumsum", "prod", "cumprod"})  # repro: ignore[signal-literal]


class ArrayDtypeClosureRule(Rule):
    """Every datapath array names its width."""

    id = "array-dtype-closure"
    severity = Severity.ERROR
    description = (
        "numpy kernels (repro.engines.analytic, repro.systolic, repro.ops) "
        "must pass dtype= to np.zeros/ones/empty/full/arange/eye/linspace/"
        "array and to every sum/cumsum/prod/cumprod, so no width falls "
        "back to a platform default"
    )
    scopes = _ARRAY_SCOPES

    def check(self, module: SourceModule) -> Iterator[Finding]:
        imports = _import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or any(
                kw.arg == "dtype" for kw in node.keywords
            ):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _NUMPY_REDUCTIONS:
                yield self.finding(
                    module,
                    node,
                    f"{func.attr}() without dtype= accumulates into a "
                    "platform-default or promoted dtype; pass dtype=",
                )
                continue
            dotted = _dotted_call(func, imports) or ""
            head, _, name = dotted.rpartition(".")
            if head == "numpy" and name in _NUMPY_CONSTRUCTORS:
                yield self.finding(
                    module,
                    node,
                    f"np.{name}() without dtype= takes a platform-default "
                    "int or float64; pass dtype=",
                )


#: The default battery, in documentation order.
ALL_RULES: tuple[Rule, ...] = (
    BitAccuracyRule(),
    SignalLiteralRule(),
    UnseededRandomRule(),
    ExportHygieneRule(),
    DataclassContractRule(),
    ArrayDtypeClosureRule(),
)


def get_rule(rule_id: str) -> Rule:
    """Look up a rule instance by id.

    Raises
    ------
    KeyError
        If no rule has that id.
    """
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(
        f"unknown rule {rule_id!r}; expected one of "
        f"{tuple(rule.id for rule in ALL_RULES)}"
    )
