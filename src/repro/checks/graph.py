"""Whole-program import/symbol graph and conservative call graph.

The per-file rules of :mod:`repro.checks.rules` enforce conventions a
single AST can witness. The whole-program passes built on this module
(:mod:`repro.checks.determinism`, :mod:`repro.checks.contracts`,
:mod:`repro.checks.sockets`) need more: *which code can run inside a
worker process* is a property of the call graph, not of any one file.
This module builds that graph once per lint run:

* a **symbol table** per module — top-level functions, classes with their
  methods, and import aliases;
* a **call graph** with intraprocedural summaries: every call site in
  every function is resolved to a set of candidate callees. Resolution is
  *conservative* (over-approximate): a call is linked to every definition
  it could plausibly reach, so reachability-based passes may report a
  false positive but never miss a true one;
* **reachability** — BFS closure over resolved edges, with shortest
  call-chain reconstruction for diagnostics.

Call resolution, in decreasing order of precision:

1. direct names (``shard_sites(...)``) via local definitions and
   ``from``-imports;
2. module-attribute calls (``np.zeros``, ``sites.FaultSite``) via import
   aliases — internal modules link to their symbols, external modules
   become dotted *external* names (``"numpy.zeros"``) that passes match
   against denylists;
3. method calls with an inferable receiver type: ``self.meth(...)``,
   ``self.attr.meth(...)`` via ``__init__``/dataclass annotations, local
   variables assigned from constructor calls, and functions whose return
   statements construct a known class;
4. method calls with an unknown receiver fall back to *every* method of
   that name in the project (the conservative over-approximation).

The graph is deliberately syntactic — nothing is imported or executed —
so it is safe to run over broken or hostile trees; files that do not
parse are simply absent from the graph (the engine reports them as
``syntax-error`` findings separately).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.checks.engine import SourceModule, iter_python_files, load_module

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ProjectGraph",
]


@dataclass
class CallSite:
    """One call expression inside a function, with its resolved callees."""

    node: ast.Call
    #: Qualified names of internal candidate callees.
    targets: tuple[str, ...] = ()
    #: Dotted external name (``"time.perf_counter"``) when the call leaves
    #: the analysed tree; None for purely internal or unresolvable calls.
    external: str | None = None


@dataclass
class FunctionInfo:
    """One function or method plus its intraprocedural call summary."""

    qualname: str
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    calls: list[CallSite] = field(default_factory=list)
    #: Classes (qualnames) this function provably returns instances of
    #: (from ``return ClassName(...)`` statements).
    returns_classes: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    """One class: its methods and the inferred types of its attributes."""

    qualname: str
    module: SourceModule
    node: ast.ClassDef
    #: method name -> function qualname
    methods: dict[str, str] = field(default_factory=dict)
    #: attribute name -> tuple of candidate class qualnames
    attr_types: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


def _annotation_names(expr: ast.expr | None) -> Iterator[str]:
    """Candidate class names mentioned by a type annotation.

    Handles ``Name``, ``Attribute`` (last segment), PEP 604 unions,
    ``Optional[...]``/``Union[...]`` subscripts, and string annotations.
    Container subscripts (``list[X]``) are skipped: a method call on the
    container is not a call on ``X``.
    """
    if expr is None:
        return
    if isinstance(expr, ast.Name):
        yield expr.id
    elif isinstance(expr, ast.Attribute):
        yield expr.attr
    elif isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        yield from _annotation_names(expr.left)
        yield from _annotation_names(expr.right)
    elif isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        try:
            yield from _annotation_names(ast.parse(expr.value, mode="eval").body)
        except SyntaxError:
            return
    elif isinstance(expr, ast.Subscript):
        head = expr.value
        head_name = (
            head.id
            if isinstance(head, ast.Name)
            else head.attr
            if isinstance(head, ast.Attribute)
            else None
        )
        if head_name in ("Optional", "Union"):
            inner = expr.slice
            elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            for element in elements:
                yield from _annotation_names(element)


class ProjectGraph:
    """The project-wide symbol and call graph. Build via :meth:`build`."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        #: dotted module name -> SourceModule (unresolvable names keyed by
        #: the file stem, as :func:`repro.checks.engine.module_name` does).
        self.modules: dict[str, SourceModule] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: method name -> qualnames of every method with that name.
        self.methods_by_name: dict[str, list[str]] = {}
        #: module name -> alias -> dotted module target (``import`` stmts).
        self.import_aliases: dict[str, dict[str, str]] = {}
        #: module name -> local name -> (source module, attr) for
        #: ``from X import Y [as Z]``.
        self.from_imports: dict[str, dict[str, tuple[str, str]]] = {}

        for module in modules:
            name = module.name or module.path.stem
            if name in self.modules:
                continue
            self.modules[name] = module
        for name, module in self.modules.items():
            self._collect_symbols(name, module)
        self._infer_attr_types()
        self._infer_return_classes()
        for info in self.functions.values():
            self._resolve_calls(info)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, paths: Sequence[str | Path]) -> "ProjectGraph":
        """Build the graph over every parseable Python file under ``paths``."""
        modules: list[SourceModule] = []
        for path in iter_python_files(paths):
            try:
                modules.append(load_module(path))
            except SyntaxError:
                continue  # reported as a syntax-error finding by the engine
        return cls(modules)

    def _collect_symbols(self, mod_name: str, module: SourceModule) -> None:
        aliases: dict[str, str] = {}
        froms: dict[str, tuple[str, str]] = {}
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                source = self._resolve_from_module(mod_name, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    froms[local] = (source, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{mod_name}.{node.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=module, node=node
                )
            elif isinstance(node, ast.ClassDef):
                qualname = f"{mod_name}.{node.name}"
                info = ClassInfo(qualname=qualname, module=module, node=node)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qual = f"{qualname}.{item.name}"
                        info.methods[item.name] = method_qual
                        self.functions[method_qual] = FunctionInfo(
                            qualname=method_qual,
                            module=module,
                            node=item,
                            class_name=qualname,
                        )
                        self.methods_by_name.setdefault(item.name, []).append(
                            method_qual
                        )
                self.classes[qualname] = info
        self.import_aliases[mod_name] = aliases
        self.from_imports[mod_name] = froms

    @staticmethod
    def _resolve_from_module(mod_name: str, node: ast.ImportFrom) -> str:
        """Dotted source module of a ``from`` import (handles relative)."""
        if not node.level:
            return node.module or ""
        base = mod_name.split(".")
        base = base[: len(base) - node.level]
        if node.module:
            base.append(node.module)
        return ".".join(base)

    # ------------------------------------------------------------------
    # Type inference (attributes, returns, locals)
    # ------------------------------------------------------------------
    def _class_for_name(self, mod_name: str, name: str) -> str | None:
        """Resolve ``name`` (as written in ``mod_name``) to a class qualname."""
        local = f"{mod_name}.{name}"
        if local in self.classes:
            return local
        entry = self.from_imports.get(mod_name, {}).get(name)
        if entry is not None:
            source, attr = entry
            qual = f"{source}.{attr}"
            if qual in self.classes:
                return qual
        return None

    def _infer_attr_types(self) -> None:
        for cls in self.classes.values():
            mod_name = cls.module.name or cls.module.path.stem
            # Dataclass-style annotated fields in the class body.
            for item in cls.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    quals = self._annotation_classes(mod_name, item.annotation)
                    if quals:
                        cls.attr_types[item.target.id] = quals
            # ``self.x = <param>`` assignments in __init__.
            init_qual = cls.methods.get("__init__")
            if init_qual is None:
                continue
            init = self.functions[init_qual].node
            param_types: dict[str, tuple[str, ...]] = {}
            args = init.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                quals = self._annotation_classes(mod_name, arg.annotation)
                if quals:
                    param_types[arg.arg] = quals
            for stmt in ast.walk(init):
                if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                    continue
                target = stmt.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                value = stmt.value
                if isinstance(value, ast.Name) and value.id in param_types:
                    cls.attr_types.setdefault(target.attr, param_types[value.id])
                elif isinstance(value, ast.Call) and isinstance(
                    value.func, ast.Name
                ):
                    qual = self._class_for_name(mod_name, value.func.id)
                    if qual is not None:
                        cls.attr_types.setdefault(target.attr, (qual,))

    def _annotation_classes(
        self, mod_name: str, annotation: ast.expr | None
    ) -> tuple[str, ...]:
        quals = []
        for name in _annotation_names(annotation):
            qual = self._class_for_name(mod_name, name)
            if qual is not None:
                quals.append(qual)
        return tuple(dict.fromkeys(quals))

    def _infer_return_classes(self) -> None:
        for info in self.functions.values():
            mod_name = info.module.name or info.module.path.stem
            quals: list[str] = []
            for node in ast.walk(info.node):
                if not (isinstance(node, ast.Return) and node.value is not None):
                    continue
                value = node.value
                if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                    qual = self._class_for_name(mod_name, value.func.id)
                    if qual is not None:
                        quals.append(qual)
            info.returns_classes = tuple(dict.fromkeys(quals))

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def _dotted_external(self, mod_name: str, expr: ast.expr) -> str | None:
        """Dotted name of an attribute chain rooted at an import alias."""
        parts: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        parts.reverse()
        aliases = self.import_aliases.get(mod_name, {})
        froms = self.from_imports.get(mod_name, {})
        if root in aliases:
            return ".".join([aliases[root], *parts])
        if root in froms:
            source, attr = froms[root]
            target = f"{source}.{attr}" if source else attr
            return ".".join([target, *parts]) if parts else target
        return None

    def _local_types(
        self, info: FunctionInfo
    ) -> dict[str, tuple[str, ...]]:
        """Classes locally bound names are known to instantiate.

        One linear pass over the function body: ``x = ClassName(...)``,
        ``x = self._factory(...)`` (via return-class summaries), and
        annotated arguments. Later assignments win; control flow is not
        joined — an acceptable imprecision for call-graph purposes.
        """
        mod_name = info.module.name or info.module.path.stem
        types: dict[str, tuple[str, ...]] = {}
        args = info.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            quals = self._annotation_classes(mod_name, arg.annotation)
            if quals:
                types[arg.arg] = quals
        for node in ast.walk(info.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if isinstance(value, ast.Call):
                quals = self._callee_instance_classes(info, value)
                if quals:
                    types[target.id] = quals
        return types

    def _callee_instance_classes(
        self, info: FunctionInfo, call: ast.Call
    ) -> tuple[str, ...]:
        """Classes a call expression returns instances of, if inferable."""
        mod_name = info.module.name or info.module.path.stem
        func = call.func
        if isinstance(func, ast.Name):
            qual = self._class_for_name(mod_name, func.id)
            if qual is not None:
                return (qual,)
            fn = self._function_for_name(mod_name, func.id)
            if fn is not None:
                return self.functions[fn].returns_classes
        elif isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and info.class_name is not None
            ):
                cls = self.classes.get(info.class_name)
                if cls is not None and func.attr in cls.methods:
                    return self.functions[cls.methods[func.attr]].returns_classes
        return ()

    def _function_for_name(self, mod_name: str, name: str) -> str | None:
        local = f"{mod_name}.{name}"
        if local in self.functions:
            return local
        entry = self.from_imports.get(mod_name, {}).get(name)
        if entry is not None:
            source, attr = entry
            qual = f"{source}.{attr}"
            if qual in self.functions:
                return qual
        return None

    def _resolve_calls(self, info: FunctionInfo) -> None:
        mod_name = info.module.name or info.module.path.stem
        local_types = self._local_types(info)
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                info.calls.append(
                    self._resolve_call(info, mod_name, local_types, node)
                )

    def _resolve_call(
        self,
        info: FunctionInfo,
        mod_name: str,
        local_types: dict[str, tuple[str, ...]],
        node: ast.Call,
    ) -> CallSite:
        func = node.func
        # Calling the result of a call: ``TiledGemm(engine)(a, b)`` —
        # resolve the inner expression to classes, then to __call__.
        if isinstance(func, ast.Call):
            quals = self._callee_instance_classes(info, func)
            targets = self._methods_of("__call__", quals)
            return CallSite(node=node, targets=targets)
        if isinstance(func, ast.Name):
            fn = self._function_for_name(mod_name, func.id)
            if fn is not None:
                return CallSite(node=node, targets=(fn,))
            cls = self._class_for_name(mod_name, func.id)
            if cls is not None:
                return CallSite(node=node, targets=self._constructor_targets(cls))
            entry = self.from_imports.get(mod_name, {}).get(func.id)
            if entry is not None:
                source, attr = entry
                name = f"{source}.{attr}" if source else attr
                return CallSite(node=node, external=name)
            return CallSite(node=node, external=func.id)
        if isinstance(func, ast.Attribute):
            dotted = self._dotted_external(mod_name, func)
            if dotted is not None:
                # The chain may still land on an internal symbol:
                # ``sites.FaultSite`` resolves through the alias map.
                if dotted in self.functions:
                    return CallSite(node=node, targets=(dotted,))
                if dotted in self.classes:
                    return CallSite(
                        node=node, targets=self._constructor_targets(dotted)
                    )
                head, _, tail = dotted.rpartition(".")
                if head in self.classes and tail in self.classes[head].methods:
                    return CallSite(
                        node=node, targets=(self.classes[head].methods[tail],)
                    )
                return CallSite(node=node, external=dotted)
            receiver_classes = self._receiver_classes(
                info, mod_name, local_types, func.value
            )
            if receiver_classes:
                targets = self._methods_of(func.attr, receiver_classes)
                if targets:
                    return CallSite(node=node, targets=targets)
            # Unknown receiver: conservatively link every method with
            # this name anywhere in the project.
            fallback = tuple(sorted(self.methods_by_name.get(func.attr, ())))
            return CallSite(node=node, targets=fallback)
        return CallSite(node=node)

    def _receiver_classes(
        self,
        info: FunctionInfo,
        mod_name: str,
        local_types: dict[str, tuple[str, ...]],
        receiver: ast.expr,
    ) -> tuple[str, ...]:
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and info.class_name is not None:
                return (info.class_name,)
            return local_types.get(receiver.id, ())
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and info.class_name is not None
        ):
            cls = self.classes.get(info.class_name)
            if cls is not None:
                return cls.attr_types.get(receiver.attr, ())
        if isinstance(receiver, ast.Call):
            return self._callee_instance_classes(info, receiver)
        return ()

    def _constructor_targets(self, class_qual: str) -> tuple[str, ...]:
        cls = self.classes[class_qual]
        targets = [
            cls.methods[name]
            for name in ("__init__", "__post_init__")
            if name in cls.methods
        ]
        return tuple(targets)

    def _methods_of(
        self, method: str, class_quals: Iterable[str]
    ) -> tuple[str, ...]:
        targets = []
        for qual in class_quals:
            cls = self.classes.get(qual)
            if cls is not None and method in cls.methods:
                targets.append(cls.methods[method])
        return tuple(dict.fromkeys(targets))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve_callable_ref(
        self, mod_name: str, expr: ast.expr
    ) -> str | None:
        """Resolve a *reference* to a function (not a call) to its qualname.

        Used for callables passed by value — ``pool.submit(_run_shard, …)``,
        or a pool constructor's ``initializer=`` keyword — where the
        expression names a function rather than invoking it.
        """
        if isinstance(expr, ast.Name):
            return self._function_for_name(mod_name, expr.id)
        if isinstance(expr, ast.Attribute):
            dotted = self._dotted_external(mod_name, expr)
            if dotted is not None and dotted in self.functions:
                return dotted
            head, _, tail = (dotted or "").rpartition(".")
            if head in self.classes and tail in self.classes[head].methods:
                return self.classes[head].methods[tail]
        return None

    def reachable(
        self, entries: Iterable[str]
    ) -> dict[str, tuple[str, ...]]:
        """Transitive closure of callables from ``entries``.

        Returns a mapping ``qualname -> shortest call chain from an entry``
        (the chain includes both endpoints), computed by a deterministic
        BFS so diagnostics are stable across runs.
        """
        chains: dict[str, tuple[str, ...]] = {}
        frontier: list[str] = []
        for entry in sorted(set(entries)):
            if entry in self.functions and entry not in chains:
                chains[entry] = (entry,)
                frontier.append(entry)
        while frontier:
            next_frontier: list[str] = []
            for qual in frontier:
                info = self.functions[qual]
                callees: set[str] = set()
                for site in info.calls:
                    callees.update(site.targets)
                for callee in sorted(callees):
                    if callee in self.functions and callee not in chains:
                        chains[callee] = chains[qual] + (callee,)
                        next_frontier.append(callee)
            frontier = next_frontier
        return chains
