"""Per-module summaries: the unit the program analysis caches.

A summary captures exactly what the cross-module fixpoints need and
nothing else, so it round-trips through JSON (for the incremental
cache) and stays cheap to rebuild when a file changes:

* every function/method: its call sites (callee name candidates after
  import-alias resolution, bare-``Name`` argument shapes, enclosing
  ``try``/``except`` guards), raise sites (resolved exception-type
  candidates — a bare ``raise`` resolves to the enclosing handler's
  types), return-value origins (raw array loader, or the result of a
  named call), locals frozen read-only, and which parameters get a
  version-attribute bump or an invalidation-hook call;
* every class: resolved base-name candidates, its methods, and the
  version attributes assigned anywhere in its body;
* the module's import bindings, for cross-module name resolution.

Names are resolved lexically through the module's
:class:`~repro.analysis.imports.ImportMap` (including relative
imports); final resolution to project functions happens in
:class:`~repro.analysis.program.graph.ProgramGraph`.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.imports import ImportMap

# Version-attribute and hook-name patterns shared with the per-file
# cache-invalidation rule, so both layers agree on what "bumping" means.
from repro.analysis.rules.cache_invalidation import HOOK_NAME, VERSION_ATTR

__all__ = [
    "CallSite",
    "ClassSummary",
    "FunctionSummary",
    "Handler",
    "ModuleSummary",
    "RaiseSite",
    "ReturnSite",
    "summarize_module",
]

#: Raw array loaders whose results are writeable until frozen.
RAW_LOADERS = frozenset({"numpy.load", "numpy.memmap", "numpy.fromfile"})

_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclasses.dataclass(frozen=True)
class Handler:
    """One ``except`` clause guarding a call/raise site.

    ``types`` holds resolved type-name candidates; ``("*",)`` is a
    catch-all (bare ``except`` or ``except BaseException``).  A handler
    whose body re-raises (bare ``raise``) is *transparent*: it does not
    absorb the exception for escape purposes.
    """

    types: Tuple[str, ...]
    reraises: bool = False

    def to_jsonable(self) -> List[object]:
        return [list(self.types), self.reraises]

    @classmethod
    def from_jsonable(cls, payload: Sequence[object]) -> "Handler":
        types, reraises = payload
        return cls(
            types=tuple(str(name) for name in list(types)),  # type: ignore[call-overload]
            reraises=bool(reraises),
        )


#: One enclosing ``try``: the tuple of its handlers.
Guard = Tuple[Handler, ...]


def _guards_to_jsonable(guards: Tuple[Guard, ...]) -> List[object]:
    return [[handler.to_jsonable() for handler in level] for level in guards]


def _guards_from_jsonable(payload: Sequence[object]) -> Tuple[Guard, ...]:
    levels: List[Guard] = []
    for level in payload:
        levels.append(
            tuple(
                Handler.from_jsonable(entry)  # type: ignore[arg-type]
                for entry in list(level)  # type: ignore[call-overload]
            )
        )
    return tuple(levels)


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    callee: str  #: import-resolved candidate (``self.m`` / ``pkg.mod.f``)
    line: int
    args: Tuple[Optional[str], ...]  #: bare-``Name`` positional args
    guards: Tuple[Guard, ...]  #: enclosing try handlers, innermost last

    def to_jsonable(self) -> List[object]:
        return [
            self.callee,
            self.line,
            list(self.args),
            _guards_to_jsonable(self.guards),
        ]

    @classmethod
    def from_jsonable(cls, payload: Sequence[object]) -> "CallSite":
        callee, line, args, guards = payload
        return cls(
            callee=str(callee),
            line=int(line),  # type: ignore[arg-type]
            args=tuple(
                None if arg is None else str(arg)
                for arg in list(args)  # type: ignore[call-overload]
            ),
            guards=_guards_from_jsonable(guards),  # type: ignore[arg-type]
        )


@dataclasses.dataclass(frozen=True)
class RaiseSite:
    """One ``raise`` statement; ``types`` empty when unresolvable."""

    types: Tuple[str, ...]
    line: int
    guards: Tuple[Guard, ...]

    def to_jsonable(self) -> List[object]:
        return [list(self.types), self.line, _guards_to_jsonable(self.guards)]

    @classmethod
    def from_jsonable(cls, payload: Sequence[object]) -> "RaiseSite":
        types, line, guards = payload
        return cls(
            types=tuple(str(name) for name in list(types)),  # type: ignore[call-overload]
            line=int(line),  # type: ignore[arg-type]
            guards=_guards_from_jsonable(guards),  # type: ignore[arg-type]
        )


@dataclasses.dataclass(frozen=True)
class ReturnSite:
    """One ``return`` whose value has a trackable origin.

    ``origin`` is ``"raw"`` for a raw-loader result or ``"call:<name>"``
    for the result of a named call; ``frozen`` records whether the
    function marks that value read-only anywhere in its body.
    """

    origin: str
    frozen: bool
    line: int

    def to_jsonable(self) -> List[object]:
        return [self.origin, self.frozen, self.line]

    @classmethod
    def from_jsonable(cls, payload: Sequence[object]) -> "ReturnSite":
        origin, frozen, line = payload
        return cls(
            origin=str(origin),
            frozen=bool(frozen),
            line=int(line),  # type: ignore[arg-type]
        )


@dataclasses.dataclass(frozen=True)
class FunctionSummary:
    """Everything the program fixpoints know about one function."""

    qualname: str  #: ``<module>.<name>`` or ``<module>.<Class>.<name>``
    module: str
    name: str
    cls: Optional[str]  #: bare enclosing class name for methods
    line: int
    decorators: Tuple[str, ...]
    params: Tuple[str, ...]
    calls: Tuple[CallSite, ...]
    raises: Tuple[RaiseSite, ...]
    returns: Tuple[ReturnSite, ...]
    bumps_params: Tuple[str, ...]  #: params whose version attr is assigned
    hook_params: Tuple[str, ...]  #: params with an invalidation-hook call
    forwards: Tuple[Tuple[str, str, int], ...]  #: (param, callee, position)

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "module": self.module,
            "name": self.name,
            "cls": self.cls,
            "line": self.line,
            "decorators": list(self.decorators),
            "params": list(self.params),
            "calls": [site.to_jsonable() for site in self.calls],
            "raises": [site.to_jsonable() for site in self.raises],
            "returns": [site.to_jsonable() for site in self.returns],
            "bumps_params": list(self.bumps_params),
            "hook_params": list(self.hook_params),
            "forwards": [list(entry) for entry in self.forwards],
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=str(payload["qualname"]),
            module=str(payload["module"]),
            name=str(payload["name"]),
            cls=(
                None if payload["cls"] is None else str(payload["cls"])
            ),
            line=int(payload["line"]),
            decorators=tuple(str(d) for d in payload["decorators"]),
            params=tuple(str(p) for p in payload["params"]),
            calls=tuple(
                CallSite.from_jsonable(entry) for entry in payload["calls"]
            ),
            raises=tuple(
                RaiseSite.from_jsonable(entry) for entry in payload["raises"]
            ),
            returns=tuple(
                ReturnSite.from_jsonable(entry)
                for entry in payload["returns"]
            ),
            bumps_params=tuple(str(p) for p in payload["bumps_params"]),
            hook_params=tuple(str(p) for p in payload["hook_params"]),
            forwards=tuple(
                (str(param), str(callee), int(position))
                for param, callee, position in payload["forwards"]
            ),
        )


@dataclasses.dataclass(frozen=True)
class ClassSummary:
    """Hierarchy and versioning facts about one class body."""

    qualname: str
    module: str
    name: str
    line: int
    bases: Tuple[str, ...]  #: import-resolved base-name candidates
    methods: Dict[str, str]  #: method name → function qualname
    version_attrs: Tuple[str, ...]

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "module": self.module,
            "name": self.name,
            "line": self.line,
            "bases": list(self.bases),
            "methods": dict(self.methods),
            "version_attrs": list(self.version_attrs),
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "ClassSummary":
        return cls(
            qualname=str(payload["qualname"]),
            module=str(payload["module"]),
            name=str(payload["name"]),
            line=int(payload["line"]),
            bases=tuple(str(base) for base in payload["bases"]),
            methods={
                str(key): str(value)
                for key, value in payload["methods"].items()
            },
            version_attrs=tuple(
                str(attr) for attr in payload["version_attrs"]
            ),
        )


@dataclasses.dataclass(frozen=True)
class ModuleSummary:
    """One module's contribution to the program graph."""

    module: str
    path: str
    is_package: bool
    bindings: Dict[str, str]
    functions: Tuple[FunctionSummary, ...]
    classes: Tuple[ClassSummary, ...]

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "module": self.module,
            "path": self.path,
            "is_package": self.is_package,
            "bindings": dict(self.bindings),
            "functions": [func.to_jsonable() for func in self.functions],
            "classes": [klass.to_jsonable() for klass in self.classes],
        }

    @classmethod
    def from_jsonable(cls, payload: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            module=str(payload["module"]),
            path=str(payload["path"]),
            is_package=bool(payload["is_package"]),
            bindings={
                str(key): str(value)
                for key, value in payload["bindings"].items()
            },
            functions=tuple(
                FunctionSummary.from_jsonable(entry)
                for entry in payload["functions"]
            ),
            classes=tuple(
                ClassSummary.from_jsonable(entry)
                for entry in payload["classes"]
            ),
        )


# --------------------------------------------------------------------------
# extraction
# --------------------------------------------------------------------------

_CATCH_ALL = frozenset({"BaseException", ""})

_NESTED_SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ClassDef,
)


def _pruned_walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested scopes."""
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if not isinstance(child, _NESTED_SCOPES):
                stack.append(child)


def _decorator_names(node: _Def, imports: ImportMap) -> Tuple[str, ...]:
    names: List[str] = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        resolved = imports.resolve(target)
        if resolved is None and isinstance(target, ast.Attribute):
            resolved = target.attr
        if resolved is not None:
            names.append(resolved)
    return tuple(names)


def _param_names(node: _Def) -> Tuple[str, ...]:
    args = node.args
    ordered = list(args.posonlyargs) + list(args.args)
    return tuple(arg.arg for arg in ordered)


def _handler_types(
    handler: ast.ExceptHandler, imports: ImportMap
) -> Tuple[str, ...]:
    if handler.type is None:
        return ("*",)
    nodes: List[ast.expr]
    if isinstance(handler.type, ast.Tuple):
        nodes = list(handler.type.elts)
    else:
        nodes = [handler.type]
    names: List[str] = []
    for node in nodes:
        resolved = imports.resolve(node)
        if resolved is None:
            return ("*",)  # dynamic handler type: assume it catches all
        if resolved in _CATCH_ALL:
            return ("*",)
        names.append(resolved)
    return tuple(names)


def _has_bare_reraise(handler: ast.ExceptHandler) -> bool:
    for node in _pruned_walk(handler):
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
    return False


class _FunctionWalker:
    """Single pass over one function body collecting all site facts."""

    def __init__(self, func: _Def, imports: ImportMap) -> None:
        self.imports = imports
        self.params = _param_names(func)
        self.calls: List[CallSite] = []
        self.raises: List[RaiseSite] = []
        self.returns: List[ReturnSite] = []
        self.bumps: List[str] = []
        self.hooks: List[str] = []
        self.forwards: List[Tuple[str, str, int]] = []
        self.frozen: List[str] = []
        #: local name → origin ("raw" or "call:<name>")
        self.origins: Dict[str, str] = {}
        self._walk_body(func.body, guards=(), handler_types=())

    # -- helpers -------------------------------------------------------
    def _callee_of(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            return f"super.{func.attr}"
        return self.imports.resolve(func)

    def _origin_of_call(self, call: ast.Call) -> Optional[str]:
        callee = self._callee_of(call)
        if callee is None:
            return None
        if callee in RAW_LOADERS:
            return "raw"
        return f"call:{callee}"

    def _record_call(
        self, call: ast.Call, guards: Tuple[Guard, ...]
    ) -> None:
        callee = self._callee_of(call)
        if callee is None:
            return
        args = tuple(
            arg.id if isinstance(arg, ast.Name) else None
            for arg in call.args
        )
        self.calls.append(
            CallSite(callee=callee, line=call.lineno, args=args, guards=guards)
        )
        for position, arg in enumerate(args):
            if arg is not None and arg in self.params:
                self.forwards.append((arg, callee, position))
        # parameter hook calls: `obj.invalidate_caches()` on a param
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.params
            and HOOK_NAME.search(func.attr) is not None
        ):
            self.hooks.append(func.value.id)

    def _record_raise(
        self,
        node: ast.Raise,
        guards: Tuple[Guard, ...],
        handler_types: Tuple[Tuple[str, Tuple[str, ...]], ...],
    ) -> None:
        types: Tuple[str, ...] = ()
        exc = node.exc
        if exc is None:
            # bare re-raise: the innermost handler's caught types
            if handler_types:
                types = handler_types[-1][1]
        else:
            target = exc.func if isinstance(exc, ast.Call) else exc
            resolved = self.imports.resolve(target)
            if resolved is not None:
                if isinstance(target, ast.Name):
                    # `raise exc` of a handler-bound variable
                    for bound_name, bound_types in reversed(handler_types):
                        if bound_name == target.id:
                            types = bound_types
                            break
                    else:
                        types = (resolved,)
                else:
                    types = (resolved,)
        if types and "*" in types:
            types = ()
        self.raises.append(
            RaiseSite(types=types, line=node.lineno, guards=guards)
        )

    def _record_assign_facts(self, node: ast.stmt) -> None:
        """Track version bumps on params and raw/call value origins."""
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            plain = target
            if isinstance(plain, ast.Subscript):
                plain = plain.value
            if (
                isinstance(plain, ast.Attribute)
                and isinstance(plain.value, ast.Name)
                and plain.value.id in self.params
                and VERSION_ATTR.match(plain.attr) is not None
            ):
                self.bumps.append(plain.value.id)
        if value is not None and isinstance(value, ast.Call):
            origin = self._origin_of_call(value)
            if origin is not None:
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.origins[target.id] = origin

    def _record_freeze(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "writeable"
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "flags"
                    and isinstance(target.value.value, ast.Name)
                    and isinstance(node.value, ast.Constant)
                    and node.value.value is False
                ):
                    self.frozen.append(target.value.value.id)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setflags"
            and isinstance(node.func.value, ast.Name)
        ):
            for keyword in node.keywords:
                if (
                    keyword.arg == "write"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is False
                ):
                    self.frozen.append(node.func.value.id)

    def _record_return(self, node: ast.Return) -> None:
        value = node.value
        if value is None:
            return
        origin: Optional[str] = None
        frozen = False
        if isinstance(value, ast.Call):
            origin = self._origin_of_call(value)
        elif isinstance(value, ast.Name):
            origin = self.origins.get(value.id)
            frozen = value.id in self.frozen
        if origin is not None:
            self.returns.append(
                ReturnSite(origin=origin, frozen=frozen, line=node.lineno)
            )

    # -- traversal -----------------------------------------------------
    def _scan_expressions(
        self, node: ast.stmt, guards: Tuple[Guard, ...]
    ) -> None:
        """Record calls/freezes in a statement, skipping nested scopes."""
        for child in _pruned_walk(node):
            if isinstance(child, ast.Call):
                self._record_call(child, guards)
            self._record_freeze(child)

    def _walk_body(
        self,
        body: Sequence[ast.stmt],
        guards: Tuple[Guard, ...],
        handler_types: Tuple[Tuple[str, Tuple[str, ...]], ...],
    ) -> None:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scopes summarize (or not) on their own
            self._record_assign_facts(stmt)
            if isinstance(stmt, ast.Return):
                self._record_return(stmt)
            if isinstance(stmt, ast.Raise):
                self._record_raise(stmt, guards, handler_types)
                self._scan_expressions(stmt, guards)
                continue
            if isinstance(stmt, ast.Try):
                level: Guard = tuple(
                    Handler(
                        types=_handler_types(handler, self.imports),
                        reraises=_has_bare_reraise(handler),
                    )
                    for handler in stmt.handlers
                )
                self._walk_body(stmt.body, guards + (level,), handler_types)
                for handler in stmt.handlers:
                    caught = _handler_types(handler, self.imports)
                    bound = handler.name or ""
                    self._walk_body(
                        handler.body, guards, handler_types + ((bound, caught),)
                    )
                self._walk_body(stmt.orelse, guards, handler_types)
                self._walk_body(stmt.finalbody, guards, handler_types)
                # the try/except headers carry no executable calls
                continue
            # compound statements: scan headers, recurse into bodies
            nested: List[Sequence[ast.stmt]] = []
            if isinstance(stmt, (ast.If, ast.While)):
                nested = [stmt.body, stmt.orelse]
                self._scan_node_expr(stmt.test, guards)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                nested = [stmt.body, stmt.orelse]
                self._scan_node_expr(stmt.iter, guards)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                nested = [stmt.body]
                for item in stmt.items:
                    self._scan_node_expr(item.context_expr, guards)
            elif isinstance(stmt, ast.Match):
                nested = [case.body for case in stmt.cases]
                self._scan_node_expr(stmt.subject, guards)
            else:
                self._scan_expressions(stmt, guards)
                continue
            for block in nested:
                self._walk_body(block, guards, handler_types)

    def _scan_node_expr(
        self, node: ast.expr, guards: Tuple[Guard, ...]
    ) -> None:
        for child in _pruned_walk(node):
            if isinstance(child, ast.Call):
                self._record_call(child, guards)
            self._record_freeze(child)


def _summarize_function(
    func: _Def,
    module_name: str,
    cls: Optional[str],
    imports: ImportMap,
) -> FunctionSummary:
    walker = _FunctionWalker(func, imports)
    qualname = (
        f"{module_name}.{cls}.{func.name}"
        if cls is not None
        else f"{module_name}.{func.name}"
    )
    return FunctionSummary(
        qualname=qualname,
        module=module_name,
        name=func.name,
        cls=cls,
        line=func.lineno,
        decorators=_decorator_names(func, imports),
        params=walker.params,
        calls=tuple(walker.calls),
        raises=tuple(walker.raises),
        returns=tuple(walker.returns),
        bumps_params=tuple(dict.fromkeys(walker.bumps)),
        hook_params=tuple(dict.fromkeys(walker.hooks)),
        forwards=tuple(dict.fromkeys(walker.forwards)),
    )


def _class_version_attrs(node: ast.ClassDef) -> Tuple[str, ...]:
    attrs: List[str] = []
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.walk(method):
            targets: List[ast.expr] = []
            if isinstance(child, ast.Assign):
                targets = list(child.targets)
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and VERSION_ATTR.match(target.attr) is not None
                ):
                    attrs.append(target.attr)
    return tuple(dict.fromkeys(attrs))


def _iter_defs(
    body: Sequence[ast.stmt],
) -> Iterator[Union[_Def, ast.ClassDef]]:
    for node in body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield node


def summarize_module(
    path: str, module_name: str, tree: ast.Module
) -> ModuleSummary:
    """Distil one parsed module into its program-graph summary."""
    is_package = path.replace("\\", "/").endswith("__init__.py")
    imports = ImportMap(tree, module_name, is_package)
    functions: List[FunctionSummary] = []
    classes: List[ClassSummary] = []
    for node in _iter_defs(tree.body):
        if isinstance(node, ast.ClassDef):
            methods: Dict[str, str] = {}
            for member in _iter_defs(node.body):
                if isinstance(member, ast.ClassDef):
                    continue  # nested classes stay out of the graph
                summary = _summarize_function(
                    member, module_name, node.name, imports
                )
                functions.append(summary)
                methods[member.name] = summary.qualname
            bases = tuple(
                resolved
                for resolved in (
                    imports.resolve(base) for base in node.bases
                )
                if resolved is not None
            )
            classes.append(
                ClassSummary(
                    qualname=f"{module_name}.{node.name}",
                    module=module_name,
                    name=node.name,
                    line=node.lineno,
                    bases=bases,
                    methods=methods,
                    version_attrs=_class_version_attrs(node),
                )
            )
        else:
            functions.append(
                _summarize_function(node, module_name, None, imports)
            )
    return ModuleSummary(
        module=module_name,
        path=path,
        is_package=is_package,
        bindings=dict(imports.bindings),
        functions=tuple(functions),
        classes=tuple(classes),
    )
