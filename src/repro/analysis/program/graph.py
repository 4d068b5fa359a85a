"""The program graph: summaries → resolver → call graph → fixpoints.

:class:`ProgramGraph` assembles per-module summaries into the
cross-module structures program rules query:

* **name resolution** — a call-site candidate (``repro.search.scan``,
  ``self.helper``, a package re-export) is chased through module
  import bindings to the :class:`FunctionSummary` it denotes, with
  method lookup through declared base classes;
* **exception hierarchy** — ``is_exception_subtype`` unifies builtin
  exceptions (via :mod:`builtins`) with project classes (via their
  summarized bases), so ``except ReproError`` is known to absorb
  ``SearchError`` and ``except Exception`` to spare ``InjectedCrash``;
* **fixpoints** — escaping exception types per function (absorbed by
  enclosing ``try``/``except`` guards at each call site), unfrozen
  raw-array returns, and version-bump reachability through
  free-function helpers.

Every fixpoint iterates functions in sorted qualname order and keeps
first-writer provenance, so results (and the findings built from
them) are deterministic across runs.

All resolution is lexical and best-effort: an unresolvable callee
(a method on an arbitrary object, a dynamic dispatch) contributes
nothing, which keeps the rules' false-positive rate at zero at the
cost of known blind spots — the same trade the per-file rules make.
"""

from __future__ import annotations

import builtins
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.program.summary import (
    CallSite,
    ClassSummary,
    FunctionSummary,
    Guard,
    ModuleSummary,
)

__all__ = ["Provenance", "ProgramGraph"]

#: How an exception type entered a function's escape set: a direct
#: ``("raise", line)`` or a propagating ``("call", line, callee)``.
Provenance = Tuple[str, int, str]


def _builtin_exception(name: str) -> Optional[type]:
    if "." in name:
        return None
    obj = getattr(builtins, name, None)
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return obj
    return None


class ProgramGraph:
    """Whole-project view over the per-module summaries."""

    def __init__(self, modules: Mapping[str, ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = dict(modules)
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, ClassSummary] = {}
        for module in self.modules.values():
            for func in module.functions:
                self.functions[func.qualname] = func
            for klass in module.classes:
                self.classes[klass.qualname] = klass
        self._subtype_cache: Dict[Tuple[str, str], bool] = {}
        self._edges: Optional[
            Dict[str, Tuple[Tuple[CallSite, Optional[str]], ...]]
        ] = None
        self._callers: Optional[Dict[str, Set[str]]] = None
        self._escapes: Optional[Dict[str, Dict[str, Provenance]]] = None
        self._raw_returns: Optional[Dict[str, int]] = None
        self._param_bumps: Optional[Dict[str, Set[str]]] = None

    # -- sizing (for --stats) ------------------------------------------
    @property
    def call_edge_count(self) -> int:
        return sum(
            1
            for targets in self.edges().values()
            for _, target in targets
            if target is not None
        )

    def path_of(self, qualname: str) -> str:
        """Source path of the module owning a function qualname."""
        func = self.functions.get(qualname)
        if func is not None and func.module in self.modules:
            return self.modules[func.module].path
        return qualname

    # -- name resolution -----------------------------------------------
    def _longest_module_prefix(self, name: str) -> Optional[str]:
        parts = name.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix
        return None

    def canonicalize(self, name: str) -> str:
        """Chase package re-export bindings to a defining-module name."""
        current = name
        for _ in range(16):
            if current in self.functions or current in self.classes:
                return current
            prefix = self._longest_module_prefix(current)
            if prefix is None:
                return current
            remainder = current[len(prefix) + 1 :]
            if not remainder:
                return current
            head, _, tail = remainder.partition(".")
            binding = self.modules[prefix].bindings.get(head)
            if binding is None or binding == current:
                return current
            current = binding + (f".{tail}" if tail else "")
        return current

    def resolve_symbol(self, name: str, module: str) -> Optional[str]:
        """Canonical qualname of a project function or class, if any."""
        if "." not in name:
            local = f"{module}.{name}"
            if local in self.functions or local in self.classes:
                return local
            return None
        current = self.canonicalize(name)
        if current in self.functions or current in self.classes:
            return current
        prefix, _, attr = current.rpartition(".")
        if prefix in self.classes:
            method = self.resolve_method(prefix, attr)
            if method is not None:
                return method.qualname
        return None

    def _resolve_base(self, candidate: str, module: str) -> Optional[str]:
        if "." not in candidate:
            local = f"{module}.{candidate}"
            return local if local in self.classes else None
        canonical = self.canonicalize(candidate)
        return canonical if canonical in self.classes else None

    def resolve_method(
        self, class_qualname: str, method: str
    ) -> Optional[FunctionSummary]:
        """Look a method up in a class and its declared base chain."""
        seen: Set[str] = set()
        queue: List[str] = [class_qualname]
        while queue:
            qualname = queue.pop(0)
            if qualname in seen:
                continue
            seen.add(qualname)
            klass = self.classes.get(qualname)
            if klass is None:
                continue
            if method in klass.methods:
                return self.functions.get(klass.methods[method])
            for base in klass.bases:
                resolved = self._resolve_base(base, klass.module)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def resolve_callee(
        self, callee: str, caller: FunctionSummary
    ) -> Optional[FunctionSummary]:
        """The function a call-site candidate denotes, if resolvable."""
        if callee.startswith("self."):
            rest = callee[len("self.") :]
            if "." in rest or caller.cls is None:
                return None
            return self.resolve_method(
                f"{caller.module}.{caller.cls}", rest
            )
        if callee.startswith("super."):
            rest = callee[len("super.") :]
            if "." in rest or caller.cls is None:
                return None
            klass = self.classes.get(f"{caller.module}.{caller.cls}")
            if klass is None:
                return None
            for base in klass.bases:
                resolved = self._resolve_base(base, klass.module)
                if resolved is not None:
                    found = self.resolve_method(resolved, rest)
                    if found is not None:
                        return found
            return None
        symbol = self.resolve_symbol(callee, caller.module)
        if symbol is None:
            return None
        if symbol in self.functions:
            return self.functions[symbol]
        if symbol in self.classes:
            return self.resolve_method(symbol, "__init__")
        return None

    # -- call graph ------------------------------------------------------
    def edges(
        self,
    ) -> Dict[str, Tuple[Tuple[CallSite, Optional[str]], ...]]:
        """caller qualname → ((call site, resolved target qualname), ...)."""
        if self._edges is None:
            edges: Dict[str, Tuple[Tuple[CallSite, Optional[str]], ...]] = {}
            for qualname in sorted(self.functions):
                func = self.functions[qualname]
                resolved: List[Tuple[CallSite, Optional[str]]] = []
                for site in func.calls:
                    target = self.resolve_callee(site.callee, func)
                    resolved.append(
                        (site, None if target is None else target.qualname)
                    )
                edges[qualname] = tuple(resolved)
            self._edges = edges
        return self._edges

    def callers_of(self, qualname: str) -> Set[str]:
        if self._callers is None:
            callers: Dict[str, Set[str]] = {}
            for caller, targets in self.edges().items():
                for _, target in targets:
                    if target is not None:
                        callers.setdefault(target, set()).add(caller)
            self._callers = callers
        return self._callers.get(qualname, set())

    # -- exception hierarchy --------------------------------------------
    def is_exception_subtype(self, name: str, base: str) -> bool:
        """Is exception type ``name`` a subtype of ``base``?

        Both are canonical(ized) dotted names; builtins and project
        classes mix freely (``StoreError`` → ``ValueError``).
        """
        key = (name, base)
        cached = self._subtype_cache.get(key)
        if cached is not None:
            return cached
        result = self._subtype_uncached(
            self.canonicalize(name), self.canonicalize(base), set()
        )
        self._subtype_cache[key] = result
        return result

    def _subtype_uncached(
        self, name: str, base: str, seen: Set[str]
    ) -> bool:
        if name == base or name in seen:
            return name == base
        seen.add(name)
        name_builtin = _builtin_exception(name)
        base_builtin = _builtin_exception(base)
        if name_builtin is not None:
            return base_builtin is not None and issubclass(
                name_builtin, base_builtin
            )
        klass = self.classes.get(name)
        if klass is None:
            return False
        for candidate in klass.bases:
            resolved = self._resolve_base(candidate, klass.module)
            if resolved is None:
                resolved = self.canonicalize(candidate)
            if self._subtype_uncached(resolved, base, seen):
                return True
        return False

    def is_known_exception(self, name: str) -> bool:
        canonical = self.canonicalize(name)
        return (
            _builtin_exception(canonical) is not None
            or canonical in self.classes
        )

    def _absorbed(self, exc_type: str, guards: Tuple[Guard, ...]) -> bool:
        """Would an enclosing handler stop ``exc_type`` here?"""
        for level in guards:
            for handler in level:
                if handler.reraises:
                    continue
                for caught in handler.types:
                    if caught == "*" or self.is_exception_subtype(
                        exc_type, caught
                    ):
                        return True
        return False

    # -- fixpoint: escaping exception types ------------------------------
    def escaping_exceptions(self) -> Dict[str, Dict[str, Provenance]]:
        """qualname → {canonical exception type → first provenance}.

        A type escapes a function when a ``raise`` (or a callee's
        escape) is not absorbed by a non-transparent enclosing handler.
        """
        if self._escapes is not None:
            return self._escapes
        escapes: Dict[str, Dict[str, Provenance]] = {
            qualname: {} for qualname in self.functions
        }
        for qualname in sorted(self.functions):
            func = self.functions[qualname]
            for site in func.raises:
                for raw in site.types:
                    exc_type = self.canonicalize(raw)
                    if not self.is_known_exception(exc_type):
                        continue
                    if self._absorbed(exc_type, site.guards):
                        continue
                    escapes[qualname].setdefault(
                        exc_type, ("raise", site.line, "")
                    )
        edges = self.edges()
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.functions):
                mine = escapes[qualname]
                for site, target in edges[qualname]:
                    if target is None:
                        continue
                    for exc_type in sorted(escapes[target]):
                        if exc_type in mine:
                            continue
                        if self._absorbed(exc_type, site.guards):
                            continue
                        mine[exc_type] = ("call", site.line, target)
                        changed = True
        self._escapes = escapes
        return escapes

    def escape_chain(
        self, qualname: str, exc_type: str, limit: int = 12
    ) -> List[Tuple[str, int]]:
        """(qualname, line) hops from a function to the origin raise."""
        chain: List[Tuple[str, int]] = []
        escapes = self.escaping_exceptions()
        current = qualname
        for _ in range(limit):
            provenance = escapes.get(current, {}).get(exc_type)
            if provenance is None:
                break
            kind, line, callee = provenance
            chain.append((current, line))
            if kind == "raise":
                break
            current = callee
        return chain

    # -- fixpoint: unfrozen raw-array returns ----------------------------
    def raw_unfrozen_returns(self) -> Dict[str, int]:
        """Functions returning a raw-loader array without freezing it."""
        if self._raw_returns is not None:
            return self._raw_returns
        raw: Dict[str, int] = {}
        for qualname in sorted(self.functions):
            func = self.functions[qualname]
            for site in func.returns:
                if site.origin == "raw" and not site.frozen:
                    raw[qualname] = site.line
                    break
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.functions):
                if qualname in raw:
                    continue
                func = self.functions[qualname]
                for site in func.returns:
                    if site.frozen or not site.origin.startswith("call:"):
                        continue
                    target = self.resolve_callee(
                        site.origin[len("call:") :], func
                    )
                    if target is not None and target.qualname in raw:
                        raw[qualname] = site.line
                        changed = True
                        break
        self._raw_returns = raw
        return raw

    # -- fixpoint: version bumps through free helpers --------------------
    def param_bumps(self) -> Dict[str, Set[str]]:
        """qualname → parameter names that (transitively) get bumped."""
        if self._param_bumps is not None:
            return self._param_bumps
        bumps: Dict[str, Set[str]] = {
            qualname: set(func.bumps_params) | set(func.hook_params)
            for qualname, func in self.functions.items()
        }
        edges = self.edges()
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.functions):
                func = self.functions[qualname]
                mine = bumps[qualname]
                for param, callee, position in func.forwards:
                    if param in mine:
                        continue
                    target = self.resolve_callee(callee, func)
                    if (
                        target is not None
                        and position < len(target.params)
                        and target.params[position]
                        in bumps[target.qualname]
                    ):
                        mine.add(param)
                        changed = True
                # self/super delegation: a method call whose target
                # bumps its own receiver bumps ours too.  An
                # unresolvable super() target (external base class) is
                # given the benefit of the doubt, matching the
                # per-file rule's leniency.
                receiver = func.params[0] if func.params else ""
                if not receiver or receiver in mine:
                    continue
                for site, target in edges[qualname]:
                    if not site.callee.startswith(("self.", "super.")):
                        continue
                    if target is None:
                        if site.callee.startswith("super."):
                            mine.add(receiver)
                            changed = True
                            break
                        continue
                    callee_func = self.functions[target]
                    if (
                        callee_func.params
                        and callee_func.params[0] in bumps[target]
                    ):
                        mine.add(receiver)
                        changed = True
                        break
        self._param_bumps = bumps
        return bumps
