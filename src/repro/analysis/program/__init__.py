"""Whole-program analysis: module graph → call graph → summaries.

The per-file rules in :mod:`repro.analysis.rules` see one module's AST
at a time, so they can only check a contract where it happens to live
in one file.  This package parses the whole project once and gives
rules the cross-module picture:

* :mod:`~repro.analysis.program.summary` distils each module into a
  compact, JSON-serializable :class:`ModuleSummary` — import bindings,
  class hierarchy facts, and per-function facts (raised exception
  types with their ``try``/``except`` guards, call sites with argument
  shapes, return-value origins, version-attribute bumps);
* :mod:`~repro.analysis.program.graph` assembles the summaries into a
  :class:`ProgramGraph`: a cross-module name resolver (growing
  :class:`~repro.analysis.imports.ImportMap` through package
  re-exports), a call graph, and the fixpoint analyses program rules
  query — escaping exception types, unfrozen raw-array returns,
  version-bump reachability;
* :mod:`~repro.analysis.program.base` defines :class:`ProgramRule`,
  the base class for rules that check the graph instead of one AST;
* :mod:`~repro.analysis.program.rules` ships the interprocedural
  rules: ``error-contract``, ``mmap-escape`` and
  ``invalidation-reachability``.

Summaries are what the incremental cache persists
(:mod:`repro.analysis.cache`): a warm ``repro check`` re-reads and
re-hashes sources but only re-parses changed files, then re-runs the
(cheap) graph fixpoints over mostly-cached summaries.
"""

from __future__ import annotations

from repro.analysis.program.base import ProgramRule
from repro.analysis.program.graph import ProgramGraph
from repro.analysis.program.summary import (
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
    summarize_module,
)

__all__ = [
    "ClassSummary",
    "FunctionSummary",
    "ModuleSummary",
    "ProgramGraph",
    "ProgramRule",
    "summarize_module",
]
