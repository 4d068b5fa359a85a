"""Static invariant analysis for the repro codebase (``repro check``).

Every speedup this reproduction ships rests on one promise: the
columnar kernels, the top-k strategies and the mmap-served store are
**byte-identical** to the reference implementation.  The differential
test harnesses enforce that promise dynamically — but they can only
see a nondeterminism or aliasing bug on a schedule that happens to
trigger it.  This package enforces the project's cross-layer contracts
*statically*, on every commit, by walking the AST of each module:

* :mod:`~repro.analysis.rules.determinism` — no wall-clock reads,
  unseeded RNG draws, or set-iteration-order dependence inside the
  ranking/mining kernel modules;
* :mod:`~repro.analysis.rules.mmap_safety` — segment arrays are loaded
  only through the read boundary, frozen ``writeable=False`` there,
  and never mutated in place downstream;
* :mod:`~repro.analysis.rules.dtype_discipline` — store codecs pin
  explicit little-endian dtypes, never platform-native ones;
* :mod:`~repro.analysis.rules.exception_hygiene` — no bare/broad
  ``except`` without a suppression stating why;
* :mod:`~repro.analysis.rules.picklability` — only module-level
  callables cross a process-pool boundary;
* :mod:`~repro.analysis.rules.cache_invalidation` — versioned classes
  bump their version (or call an invalidation hook) in every mutator.

Per-file rules judge one module at a time.  The
:mod:`~repro.analysis.program` subpackage adds a whole-program layer:
each module is distilled into a JSON-serializable summary, the
summaries are linked into a project-wide call graph
(:class:`~repro.analysis.program.graph.ProgramGraph`), and fixpoint
propagations over that graph power three interprocedural rules —
``error-contract`` (only ``ReproError`` subtypes escape public entry
points, however deep the raise), ``mmap-escape`` (raw loader arrays
frozen on every path out of ``store/``) and
``invalidation-reachability`` (mutators reach a version bump through
helper chains).  Summaries are cached under
``.repro-check-cache/`` keyed by content hash, so a warm ``repro
check`` re-summarizes only edited files while producing findings
identical to a cold run.

Findings are suppressed line-by-line with ``# repro: noqa[rule-name]
-- reason``; the rule set, per-rule scoping and reporters are pluggable
(see :mod:`~repro.analysis.registry` and
:mod:`~repro.analysis.config`).  The ``repro check`` CLI subcommand and
the CI ``lint`` job run the analyzer over ``src/`` and ``benchmarks/``
and fail on any unsuppressed finding.
"""

from __future__ import annotations

from repro.analysis.config import AnalysisConfig, default_config
from repro.analysis.findings import Finding
from repro.analysis.registry import (
    all_program_rules,
    all_rule_names,
    all_rules,
    get_rule,
    register,
    register_program,
)
from repro.analysis.reporting import render_json, render_text
from repro.analysis.runner import (
    AnalysisReport,
    CheckStats,
    check_paths,
    check_source,
    iter_python_files,
)

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "CheckStats",
    "Finding",
    "all_program_rules",
    "all_rule_names",
    "all_rules",
    "check_paths",
    "check_source",
    "default_config",
    "get_rule",
    "iter_python_files",
    "register",
    "register_program",
    "render_json",
    "render_text",
]
