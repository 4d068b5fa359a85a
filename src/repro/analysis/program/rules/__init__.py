"""Built-in program rules; importing registers them all."""

from __future__ import annotations

from repro.analysis.program.rules import (  # noqa: F401
    error_contract,
    invalidation_reachability,
    mmap_escape,
)
