"""Incremental summary-cache tests: correctness before speed.

The contract: a warm cached run must produce findings *identical* to a
cold uncached run, for any sequence of file edits — the cache may only
ever change how much work a run does, never its answer.  These tests
drive :func:`repro.analysis.check_paths` with a cache directory over a
copied fixture tree, edit files between runs, and diff the reports.
"""

import os
import shutil

import pytest

from repro.analysis import check_paths, default_config
from repro.analysis.cache import SummaryCache, compute_fingerprint

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "fixtures",
    "analysis",
    "program",
    "error_contract",
    "violation",
)


@pytest.fixture
def tree(tmp_path):
    target = tmp_path / "tree"
    shutil.copytree(FIXTURE, target)
    return target


def run(tree, cache_dir=None, select=frozenset(["error-contract"])):
    config = default_config(select=select)
    return check_paths([str(tree)], config, cache_dir=cache_dir)


class TestCacheCorrectness:
    def test_warm_run_is_identical_and_all_hits(self, tree, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run(tree, cache_dir)
        assert cold.stats.cache_enabled
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == cold.checked_files > 0
        warm = run(tree, cache_dir)
        assert warm.stats.cache_hits == warm.checked_files
        assert warm.stats.cache_misses == 0
        assert warm.findings == cold.findings
        assert warm.suppressed == cold.suppressed

    def test_single_edit_recomputes_only_that_file(self, tree, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run(tree, cache_dir)  # populate
        costs = tree / "src" / "repro" / "search" / "costs.py"
        costs.write_text(
            '"""Edited: now raises the typed error."""\n'
            "\n"
            "from repro.errors import SearchError\n"
            "\n"
            "\n"
            "def estimate_cost(query):\n"
            "    if not query:\n"
            "        raise SearchError('empty query')\n"
            "    return len(query)\n"
        )
        edited = run(tree, cache_dir)
        assert edited.stats.cache_misses == 1
        assert edited.stats.cache_hits == edited.checked_files - 1
        # Findings must match a from-scratch run of the edited tree.
        fresh = run(tree, cache_dir=None)
        assert edited.findings == fresh.findings
        # And the edit flipped the tree clean: the fixed raise site no
        # longer leaks a builtin through the (unchanged) entry point.
        assert edited.findings == ()

    def test_config_change_discards_cache(self, tree, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run(tree, cache_dir)
        switched = run(
            tree, cache_dir, select=frozenset(["mmap-escape"])
        )
        assert switched.stats.cache_hits == 0
        assert switched.stats.cache_misses == switched.checked_files

    def test_cache_file_round_trip(self, tree, tmp_path):
        cache_dir = str(tmp_path / "cache")
        config = default_config(select=frozenset(["error-contract"]))
        fingerprint = compute_fingerprint(config)
        cache = SummaryCache(cache_dir, fingerprint)
        cache.put("a/b.py", "digest", {"summary": None, "x": [1, 2]})
        cache.save()
        reloaded = SummaryCache(cache_dir, fingerprint)
        entry = reloaded.get("a/b.py", "digest")
        assert entry is not None and entry["x"] == [1, 2]
        assert reloaded.get("a/b.py", "other-digest") is None
        assert SummaryCache(cache_dir, "stale").get("a/b.py", "digest") is None

    def test_corrupt_cache_degrades_to_cold_run(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "summaries.json").write_text("{not json")
        report = run(tree, str(cache_dir))
        assert report.stats.cache_misses == report.checked_files
        # And the bad file is replaced by a valid one for the next run.
        warm = run(tree, str(cache_dir))
        assert warm.stats.cache_hits == warm.checked_files


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
