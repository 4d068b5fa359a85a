"""Tests for the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from countingio import CountingIO  # noqa: E402
from percentiles import TooFewSamples, percentile  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

from repro import BurstySearchEngine, Document, Point, STComb  # noqa: E402
from repro import SpatiotemporalCollection  # noqa: E402
from repro.faults import install  # noqa: E402
from repro.store import open_store, save_search_index  # noqa: E402


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90


@pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, enough):
    percentile([1.0] * enough, q)
    with pytest.raises(TooFewSamples):
        percentile([1.0] * (enough - 1), q)


# ----------------------------------------------------------------------
# Self time over nested spans
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(True, run_id="r", clock=clock)
    with tracer.span("outer"):
        clock.now = 1.0
        with tracer.span("a"):
            clock.now = 4.0
        clock.now = 5.0
        with tracer.span("b"):
            clock.now = 6.0
            with tracer.span("leaf"):
                clock.now = 7.0
            clock.now = 9.0
        clock.now = 10.0
    assert self_times(tracer.spans) == {"outer": 3.0, "a": 3.0, "b": 3.0, "leaf": 1.0}
    assert tracer.top_level_time() == 10.0
    assert [span.parent for span in tracer.spans] == [-1, 0, 0, 2]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("outer", 0.0, 10.0, -1, "r"),
        Span("x", 2.0, 6.0, 0, "r"),
        Span("y", 4.0, 12.0, 0, "r"),  # overlaps x and outlives its parent
    ]
    assert self_times(spans)["outer"] == pytest.approx(2.0)


def test_self_time_sums_repeated_names():
    spans = [
        Span("root", 0.0, 4.0, -1, "r"),
        Span("q", 0.0, 1.0, 0, "r"),
        Span("q", 2.0, 3.0, 0, "r"),
    ]
    assert self_times(spans) == {"root": 2.0, "q": 2.0}


def test_wrapped_attribute_is_traced_then_restored():
    class Owner:
        @staticmethod
        def kernel(value):
            return value * 2

    original = Owner.kernel
    tracer = Tracer(True)
    with tracer.wrap_attribute(Owner, "kernel", "k"):
        assert Owner.kernel(3) == 6
        assert Owner.kernel(4) == 8
    assert Owner.kernel is original
    assert tracer.count("k") == 2


def test_disabled_tracer_records_nothing():
    class Owner:
        kernel = staticmethod(abs)

    tracer = Tracer(False)
    with tracer.wrap_attribute(Owner, "kernel", "k"), tracer.span("s"):
        assert Owner.kernel is abs
    assert tracer.spans == []


# ----------------------------------------------------------------------
# Counting store IO
# ----------------------------------------------------------------------
def tiny_engine():
    collection = SpatiotemporalCollection(timeline=24)
    for index in range(6):
        collection.add_stream(f"s{index}", Point(float(index), float(index % 2)))
    rng = random.Random(7)
    doc_id = 0
    for t in range(24):
        for index in range(6):
            burst = 8 <= t <= 12 and index < 3
            for _ in range(rng.randint(3, 5) if burst else rng.randint(0, 1)):
                words = ("flood", "rain") if burst else ("rain",)
                collection.add_document(Document(doc_id, f"s{index}", t, words))
                doc_id += 1
    mined = STComb().mine(collection, ["flood", "rain"])
    return BurstySearchEngine(collection, mined)


@pytest.mark.parametrize("codec", ["raw", "packed"])
def test_counted_save_writes_the_same_store(tmp_path, codec):
    engine = tiny_engine()
    plain = str(tmp_path / "plain")
    counted = str(tmp_path / "counted")
    save_search_index(plain, engine, "combinatorial", codec=codec)
    io = CountingIO()
    with install(io):
        save_search_index(counted, engine, "combinatorial", codec=codec)
        reader = open_store(counted)
    files = open_store(plain).files()
    assert files and reader.files() == files
    assert io.write_ops == len(files) + 1  # every segment file + the manifest
    assert io.bytes_written >= sum(entry["size"] for entry in files.values())
    assert io.renames == 1
    assert io.fsyncs >= io.write_ops
    assert io.read_checks == 0  # opening verifies CRCs; payload reads are lazy
