"""The benchmark's three workloads, run in-process against the public API.

Each workload generates its inputs from the workload seed, times calls
into public functions from the outside, and checks the outputs outside
the timed regions:

* ``stlocal_save`` — the ``repro save`` path with STLocal: Topix-style
  corpus → :class:`FrequencyTensor` → ``BatchMiner.regional_trackers``
  over the heaviest terms → posting precompute → packed
  ``save_search_index`` → cold start → warm queries.  The rectangle
  kernel ``batched_first_rectangles`` dominates it.
* ``stcomb_serve`` — the serving path: STComb over the 200 heaviest terms,
  a store saved with the library's default codec, cold start, then a
  warm closed-loop Zipf query mix.  The rectangle kernel never runs here;
  top-k, the planner's static rule, codec decode and store open do.
* ``live_replay`` — writes beside reads: the corpus replayed in
  (timestamp, doc id) order through ``LiveCollection.ingest`` with
  batches of the corpus's own event queries to ``LiveSearchEngine`` at a
  fixed document cadence, then a checkpoint and a restore.  It runs the
  live layer, incremental mining and the point kernel
  ``max_rectangle_points``.

Every workload reports the same end-to-end metrics, so each has a build
(to a durable store), a cold start from that store and a query stream.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import itertools
import os
import random
import resource
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

from countingio import CountingIO
from percentiles import percentile
from spans import Tracer, self_times

import repro.columnar.kernels as kernels
from repro.core import STComb, STLocal, STLocalConfig
from repro.datagen import CorpusSettings, generate_topix_corpus
from repro.eval.experiments import TOPIX_STCOMB_CONFIG
from repro.faults import install
from repro.live import LiveCollection, LiveSearchEngine
from repro.pipeline import BatchMiner
from repro.search import BurstySearchEngine
from repro.store import open_store, save_search_index
from repro.streams import FrequencyTensor, SpatiotemporalCollection
from repro.streams.document import tokenize

#: Topix-style corpus of the ``repro save`` smoke scale: 181 countries,
#: 48 weeks, background rate 0.3 (~200k documents).
SAVE_COUNTRIES = 181
BACKGROUND_RATE = 0.3
#: The corpus generator's seed, fixed: its event volumes swing by a
#: quarter between seeds (event 2 alone: 64k-93k documents), which would
#: swamp every metric.  The workload seed drives the order of the warm
#: queries and PYTHONHASHSEED, which still perturbs the generated corpus
#: content (``datagen`` iterates a set while drawing from its RNG) and
#: so shows in the recorded digest.
CORPUS_SEED = 0
#: Corpus generations per run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: Cold starts per run; ``cold_start_s`` is their median.
COLD_STARTS = 5
#: Terms mined by ``stlocal_save`` (STLocal costs ~2 s per heavy term).
STLOCAL_TERMS = 2
#: Terms mined by ``stcomb_serve``.
STCOMB_TERMS = 200
#: Fewest warm queries per run: 1000 for the serving workload; for the
#: save workload, enough for a p90 with 20 samples beyond it.
SERVE_QUERIES = 1000
SAVE_QUERIES = 200
#: Distinct queries of a warm query loop.
MIX_DISTINCT = 100
#: Share of distinct queries asking for k=100 instead of k=10.
LARGE_K_SHARE = 0.05
#: ``live_replay`` world: 60 countries (~68k documents), sized so one
#: replay with its queries takes ~15 s on a 2-vCPU machine.
LIVE_COUNTRIES = 60
#: A batch of LIVE_BATCH queries follows every LIVE_EVERY ingested docs.
LIVE_EVERY = 2000
LIVE_BATCH = 8

#: Stages after which the process's peak RSS is recorded.
MEMORY_STAGES = (
    "setup", "tensor", "mine", "precompute", "save", "cold_start",
    "queries", "replay",
)
STRATEGIES = ("scan", "blockmax", "ta", "merged")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def zipf_weights(count: int) -> List[float]:
    return [1.0 / rank for rank in range(1, count + 1)]


def ranking_bits(results) -> List[Tuple[object, str]]:
    """A ranking as (doc id, exact score bits) pairs."""
    return [(hit.document.doc_id, float.hex(hit.score)) for hit in results]


class Run:
    """State of one workload run: tracer, op counts, memory, records."""

    def __init__(self, tracer: Tracer, workdir: str) -> None:
        self.tracer = tracer
        self.workdir = workdir
        self.io = CountingIO() if tracer.enabled else None
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.rss_after: Dict[str, float] = {}
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.sizes: Dict[str, int] = {}
        self.samples: Dict[str, int] = {}
        self.cold_starts: List[float] = []
        self.digest = hashlib.sha256()

    def stage_done(self, stage: str) -> None:
        self.rss_after[stage] = peak_rss_mb()

    def op(self, call: Callable, *args, **kwargs):
        """One counted operation; a failure is counted and ends the run."""
        self.attempted += 1
        try:
            return call(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def expect_equal(self, label: str, actual, expected) -> None:
        """One correctness comparison, counted as an op."""
        self.attempted += 1
        if actual != expected:
            self.failed += 1
            self.mismatches.append(label)

    def digest_patterns(self, patterns: Dict[str, Sequence]) -> None:
        for term in sorted(patterns):
            for pattern in patterns[term]:
                region = getattr(pattern, "region", None)
                self.digest.update(
                    repr(
                        (
                            term,
                            sorted(str(stream) for stream in pattern.streams),
                            pattern.timeframe.start,
                            pattern.timeframe.end,
                            float.hex(pattern.score),
                            repr(region),
                        )
                    ).encode()
                )

    def digest_store(self, reader) -> None:
        for name, entry in sorted(reader.files().items()):
            self.digest.update(f"{name}:{entry['size']}:{entry['crc32']}".encode())


# ----------------------------------------------------------------------
# Shared stages
# ----------------------------------------------------------------------
def setup(run: Run, settings: CorpusSettings, order_feed: bool):
    """Generate the corpus SETUP_REPEATS times; keep the last one."""
    times = []
    corpus = feed = None
    with run.tracer.span("setup"):
        for _ in range(SETUP_REPEATS):
            corpus = feed = None
            gc.collect()
            started = time.perf_counter()
            with run.tracer.span("datagen.generate"):
                corpus = generate_topix_corpus(settings)
            if order_feed:
                with run.tracer.span("setup.feed_order"):
                    feed = sorted(
                        corpus.collection.documents(),
                        key=lambda doc: (doc.timestamp, doc.doc_id),
                    )
            times.append(time.perf_counter() - started)
    run.metrics["setup_s"] = statistics.median(times)
    run.sizes["docs"] = corpus.collection.document_count
    run.stage_done("setup")
    return corpus, feed


def stratified_choices(
    rng: random.Random, items: Sequence, weights: Sequence[float], count: int
) -> list:
    """``count`` weighted draws, one from each of ``count`` equal strata of
    the cumulative weight, in random order.

    Every seed draws each item about as often as its weight says, so the
    mixes of two seeds differ in how draws combine, not in how heavy
    they are.
    """
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]
    draws = [
        items[min(len(items) - 1, bisect.bisect(cumulative, (i + rng.random()) / count * total))]
        for i in range(count)
    ]
    rng.shuffle(draws)
    return draws


def distinct_queries(terms: Sequence[str]) -> List[Tuple[str, int]]:
    """MIX_DISTINCT queries over ``terms`` (heaviest first).

    A third have one term, a third two and a third three, drawn with Zipf
    weights; LARGE_K_SHARE of them ask for k=100, the rest for k=10.
    They depend only on ``terms``: which heavy terms a seed happens to
    combine moved the median latency by a third between seeds, which
    would hide any change of the program.
    """
    fixed = random.Random(CORPUS_SEED)
    sizes = [1 + i % 3 for i in range(MIX_DISTINCT)]
    words = stratified_choices(fixed, terms, zipf_weights(len(terms)), sum(sizes))
    large = set(fixed.sample(range(MIX_DISTINCT), round(LARGE_K_SHARE * MIX_DISTINCT)))
    queries = []
    for index, size in enumerate(sizes):
        query, words = words[:size], words[size:]
        queries.append((" ".join(query), 100 if index in large else 10))
    return queries


def cold_start(run: Run, path: str, open_engine: Callable, terms: Sequence[str]):
    """Open the store, build an engine from it, query each served term once."""
    gc.collect()
    started = time.perf_counter()
    with run.tracer.span("cold_start"):
        with run.tracer.span("store.open"):
            reader = run.op(open_store, path)
        with run.tracer.span("store.from_store"):
            engine = run.op(open_engine, reader)
        with run.tracer.span("store.first_touch"):
            for term in terms:
                run.op(engine.search, term, k=10)
    run.cold_starts.append(time.perf_counter() - started)
    return engine, reader


def finish_cold_starts(run: Run, path: str, reader) -> None:
    run.metrics["cold_start_s"] = statistics.median(run.cold_starts)
    run.metrics["store_mb"] = directory_bytes(path) / 1e6
    run.digest_store(reader)


def serve(
    run: Run,
    path: str,
    terms: Sequence[str],
    queries: Sequence[Tuple[str, int]],
    rng: random.Random,
    seconds: float,
    minimum: int,
) -> BurstySearchEngine:
    """Cold-start an engine from the store and run the warm closed loop
    on it: one client, rounds that each send every query once in a
    fresh ``rng`` order, until ``minimum`` queries are done and
    ``seconds`` have passed.  The other COLD_STARTS - 1 cold starts are
    spread over the loop, so their median does not rest on one moment
    of a machine whose speed drifts."""
    engine, reader = cold_start(run, path, BurstySearchEngine.from_store, terms)
    run.stage_done("cold_start")
    due = {minimum * j // (COLD_STARTS - 1) for j in range(1, COLD_STARTS)}
    latencies: List[float] = []
    accesses: List[int] = []
    strategies = dict.fromkeys(STRATEGIES, 0)
    started = time.perf_counter()
    with run.tracer.span("queries"):
        while len(latencies) < minimum or time.perf_counter() - started < seconds:
            order = list(queries)
            rng.shuffle(order)
            for query, k in order:
                begun = time.perf_counter()
                with run.tracer.span("search.query"):
                    _, stats = run.op(engine.search_with_stats, query, k=k)
                latencies.append(time.perf_counter() - begun)
                accesses.append(stats.sorted_accesses)
                strategies[stats.strategy] = strategies.get(stats.strategy, 0) + 1
                if len(latencies) in due:
                    cold_start(run, path, BurstySearchEngine.from_store, terms)
    run.stage_done("queries")
    finish_cold_starts(run, path, reader)
    record_latencies(run, latencies)
    run.layers["search.query_s"] = run.tracer.total("search.query")
    run.layers["search.sorted_accesses_p50"] = percentile(accesses, 50)
    for strategy in STRATEGIES:
        run.layers[f"search.strategy_{strategy}"] = strategies[strategy]
    return engine


def record_latencies(run: Run, latencies: Sequence[float]) -> None:
    """Query percentiles, and the closed loop's queries per busy second."""
    run.metrics["query_p50_ms"] = percentile(latencies, 50) * 1e3
    run.metrics["query_p90_ms"] = percentile(latencies, 90) * 1e3
    run.metrics["queries_per_s"] = len(latencies) / sum(latencies)
    run.samples["query_p50_ms"] = run.samples["query_p90_ms"] = len(latencies)
    run.sizes["queries"] = len(latencies)


def build_index(
    run: Run,
    collection,
    mine: Callable[[FrequencyTensor], tuple],
    pattern_type: str,
    miner_config,
    path: str,
    **save_kwargs,
):
    """Corpus → tensor → mined patterns → precompute → saved store.

    ``mine`` returns the mined terms (heaviest first), their patterns and
    any tracker state to persist.  Returns the in-memory engine and the
    served terms, heaviest first.
    """
    started = time.perf_counter()
    with run.tracer.span("build"):
        with run.tracer.span("streams.tensor"):
            tensor = run.op(FrequencyTensor, collection)
        run.stage_done("tensor")
        terms, mined, trackers = mine(tensor)
        run.stage_done("mine")
        with run.tracer.span("search.precompute"):
            engine = BurstySearchEngine(collection, mined, precompute=False)
            run.op(engine.precompute)
        run.stage_done("precompute")
        with run.tracer.span("store.save"):
            run.op(
                save_search_index,
                path,
                engine,
                pattern_type,
                terms=terms,
                trackers=trackers,
                miner_config=miner_config,
                **save_kwargs,
            )
    run.metrics["build_s"] = time.perf_counter() - started
    run.stage_done("save")
    run.sizes["terms"] = len(terms)
    run.sizes["patterns"] = sum(len(patterns) for patterns in mined.values())
    run.sizes["postings"] = sum(len(engine._posting_list(term)) for term in mined)
    run.layers["core.patterns"] = run.sizes["patterns"]
    run.layers["search.postings"] = run.sizes["postings"]
    run.digest_patterns(mined)
    return engine, [term for term in terms if term in mined]


def top_terms(run: Run, tensor: FrequencyTensor, count: int) -> List[str]:
    with run.tracer.span("streams.top_terms"):
        return [term for term, _ in tensor.top_terms(count)]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def stlocal_save(run: Run, seed: int, seconds: float) -> Callable[[], None]:
    settings = CorpusSettings(
        n_countries=SAVE_COUNTRIES, background_rate=BACKGROUND_RATE, seed=CORPUS_SEED
    )
    corpus, _ = setup(run, settings, order_feed=False)
    collection = corpus.collection
    stlocal = STLocal(config=STLocalConfig())

    def mine(tensor):
        terms = top_terms(run, tensor, STLOCAL_TERMS)
        miner = BatchMiner(stlocal=stlocal, workers=1)
        with run.tracer.span("pipeline.regional_trackers"):
            trackers = run.op(
                miner.regional_trackers,
                tensor,
                terms,
                locations=collection.locations(),
            )
        with run.tracer.span("core.tracker_patterns"):
            mined = {term: trackers[term].patterns(term) for term in terms}
        return terms, {term: found for term, found in mined.items() if found}, trackers

    path = os.path.join(run.workdir, "index")
    memory, served = build_index(
        run, collection, mine, "regional", stlocal.config, path, codec="packed"
    )
    queries = distinct_queries(served)
    rng = random.Random(f"stlocal_save:{seed}")
    engine = serve(run, path, served, queries, rng, seconds, SAVE_QUERIES)

    def check() -> None:
        for query, k in sorted(set(queries)):
            run.expect_equal(
                f"store vs in-memory {query!r} k={k}",
                ranking_bits(engine.search(query, k=k)),
                ranking_bits(memory.search(query, k=k)),
            )

    return check


def stcomb_serve(run: Run, seed: int, seconds: float) -> Callable[[], None]:
    settings = CorpusSettings(
        n_countries=SAVE_COUNTRIES, background_rate=BACKGROUND_RATE, seed=CORPUS_SEED
    )
    corpus, _ = setup(run, settings, order_feed=False)
    stcomb = STComb(config=TOPIX_STCOMB_CONFIG)

    def mine(tensor):
        terms = top_terms(run, tensor, STCOMB_TERMS)
        miner = BatchMiner(stcomb=stcomb, workers=1)
        with run.tracer.span("pipeline.mine_combinatorial"):
            mined = run.op(miner.mine_combinatorial, tensor, terms)
        return terms, mined, None

    path = os.path.join(run.workdir, "index")
    # The library's default codec, so a change of default shows here.
    memory, served = build_index(
        run, corpus.collection, mine, "combinatorial", stcomb.config, path
    )
    queries = distinct_queries(served)
    rng = random.Random(f"stcomb_serve:{seed}")
    engine = serve(run, path, served, queries, rng, seconds, SERVE_QUERIES)

    def check() -> None:
        for query, k in sorted(set(queries)):
            run.expect_equal(
                f"store auto vs in-memory ta {query!r} k={k}",
                ranking_bits(engine.search(query, k=k)),
                ranking_bits(memory.search(query, k=k, strategy="ta")),
            )

    return check


def live_replay(run: Run, seed: int, seconds: float) -> Callable[[], None]:
    settings = CorpusSettings(
        n_countries=LIVE_COUNTRIES, background_rate=BACKGROUND_RATE, seed=CORPUS_SEED
    )
    corpus, feed = setup(run, settings, order_feed=True)
    collection = corpus.collection
    queries = [query for _, query in corpus.queries()]
    # Zipf-weighted Table-9 queries on a fixed schedule: what a live
    # query costs depends on what arrived since its terms were last
    # synced, and seed-dependent schedules moved the median by a third.
    starts = range(0, len(feed), LIVE_EVERY)
    schedule = stratified_choices(
        random.Random(CORPUS_SEED),
        queries,
        zipf_weights(len(queries)),
        len(starts) * LIVE_BATCH,
    )
    latencies: List[float] = []
    path = os.path.join(run.workdir, "checkpoint")

    started = time.perf_counter()
    with run.tracer.span("build"):
        with run.tracer.span("live.replay"):
            live = LiveCollection(collection.timeline)
            for stream_id, point in collection.locations().items():
                run.op(live.add_stream, stream_id, point)
            engine = LiveSearchEngine(live)
            for number, position in enumerate(starts):
                chunk = feed[position:position + LIVE_EVERY]
                with run.tracer.span("live.ingest"):
                    for document in chunk:
                        live.ingest(document)
                run.attempted += len(chunk)
                for query in schedule[number * LIVE_BATCH:(number + 1) * LIVE_BATCH]:
                    begun = time.perf_counter()
                    with run.tracer.span("live.search"):
                        run.op(engine.search, query, k=10)
                    latencies.append(time.perf_counter() - begun)
        run.stage_done("replay")
        with run.tracer.span("store.save"):
            run.op(engine.checkpoint, path)
    run.metrics["build_s"] = time.perf_counter() - started
    run.stage_done("save")
    record_latencies(run, latencies)

    distinct = sorted(set(queries))
    terms = sorted({term for query in distinct for term in tokenize(query)})
    for _ in range(COLD_STARTS):
        restored, reader = cold_start(
            run, path, LiveSearchEngine.from_checkpoint, terms
        )
    run.stage_done("cold_start")
    finish_cold_starts(run, path, reader)

    stats = engine.stats
    ingest_s = run.tracer.total("live.ingest")
    run.layers.update(
        {
            "live.ingest_s": ingest_s,
            "live.ingest_docs_per_s": len(feed) / ingest_s if ingest_s else 0.0,
            "live.search_s": run.tracer.total("live.search"),
            "live.cache_hits": stats.cache_hits,
            "live.cache_misses": stats.cache_misses,
            "live.cache_hit_ratio": stats.cache_hits
            / max(1, stats.cache_hits + stats.cache_misses),
            "live.rebuilds": stats.rebuilds,
            "live.delta_updates": stats.delta_updates,
            "live.delta_ratio": stats.delta_updates
            / max(1, stats.delta_updates + stats.rebuilds),
            "live.compactions": engine.index.compactions,
        }
    )
    run.sizes["terms"] = len(terms)

    def check() -> None:
        # Syncing a term the replay left stale re-mines it, so the final
        # patterns are read here, outside the measured phase.
        patterns = {term: engine.patterns_for(term) for term in terms}
        run.sizes["patterns"] = run.layers["core.patterns"] = sum(
            len(found) for found in patterns.values()
        )
        run.digest_patterns(patterns)
        cold = SpatiotemporalCollection(live.timeline)
        for stream_id, point in live.locations().items():
            cold.add_stream(stream_id, point)
        for document in live.collection.documents():
            cold.add_document(document)
        rebuilt = BurstySearchEngine(cold, BatchMiner().mine_regional(cold, terms))
        for query in distinct:
            expected = ranking_bits(rebuilt.search(query, k=10))
            run.expect_equal(
                f"live vs cold rebuild {query!r}",
                ranking_bits(engine.search(query, k=10)),
                expected,
            )
            run.expect_equal(
                f"restored checkpoint vs cold rebuild {query!r}",
                ranking_bits(restored.search(query, k=10)),
                expected,
            )

    return check


RUNNERS = {
    "stlocal_save": stlocal_save,
    "stcomb_serve": stcomb_serve,
    "live_replay": live_replay,
}

#: Per-layer metrics read off spans: the median of a span repeated once
#: per set-up or cold start, the total of others, or a span count.
SPAN_MEDIANS = {
    "datagen.generate_s": "datagen.generate",
    "store.open_s": "store.open",
    "store.from_store_s": "store.from_store",
    "store.first_touch_s": "store.first_touch",
}
SPAN_TOTALS = {
    "streams.tensor_s": "streams.tensor",
    "streams.top_terms_s": "streams.top_terms",
    "pipeline.regional_trackers_s": "pipeline.regional_trackers",
    "pipeline.mine_combinatorial_s": "pipeline.mine_combinatorial",
    "columnar.rect_kernel_s": "columnar.rect_kernel",
    "columnar.point_kernel_s": "columnar.point_kernel",
    "search.precompute_s": "search.precompute",
    "store.save_s": "store.save",
}
SPAN_COUNTS = {
    "columnar.rect_kernel_calls": "columnar.rect_kernel",
    "columnar.point_kernel_calls": "columnar.point_kernel",
}


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    """Run one workload, then its correctness check; returns its record."""
    tracer = Tracer(traced, run_id=f"{name}:{seed}:{os.getpid()}")
    run = Run(tracer, workdir)
    started = time.perf_counter()
    # Kernel spans and IO counts cover the measured phase only; the
    # correctness check runs the batch miner too, outside that phase.
    with tracer.wrap_attribute(
        kernels, "batched_first_rectangles", "columnar.rect_kernel"
    ), tracer.wrap_attribute(
        kernels, "max_rectangle_points", "columnar.point_kernel"
    ), install(run.io) if run.io is not None else contextlib.nullcontext():
        check = RUNNERS[name](run, seed, seconds)
    run.metrics["peak_rss_mb"] = max(run.rss_after.values())
    with tracer.span("check"):
        check()
    wall = time.perf_counter() - started
    record = {
        "workload": name,
        "seed": seed,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "digest": run.digest.hexdigest()[:16],
        "attempted": run.attempted,
        "failed": run.failed,
        "mismatches": run.mismatches[:10],
        "wall_s": wall,
        "metrics": run.metrics,
        "samples": run.samples,
        "sizes": run.sizes,
    }
    if traced:
        record["layers"] = layer_metrics(run)
        record["self_times"] = self_times(tracer.spans)
        record["coverage"] = tracer.top_level_time() / wall
        record["chrome_trace"] = tracer.chrome_trace()
    return record


def layer_metrics(run: Run) -> Dict[str, float]:
    """Every per-layer metric; 0 for a layer the workload does not run."""
    tracer = run.tracer
    layers = dict.fromkeys(
        [
            "core.patterns", "search.postings", "search.query_s",
            "search.sorted_accesses_p50", "live.ingest_s",
            "live.ingest_docs_per_s", "live.search_s", "live.cache_hits",
            "live.cache_misses", "live.cache_hit_ratio", "live.rebuilds",
            "live.delta_updates", "live.delta_ratio", "live.compactions",
        ]
        + [f"search.strategy_{strategy}" for strategy in STRATEGIES],
        0,
    )
    layers.update(run.layers)
    for metric, span in SPAN_MEDIANS.items():
        layers[metric] = statistics.median(tracer.durations(span))
    for metric, span in SPAN_TOTALS.items():
        layers[metric] = tracer.total(span)
    for metric, span in SPAN_COUNTS.items():
        layers[metric] = tracer.count(span)
    mining = layers["pipeline.regional_trackers_s"]
    layers["columnar.rect_kernel_share"] = (
        layers["columnar.rect_kernel_s"] / mining if mining else 0.0
    )
    io = run.io
    layers.update(
        {
            "store.bytes_written": io.bytes_written,
            "store.write_ops": io.write_ops,
            "store.fsyncs": io.fsyncs,
            "store.renames": io.renames,
            "store.read_checks": io.read_checks,
            "store.files": sum(
                len(names) for _, _, names in os.walk(run.workdir)
            ),
        }
    )
    for stage in MEMORY_STAGES:
        layers[f"mem.rss_after_{stage}_mb"] = run.rss_after.get(stage, 0.0)
    return layers
