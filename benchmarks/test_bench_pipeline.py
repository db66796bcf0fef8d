"""Benchmark: end-to-end pipeline stages.

Not a table or figure, but the operational cost the paper's Section 4
pipeline would incur: scenario/feed generation, the dictionary build, and
the streaming inference pass -- through the columnar
:class:`~repro.stream.batch.ElemBatch` kernel every production pass uses,
and elem-at-a-time through ``process()``, the kernel's per-elem oracle.  The throughput recorded
in ``results/pipeline.txt`` is the single source of truth for pipeline
speed (ROADMAP/README cite this file, not hand-copied numbers), and the
O(batches)-dispatch property is asserted via the engine's dispatch
*counters*, never wall time.
"""

import time

from repro.analysis.pipeline import StudyPipeline
from repro.bgp.community import Community
from repro.core.inference import BlackholingInferenceEngine
from repro.dictionary.builder import DictionaryBuilder
from repro.dictionary.model import BlackholeDictionary, CommunityEntry, CommunitySource
from repro.exec.plan import _split_batch, shard_of_key
from repro.stream.batch import BATCH_SIZE, stream_batches
from repro.workload.simulation import ScenarioSimulator

from bench_helpers import bench_scenario_config, write_json_result, write_result


def test_bench_scenario_generation(benchmark):
    config = bench_scenario_config(seed=101)

    dataset = benchmark.pedantic(
        lambda: ScenarioSimulator(config).generate(), rounds=1, iterations=1
    )
    assert dataset.message_count > 0


def test_bench_inference_pass(benchmark, bench_dataset, bench_result, results_dir):
    dictionary = DictionaryBuilder(bench_dataset.corpus).build()

    def engine_for(active_dictionary):
        return BlackholingInferenceEngine(
            active_dictionary, peeringdb=bench_dataset.topology.peeringdb
        )

    def run_per_elem():
        engine = engine_for(dictionary)
        for elem in bench_dataset.bgp_stream():
            engine.process(elem)
        engine.finalise(bench_dataset.end)
        return engine

    def run_batched_loop():
        # PR-6 style dispatch: columnar batches, but the engine still pays
        # one process() call per row -- the baseline the kernel replaces.
        engine = engine_for(dictionary)
        for batch in stream_batches(bench_dataset.bgp_stream().elems(), BATCH_SIZE):
            for elem in batch:
                engine.process(elem)
        engine.finalise(bench_dataset.end)
        return engine

    def run_kernel(active_dictionary=dictionary):
        # Batches wrapped around built elems: every row exists before the
        # kernel sees it.
        engine = engine_for(active_dictionary)
        for batch in stream_batches(bench_dataset.bgp_stream().elems(), BATCH_SIZE):
            engine.process_batch(batch)
        engine.finalise(bench_dataset.end)
        return engine

    def run_lazy(active_dictionary=dictionary):
        # Decoder-to-column dispatch: batches built straight from row specs
        # (no StreamElem per row up front); the kernel materialises only
        # the rows it actually indexes.
        engine = engine_for(active_dictionary)
        for batch in bench_dataset.bgp_stream().batches(BATCH_SIZE):
            engine.process_batch(batch)
        engine.finalise(bench_dataset.end)
        return engine

    start = time.perf_counter()
    engine = benchmark.pedantic(run_per_elem, rounds=1, iterations=1)
    seconds = time.perf_counter() - start

    start = time.perf_counter()
    looped = run_batched_loop()
    looped_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = run_kernel()
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    lazy = run_lazy()
    lazy_seconds = time.perf_counter() - start

    elems = engine.stats.elems_processed

    # O(columns) dispatch, proven by counters (timing-independent): the
    # elem paths pay one process() call per elem and touch every kept row;
    # the column kernel pays one process_batch() per ceil(elems/BATCH_SIZE)
    # chunk, never enters process(), and its Python-level row handling
    # (row_touches) scales with *interesting* rows -- tagged announcements
    # and (implicit) withdrawals of active state -- not with the stream.
    assert engine.stats.process_calls == elems
    assert engine.stats.batches_processed == 0
    assert looped.stats.process_calls == elems
    assert batched.stats.process_calls == 0
    assert batched.stats.batches_processed == -(-elems // BATCH_SIZE)
    # The bench scenario is deliberately blackholing-dense, so the kernel
    # still touches many rows here; the sparse-dictionary run below and
    # tests/test_batch.py::TestRowTouches pin the O(interesting rows)
    # scaling.  What must hold on ANY stream: strictly fewer touches than
    # the per-elem path's (which touches every kept row).
    assert 0 < batched.stats.row_touches < engine.stats.row_touches
    # ... and the columnar results are bit-identical.
    assert batched.stats.elems_processed == elems
    assert batched.stats.observations_started == engine.stats.observations_started
    assert batched.observations() == engine.observations()
    assert looped.observations() == engine.observations()
    # Decoder-to-column: same outcomes and touches as the wrapped-elem
    # kernel, and only the touched-and-indexed rows ever became
    # StreamElems.  Both come out of one builder, so both fire exactly the
    # thunks of the rows the kernel indexes.
    assert lazy.observations() == engine.observations()
    assert lazy.stats.row_touches == batched.stats.row_touches
    assert batched.stats.rows_materialised == lazy.stats.rows_materialised
    assert 0 < lazy.stats.rows_materialised <= lazy.stats.row_touches

    # A dictionary whose only community never appears in the stream: the
    # kernel bulk-skips EVERY row (row_touches == 0) while still counting
    # the full stream -- the O(interesting rows) extreme.
    sparse_dictionary = BlackholeDictionary(
        [
            CommunityEntry(
                community=Community(65533, 65533),
                provider_asn=65533,
                source=CommunitySource.WEB,
            )
        ]
    )
    sparse = run_kernel(sparse_dictionary)
    assert sparse.stats.elems_processed == elems
    assert sparse.stats.row_touches == 0
    assert sparse.stats.observations_started == 0

    # The same no-match dictionary over the decoder-to-column path: the
    # full stream completes without constructing a single StreamElem.
    sparse_lazy = run_lazy(sparse_dictionary)
    assert sparse_lazy.stats.elems_processed == elems
    assert sparse_lazy.stats.row_touches == 0
    assert sparse_lazy.stats.rows_materialised == 0
    assert sparse_lazy.stats.observations_started == 0

    # Zero-copy contiguous selects: a shard-grouped replay (the layout of
    # shard-sorted distributed streams) must split every multi-shard batch
    # through memoryview column slices, forcing no lazy rows.
    workers = 4
    memo = {}
    zero_copy_splits = 0
    grouped_batches = 0
    for batch in bench_dataset.bgp_stream().batches(BATCH_SIZE):
        order = sorted(
            range(len(batch)),
            key=lambda i, keys=batch.prefix_keys: shard_of_key(keys[i], workers),
        )
        grouped = batch.select(order)
        # A memoryview column is the zero-copy branch; a gather copies
        # into arrays.
        zero_copy_splits += sum(
            isinstance(sub.timestamps, memoryview)
            for _, sub in _split_batch(grouped, workers, memo)
        )
        assert grouped.rows_materialised == 0
        grouped_batches += 1
    assert zero_copy_splits >= 1

    text = (
        "Pipeline throughput (benchmark scenario)\n"
        "  [canonical speed reference: ROADMAP/README cite this file]\n"
        f"  elems processed: {elems}\n"
        f"  announcements: {engine.stats.announcements}, withdrawals: {engine.stats.withdrawals}, "
        f"RIB entries: {engine.stats.rib_entries}\n"
        f"  observations started: {engine.stats.observations_started}\n"
        f"  blackholed prefixes: {len(bench_result.report.ipv4_prefixes())}\n"
        f"  inference pass, per-elem dispatch: {seconds:.2f} s "
        f"({elems / seconds:,.0f} elems/s; {engine.stats.process_calls} process() calls, "
        f"{engine.stats.row_touches} rows touched)\n"
        f"  inference pass, batched loop (batch_size={BATCH_SIZE}): {looped_seconds:.2f} s "
        f"({elems / looped_seconds:,.0f} elems/s; per-elem dispatch over batch rows)\n"
        f"  inference pass, column kernel (batch_size={BATCH_SIZE}): {batched_seconds:.2f} s "
        f"({elems / batched_seconds:,.0f} elems/s; "
        f"{batched.stats.batches_processed} batches, 0 process() calls, "
        f"{batched.stats.row_touches} rows touched)\n"
        f"  inference pass, decoder-to-column (batch_size={BATCH_SIZE}): {lazy_seconds:.2f} s "
        f"({elems / lazy_seconds:,.0f} elems/s; "
        f"{lazy.stats.rows_materialised} of {elems} rows materialised)\n"
        f"  column kernel, no-match dictionary: 0 rows touched over {elems} elems\n"
        f"  decoder-to-column, no-match dictionary: 0 rows materialised over {elems} elems\n"
        f"  shard-grouped replay (workers={workers}): {zero_copy_splits} zero-copy "
        f"column slices over {grouped_batches} batches, 0 rows forced\n"
        "  single engine, serial; timing varies +-40% on shared runners\n"
    )
    write_result(results_dir, "pipeline", text)
    write_json_result(
        results_dir,
        "pipeline",
        {
            "scenario": "bench",
            "batch_size": BATCH_SIZE,
            "elems": elems,
            "observations_started": engine.stats.observations_started,
            "rows": {
                "per_elem": {
                    "seconds": round(seconds, 3),
                    "elems_per_second": round(elems / seconds),
                    "process_calls": engine.stats.process_calls,
                    "batches_processed": engine.stats.batches_processed,
                    "row_touches": engine.stats.row_touches,
                },
                "batched_loop": {
                    "seconds": round(looped_seconds, 3),
                    "elems_per_second": round(elems / looped_seconds),
                    "process_calls": looped.stats.process_calls,
                    "batches_processed": looped.stats.batches_processed,
                    "row_touches": looped.stats.row_touches,
                },
                "column_kernel": {
                    "seconds": round(batched_seconds, 3),
                    "elems_per_second": round(elems / batched_seconds),
                    "process_calls": batched.stats.process_calls,
                    "batches_processed": batched.stats.batches_processed,
                    "row_touches": batched.stats.row_touches,
                    "rows_materialised": batched.stats.rows_materialised,
                },
                "decoder_to_column": {
                    "seconds": round(lazy_seconds, 3),
                    "elems_per_second": round(elems / lazy_seconds),
                    "process_calls": lazy.stats.process_calls,
                    "batches_processed": lazy.stats.batches_processed,
                    "row_touches": lazy.stats.row_touches,
                    "rows_materialised": lazy.stats.rows_materialised,
                },
                "column_kernel_sparse_dictionary": {
                    "process_calls": sparse.stats.process_calls,
                    "batches_processed": sparse.stats.batches_processed,
                    "row_touches": sparse.stats.row_touches,
                    "rows_materialised": sparse.stats.rows_materialised,
                    "elems_processed": sparse.stats.elems_processed,
                },
                "sparse_lazy": {
                    "process_calls": sparse_lazy.stats.process_calls,
                    "batches_processed": sparse_lazy.stats.batches_processed,
                    "row_touches": sparse_lazy.stats.row_touches,
                    "rows_materialised": sparse_lazy.stats.rows_materialised,
                    "elems_processed": sparse_lazy.stats.elems_processed,
                },
                "shard_grouped_replay": {
                    "workers": workers,
                    "batches": grouped_batches,
                    "zero_copy_selects": zero_copy_splits,
                },
            },
        },
    )
    print("\n" + text)
    assert engine.stats.observations_started > 0


def test_bench_full_study_pipeline(benchmark, bench_dataset):
    result = benchmark.pedantic(
        lambda: StudyPipeline(bench_dataset).run(), rounds=1, iterations=1
    )
    assert result.report.providers()
