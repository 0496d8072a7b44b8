//! Criterion benches for the analysis pipeline stages: standardization,
//! sessionization, the three compliance metrics, spoof detection, and
//! the end-to-end `Experiment::analyze_table` engine (generation
//! excluded), whose throughput line lands in `BENCH_pipeline.json` so
//! analysis speedups are tracked like generation ones.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use botscope_core::metrics::{
    crawl_delay_counts_rows, disallow_counts_rows, endpoint_counts_rows, PathClasses,
};
use botscope_core::pipeline::standardize_table;
use botscope_core::spoofdetect::detect_rows;
use botscope_core::Experiment;
use botscope_simnet::scenario::{full_study_table, phase_study_table};
use botscope_simnet::SimConfig;
use botscope_weblog::table::LogTable;

fn dataset() -> LogTable {
    let cfg = SimConfig { days: 10, scale: 0.05, ..SimConfig::default() };
    full_study_table(&cfg).table
}

fn bench_pipeline(c: &mut Criterion) {
    let table = dataset();
    let n = table.len() as u64;

    let mut g = c.benchmark_group("pipeline");
    g.throughput(Throughput::Elements(n));

    g.bench_function("standardize", |b| b.iter(|| standardize_table(black_box(&table))));

    g.bench_function("sessionize_5min", |b| b.iter(|| black_box(&table).sessionize(300)));

    let logs = standardize_table(&table);
    let per_bot = logs.per_bot_rows();
    g.bench_function("spoof_detect", |b| b.iter(|| detect_rows(&table, black_box(&per_bot))));

    // Metric throughput over the busiest bot.
    let busiest = per_bot.values().max_by_key(|v| v.len()).cloned().expect("non-empty dataset");
    let classes = PathClasses::new(&table);
    g.throughput(Throughput::Elements(busiest.len() as u64));
    g.bench_function("crawl_delay_metric", |b| {
        b.iter_batched(
            || busiest.clone(),
            |rows| crawl_delay_counts_rows(&rows, 30),
            BatchSize::SmallInput,
        );
    });
    g.bench_function("endpoint_metric", |b| {
        b.iter(|| endpoint_counts_rows(&classes, black_box(&busiest)));
    });
    g.bench_function("disallow_metric", |b| {
        b.iter(|| disallow_counts_rows(&classes, black_box(&busiest)));
    });
    g.finish();
}

/// The full §4 analysis engine over a pre-generated phase study — the
/// same workload as `end_to_end/phase_study_generate_and_analyze` minus
/// generation. The worker sweep stops at the machine's available
/// parallelism: oversubscribing a small container only measures
/// scheduler thrash, not the engine.
fn bench_analysis(c: &mut Criterion) {
    let cfg = SimConfig { scale: 0.05, sites: 8, ..SimConfig::default() };
    let out = phase_study_table(&cfg);
    let mut g = c.benchmark_group("analysis");
    g.sample_size(10);
    g.throughput(Throughput::Elements(out.sim.table.len() as u64));
    let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut counts = vec![1usize];
    if hardware > 1 {
        counts.push(hardware.min(8));
    }
    for threads in counts {
        g.bench_function(format!("experiment_analyze_table/workers={threads}"), |b| {
            b.iter(|| {
                Experiment::analyze_table_with_threads(
                    black_box(&out.sim.table),
                    &out.schedule,
                    threads,
                )
            });
        });
    }
    g.finish();
}

/// The bounded-memory path: streamed generation through the disk-spill
/// k-way merge, binary encode/decode, and the single-pass streaming
/// analyzer — each against the same workload the materialized benches
/// use, so the overhead of never holding the table is visible.
fn bench_streaming(c: &mut Criterion) {
    use botscope_simnet::engine::{simulate_stream_with_threads, StreamOptions};
    use botscope_weblog::colfmt::{BinReader, BinSink};
    use botscope_weblog::sink::RowSink;
    use botscope_weblog::stream::TableRowStream;

    let cfg = SimConfig { scale: 0.05, sites: 8, ..SimConfig::default() };
    let out = phase_study_table(&cfg);
    let rows = out.sim.table.len() as u64;

    let mut g = c.benchmark_group("streaming");
    g.sample_size(10);
    g.throughput(Throughput::Elements(rows));

    // Generation → spill → merge → discarded binary bytes.
    let (lo, hi) = out.schedule.bounds();
    let gen_cfg = SimConfig { start: lo, days: hi.days_since(lo), ..cfg.clone() };
    g.bench_function("simulate_stream_bin", |b| {
        b.iter(|| {
            let mut sink = BinSink::new(std::io::sink()).expect("bin sink");
            simulate_stream_with_threads(
                black_box(&gen_cfg),
                &out.schedule,
                1,
                &StreamOptions::default(),
                &mut [&mut sink as &mut dyn RowSink],
            )
            .expect("streaming simulate")
        });
    });

    // Binary encode and decode of the materialized table.
    let mut bin = Vec::new();
    botscope_weblog::colfmt::write_table(&mut bin, &out.sim.table).expect("encode");
    g.bench_function("binary_encode", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(bin.len());
            botscope_weblog::colfmt::write_table(&mut buf, black_box(&out.sim.table))
                .expect("encode");
            buf
        });
    });
    g.bench_function("binary_decode_stream", |b| {
        b.iter(|| {
            let mut reader = BinReader::new(black_box(&bin[..])).expect("header");
            let mut n = 0u64;
            while let Some(row) = reader.next_row() {
                row.expect("clean row");
                n += 1;
            }
            n
        });
    });

    // Single-pass analysis over the sorted in-memory stream.
    g.bench_function("experiment_analyze_stream", |b| {
        b.iter(|| {
            let mut stream = TableRowStream::new(black_box(&out.sim.table));
            Experiment::analyze_stream(&mut stream, &out.schedule).expect("clean stream")
        });
    });
    g.finish();
}

/// The k-way merge behind every streamed path: the phase-study table
/// split into 8 canonically sorted runs, merged into a counting sink.
fn bench_merge(c: &mut Criterion) {
    use botscope_weblog::sink::{CountingSink, RowSink};
    use botscope_weblog::table::LogTable;
    use botscope_weblog::{merge_runs, MergeRun};

    let cfg = SimConfig { scale: 0.05, sites: 8, ..SimConfig::default() };
    let table = phase_study_table(&cfg).sim.table;
    let rows = table.len() as u64;

    // Strided sub-tables of a canonically sorted table stay sorted, so
    // they are valid merge runs with maximally interleaved keys — the
    // merge's worst case.
    const RUNS: usize = 8;
    let mut subs: Vec<LogTable> = (0..RUNS).map(|_| LogTable::new()).collect();
    for (i, row) in table.rows().iter().enumerate() {
        subs[i % RUNS].push_record(&table.materialize(row));
    }

    let mut g = c.benchmark_group("merge");
    g.sample_size(10);
    g.throughput(Throughput::Elements(rows));
    let make_runs = || subs.iter().cloned().map(MergeRun::from_table).collect::<Vec<_>>();
    g.bench_function("merge_runs_serial/8_runs", |b| {
        b.iter_batched(
            make_runs,
            |runs| {
                let mut counter = CountingSink::default();
                merge_runs(runs, &mut [&mut counter as &mut dyn RowSink]).expect("merge")
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_pipeline, bench_analysis, bench_streaming, bench_merge);
criterion_main!(benches);
