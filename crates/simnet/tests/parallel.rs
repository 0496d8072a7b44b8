//! Parallel-generation determinism: for a fixed seed, the sharded
//! generator must produce byte-identical output at any worker count,
//! whether it materializes a table or streams rows into sinks.

use botscope_simnet::engine::{
    simulate_stream_with_threads, simulate_table, simulate_table_with_threads, StreamOptions,
};
use botscope_simnet::scenario::{full_study_stream, full_study_table};
use botscope_simnet::{PhaseSchedule, SimConfig};
use botscope_weblog::codec;
use botscope_weblog::colfmt::{read_table, BinSink};
use botscope_weblog::sink::{CsvSink, RowSink};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn cfg_with_seed(seed: u64) -> SimConfig {
    SimConfig { days: 2, scale: 0.05, sites: 8, seed, ..SimConfig::default() }
}

#[test]
fn full_study_byte_identical_across_worker_counts() {
    for seed in [42, 9309] {
        let cfg = cfg_with_seed(seed);
        let schedule = PhaseSchedule::always_base(0, cfg.start, cfg.end());
        let serial = simulate_table_with_threads(&cfg, &schedule, WORKER_COUNTS[0]);
        let serial_csv = codec::encode_table(&serial.table);
        for &threads in &WORKER_COUNTS[1..] {
            let parallel = simulate_table_with_threads(&cfg, &schedule, threads);
            assert_eq!(
                codec::encode_table(&parallel.table),
                serial_csv,
                "seed {seed}: {threads} workers diverged from the serial path"
            );
            assert_eq!(parallel.truth.spoofed_requests, serial.truth.spoofed_requests);
        }
    }
}

#[test]
fn default_worker_count_matches_explicit_worker_counts() {
    let cfg = cfg_with_seed(7);
    let schedule = PhaseSchedule::always_base(0, cfg.start, cfg.end());
    let default = simulate_table(&cfg, &schedule).table;
    let four = simulate_table_with_threads(&cfg, &schedule, 4).table;
    assert_eq!(default.rows(), four.rows());
    assert_eq!(default.to_records(), four.to_records());
}

#[test]
fn streamed_csv_bytes_identical_to_materialized_at_any_worker_count() {
    let cfg = cfg_with_seed(42);
    let schedule = PhaseSchedule::always_base(0, cfg.start, cfg.end());
    let reference = simulate_table_with_threads(&cfg, &schedule, 1);
    let reference_csv = codec::encode_table(&reference.table).into_bytes();
    // Tiny runs force multi-run spills per unit; both sinks fill in one
    // streamed pass.
    let opts = StreamOptions { rows_per_run: 200, spill_dir: None };
    for threads in WORKER_COUNTS {
        let mut csv = CsvSink::new(Vec::new()).expect("csv sink");
        let mut bin = BinSink::new(Vec::new()).expect("bin sink");
        let out = simulate_stream_with_threads(
            &cfg,
            &schedule,
            threads,
            &opts,
            &mut [&mut csv as &mut dyn RowSink, &mut bin as &mut dyn RowSink],
        )
        .expect("streaming simulate");
        assert_eq!(out.rows as usize, reference.table.len(), "{threads} workers");
        assert_eq!(
            csv.into_inner(),
            reference_csv,
            "{threads} workers: streamed CSV diverged from materialized"
        );
        // The binary stream decodes back to the same records.
        let decoded = read_table(&bin.into_inner()[..]).expect("decode streamed binary");
        assert_eq!(
            decoded.to_records(),
            reference.table.to_records(),
            "{threads} workers: streamed binary diverged"
        );
        assert_eq!(out.truth.spoofed_requests, reference.truth.spoofed_requests);
    }
}

#[test]
fn full_study_stream_matches_full_study_table() {
    let cfg = cfg_with_seed(13);
    let reference = full_study_table(&cfg);
    let mut csv = CsvSink::new(Vec::new()).expect("csv sink");
    let out =
        full_study_stream(&cfg, 2, &StreamOptions::default(), &mut [&mut csv as &mut dyn RowSink])
            .expect("streaming scenario");
    assert_eq!(out.rows as usize, reference.table.len());
    assert_eq!(csv.into_inner(), codec::encode_table(&reference.table).into_bytes());
    assert_eq!(out.truth.behaviors, reference.truth.behaviors);
}

#[test]
fn full_study_table_is_the_base_schedule_run() {
    let cfg = cfg_with_seed(11);
    let schedule = PhaseSchedule::always_base(0, cfg.start, cfg.end());
    let by_scenario = full_study_table(&cfg);
    let by_engine = simulate_table_with_threads(&cfg, &schedule, 2);
    assert_eq!(by_scenario.table.to_records(), by_engine.table.to_records());
    assert_eq!(by_scenario.truth.exempt, by_engine.truth.exempt);
}
