//! Wall-clock and memory harness for the traffic generator.
//!
//! Times `scenario::full_study_table` at a given horizon/scale and
//! reports record count, throughput, peak RSS, and the estimated heap
//! footprint of the generated table. Used to record the before/after numbers of
//! data-model and parallelism changes in ROADMAP.md.
//!
//! ```text
//! genbench [days=46] [scale=1.0] [reps=1]
//! ```

use std::time::Instant;

use botscope_simnet::scenario::full_study_table;
use botscope_simnet::{worker_threads, SimConfig};

/// Peak resident set size of this process in kilobytes (Linux VmHWM).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let days: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(46);
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let reps: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);

    let cfg = SimConfig { days, scale, ..SimConfig::default() };
    eprintln!(
        "generating: days={days} scale={scale} sites={} reps={reps} workers={}",
        cfg.sites,
        worker_threads()
    );

    for rep in 0..reps {
        let t0 = Instant::now();
        let out = full_study_table(&cfg);
        let table_dt = t0.elapsed();
        let n = out.table.len();
        let table_heap = out.table.heap_bytes();
        drop(out);

        println!(
            "rep={rep} records={n} \
             table: wall_s={:.3} krec_per_s={:.0} heap_mb={:.1} | peak_rss_mb={:.1}",
            table_dt.as_secs_f64(),
            n as f64 / table_dt.as_secs_f64() / 1e3,
            table_heap as f64 / 1e6,
            peak_rss_kb().unwrap_or(0) as f64 / 1e3,
        );
    }
}
