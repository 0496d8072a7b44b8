//! Cross-crate integration: monitor-emitted fetch logs must be
//! first-class citizens of the §5.1 re-check analysis, and the daemon
//! must be byte-deterministic across worker counts at estate scale.

use botscope_core::pipeline::standardize_table;
use botscope_core::recheck::{by_category, profiles_from_table, profiles_table};
use botscope_monitor::daemon::{run, run_with_threads, MonitorConfig, TtlPolicy};
use botscope_monitor::scenario::ScenarioKind;
use botscope_weblog::codec;

fn encode(table: &botscope_weblog::LogTable) -> Vec<u8> {
    let mut out = Vec::new();
    codec::write_table(&mut out, table).expect("in-memory encode");
    out
}

#[test]
fn monitor_profiles_match_equivalent_weblog_rows() {
    let cfg = MonitorConfig {
        sites: 30,
        days: 21,
        bots: 5,
        scenario: ScenarioKind::Mixed,
        ..MonitorConfig::default()
    };
    let out = run(&cfg);
    assert!(!out.table.is_empty());

    // The monitor path: profiles straight from the interned fetch table.
    let from_monitor = profiles_from_table(&out.table, out.horizon_end);

    // The weblog path: the same events written as an ordinary access
    // log, decoded back into a fresh table (new symbol ids) and pushed
    // through the standardize → profiles pipeline.
    let reloaded = codec::decode_table_read(&encode(&out.table)[..]).expect("own CSV decodes");
    let logs = standardize_table(&reloaded);
    let from_weblog = profiles_table(&logs, out.horizon_end);

    assert_eq!(from_monitor, from_weblog);
    // And the Figure 10 aggregation agrees too.
    assert_eq!(by_category(&from_monitor), by_category(&from_weblog));

    // Profiles carry real content: every monitored bot appears, and the
    // recorded check times are exactly the bot's rows in the table.
    assert!(!from_monitor.is_empty());
    let checks = out.table.robots_checks_by_useragent();
    let total_profile_checks: usize = from_monitor.iter().map(|p| p.check_times.len()).sum();
    let total_table_checks: usize = checks.values().map(Vec::len).sum();
    assert_eq!(total_profile_checks, total_table_checks);
}

#[test]
fn dense_fixed_ttl_agents_cover_their_window() {
    // Fixed 12 h TTL on a stable estate: every bot re-checks inside
    // every 24 h window, so Figure 10 coverage must be total at 24 h+.
    let cfg = MonitorConfig {
        sites: 6,
        days: 14,
        bots: 3,
        ttl: TtlPolicy::FixedHours(12),
        scenario: ScenarioKind::Stable,
        swap_every: 0,
        ..MonitorConfig::default()
    };
    let out = run(&cfg);
    let profiles = profiles_from_table(&out.table, out.horizon_end);
    for p in &profiles {
        assert!(p.ever_checked());
        assert!(p.covered[&24], "{} must cover 24h windows", p.bot);
        assert!(p.covered[&168], "{} must cover 168h windows", p.bot);
    }
}

#[test]
fn estate_scale_determinism_across_worker_counts() {
    // Large enough to span many scheduler chunks (>64 agents per chunk
    // boundary effect): 200 sites × 4 bots = 800 agents ≈ 13 chunks.
    let cfg = MonitorConfig {
        sites: 200,
        days: 12,
        bots: 4,
        scenario: ScenarioKind::Mixed,
        swap_every: 3,
        ..MonitorConfig::default()
    };
    let serial = run_with_threads(&cfg, 1);
    let bytes = encode(&serial.table);
    assert!(!bytes.is_empty());
    for threads in [2, 8] {
        let parallel = run_with_threads(&cfg, threads);
        assert_eq!(bytes, encode(&parallel.table), "CSV bytes differ at {threads} workers");
        assert_eq!(serial.stats, parallel.stats, "stats differ at {threads} workers");
        assert_eq!(serial.changes, parallel.changes, "digests differ at {threads} workers");
    }
}
