//! Property-based tests for the traffic generator: determinism, scaling,
//! schema integrity, and policy-shaping invariants under arbitrary small
//! configurations.

use botscope_simnet::scenario::full_study_table;
use botscope_simnet::SimConfig;
use botscope_weblog::time::Timestamp;
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = SimConfig> {
    (any::<u64>(), 1u64..5, 2usize..8, 0.01f64..0.08).prop_map(|(seed, days, sites, scale)| {
        SimConfig {
            seed,
            days,
            sites,
            scale,
            start: Timestamp::from_date(2025, 2, 12),
            spoofing: true,
            anon_traffic: true,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generator_is_deterministic(cfg in config_strategy()) {
        let a = full_study_table(&cfg).table;
        let b = full_study_table(&cfg).table;
        prop_assert_eq!(a.rows(), b.rows());
        prop_assert_eq!(a.to_records(), b.to_records());
    }

    #[test]
    fn records_are_schema_valid(cfg in config_strategy()) {
        let out = full_study_table(&cfg);
        let hard_end = cfg.end().plus_secs(4 * 3600);
        for r in out.table.to_records() {
            prop_assert!(!r.useragent.is_empty());
            prop_assert!(!r.asn.is_empty());
            prop_assert!(r.sitename.ends_with(".example.edu"));
            prop_assert!(r.uri_path.starts_with('/'));
            prop_assert!(r.status == 200 || r.status == 404, "status {}", r.status);
            prop_assert!(r.timestamp >= cfg.start && r.timestamp < hard_end);
            prop_assert!(r.bytes >= 200 || r.is_robots_fetch() || r.status == 404);
        }
    }

    #[test]
    fn output_is_time_sorted(cfg in config_strategy()) {
        let out = full_study_table(&cfg);
        prop_assert!(out.table.rows().windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn seeds_differ(cfg in config_strategy()) {
        let a = full_study_table(&cfg).table;
        let b = full_study_table(&SimConfig { seed: cfg.seed.wrapping_add(1), ..cfg.clone() }).table;
        // Two different seeds virtually never generate identical streams
        // of this size.
        if a.len() > 50 {
            prop_assert_ne!(a.to_records(), b.to_records());
        }
    }

    #[test]
    fn disabling_anon_removes_browser_traffic(cfg in config_strategy()) {
        let out = full_study_table(&SimConfig { anon_traffic: false, spoofing: false, ..cfg });
        // Without anon entities, every row belongs to a fleet bot and
        // none carries a referer (only browsers get referers).
        prop_assert!(out.table.rows().iter().all(|r| r.referer.is_none()));
        prop_assert!(out.truth.spoofed_requests.is_empty());
    }

    #[test]
    fn ground_truth_always_covers_fleet(cfg in config_strategy()) {
        let out = full_study_table(&cfg);
        prop_assert!(out.truth.behaviors.len() >= 120);
        prop_assert!(out.truth.exempt.len() >= 7);
    }
}
