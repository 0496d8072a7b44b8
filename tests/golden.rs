//! Golden digests of the streamed write paths, the estate replay and
//! the admission verdicts.
//!
//! The other CLI tests compare output paths with each other (streamed
//! vs materialized, one worker count vs another). These pin the bytes
//! themselves: each digest below is the SHA-256 of a canonical run's
//! output, so a refactor that changes every path the same way still
//! fails here. Each run is checked at `BOTSCOPE_THREADS=1` and `2`.
//!
//! To regenerate after an intentional output change, run the commands
//! in each test and take `sha256sum` of the captured files.

use std::path::PathBuf;
use std::process::Command;

use botscope::obs::digest::sha256_hex;

const THREADS: [&str; 2] = ["1", "2"];

fn run(args: &[&str], threads: &str) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
        .args(args)
        .env("BOTSCOPE_THREADS", threads)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

fn stdout_of(args: &[&str], threads: &str) -> Vec<u8> {
    run(args, threads).stdout
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("botscope-golden-{}-{name}", std::process::id()))
}

#[test]
fn streamed_phase_study_bscl_matches_golden_digest() {
    let args = ["simulate", "7", "0.05", "-", "42", "--phase-study", "--stream", "--format", "bin"];
    for threads in THREADS {
        assert_eq!(
            sha256_hex(&stdout_of(&args, threads)),
            "3f6cae7e7650a41e4cd390991feeb4b95fc493728f547120f6eb7252965911da",
            "BOTSCOPE_THREADS={threads}"
        );
    }
}

#[test]
fn streamed_simulate_csv_matches_golden_digest() {
    let args = ["simulate", "7", "0.05", "-", "42", "--stream"];
    for threads in THREADS {
        assert_eq!(
            sha256_hex(&stdout_of(&args, threads)),
            "e06324f7bb0bb112871fd0ca616126aae8f53bdced7c4084a2ba61e12d0a6bfd",
            "BOTSCOPE_THREADS={threads}"
        );
    }
}

#[test]
fn streamed_monitor_outputs_match_golden_digests() {
    for threads in THREADS {
        let csv = temp_path(&format!("monitor-{threads}.csv"));
        let jsonl = temp_path(&format!("monitor-{threads}.jsonl"));
        let stdout = stdout_of(
            &[
                "monitor",
                "--sites",
                "24",
                "--days",
                "8",
                "--bots",
                "4",
                "--stream",
                "--out",
                csv.to_str().unwrap(),
                "--jsonl",
                jsonl.to_str().unwrap(),
            ],
            threads,
        );
        let csv_bytes = std::fs::read(&csv).expect("--out written");
        let jsonl_bytes = std::fs::read(&jsonl).expect("--jsonl written");
        let _ = std::fs::remove_file(&csv);
        let _ = std::fs::remove_file(&jsonl);
        assert_eq!(
            sha256_hex(&stdout),
            "82e9a55782a3ddc494c5bd77ff64f9ff4c26996d789b4e109c8dd249932793ef",
            "stdout, BOTSCOPE_THREADS={threads}"
        );
        assert_eq!(
            sha256_hex(&csv_bytes),
            "62b718939f0da76ac033dc25bec5feb9cdd1d90de108430f8958fc412306e175",
            "--out CSV, BOTSCOPE_THREADS={threads}"
        );
        assert_eq!(
            sha256_hex(&jsonl_bytes),
            "faf21b3fb66623fd1007e8969698931c55bf1a52fd318d65b90c0ce77e1492c9",
            "--jsonl, BOTSCOPE_THREADS={threads}"
        );
    }
}

#[test]
fn estate_audit_json_matches_golden_digest() {
    // Default estate: 36 sites, 46 days; the replay warms all 36 sites
    // and the behavioral digests drop 9 compiled policies.
    let args = ["audit", "--estate", "--json"];
    for threads in THREADS {
        let stdout = stdout_of(&args, threads);
        let text = String::from_utf8_lossy(&stdout);
        assert!(
            text.contains(r#""admission":{"sites":36,"warmed":36,"dropped":9,"cosmetic_skips":0}"#),
            "BOTSCOPE_THREADS={threads}: {text}"
        );
        assert_eq!(
            sha256_hex(&stdout),
            "83e9b136cc124a493902dfc84f1063776df2becaf1221d3c1b4ec8955fa4c7a4",
            "BOTSCOPE_THREADS={threads}"
        );
    }
}

#[test]
fn admit_verdicts_match_golden_digest() {
    // Every default monitor site (`site-00` … `site-35`) × four fleet
    // agents (two of them exempt from the stricter versions) × the
    // page-data endpoint v2 keeps open, a content page v2/v3 deny, a
    // path every version denies, a directory page and the always-allowed
    // robots.txt.
    let agents = ["GPTBot", "Googlebot", "ClaudeBot", "bingbot"];
    let paths = [
        "/page-data/item-001/page-data.json",
        "/news/item-001",
        "/secure/login",
        "/people/",
        "/robots.txt",
    ];
    let mut queries = String::from("agent,site,path\n");
    for site in 0..36 {
        for agent in agents {
            for path in paths {
                queries.push_str(&format!("{agent},site-{site:02}.example.edu,{path}\n"));
            }
        }
    }
    let file = temp_path("admit-queries.csv");
    std::fs::write(&file, queries).expect("query file written");
    for threads in THREADS {
        let out = run(&["admit", file.to_str().unwrap()], threads);
        let summary = String::from_utf8_lossy(&out.stderr);
        // Each queried site compiles exactly once, on its first check.
        assert!(
            summary.contains("720 queries over 36 site(s)")
                && summary.contains("; 36 policy compile(s);"),
            "BOTSCOPE_THREADS={threads}: {summary}"
        );
        assert_eq!(
            sha256_hex(&out.stdout),
            "872ea876724b9538804ca10d196512f7aacab21aab200c2e803e542da743f4fb",
            "BOTSCOPE_THREADS={threads}"
        );
    }
    let _ = std::fs::remove_file(&file);
}
