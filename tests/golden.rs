//! Golden digests of the streamed write paths.
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

fn stdout_of(args: &[&str], threads: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_botscope"))
        .args(args)
        .env("BOTSCOPE_THREADS", threads)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out.stdout
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
