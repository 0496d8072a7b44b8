//! Golden digests of the paper-reproduction binaries.
//!
//! `repro_all` prints every table and figure of the paper and
//! `extensions` the adaptation, promise and honeypot extensions. Each
//! digest below is the SHA-256 of one binary's stdout at its default
//! configuration, checked at `BOTSCOPE_THREADS=1` and `2`, so a change
//! that shifts every code path the same way still fails here.
//!
//! To regenerate after an intentional output change, run
//! `BOTSCOPE_THREADS=1 cargo run --release -p botscope-bench --bin <name>`
//! and take `sha256sum` of its stdout; explain the change in CHANGES.md.

use std::process::Command;

use botscope_obs::digest::sha256_hex;

const THREADS: [&str; 2] = ["1", "2"];

fn assert_stdout_digest(bin: &str, expected: &str) {
    for threads in THREADS {
        let out = Command::new(bin).env("BOTSCOPE_THREADS", threads).output().expect("binary runs");
        assert!(out.status.success(), "{bin}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(sha256_hex(&out.stdout), expected, "{bin}, BOTSCOPE_THREADS={threads}");
    }
}

#[test]
fn repro_all_matches_golden_digest() {
    assert_stdout_digest(
        env!("CARGO_BIN_EXE_repro_all"),
        "3da530c9528abec03ad697ea7ef52f4f757c534659d2f083c87842bfb76cbe76",
    );
}

#[test]
fn extensions_match_golden_digest() {
    assert_stdout_digest(
        env!("CARGO_BIN_EXE_extensions"),
        "a678128b6598455ac11bf634e28199b2c2ed6482061154138a8dbadf668df5dc",
    );
}
