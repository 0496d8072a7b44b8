//! Shared configuration for the reproduction binaries.
//!
//! Every table/figure binary uses the same two scenario configurations so
//! numbers are comparable across binaries and runs:
//!
//! * [`full_config`] — study 1 (paper §3/§5): 36 sites, 46 days, scale
//!   0.1 (≈ a tenth of the paper's raw volume; all shapes preserved),
//! * [`phase_config`] — study 2 (paper §4): the 8-week four-phase
//!   experiment, scale 0.25 so every Table 6 bot clears the ≥5-accesses
//!   filter in every phase.
//!
//! The seed defaults to 9309 and can be overridden with the
//! `BOTSCOPE_SEED` environment variable; scale with `BOTSCOPE_SCALE`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use botscope_core::report::FullStudyReport;
use botscope_core::Experiment;
use botscope_simnet::scenario::full_study_table;
use botscope_simnet::SimConfig;

/// Read an env-var override.
fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Configuration of the 46-day passive study.
pub fn full_config() -> SimConfig {
    SimConfig {
        seed: env_u64("BOTSCOPE_SEED", 9309),
        scale: env_f64("BOTSCOPE_SCALE", 0.1),
        ..SimConfig::default()
    }
}

/// Configuration of the 8-week phase study.
pub fn phase_config() -> SimConfig {
    SimConfig {
        seed: env_u64("BOTSCOPE_SEED", 9309),
        scale: env_f64("BOTSCOPE_SCALE", 0.25),
        ..SimConfig::default()
    }
}

/// Generate the passive study and compute its report.
pub fn full_report() -> FullStudyReport {
    FullStudyReport::from_table(&full_study_table(&full_config()).table)
}

/// Generate and analyze the phase study.
pub fn experiment() -> Experiment {
    Experiment::run(&phase_config())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_valid() {
        full_config().assert_valid();
        phase_config().assert_valid();
    }
}
