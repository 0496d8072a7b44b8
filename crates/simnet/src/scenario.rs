//! Canonical scenarios: the paper's two studies, packaged.
//!
//! * [`full_study_table`] — study 1 (paper §3): the 36-site estate
//!   observed for 46 days under the base robots.txt everywhere. Feeds
//!   Tables 2/3, Figures 2/3/4, the re-check analysis (Figure 10) and the
//!   spoofing analysis (Table 8/9).
//! * [`phase_study_table`] — study 2 (paper §4): the four-version
//!   robots.txt experiment on the high-traffic site, two weeks per
//!   version. Feeds Tables 4/5/6/7/10 and Figures 9/11.
//!
//! Each study also streams into row sinks with bounded memory
//! ([`full_study_stream`], [`phase_study_stream`]).

use std::io;

use botscope_weblog::sink::RowSink;
use botscope_weblog::time::Timestamp;

use crate::config::SimConfig;
use crate::engine::{
    simulate_stream_with_threads, simulate_table, SimStreamOutput, SimTableOutput, StreamOptions,
};
use crate::phases::PhaseSchedule;
use crate::site::EXPERIMENT_SITE;

/// Output of the phase study: the generated table plus the schedule
/// that produced it (the analysis slices per-phase windows out of it).
#[derive(Debug, Clone)]
pub struct PhaseStudyTableOutput {
    /// The generator output, interned.
    pub sim: SimTableOutput,
    /// The 4-phase schedule.
    pub schedule: PhaseSchedule,
}

/// Study 1: passive observation of the whole estate under the base file.
pub fn full_study_table(cfg: &SimConfig) -> SimTableOutput {
    let schedule = PhaseSchedule::always_base(EXPERIMENT_SITE, cfg.start, cfg.end());
    simulate_table(cfg, &schedule)
}

/// [`full_study_table`] streamed straight into sinks with bounded memory:
/// workers spill sorted runs to disk and a k-way merge delivers the
/// canonical row order without materializing the table.
pub fn full_study_stream(
    cfg: &SimConfig,
    threads: usize,
    opts: &StreamOptions,
    sinks: &mut [&mut dyn RowSink],
) -> io::Result<SimStreamOutput> {
    let schedule = PhaseSchedule::always_base(EXPERIMENT_SITE, cfg.start, cfg.end());
    simulate_stream_with_threads(cfg, &schedule, threads, opts, sinks)
}

/// Study 2: the controlled robots.txt experiment. `cfg.start`/`cfg.days`
/// are overridden by the 8-week schedule (starting 2025-01-15, matching
/// the paper's January baseline).
pub fn phase_study_table(cfg: &SimConfig) -> PhaseStudyTableOutput {
    let start = Timestamp::from_date(2025, 1, 15);
    let schedule = PhaseSchedule::paper_schedule(start, EXPERIMENT_SITE);
    let (lo, hi) = schedule.bounds();
    let cfg = SimConfig { start: lo, days: hi.days_since(lo), ..cfg.clone() };
    let sim = simulate_table(&cfg, &schedule);
    PhaseStudyTableOutput { sim, schedule }
}

/// Streaming output of the phase study: planted truth, row count, and
/// the schedule that produced the stream.
#[derive(Debug, Clone)]
pub struct PhaseStudyStreamOutput {
    /// The streaming generator output (truth + row count).
    pub sim: SimStreamOutput,
    /// The 4-phase schedule.
    pub schedule: PhaseSchedule,
}

/// [`phase_study_table`] streamed straight into sinks with bounded memory.
pub fn phase_study_stream(
    cfg: &SimConfig,
    threads: usize,
    opts: &StreamOptions,
    sinks: &mut [&mut dyn RowSink],
) -> io::Result<PhaseStudyStreamOutput> {
    let start = Timestamp::from_date(2025, 1, 15);
    let schedule = PhaseSchedule::paper_schedule(start, EXPERIMENT_SITE);
    let (lo, hi) = schedule.bounds();
    let cfg = SimConfig { start: lo, days: hi.days_since(lo), ..cfg.clone() };
    let sim = simulate_stream_with_threads(&cfg, &schedule, threads, opts, sinks)?;
    Ok(PhaseStudyStreamOutput { sim, schedule })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::PolicyVersion;

    #[test]
    fn full_study_runs() {
        let cfg = SimConfig::test_small();
        let table = full_study_table(&cfg).table;
        assert!(!table.is_empty());
        // Both bot and anonymous traffic present.
        assert!(table.by_useragent().iter().any(|(ua, _)| ua.contains("YisouSpider")));
        assert!(table.rows().iter().any(|r| r.referer.is_some()));
    }

    #[test]
    fn phase_study_covers_eight_weeks() {
        let cfg = SimConfig { days: 0, scale: 0.02, sites: 4, ..SimConfig::default() };
        let out = phase_study_table(&cfg);
        let (lo, hi) = out.schedule.bounds();
        assert_eq!(hi.days_since(lo), 56);
        // Rows exist in every phase window.
        for v in PolicyVersion::ALL {
            let (s, e) = out.schedule.window_of(v).unwrap();
            let in_phase =
                out.sim.table.rows().iter().filter(|r| r.timestamp >= s && r.timestamp < e);
            assert!(in_phase.count() > 0, "no traffic in {v:?}");
        }
    }

    #[test]
    fn phase_study_deterministic() {
        let cfg = SimConfig { scale: 0.02, sites: 4, ..SimConfig::default() };
        let a = phase_study_table(&cfg).sim.table;
        let b = phase_study_table(&cfg).sim.table;
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.to_records(), b.to_records());
    }
}
