//! Coupled simulation: monitored belief state drives traffic generation.
//!
//! The schedule-driven generator hands every bot perfect knowledge of
//! the live robots.txt — impossible in reality, where a crawler knows
//! only what its last fetch returned. The coupled mode closes that gap
//! end to end:
//!
//! 1. the estate's servers follow the *simulation* schedule (the
//!    four-phase experiment on the experiment site) with scenario
//!    weather on top ([`crate::scenario::build_estate_for_schedule`]);
//! 2. the monitoring daemon runs one fetch agent per (bot, site), TTLs
//!    derived from each bot's own re-check cadence
//!    ([`botscope_simnet::behavior::RobotsCheckPolicy`]), and exports a
//!    [`BeliefAtlas`] of per-(bot, site) believed-policy timelines;
//! 3. the traffic generator consults that atlas instead of the
//!    schedule — obedient bots halt through a believed 5xx
//!    disallow-all window, keep crawling on a stale allow-all cache,
//!    and never-checking bots (belief stuck at `Unfetched`) ignore
//!    everything;
//! 4. the output carries both the atlas and the per-site ground-truth
//!    [`BeliefTimeline`]s, so scoring can attribute every served-policy
//!    violation to deliberate defiance, a stale cache, or a fetch-layer
//!    artifact (`botscope-core`'s attribution module).
//!
//! **Determinism.** Every stage is a pure function of the master seed:
//! the daemon's agents and the generator's units are both byte-identical
//! at any `BOTSCOPE_THREADS`, and the atlas between them is data, not
//! execution order. And under always-healthy servers with
//! [`RefreshModel::Instant`], belief ≡ schedule, so the coupled output
//! reduces *byte-identically* to the schedule-driven baseline — the
//! degenerate-equivalence anchor the tests pin.

use botscope_simnet::belief::{BeliefAtlas, BeliefTimeline, ServedOracle};
use botscope_simnet::engine::simulate_table_oracle;
use botscope_simnet::fleet::build_fleet;
use botscope_simnet::site::EXPERIMENT_SITE;
use botscope_simnet::{worker_threads, PhaseSchedule, SimConfig, SimTableOutput};
use botscope_weblog::time::Timestamp;

use crate::daemon::{run_daemon, DaemonRun, MonitorConfig, MonitorStats, TtlPolicy, TtlSource};
use crate::scenario::{build_estate_for_schedule, ScenarioKind};
use crate::transport::VirtualTransport;

/// How bots' beliefs refresh during a coupled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshModel {
    /// Each bot's belief comes from a monitor fetch agent running at
    /// the bot's own re-check cadence — never-checkers never fetch,
    /// weekly checkers go stale for a week. The realistic mode.
    Fleet,
    /// Every bot's belief equals the served policy at every instant (a
    /// cache that refreshes continuously). With healthy servers this
    /// reduces to the schedule-driven baseline; with weather it models
    /// a maximally diligent crawler that still suffers the estate's
    /// 4xx/5xx windows.
    Instant,
}

impl RefreshModel {
    /// Parse a CLI token.
    pub fn parse(s: &str) -> Option<RefreshModel> {
        match s {
            "fleet" => Some(RefreshModel::Fleet),
            "instant" => Some(RefreshModel::Instant),
            _ => None,
        }
    }

    /// CLI token for the model.
    pub fn label(self) -> &'static str {
        match self {
            RefreshModel::Fleet => "fleet",
            RefreshModel::Instant => "instant",
        }
    }
}

/// Coupled-run parameters.
#[derive(Debug, Clone)]
pub struct CoupledConfig {
    /// Traffic-generation parameters. `start`/`days` are overridden by
    /// the 8-week experiment schedule, exactly as
    /// [`botscope_simnet::scenario::phase_study_table`] does.
    pub sim: SimConfig,
    /// Server-side weather scripted over the estate.
    pub scenario: ScenarioKind,
    /// How beliefs refresh.
    pub refresh: RefreshModel,
}

impl Default for CoupledConfig {
    fn default() -> Self {
        CoupledConfig {
            sim: SimConfig::default(),
            scenario: ScenarioKind::Mixed,
            refresh: RefreshModel::Fleet,
        }
    }
}

/// Everything a coupled run produces.
#[derive(Debug, Clone)]
pub struct CoupledOutput {
    /// The generated traffic, driven by monitored beliefs.
    pub sim: SimTableOutput,
    /// The deployment schedule the servers followed.
    pub schedule: PhaseSchedule,
    /// Per-(bot, site) believed-policy timelines (fleet order).
    pub beliefs: BeliefAtlas,
    /// Per-site ground-truth effective-policy timelines (what the
    /// estate actually served, weather resolved per RFC 9309).
    pub served: Vec<BeliefTimeline>,
    /// The belief-collection daemon's counters
    /// ([`RefreshModel::Fleet`] only).
    pub monitor_stats: Option<MonitorStats>,
}

/// Run the coupled pipeline with [`worker_threads`] workers.
pub fn run_coupled(cfg: &CoupledConfig) -> CoupledOutput {
    run_coupled_with_threads(cfg, worker_threads())
}

/// [`run_coupled`] with an explicit worker count. Output is
/// byte-identical for a fixed seed regardless of `threads`.
pub fn run_coupled_with_threads(cfg: &CoupledConfig, threads: usize) -> CoupledOutput {
    let obs = botscope_obs::global();
    // The coupled study runs the paper's 8-week experiment window.
    let start = Timestamp::from_date(2025, 1, 15);
    let schedule = PhaseSchedule::paper_schedule(start, EXPERIMENT_SITE);
    let (lo, hi) = schedule.bounds();
    let mut run_span = obs.span("coupled_run");
    run_span.event_range(lo.unix(), hi.unix() + 86_400);
    let sim_cfg = SimConfig { start: lo, days: hi.days_since(lo), ..cfg.sim.clone() };
    sim_cfg.assert_valid();

    let models = build_estate_for_schedule(
        sim_cfg.seed,
        sim_cfg.sites,
        &schedule,
        cfg.scenario,
        lo,
        sim_cfg.days,
    );
    let transport = VirtualTransport::new(models);
    // Ground truth extends one day past the horizon: sessions that
    // start just before it consult the oracle a few seconds later, and
    // the post-experiment restore-to-Base must be visible to them.
    let served = transport.effective_timelines(lo.unix(), hi.unix() + 86_400);

    let fleet = build_fleet();
    let belief_span = {
        let mut span = obs.phase("coupled_belief_stage");
        span.event_range(lo.unix(), hi.unix());
        span
    };
    let (beliefs, monitor_stats) = match cfg.refresh {
        RefreshModel::Instant => {
            // Generation is driven by `ServedOracle` directly (below);
            // the atlas here is pure data plumbing so attribution and
            // the output carry per-bot beliefs in the same shape as the
            // fleet mode — every bot's timeline IS the served one.
            let bots = fleet.iter().map(|b| b.spec.canonical.to_string()).collect();
            let mut atlas = BeliefAtlas::new(bots, sim_cfg.sites);
            for bot in 0..fleet.len() {
                for (site, timeline) in served.iter().enumerate() {
                    *atlas.timeline_mut(bot, site) = timeline.clone();
                }
            }
            (atlas, None)
        }
        RefreshModel::Fleet => {
            let mon_cfg = MonitorConfig {
                seed: sim_cfg.seed,
                sites: sim_cfg.sites,
                days: sim_cfg.days,
                start: lo,
                bots: fleet.len(),
                // TTLs come from each bot's cadence; the policy field
                // is inert under `TtlSource::FleetCadence`.
                ttl: TtlPolicy::Spectrum,
                scenario: cfg.scenario,
                // The served timelines come from the schedule-driven
                // transport above; the swap pattern is inert too.
                swap_every: 0,
            };
            let run = DaemonRun {
                cfg: &mon_cfg,
                fleet: &fleet,
                transport: &transport,
                ttl: TtlSource::FleetCadence,
                collect_beliefs: true,
            };
            let (out, atlas) = run_daemon(&run, threads);
            (atlas.expect("beliefs collected"), Some(out.stats))
        }
    };

    drop(belief_span);
    obs.counter("coupled_belief_transitions_total").add(beliefs.total_transitions() as u64);

    let sim = {
        let mut span = obs.phase("coupled_generate_stage");
        span.event_range(lo.unix(), hi.unix() + 86_400);
        match cfg.refresh {
            RefreshModel::Instant => {
                simulate_table_oracle(&sim_cfg, &ServedOracle { sites: &served }, threads)
            }
            RefreshModel::Fleet => simulate_table_oracle(&sim_cfg, &beliefs, threads),
        }
    };
    obs.counter("coupled_records_total").add(sim.table.len() as u64);
    CoupledOutput { sim, schedule, beliefs, served, monitor_stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_simnet::belief::BelievedPolicy;
    use botscope_simnet::scenario::phase_study_table;
    use botscope_simnet::PolicyVersion;

    fn small_sim() -> SimConfig {
        SimConfig {
            scale: 0.05,
            sites: 4,
            spoofing: false,
            anon_traffic: false,
            ..SimConfig::default()
        }
    }

    #[test]
    fn degenerate_equivalence_with_schedule_driven_path() {
        // Always-healthy servers + instant refresh ⇒ every bot believes
        // exactly the scheduled policy ⇒ the coupled output must be
        // byte-identical to the schedule-driven phase study.
        let cfg = CoupledConfig {
            sim: small_sim(),
            scenario: ScenarioKind::Stable,
            refresh: RefreshModel::Instant,
        };
        let coupled = run_coupled_with_threads(&cfg, 2);
        let baseline = phase_study_table(&cfg.sim);
        assert_eq!(coupled.schedule, baseline.schedule);
        assert_eq!(coupled.sim.table.rows(), baseline.sim.table.rows());
        assert_eq!(coupled.sim.table.to_records(), baseline.sim.table.to_records());
    }

    #[test]
    fn coupled_is_deterministic_across_worker_counts() {
        let cfg = CoupledConfig {
            sim: small_sim(),
            scenario: ScenarioKind::Mixed,
            refresh: RefreshModel::Fleet,
        };
        let serial = run_coupled_with_threads(&cfg, 1);
        for threads in [2, 8] {
            let parallel = run_coupled_with_threads(&cfg, threads);
            assert_eq!(serial.sim.table.rows(), parallel.sim.table.rows(), "{threads} workers");
            assert_eq!(serial.sim.table.to_records(), parallel.sim.table.to_records());
            assert_eq!(serial.beliefs, parallel.beliefs);
            assert_eq!(serial.served, parallel.served);
            assert_eq!(serial.monitor_stats, parallel.monitor_stats);
        }
    }

    #[test]
    fn fleet_refresh_leaves_never_checkers_unfetched() {
        let cfg = CoupledConfig {
            sim: small_sim(),
            scenario: ScenarioKind::Stable,
            refresh: RefreshModel::Fleet,
        };
        let out = run_coupled_with_threads(&cfg, 2);
        // axios never fetches robots.txt: its belief never leaves
        // Unfetched on any site.
        let axios = out.beliefs.bots.iter().position(|b| b == "Axios").expect("axios in fleet");
        for site in 0..out.beliefs.n_sites() {
            assert_eq!(out.beliefs.timeline(axios, site).transitions(), 0);
        }
        // A checking bot's belief tracks the experiment site's swaps.
        let gpt = out.beliefs.bots.iter().position(|b| b == "GPTBot").expect("GPTBot in fleet");
        let tl = out.beliefs.timeline(gpt, EXPERIMENT_SITE);
        assert!(tl.transitions() >= 4, "GPTBot re-checks daily, must see the swaps: {tl:?}");
        // No fetch events on the generated side are affected: the log
        // still contains GPTBot robots.txt rows.
        assert!(out
            .sim
            .table
            .to_records()
            .iter()
            .any(|r| r.useragent.contains("GPTBot") && r.is_robots_fetch()));
    }

    #[test]
    fn stale_belief_keeps_obedient_bot_crawling_under_disallow() {
        // Belief-vs-schedule divergence in its purest form: every bot's
        // belief is pinned to the Base policy forever (a cache that
        // never expires). Fully obedient bots then keep crawling pages
        // straight through the served v3 disallow-all phase — the
        // "honest violation from a stale cache" the coupled layer
        // exists to produce.
        let sim = small_sim();
        let fleet = build_fleet();
        let bots: Vec<String> = fleet.iter().map(|b| b.spec.canonical.to_string()).collect();
        let mut atlas = BeliefAtlas::new(bots, sim.sites);
        for bot in 0..fleet.len() {
            for site in 0..sim.sites {
                *atlas.timeline_mut(bot, site) =
                    BeliefTimeline::always(BelievedPolicy::Version(PolicyVersion::Base));
            }
        }
        let start = Timestamp::from_date(2025, 1, 15);
        let schedule = PhaseSchedule::paper_schedule(start, EXPERIMENT_SITE);
        let (lo, hi) = schedule.bounds();
        let sim_cfg = SimConfig { start: lo, days: hi.days_since(lo), ..sim };
        let stale = simulate_table_oracle(&sim_cfg, &atlas, 2);
        let baseline = phase_study_table(&sim_cfg);

        let (v3_lo, v3_hi) = schedule.window_of(PolicyVersion::V3DisallowAll).unwrap();
        let exp_site = "site-00.example.edu";
        let v3_pages = |records: &[botscope_weblog::record::AccessRecord]| {
            records
                .iter()
                .filter(|r| {
                    r.useragent.contains("ChatGPT-User")
                        && r.sitename == exp_site
                        && !r.is_robots_fetch()
                        && r.timestamp >= v3_lo
                        && r.timestamp < v3_hi
                })
                .count()
        };
        let stale_pages = v3_pages(&stale.table.to_records());
        let informed_pages = v3_pages(&baseline.sim.table.to_records());
        assert_eq!(informed_pages, 0, "fully obedient bot halts when it knows about v3");
        assert!(
            stale_pages > 0,
            "the same bot keeps crawling on a stale Base belief ({stale_pages} pages)"
        );
    }

    #[test]
    fn believed_disallow_window_halts_obedient_bot() {
        // A scripted 5xx episode, as belief: ChatGPT-User believes
        // disallow-all for two mid-study days on every site; the
        // headless browser (disallow compliance ≈ 0) ignores the same
        // belief. Pages stop for the former and not the latter — the
        // engine-level half of the "obedient bot halts through a 5xx
        // window" scenario.
        let sim = SimConfig { days: 6, scale: 0.3, sites: 3, ..small_sim() };
        let fleet = build_fleet();
        let bots: Vec<String> = fleet.iter().map(|b| b.spec.canonical.to_string()).collect();
        let mut atlas = BeliefAtlas::new(bots, sim.sites);
        let w_lo = sim.start.plus_secs(2 * 86_400).unix();
        let w_hi = sim.start.plus_secs(4 * 86_400).unix();
        for (bot, spec) in fleet.iter().enumerate() {
            for site in 0..sim.sites {
                let tl = atlas.timeline_mut(bot, site);
                tl.record(0, BelievedPolicy::Version(PolicyVersion::Base));
                if matches!(spec.spec.canonical, "ChatGPT-User" | "HeadlessChrome") {
                    tl.record(w_lo, BelievedPolicy::DisallowAll);
                    tl.record(w_hi, BelievedPolicy::Version(PolicyVersion::Base));
                }
            }
        }
        let out = simulate_table_oracle(&sim, &atlas, 2);
        let records = out.table.to_records();
        let pages_in_window = |needle: &str| {
            records
                .iter()
                .filter(|r| {
                    r.useragent.contains(needle)
                        && !r.is_robots_fetch()
                        && r.timestamp.unix() >= w_lo
                        && r.timestamp.unix() < w_hi
                })
                .count()
        };
        assert_eq!(pages_in_window("ChatGPT-User"), 0, "obedient bot halts through the window");
        assert!(pages_in_window("HeadlessChrome") > 0, "defiant bot crawls straight through");
        // Outside the window the obedient bot crawls normally.
        let after = records
            .iter()
            .filter(|r| {
                r.useragent.contains("ChatGPT-User")
                    && !r.is_robots_fetch()
                    && r.timestamp.unix() >= w_hi
            })
            .count();
        assert!(after > 0, "crawling resumes once the belief recovers");
    }
}
