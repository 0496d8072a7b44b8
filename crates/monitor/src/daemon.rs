//! The monitoring daemon: an event-driven fetch scheduler over a
//! virtual clock.
//!
//! One *fetch agent* runs per (bot, site): it owns a [`RobotsCache`]
//! with a TTL sampled from the paper's observed 12 h–never re-check
//! spectrum (§5.1, Figure 10), fetches the site's robots.txt through
//! the [`VirtualTransport`], re-resolves its effective policy via
//! [`EffectivePolicy::from_outcome`], backs off exponentially on
//! `ServerError`/`NetworkError`, and detects served-policy swaps (the
//! transitions [`crate::transport::ServerModel`] scripts), which are
//! digested through `robotstxt::diff` into [`ChangeDigest`]s.
//!
//! **Scheduling.** Each agent's due times sit in a binary-heap event
//! queue keyed `(time, agent)`. The queue is sharded: agents are split
//! into fixed-size chunks (the chunk grid is independent of the worker
//! count), chunks are processed by `std::thread::scope` workers, and
//! per-chunk [`FetchEventLog`] shards are absorbed in chunk order and
//! canonically sorted. Because every agent stream derives from
//! `child_seed(seed, agent)` and the transport is a pure function of
//! `(site, time, agent)`, output is byte-identical for a fixed seed at
//! any worker count.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use botscope_asn::ip_for;
use botscope_robotstxt::analysis::{classify_change, ChangeClass};
use botscope_robotstxt::diff::{diff, summarize, PolicyChange};
use botscope_robotstxt::fetch::{EffectivePolicy, FetchOutcome, RobotsCache};
use botscope_simnet::belief::{BeliefAtlas, BeliefTimeline, BelievedPolicy};
use botscope_simnet::fleet::{build_fleet, SimBot};
use botscope_simnet::{child_seed, worker_threads, PolicyVersion};
use botscope_weblog::fetchlog::FetchEventLog;
use botscope_weblog::intern::Sym;
use botscope_weblog::iphash::IpHasher;
use botscope_weblog::table::LogTable;
use botscope_weblog::time::Timestamp;

use crate::scenario::{build_estate, ScenarioKind};
use crate::transport::{Validators, VirtualTransport};

/// TTL sentinel: fetch once, never re-fetch.
pub const NEVER: u64 = u64::MAX;

/// Distinguishes per-agent streams from per-site scenario streams.
const AGENT_STREAM: u64 = 0xA6E7_0000_0000_0000;

/// Agents per scheduler chunk: a pure function of the agent count (it
/// must NOT depend on the worker count) so shard boundaries — and
/// therefore the merged output — are identical at any
/// `BOTSCOPE_THREADS`. Small estates still split into several chunks,
/// so the parallel shard scheduler and the k-way merge over shard runs
/// are always exercised.
fn chunk_agents(n_agents: usize) -> usize {
    (n_agents / 64).clamp(16, 4096)
}

/// First retry delay after a failed fetch; doubles per consecutive
/// failure up to `300 << 7` = 38 400 s, additionally capped by the
/// agent's TTL and by 12 h.
const BACKOFF_BASE_SECS: u64 = 300;

/// How each agent's re-check TTL is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtlPolicy {
    /// Sample from the paper's observed spectrum: 12 h/24 h/48 h/72 h/
    /// 168 h/never with weights 5/20/15/20/20/20 %.
    Spectrum,
    /// Every agent uses this many hours.
    FixedHours(u64),
}

impl TtlPolicy {
    /// Parse a CLI token: `spectrum` or an hour count.
    pub fn parse(s: &str) -> Option<TtlPolicy> {
        if s == "spectrum" {
            return Some(TtlPolicy::Spectrum);
        }
        s.parse::<u64>().ok().filter(|&h| h >= 1).map(TtlPolicy::FixedHours)
    }
}

/// (hours, percent weight); `None` hours = never re-fetch.
const TTL_SPECTRUM: [(Option<u64>, u32); 6] =
    [(Some(12), 5), (Some(24), 20), (Some(48), 15), (Some(72), 20), (Some(168), 20), (None, 20)];

fn sample_ttl_secs(policy: TtlPolicy, rng: &mut StdRng) -> u64 {
    match policy {
        TtlPolicy::FixedHours(h) => h.max(1) * 3600,
        TtlPolicy::Spectrum => {
            let roll = rng.gen_range(0u32..100);
            let mut acc = 0;
            for (hours, weight) in TTL_SPECTRUM {
                acc += weight;
                if roll < acc {
                    return hours.map_or(NEVER, |h| h * 3600);
                }
            }
            unreachable!("spectrum weights sum to 100")
        }
    }
}

/// Monitoring-run parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Master seed; every stream derives from it.
    pub seed: u64,
    /// Estate size (sites to monitor).
    pub sites: usize,
    /// Horizon in simulated days.
    pub days: u64,
    /// First instant.
    pub start: Timestamp,
    /// Number of fleet bots to run agents for (top of the registry by
    /// calibrated daily volume).
    pub bots: usize,
    /// TTL sampling policy.
    pub ttl: TtlPolicy,
    /// Server-side weather.
    pub scenario: ScenarioKind,
    /// Every Nth site deploys the four-phase swap schedule (0 = none).
    pub swap_every: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            seed: 9309,
            sites: 36,
            days: 46,
            start: Timestamp::from_date(2025, 2, 12),
            bots: 6,
            ttl: TtlPolicy::Spectrum,
            scenario: ScenarioKind::Mixed,
            swap_every: 4,
        }
    }
}

impl MonitorConfig {
    /// End of the horizon (exclusive), unix seconds.
    pub fn horizon_end(&self) -> u64 {
        self.start.unix() + self.days * 86_400
    }

    /// Validate invariants; panics on caller logic errors.
    pub fn assert_valid(&self) {
        assert!(self.sites > 0, "no sites to monitor");
        assert!(self.days > 0, "zero-day horizon");
        assert!(self.bots > 0, "no bots to monitor with");
    }
}

/// Aggregate counters of a monitoring run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Fetch agents scheduled.
    pub agents: u64,
    /// Fetch attempts performed (rows emitted).
    pub fetches: u64,
    /// 2xx outcomes.
    pub success: u64,
    /// Subset of `success` that only re-validated an unchanged body —
    /// a conditional request answered `304 Not Modified`, whether the
    /// body sits at the origin or behind a redirect chain.
    pub revalidated: u64,
    /// Body bytes the estate never transferred because conditional
    /// requests were answered `304 Not Modified`.
    pub revalidated_bytes_saved: u64,
    /// Resolved 4xx outcomes (includes redirect-capped chains).
    pub client_errors: u64,
    /// Resolved 5xx outcomes.
    pub server_errors: u64,
    /// Transport-level failures.
    pub network_errors: u64,
    /// Redirect hops followed across all fetches.
    pub redirects_followed: u64,
    /// Chains abandoned at the RFC 9309 five-hop budget.
    pub redirects_capped: u64,
    /// Fetches scheduled by the failure backoff (rather than the TTL).
    pub backoff_retries: u64,
    /// Policy transitions observed by agents (pre-deduplication).
    pub policy_changes_observed: u64,
    /// Summed seeded latency, milliseconds.
    pub latency_ms_sum: u64,
    /// Worst seeded latency, milliseconds.
    pub latency_ms_max: u32,
}

impl MonitorStats {
    fn merge(&mut self, other: &MonitorStats) {
        self.agents += other.agents;
        self.fetches += other.fetches;
        self.success += other.success;
        self.revalidated += other.revalidated;
        self.revalidated_bytes_saved += other.revalidated_bytes_saved;
        self.client_errors += other.client_errors;
        self.server_errors += other.server_errors;
        self.network_errors += other.network_errors;
        self.redirects_followed += other.redirects_followed;
        self.redirects_capped += other.redirects_capped;
        self.backoff_retries += other.backoff_retries;
        self.policy_changes_observed += other.policy_changes_observed;
        self.latency_ms_sum += other.latency_ms_sum;
        self.latency_ms_max = self.latency_ms_max.max(other.latency_ms_max);
    }
}

/// One deduplicated served-policy transition, digested via
/// `robotstxt::diff` over the monitored bots.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeDigest {
    /// Site that swapped its file.
    pub site: String,
    /// Unix second of the first fetch that observed the new file.
    pub at: u64,
    /// Previous version.
    pub from: PolicyVersion,
    /// New version.
    pub to: PolicyVersion,
    /// How many agents observed this transition.
    pub observers: u64,
    /// Probes that flipped allow → deny.
    pub tightened: usize,
    /// Probes that flipped deny → allow.
    pub loosened: usize,
    /// Agents whose crawl delay changed.
    pub delay_changes: usize,
    /// Semantic classification of the transition: cosmetic edits are
    /// decision-equivalent for every agent and path, behavioral ones are
    /// not (proven by `robotstxt::analysis::classify_change`).
    pub class: ChangeClass,
}

/// The daemon's output.
#[derive(Debug, Clone)]
pub struct MonitorOutput {
    /// Every fetch event, canonically sorted, with its interner.
    pub table: LogTable,
    /// Deduplicated policy transitions in (time, site) order.
    pub changes: Vec<ChangeDigest>,
    /// Aggregate counters.
    pub stats: MonitorStats,
    /// End of the monitored horizon (unix seconds) — the recheck
    /// analyses anchor their windows on it.
    pub horizon_end: u64,
    /// Canonical names of the monitored bots.
    pub bots: Vec<String>,
    /// Per-site policy deployment windows (site name → time-ascending
    /// `(version, from, to)` spans clipped to the horizon) — what
    /// Table 7's "checked robots.txt while vN was live" columns are
    /// judged against.
    pub site_windows: BTreeMap<String, Vec<(PolicyVersion, u64, u64)>>,
}

/// The monitored sub-fleet: the `n` highest-volume calibrated bots
/// (deterministic: volume descending, name ascending).
pub fn monitor_fleet(n: usize) -> Vec<SimBot> {
    let mut fleet = build_fleet();
    fleet.sort_by(|a, b| {
        b.behavior
            .daily_hits
            .total_cmp(&a.behavior.daily_hits)
            .then_with(|| a.spec.canonical.cmp(b.spec.canonical))
    });
    fleet.truncate(n.max(1));
    fleet
}

/// One (bot, site) fetch agent.
struct Agent {
    site: u32,
    ua: Sym,
    asn: Sym,
    site_sym: Sym,
    ip_hash: u64,
    ttl_secs: u64,
    rng: StdRng,
    cache: RobotsCache,
    consecutive_failures: u32,
    /// Version of the last *successful* body — the change-detection
    /// baseline. Deliberately survives error outcomes, so a swap that
    /// happens behind an outage is still detected on recovery.
    last_version: Option<PolicyVersion>,
    /// Whether the cache currently holds the parsed policy of
    /// `last_version` (false after an error stored AllowAll/DisallowAll).
    /// Guards both revalidation paths: after an error the agent must
    /// neither send validators nor take the same-body shortcut — a
    /// success must re-store the parsed policy.
    cache_is_policy: bool,
    /// `ETag`/`Last-Modified` of the cached body, replayed as a
    /// conditional request while `cache_is_policy` holds.
    validators: Option<Validators>,
    /// The agent's belief transitions, when the run collects them.
    beliefs: Option<BeliefTimeline>,
}

impl Agent {
    fn believe(&mut self, now: u64, policy: BelievedPolicy) {
        if let Some(timeline) = &mut self.beliefs {
            timeline.record(now, policy);
        }
    }
}

/// Key of an observed transition: (site, from, to).
type ChangeKey = (u32, u8, u8);

struct Shard {
    log: FetchEventLog,
    stats: MonitorStats,
    /// transition → (first observation time, observers).
    changes: BTreeMap<ChangeKey, (u64, u64)>,
    /// Per-agent belief timelines (chunk-local order; empty unless the
    /// run collects beliefs).
    beliefs: Vec<BeliefTimeline>,
}

/// How a run assigns each agent's re-check TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TtlSource {
    /// Sample per agent from the run's [`TtlPolicy`] (the monitoring
    /// daemon's default).
    Config,
    /// Derive each agent's TTL from its bot's own
    /// [`botscope_simnet::behavior::RobotsCheckPolicy`] cadence;
    /// never-checking bots schedule no fetches at all and their belief
    /// stays `Unfetched` (coupled mode).
    FleetCadence,
}

/// A fully specified daemon run. The public entry points and the
/// coupled driver both build one of these; everything downstream —
/// chunk grid, scheduling, merging — is shared.
pub(crate) struct DaemonRun<'a> {
    pub(crate) cfg: &'a MonitorConfig,
    pub(crate) fleet: &'a [SimBot],
    pub(crate) transport: &'a VirtualTransport,
    pub(crate) ttl: TtlSource,
    pub(crate) collect_beliefs: bool,
}

/// Run the daemon with [`worker_threads`] workers.
pub fn run(cfg: &MonitorConfig) -> MonitorOutput {
    run_with_threads(cfg, worker_threads())
}

/// [`run`] with an explicit worker count. Output is byte-identical for
/// a fixed seed regardless of `threads`.
pub fn run_with_threads(cfg: &MonitorConfig, threads: usize) -> MonitorOutput {
    cfg.assert_valid();
    let fleet = monitor_fleet(cfg.bots);
    let transport = VirtualTransport::new(build_estate(cfg));
    let run = DaemonRun {
        cfg,
        fleet: &fleet,
        transport: &transport,
        ttl: TtlSource::Config,
        collect_beliefs: false,
    };
    run_daemon(&run, threads).0
}

/// [`run_with_threads`], additionally exporting every agent's
/// [`BeliefTimeline`] as a [`BeliefAtlas`] — the stepwise per-(bot,
/// site) effective policy each monitored crawler believed over the
/// horizon, RFC 9309 error states and backoff gaps included.
pub fn run_with_beliefs(cfg: &MonitorConfig, threads: usize) -> (MonitorOutput, BeliefAtlas) {
    cfg.assert_valid();
    let fleet = monitor_fleet(cfg.bots);
    let transport = VirtualTransport::new(build_estate(cfg));
    let run = DaemonRun {
        cfg,
        fleet: &fleet,
        transport: &transport,
        ttl: TtlSource::Config,
        collect_beliefs: true,
    };
    let (output, atlas) = run_daemon(&run, threads);
    (output, atlas.expect("beliefs collected"))
}

/// Run the chunked scheduler and return per-chunk shards in chunk-grid
/// order.
fn run_shards(run: &DaemonRun<'_>, hasher: &IpHasher, threads: usize) -> Vec<Shard> {
    assert!(threads >= 1, "at least one worker required");
    let n_agents = run.cfg.sites * run.fleet.len();
    let chunk_size = chunk_agents(n_agents);
    let n_chunks = n_agents.div_ceil(chunk_size);

    let run_chunk = |chunk: usize| -> Shard {
        let lo = chunk * chunk_size;
        let hi = (lo + chunk_size).min(n_agents);
        run_agents(run, hasher, lo, hi)
    };

    let threads = threads.min(n_chunks.max(1));
    if threads == 1 {
        return (0..n_chunks).map(run_chunk).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Shard)>> = Mutex::new(Vec::with_capacity(n_chunks));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let chunk = next.fetch_add(1, Ordering::Relaxed);
                if chunk >= n_chunks {
                    break;
                }
                let shard = run_chunk(chunk);
                results.lock().expect("no poisoned workers").push((chunk, shard));
            });
        }
    });
    let mut shards = results.into_inner().expect("workers joined");
    // Merge must follow the fixed chunk grid, not completion order.
    shards.sort_by_key(|&(chunk, _)| chunk);
    shards.into_iter().map(|(_, shard)| shard).collect()
}

/// The counters, deduplicated transitions, and deployment windows every
/// assembly path shares (materialized and streaming).
fn merge_shard_summaries(
    run: &DaemonRun<'_>,
    shards: &[Shard],
) -> (MonitorStats, Vec<ChangeDigest>) {
    let mut stats = MonitorStats::default();
    let mut merged_changes: BTreeMap<ChangeKey, (u64, u64)> = BTreeMap::new();
    for shard in shards {
        stats.merge(&shard.stats);
        for (key, &(at, observers)) in &shard.changes {
            let entry = merged_changes.entry(*key).or_insert((at, 0));
            entry.0 = entry.0.min(at);
            entry.1 += observers;
        }
    }
    (stats, digest_changes(run.transport, run.fleet, merged_changes))
}

/// Per-site deployment windows, clipped to the run's horizon.
fn site_windows_of(run: &DaemonRun<'_>) -> BTreeMap<String, Vec<(PolicyVersion, u64, u64)>> {
    let horizon_end = run.cfg.horizon_end();
    (0..run.transport.len())
        .map(|site| {
            let model = run.transport.model(site);
            (model.name.clone(), model.policy.version_windows(horizon_end))
        })
        .collect()
}

/// The deployment windows `cfg` *would* produce, without running the
/// daemon: rebuilds the scripted estate (cheap — O(sites)) and reads
/// each site's version windows. Streaming callers use this to construct
/// report sinks *before* the run starts, since [`run_streaming`] owns
/// its transport internally.
pub fn config_site_windows(
    cfg: &MonitorConfig,
) -> BTreeMap<String, Vec<(PolicyVersion, u64, u64)>> {
    cfg.assert_valid();
    let transport = VirtualTransport::new(build_estate(cfg));
    let horizon_end = cfg.horizon_end();
    (0..transport.len())
        .map(|site| {
            let model = transport.model(site);
            (model.name.clone(), model.policy.version_windows(horizon_end))
        })
        .collect()
}

/// Flush a finished run's aggregate counters into the global telemetry
/// registry. Counters are additive, so repeated runs in one process
/// (test harnesses, the coupled driver) accumulate; the per-scenario
/// change-digest counter keys on the scenario label so mixed workloads
/// stay distinguishable in one exposition.
fn export_telemetry(cfg: &MonitorConfig, stats: &MonitorStats, changes: &[ChangeDigest]) {
    let obs = botscope_obs::global();
    obs.counter("monitor_agents_total").add(stats.agents);
    obs.counter("monitor_fetches_total").add(stats.fetches);
    obs.counter("monitor_fetch_outcomes_total{class=\"2xx\"}").add(stats.success);
    obs.counter("monitor_fetch_outcomes_total{class=\"4xx\"}").add(stats.client_errors);
    obs.counter("monitor_fetch_outcomes_total{class=\"5xx\"}").add(stats.server_errors);
    obs.counter("monitor_fetch_outcomes_total{class=\"network\"}").add(stats.network_errors);
    obs.counter("monitor_cache_revalidations_total").add(stats.revalidated);
    obs.counter("monitor_revalidated_bytes_saved_total").add(stats.revalidated_bytes_saved);
    obs.counter("monitor_redirects_followed_total").add(stats.redirects_followed);
    obs.counter("monitor_redirects_capped_total").add(stats.redirects_capped);
    obs.counter("monitor_backoff_retries_total").add(stats.backoff_retries);
    // Every fetch is scheduled by exactly one of: the agent's first
    // probe, its TTL expiring, or the failure backoff.
    let ttl_expiries = stats.fetches.saturating_sub(stats.agents + stats.backoff_retries);
    obs.counter("monitor_ttl_expiry_fetches_total").add(ttl_expiries);
    obs.counter("monitor_policy_changes_observed_total").add(stats.policy_changes_observed);
    let scenario = cfg.scenario.label();
    obs.counter(&format!("monitor_change_digests_total{{scenario=\"{scenario}\"}}"))
        .add(changes.len() as u64);
    let behavioral = changes.iter().filter(|c| c.class == ChangeClass::Behavioral).count();
    obs.counter(&format!("monitor_behavioral_digests_total{{scenario=\"{scenario}\"}}"))
        .add(behavioral as u64);
}

/// Run to completion and assemble the merged output (plus the belief
/// atlas when the run collects beliefs).
pub(crate) fn run_daemon(
    run: &DaemonRun<'_>,
    threads: usize,
) -> (MonitorOutput, Option<BeliefAtlas>) {
    let obs = botscope_obs::global();
    let mut span = obs.span("monitor_run");
    span.event_range(run.cfg.start.unix(), run.cfg.horizon_end());
    let hasher = IpHasher::from_seed(run.cfg.seed);
    let shards = run_shards(run, &hasher, threads);
    let (stats, changes) = merge_shard_summaries(run, &shards);
    export_telemetry(run.cfg, &stats, &changes);

    let total_rows: usize = shards.iter().map(|s| s.log.len()).sum();
    let mut table = LogTable::with_capacity(total_rows, 1024);
    for shard in &shards {
        table.absorb(shard.log.table());
    }
    table.sort_canonical();

    let atlas = run.collect_beliefs.then(|| {
        let n_bots = run.fleet.len();
        let bots = run.fleet.iter().map(|b| b.spec.canonical.to_string()).collect();
        let mut atlas = BeliefAtlas::new(bots, run.cfg.sites);
        let n_agents = run.cfg.sites * n_bots;
        let chunk_size = chunk_agents(n_agents);
        for (chunk, shard) in shards.iter().enumerate() {
            let lo = chunk * chunk_size;
            for (local, timeline) in shard.beliefs.iter().enumerate() {
                let global = lo + local;
                // Agents are site-major; the atlas is bot-major.
                *atlas.timeline_mut(global % n_bots, global / n_bots) = timeline.clone();
            }
        }
        atlas
    });

    let output = MonitorOutput {
        table,
        changes,
        stats,
        horizon_end: run.cfg.horizon_end(),
        bots: run.fleet.iter().map(|b| b.spec.canonical.to_string()).collect(),
        site_windows: site_windows_of(run),
    };
    (output, atlas)
}

/// A streaming run's summary: everything [`MonitorOutput`] carries
/// except the materialized table, which went to the sinks row by row.
#[derive(Debug, Clone)]
pub struct MonitorSummary {
    /// Aggregate counters.
    pub stats: MonitorStats,
    /// Deduplicated policy transitions in (time, site) order.
    pub changes: Vec<ChangeDigest>,
    /// End of the monitored horizon (unix seconds).
    pub horizon_end: u64,
    /// Canonical names of the monitored bots.
    pub bots: Vec<String>,
    /// Per-site policy deployment windows (cf.
    /// [`MonitorOutput::site_windows`]).
    pub site_windows: BTreeMap<String, Vec<(PolicyVersion, u64, u64)>>,
    /// Rows streamed to each sink.
    pub rows: u64,
}

/// [`run_with_threads`], streaming every fetch event to `sinks` in the
/// canonical output order instead of materializing the merged
/// [`LogTable`]. The per-chunk shards are canonically sorted and k-way
/// merged (ties break on the fixed chunk grid, reproducing the
/// materialized path's stable sort exactly), so the streamed bytes are
/// identical to encoding [`MonitorOutput::table`] — at roughly half the
/// peak memory, since the merged table and its encoded copy never
/// exist.
pub fn run_streaming(
    cfg: &MonitorConfig,
    threads: usize,
    sinks: &mut [&mut dyn botscope_weblog::sink::RowSink],
) -> std::io::Result<MonitorSummary> {
    cfg.assert_valid();
    let fleet = monitor_fleet(cfg.bots);
    let transport = VirtualTransport::new(build_estate(cfg));
    let run = DaemonRun {
        cfg,
        fleet: &fleet,
        transport: &transport,
        ttl: TtlSource::Config,
        collect_beliefs: false,
    };
    let obs = botscope_obs::global();
    let mut span = obs.span("monitor_run");
    span.event_range(cfg.start.unix(), cfg.horizon_end());
    let hasher = IpHasher::from_seed(cfg.seed);
    let shards = run_shards(&run, &hasher, threads);
    let (stats, changes) = merge_shard_summaries(&run, &shards);
    export_telemetry(cfg, &stats, &changes);
    let site_windows = site_windows_of(&run);

    // Each shard becomes one canonically sorted run (MergeRun::from_table
    // sorts stably, so full ties keep push order); the shared k-way merge
    // tiebreaks on run index — exactly the order `concatenate in chunk
    // order + stable sort` produces in the materialized path.
    let runs: Vec<botscope_weblog::MergeRun> = shards
        .into_iter()
        .map(|shard| botscope_weblog::MergeRun::from_table(shard.log.into_table()))
        .collect();
    let rows = botscope_weblog::merge_runs(runs, sinks)?;

    Ok(MonitorSummary {
        stats,
        changes,
        horizon_end: cfg.horizon_end(),
        bots: fleet.iter().map(|b| b.spec.canonical.to_string()).collect(),
        site_windows,
        rows,
    })
}

/// Paths probed when digesting a policy transition: one representative
/// of each family the experimental files regulate.
const PROBE_PATHS: [&str; 6] = [
    "/",
    "/news/item-001",
    "/people/person-0001",
    "/page-data/item-001/page-data.json",
    "/secure/admin-0",
    "/404",
];

/// Deduplicate observed transitions and summarize each through
/// `robotstxt::diff` (the 4×4 version matrix is memoized — a 100k-site
/// estate has at most 12 distinct transitions).
fn digest_changes(
    transport: &VirtualTransport,
    fleet: &[SimBot],
    merged: BTreeMap<ChangeKey, (u64, u64)>,
) -> Vec<ChangeDigest> {
    let mut agents: Vec<&str> = fleet.iter().map(|b| b.spec.canonical).collect();
    agents.push("anybot");
    let mut matrix: BTreeMap<(u8, u8), (usize, usize, usize, ChangeClass)> = BTreeMap::new();
    let mut changes: Vec<ChangeDigest> = merged
        .into_iter()
        .map(|((site, from, to), (at, observers))| {
            let (tightened, loosened, delay_changes, class) =
                *matrix.entry((from, to)).or_insert_with(|| {
                    let old = transport.corpus().doc(PolicyVersion::ALL[from as usize]);
                    let new = transport.corpus().doc(PolicyVersion::ALL[to as usize]);
                    let probe = diff(old, new, &agents, &PROBE_PATHS);
                    let (tightened, loosened) = summarize(&probe);
                    let delays = probe
                        .iter()
                        .filter(|c| matches!(c, PolicyChange::CrawlDelayChanged { .. }))
                        .count();
                    (tightened, loosened, delays, classify_change(old, new))
                });
            ChangeDigest {
                site: transport.model(site as usize).name.clone(),
                at,
                from: PolicyVersion::ALL[from as usize],
                to: PolicyVersion::ALL[to as usize],
                observers,
                tightened,
                loosened,
                delay_changes,
                class,
            }
        })
        .collect();
    changes.sort_by(|a, b| (a.at, &a.site, a.from, a.to).cmp(&(b.at, &b.site, b.from, b.to)));
    changes
}

/// Run agents `[lo, hi)` to completion, returning their shard.
fn run_agents(run: &DaemonRun<'_>, hasher: &IpHasher, lo: usize, hi: usize) -> Shard {
    let DaemonRun { cfg, fleet, transport, .. } = *run;
    let n_bots = fleet.len();
    let horizon = cfg.horizon_end();
    let mut log = FetchEventLog::new();

    // Per-bot fixed symbols, interned once per shard.
    let bot_syms: Vec<(Sym, Sym)> =
        fleet.iter().map(|b| (log.intern(&b.ua_string), log.intern(b.spec.home_asn))).collect();

    let mut agents: Vec<Agent> = Vec::with_capacity(hi - lo);
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(hi - lo);
    for global in lo..hi {
        let site = global / n_bots;
        let bot = &fleet[global % n_bots];
        let mut rng = StdRng::seed_from_u64(child_seed(cfg.seed, AGENT_STREAM ^ global as u64));
        // `None` = this bot never fetches robots.txt at all: no events
        // are scheduled and its belief stays `Unfetched` forever.
        let ttl_secs = match run.ttl {
            TtlSource::Config => Some(sample_ttl_secs(cfg.ttl, &mut rng)),
            TtlSource::FleetCadence => bot.behavior.robots_check.ttl_secs(),
        };
        // First fetch lands inside one TTL window (a day for the
        // never-refetch cohort) so the estate doesn't fetch in lockstep.
        let first_window = ttl_secs.unwrap_or(NEVER).clamp(1, 86_400);
        let first = cfg.start.unix() + rng.gen_range(0..first_window);
        let ip = ip_for(bot.spec.home_asn, rng.gen_range(0..bot.behavior.ip_pool))
            .unwrap_or_else(|| panic!("unknown home ASN {}", bot.spec.home_asn));
        let (ua, asn) = bot_syms[global % n_bots];
        let site_sym = log.intern(&transport.model(site).name);
        let local = agents.len() as u32;
        let ttl = ttl_secs.unwrap_or(NEVER);
        agents.push(Agent {
            site: site as u32,
            ua,
            asn,
            site_sym,
            ip_hash: hasher.hash_ipv4(ip),
            ttl_secs: ttl,
            rng,
            cache: RobotsCache::new(ttl),
            consecutive_failures: 0,
            last_version: None,
            cache_is_policy: false,
            validators: None,
            beliefs: run.collect_beliefs.then(BeliefTimeline::new),
        });
        if ttl_secs.is_some() && first < horizon {
            queue.push(Reverse((first, local)));
        }
    }

    let mut stats = MonitorStats { agents: (hi - lo) as u64, ..MonitorStats::default() };
    let mut changes: BTreeMap<ChangeKey, (u64, u64)> = BTreeMap::new();

    while let Some(Reverse((now, local))) = queue.pop() {
        debug_assert!(now < horizon, "events past the horizon are never queued");
        let agent = &mut agents[local as usize];
        let global = lo + local as usize;
        // Replay the cached body's validators while the cache holds a
        // real parsed policy; after an error outcome the agent needs a
        // full body back, so no conditional request is sent.
        let conditional = if agent.cache_is_policy { agent.validators } else { None };
        let fetch =
            transport.fetch_conditional(agent.site as usize, now, global as u64, conditional);

        log.push(
            agent.ua,
            agent.asn,
            agent.site_sym,
            agent.ip_hash,
            fetch.resolved.status,
            fetch.bytes,
            Timestamp::from_unix(now),
        );
        stats.fetches += 1;
        stats.redirects_followed += fetch.resolved.hops as u64;
        stats.redirects_capped += fetch.resolved.capped as u64;
        stats.latency_ms_sum += fetch.latency_ms as u64;
        stats.latency_ms_max = stats.latency_ms_max.max(fetch.latency_ms);

        // The next fetch can never start before the exchange finished.
        let settled = now + 1 + (fetch.latency_ms / 1000) as u64;
        let version = fetch.version;
        let outcome = fetch.resolved.outcome;

        let next = match outcome {
            FetchOutcome::NotModified => {
                // The server honoured the conditional request: the
                // cached policy is still current. Refresh, count the
                // transfer that never happened, and carry on — belief
                // is unchanged by construction.
                stats.success += 1;
                stats.revalidated += 1;
                stats.revalidated_bytes_saved += fetch.saved_bytes;
                agent.consecutive_failures = 0;
                let refreshed = agent.cache.refresh(now);
                debug_assert!(refreshed, "a 304 implies a cached policy");
                ttl_next(agent, settled)
            }
            FetchOutcome::Success(_) => {
                stats.success += 1;
                agent.consecutive_failures = 0;
                let version = version.expect("success always carries a version");
                agent.believe(now, BelievedPolicy::Version(version));
                if agent.last_version == Some(version)
                    && agent.cache_is_policy
                    && agent.cache.refresh(now)
                {
                    // Unchanged body AND the cache still holds its parsed
                    // policy, but the transfer couldn't be elided — the
                    // agent held no validators to present (conditional
                    // requests answer 304 even behind redirect chains,
                    // so this is a defensive fallback). No re-parse
                    // needed.
                    stats.revalidated += 1;
                } else {
                    if let Some(previous) = agent.last_version {
                        // A transition this agent actually observed.
                        // Recovering the *same* body after an error is
                        // not one — that path only re-parses.
                        if previous != version {
                            stats.policy_changes_observed += 1;
                            let key = (agent.site, previous.index() as u8, version.index() as u8);
                            let entry = changes.entry(key).or_insert((now, 0));
                            entry.0 = entry.0.min(now);
                            entry.1 += 1;
                        }
                    }
                    agent.cache.store(now, EffectivePolicy::from_outcome(outcome));
                    agent.last_version = Some(version);
                    agent.cache_is_policy = true;
                }
                agent.validators = fetch.validators;
                ttl_next(agent, settled)
            }
            FetchOutcome::ClientError(_) => {
                stats.client_errors += 1;
                agent.consecutive_failures = 0;
                // Unavailable ⇒ allow all, and the cadence stays TTL-driven.
                agent.cache.store(now, EffectivePolicy::from_outcome(outcome));
                agent.cache_is_policy = false;
                agent.believe(now, BelievedPolicy::AllowAll);
                ttl_next(agent, settled)
            }
            FetchOutcome::ServerError(_) | FetchOutcome::NetworkError => {
                if matches!(outcome, FetchOutcome::ServerError(_)) {
                    stats.server_errors += 1;
                } else {
                    stats.network_errors += 1;
                }
                // Unreachable ⇒ complete disallow until a fetch succeeds,
                // retried under exponential backoff.
                agent.cache.store(now, EffectivePolicy::from_outcome(outcome));
                agent.cache_is_policy = false;
                agent.believe(now, BelievedPolicy::DisallowAll);
                agent.consecutive_failures += 1;
                stats.backoff_retries += 1;
                let shift = (agent.consecutive_failures - 1).min(7);
                let delay = (BACKOFF_BASE_SECS << shift).min(agent.ttl_secs).min(43_200);
                Some(settled + delay + agent.rng.gen_range(0..31))
            }
        };

        if let Some(at) = next {
            if at < horizon {
                debug_assert!(
                    agent.cache.needs_fetch(at) || agent.consecutive_failures > 0,
                    "TTL-scheduled fetches land at or after expiry"
                );
                queue.push(Reverse((at, local)));
            }
        }
    }

    let beliefs = if run.collect_beliefs {
        agents.into_iter().filter_map(|a| a.beliefs).collect()
    } else {
        Vec::new()
    };
    Shard { log, stats, changes, beliefs }
}

/// The TTL-driven next due time (never for the fetch-once cohort).
fn ttl_next(agent: &mut Agent, settled: u64) -> Option<u64> {
    if agent.ttl_secs == NEVER {
        return None;
    }
    // Schedule exactly at expiry plus a small de-aliasing jitter; the
    // cache's `needs_fetch` is true at the boundary.
    Some(settled - 1 + agent.ttl_secs + agent.rng.gen_range(0..61))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MonitorConfig {
        MonitorConfig { sites: 12, days: 8, bots: 4, ..MonitorConfig::default() }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let cfg = small_cfg();
        let serial = run_with_threads(&cfg, 1);
        for threads in [2, 8] {
            let parallel = run_with_threads(&cfg, threads);
            assert_eq!(serial.table.rows(), parallel.table.rows(), "{threads} workers");
            assert_eq!(serial.table.to_records(), parallel.table.to_records());
            assert_eq!(serial.stats, parallel.stats);
            assert_eq!(serial.changes, parallel.changes);
        }
    }

    #[test]
    fn deterministic_across_runs_and_seeds_differ() {
        let cfg = small_cfg();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.table.to_records(), b.table.to_records());
        let c = run(&MonitorConfig { seed: 1234, ..cfg });
        assert_ne!(a.table.to_records(), c.table.to_records());
    }

    #[test]
    fn every_row_is_a_robots_fetch_inside_the_horizon() {
        let cfg = small_cfg();
        let out = run(&cfg);
        assert!(!out.table.is_empty());
        let start = cfg.start.unix();
        for record in out.table.to_records() {
            assert!(record.is_robots_fetch());
            assert!(record.timestamp.unix() >= start);
            assert!(record.timestamp.unix() < out.horizon_end);
        }
        // Rows are canonically time-sorted.
        let rows = out.table.rows();
        assert!(rows.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn monitored_fleet_is_the_high_volume_prefix() {
        let four = monitor_fleet(4);
        assert_eq!(four.len(), 4);
        let all = monitor_fleet(usize::MAX);
        for pair in all.windows(2) {
            assert!(
                pair[0].behavior.daily_hits >= pair[1].behavior.daily_hits,
                "fleet must be volume-sorted"
            );
        }
        // The paper's headline heavy hitter leads.
        assert_eq!(four[0].spec.canonical, "YisouSpider");
    }

    #[test]
    fn swap_sites_produce_change_digests() {
        // All sites swap; long horizon so several transitions land.
        let cfg = MonitorConfig {
            sites: 8,
            days: 46,
            bots: 3,
            swap_every: 1,
            scenario: ScenarioKind::Stable,
            ..MonitorConfig::default()
        };
        let out = run(&cfg);
        assert!(!out.changes.is_empty(), "stable estate with swaps must observe them");
        assert!(out.stats.policy_changes_observed as usize >= out.changes.len());
        for change in &out.changes {
            assert_ne!(change.from, change.to);
            assert!(change.observers >= 1);
            assert!(change.at >= cfg.start.unix() && change.at < out.horizon_end);
            // The paper's gradient only tightens; the restore loosens.
            if change.to == PolicyVersion::Base {
                assert_eq!(change.tightened, 0, "{change:?}");
            } else if change.from == PolicyVersion::Base {
                assert_eq!(change.loosened, 0, "{change:?}");
            }
        }
        // Digests are time-ordered.
        assert!(out.changes.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn stable_estate_sees_no_errors() {
        let cfg = MonitorConfig { scenario: ScenarioKind::Stable, swap_every: 0, ..small_cfg() };
        let out = run(&cfg);
        assert_eq!(out.stats.server_errors, 0);
        assert_eq!(out.stats.network_errors, 0);
        assert_eq!(out.stats.redirects_followed, 0);
        assert_eq!(out.stats.fetches, out.stats.success);
        assert!(out.changes.is_empty());
        // Most successes after the first fetch are revalidations.
        assert!(out.stats.revalidated > 0);
    }

    #[test]
    fn outage_weather_triggers_backoff_and_disallow() {
        let cfg = MonitorConfig {
            sites: 40,
            days: 20,
            bots: 3,
            scenario: ScenarioKind::Outages,
            swap_every: 0,
            ttl: TtlPolicy::FixedHours(24),
            ..MonitorConfig::default()
        };
        let out = run(&cfg);
        assert!(out.stats.server_errors + out.stats.network_errors > 0);
        assert!(out.stats.backoff_retries > 0);
        // Retries densify fetches well beyond one per agent per two days.
        assert!(out.stats.fetches > out.stats.agents * cfg.days / 2);
    }

    #[test]
    fn redirect_weather_exercises_the_hop_budget() {
        let cfg = MonitorConfig {
            sites: 60,
            days: 6,
            bots: 2,
            scenario: ScenarioKind::Redirects,
            swap_every: 0,
            ttl: TtlPolicy::FixedHours(12),
            ..MonitorConfig::default()
        };
        let out = run(&cfg);
        assert!(out.stats.redirects_followed > 0);
        assert!(out.stats.redirects_capped > 0, "some scripted chains exceed five hops");
        // Capped chains resolve to "unavailable", logged with their 3xx.
        assert!(out.table.rows().iter().any(|r| r.status == 301));
        // Within-budget chains revalidate at the final hop: unchanged
        // bodies behind 3xx come back 304 with the transfer elided, so
        // bytes-saved accounting covers CDN-fronted sites too.
        assert!(out.stats.revalidated > 0, "{:?}", out.stats);
        assert!(out.stats.revalidated_bytes_saved > 0, "{:?}", out.stats);
        let saw_304 = out.table.rows().iter().any(|r| r.status == 304 && r.bytes == 0);
        assert!(saw_304, "304s behind chains reach the log");
    }

    #[test]
    fn fixed_ttl_cadence_matches_expectation() {
        let cfg = MonitorConfig {
            sites: 10,
            days: 10,
            bots: 2,
            ttl: TtlPolicy::FixedHours(24),
            scenario: ScenarioKind::Stable,
            swap_every: 0,
            ..MonitorConfig::default()
        };
        let out = run(&cfg);
        // Each agent fetches once per day, ± the start offset.
        let per_agent = out.stats.fetches as f64 / out.stats.agents as f64;
        assert!((8.0..=11.0).contains(&per_agent), "daily cadence, got {per_agent}");
    }

    #[test]
    fn recovery_after_error_reparses_instead_of_revalidating() {
        use crate::transport::{ConditionWindow, ServeMode, ServerModel, VirtualTransport};
        use botscope_simnet::server::SitePolicyServer;

        let cfg = MonitorConfig {
            sites: 1,
            days: 3,
            bots: 1,
            ttl: TtlPolicy::FixedHours(6),
            scenario: ScenarioKind::Stable,
            swap_every: 0,
            ..MonitorConfig::default()
        };
        let start = cfg.start.unix();
        // Healthy except one scripted 5xx window on day two, longer than
        // the agent's TTL so at least one fetch lands inside it.
        let mut model = ServerModel::healthy(
            "site-00.example.edu".into(),
            SitePolicyServer::always(PolicyVersion::Base),
            1,
        );
        model.windows = vec![ConditionWindow {
            start: start + 86_400,
            end: start + 86_400 + 8 * 3600,
            mode: ServeMode::ServerError(503),
        }];
        let transport = VirtualTransport::new(vec![model]);
        let fleet = monitor_fleet(1);
        let hasher = botscope_weblog::iphash::IpHasher::from_seed(cfg.seed);

        let run = DaemonRun {
            cfg: &cfg,
            fleet: &fleet,
            transport: &transport,
            ttl: TtlSource::Config,
            collect_beliefs: true,
        };
        let shard = run_agents(&run, &hasher, 0, 1);
        let s = &shard.stats;
        assert!(s.server_errors > 0, "the scripted 5xx window must be hit: {s:?}");
        // Every success is a revalidation EXCEPT the very first fetch
        // and the first success after the error episode: the cache held
        // DisallowAll through the outage, so recovery must re-parse the
        // body rather than refresh the error-time policy.
        assert_eq!(s.revalidated, s.success - 2, "{s:?}");
        // Recovering to the same body is not a policy change.
        assert!(shard.changes.is_empty());
        // Belief trace: Unfetched → Base → disallow-all through the
        // outage → Base again on recovery. The recovery re-parse is a
        // belief transition even though it is not a policy change.
        let beliefs = &shard.beliefs[0];
        use BelievedPolicy as B;
        let kinds: Vec<B> = beliefs.segments().iter().map(|&(_, p)| p).collect();
        assert_eq!(
            kinds,
            vec![
                B::Unfetched,
                B::Version(PolicyVersion::Base),
                B::DisallowAll,
                B::Version(PolicyVersion::Base)
            ],
            "{beliefs:?}"
        );
        assert_eq!(beliefs.at(start), B::Unfetched);
        assert_eq!(beliefs.at(start + 86_400 + 4 * 3600), B::DisallowAll, "mid-outage");
    }

    #[test]
    fn conditional_requests_save_bytes_on_stable_estates() {
        let cfg = MonitorConfig { scenario: ScenarioKind::Stable, swap_every: 0, ..small_cfg() };
        let out = run(&cfg);
        let s = &out.stats;
        assert!(s.revalidated > 0);
        // Every revalidation on a healthy static estate is a real 304
        // that saved exactly one Base body.
        let base_len =
            botscope_simnet::server::PolicyCorpus::new().text(PolicyVersion::Base).len() as u64;
        assert_eq!(s.revalidated_bytes_saved, s.revalidated * base_len, "{s:?}");
        // The 304s are visible in the fetch log.
        assert!(out.table.rows().iter().any(|r| r.status == 304 && r.bytes == 0));
    }

    #[test]
    fn belief_atlas_exported_per_agent() {
        let cfg = MonitorConfig {
            sites: 8,
            days: 20,
            bots: 3,
            swap_every: 2,
            scenario: ScenarioKind::Stable,
            ttl: TtlPolicy::FixedHours(12),
            ..MonitorConfig::default()
        };
        let (out, atlas) = run_with_beliefs(&cfg, 2);
        assert_eq!(atlas.bots, out.bots);
        assert_eq!(atlas.n_sites(), cfg.sites);
        // Before the horizon every agent is Unfetched; after its first
        // fetch a stable non-swap site is believed Base forever.
        let static_site = 1; // swap_every=2 ⇒ odd sites are static
        for bot in 0..atlas.bots.len() {
            let tl = atlas.timeline(bot, static_site);
            assert_eq!(tl.at(cfg.start.unix()), BelievedPolicy::Unfetched);
            assert_eq!(tl.at(out.horizon_end), BelievedPolicy::Version(PolicyVersion::Base));
            assert_eq!(tl.transitions(), 1, "static site: one belief transition, got {tl:?}");
        }
        // Swap sites accumulate version transitions that the 12h TTL
        // cannot miss.
        let swapped: usize =
            (0..atlas.bots.len()).map(|bot| atlas.timeline(bot, 0).transitions()).sum();
        assert!(swapped > atlas.bots.len(), "swap site must show belief churn: {swapped}");
        // The atlas is identical at any worker count.
        let (_, atlas8) = run_with_beliefs(&cfg, 8);
        assert_eq!(atlas, atlas8);
    }

    #[test]
    fn site_windows_expose_deployments() {
        let cfg = MonitorConfig {
            swap_every: 4,
            scenario: ScenarioKind::Stable,
            days: 46,
            ..small_cfg()
        };
        let out = run(&cfg);
        assert_eq!(out.site_windows.len(), cfg.sites);
        for (site, windows) in &out.site_windows {
            let i: usize = site[5..7].parse().unwrap();
            if i.is_multiple_of(4) {
                // The rolling schedule starts within the first week, so
                // at least Base → v1 → v2 fit inside 46 days.
                assert!(windows.len() >= 3, "{site} deploys the experiment: {windows:?}");
            } else {
                assert_eq!(windows.len(), 1, "{site} is static");
                assert_eq!(windows[0].0, PolicyVersion::Base);
            }
            // Windows tile the horizon in order.
            assert_eq!(windows[0].1, 0);
            assert_eq!(windows.last().unwrap().2, out.horizon_end);
            for pair in windows.windows(2) {
                assert_eq!(pair[0].2, pair[1].1, "contiguous: {windows:?}");
            }
        }
    }

    #[test]
    fn streaming_bytes_match_materialized_table() {
        use botscope_weblog::codec::encode_table;
        use botscope_weblog::sink::{CountingSink, CsvSink};

        let cfg = MonitorConfig { sites: 20, days: 10, bots: 4, ..MonitorConfig::default() };
        let materialized = run_with_threads(&cfg, 2);
        let expected = encode_table(&materialized.table);
        for threads in [1, 2, 8] {
            let mut csv = CsvSink::new(Vec::new()).unwrap();
            let mut count = CountingSink::default();
            let summary = {
                let mut sinks: [&mut dyn botscope_weblog::sink::RowSink; 2] =
                    [&mut csv, &mut count];
                run_streaming(&cfg, threads, &mut sinks).unwrap()
            };
            assert_eq!(
                String::from_utf8(csv.into_inner()).unwrap(),
                expected,
                "streamed CSV differs at {threads} workers"
            );
            assert_eq!(summary.rows, materialized.table.len() as u64);
            assert_eq!(count.rows, summary.rows);
            assert_eq!(summary.stats, materialized.stats);
            assert_eq!(summary.changes, materialized.changes);
            assert_eq!(summary.site_windows, materialized.site_windows);
        }
    }

    #[test]
    fn ttl_policy_parsing() {
        assert_eq!(TtlPolicy::parse("spectrum"), Some(TtlPolicy::Spectrum));
        assert_eq!(TtlPolicy::parse("24"), Some(TtlPolicy::FixedHours(24)));
        assert_eq!(TtlPolicy::parse("0"), None);
        assert_eq!(TtlPolicy::parse("sometimes"), None);
    }

    #[test]
    fn spectrum_includes_never_checkers() {
        let cfg = MonitorConfig {
            sites: 64,
            days: 30,
            bots: 4,
            scenario: ScenarioKind::Stable,
            swap_every: 0,
            ..MonitorConfig::default()
        };
        let out = run(&cfg);
        // Never-TTL agents fetch exactly once; with 256 agents and a 20 %
        // never share, total fetches must sit far below the daily-cadence
        // bound but above one-per-agent.
        assert!(out.stats.fetches > out.stats.agents);
        let checks = out.table.robots_checks_by_useragent();
        assert!(!checks.is_empty());
    }
}
