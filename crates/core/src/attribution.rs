//! Ground-truth-aware compliance scoring: believed vs served policy,
//! with per-bot violation attribution.
//!
//! The schedule-driven analysis treats every disallowed fetch as
//! non-compliance. With the belief layer
//! ([`botscope_simnet::belief`]) the question splits in two:
//!
//! * **served** — was the fetch allowed under the policy the site was
//!   *actually* serving at that instant (outage windows resolved per
//!   RFC 9309)?
//! * **believed** — was it allowed under the policy the bot's last
//!   robots.txt fetch *entitled it to assume*?
//!
//! Every served-policy violation then attributes to exactly one cause:
//!
//! * **deliberate** — the bot's own believed policy forbade the fetch
//!   too (it knew), or the bot never consulted robots.txt at all
//!   (choosing ignorance is not an excuse);
//! * **stale cache** — the bot's cached *document* allowed the fetch;
//!   the site had swapped files since. An artifact of re-check cadence,
//!   not defiance;
//! * **fetch artifact** — the bot's last fetch resolved 4xx (or a
//!   redirect chain past the hop budget), entitling it to crawl without
//!   restriction while the served file said otherwise.
//!
//! This is the attribution gap that makes mislabelled non-compliance
//! legally and ethically fraught (*The Liabilities of Robots.txt*,
//! arXiv:2503.06035): a scraper crawling through a disallow on a stale
//! cache is operating exactly as RFC 9309 permits.
//!
//! **Execution shape.** [`attribute_table`] and [`score_table`] fan out
//! per-bot stages over `std::thread::scope` workers with a
//! deterministic bot-name merge, exactly as
//! [`Experiment::analyze_table`](crate::analyze::Experiment::analyze_table)
//! does. Timelines are stepwise and log rows arrive in chronological
//! order, so per-(bot, site) `TimelineCursor`s replace the per-row
//! binary searches with amortized-O(1) forward steps. The original
//! serial binary-search code survives as
//! [`attribute_table_reference`]/[`score_table_reference`], pinned
//! against the parallel path by the `attribution_equiv` proptests.
//!
//! **Granularity caveat.** Scoring is per access, at the access's own
//! instant — the only vantage point a log analyst has. The generation
//! engine, like a real crawler, applies one believed policy per crawl
//! *session*, so the handful of accesses between a mid-session belief
//! transition and the session's end are scored against a newer belief
//! than the one the bot acted on (and vice versa). Belief transitions
//! are sparse (a few dozen per (bot, site) over an 8-week horizon)
//! while sessions are minutes long, so the mislabelled tail is bounded
//! by pages-per-session per transition; the real-world analysis has
//! exactly the same ambiguity, because a bot's internal cache-refresh
//! timing is not observable from access logs.

use std::collections::{BTreeMap, HashMap};

use botscope_simnet::belief::{BeliefAtlas, BeliefTimeline, BelievedPolicy};
use botscope_simnet::engine::worker_threads;
use botscope_simnet::server::PolicyCorpus;
use botscope_useragent::Standardizer;
use botscope_weblog::intern::Sym;
use botscope_weblog::table::{LogTable, RecordRow};

use crate::metrics::DirectiveCounts;
use crate::pipeline::{run_indexed, standardize_table, standardize_table_with_threads, BotRowView};

/// Which policy a metric is computed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyBasis {
    /// The policy each bot believed (its own fetch history).
    Believed,
    /// The policy the site actually served (ground truth).
    Served,
}

/// Per-bot attribution of page accesses against served ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttributionCounts {
    /// Page accesses examined (robots.txt fetches are always allowed
    /// and are not attribution targets).
    pub accesses: u64,
    /// Allowed under the served policy — no violation occurred.
    pub allowed_served: u64,
    /// Served violations committed knowingly: the believed policy
    /// forbade the fetch too, or the bot never fetched robots.txt.
    pub deliberate: u64,
    /// Served violations excused by a stale cached document.
    pub stale_cache: u64,
    /// Served violations excused by an RFC 9309 fetch-layer
    /// entitlement (4xx / over-budget redirect ⇒ allow all).
    pub fetch_artifact: u64,
    /// Accesses the bot's *own* believed policy forbade, regardless of
    /// what was served — the intent signal.
    pub believed_violations: u64,
}

impl AttributionCounts {
    /// Total served-policy violations.
    pub fn violations_served(&self) -> u64 {
        self.deliberate + self.stale_cache + self.fetch_artifact
    }

    /// Served violations the belief layer excuses (stale cache or
    /// fetch-layer entitlement) — the rows a believed-basis analysis
    /// drops from the non-compliant pool.
    pub fn excused(&self) -> u64 {
        self.stale_cache + self.fetch_artifact
    }

    /// Share of served violations that were deliberate (`None` with no
    /// violations).
    pub fn deliberate_share(&self) -> Option<f64> {
        let v = self.violations_served();
        if v == 0 {
            None
        } else {
            Some(self.deliberate as f64 / v as f64)
        }
    }

    /// Served-policy compliance ratio (`None` with no accesses).
    pub fn served_compliance(&self) -> Option<f64> {
        if self.accesses == 0 {
            None
        } else {
            Some(self.allowed_served as f64 / self.accesses as f64)
        }
    }

    /// Merge another bot-slice's counts.
    pub fn merge(&mut self, other: AttributionCounts) {
        self.accesses += other.accesses;
        self.allowed_served += other.allowed_served;
        self.deliberate += other.deliberate;
        self.stale_cache += other.stale_cache;
        self.fetch_artifact += other.fetch_artifact;
        self.believed_violations += other.believed_violations;
    }
}

/// A per-bot allow-decision cache: `allows` is pure in
/// `(policy, path)` for a fixed agent, and a run touches few distinct
/// pairs, so rows never re-evaluate the matcher.
struct AllowCache<'a> {
    corpus: &'a PolicyCorpus,
    agent: &'a str,
    memo: HashMap<(Sym, BelievedPolicy), bool>,
}

impl<'a> AllowCache<'a> {
    fn new(corpus: &'a PolicyCorpus, agent: &'a str) -> AllowCache<'a> {
        AllowCache { corpus, agent, memo: HashMap::new() }
    }

    fn allows(&mut self, table: &LogTable, policy: BelievedPolicy, path: Sym) -> bool {
        *self
            .memo
            .entry((path, policy))
            .or_insert_with(|| policy.allows(self.corpus, self.agent, table.resolve(path)))
    }
}

/// Map each interned sitename of `table` onto an estate index
/// (`site-NN.example.edu` → `NN`), for sites below `n_sites`.
fn site_index_of(table: &LogTable, n_sites: usize) -> Vec<Option<usize>> {
    let mut map = vec![None; table.interner().len()];
    for site in 0..n_sites {
        if let Some(sym) = table.interner().get(&format!("site-{site:02}.example.edu")) {
            map[sym.index()] = Some(site);
        }
    }
    map
}

// ---------------------------------------------------------------------
// Monotone timeline cursors.
// ---------------------------------------------------------------------

/// Amortized-O(1) stepwise-timeline lookup for time-ascending sweeps.
///
/// [`BeliefTimeline::at`] binary-searches its segment list on every
/// call. Log rows arrive in (near-)chronological order, so a cursor
/// that remembers its seat and only steps forward answers each lookup
/// in amortized O(1). A query earlier than the seated segment re-seats
/// by binary search and counts a reset — the τ-group crawl-delay sweep
/// rewinds once per group; the row sweep essentially never does.
struct TimelineCursor<'a> {
    segments: &'a [(u64, BelievedPolicy)],
    /// Index of the segment the last query landed in.
    idx: usize,
}

impl<'a> TimelineCursor<'a> {
    fn new(timeline: &'a BeliefTimeline) -> TimelineCursor<'a> {
        // Timelines always carry a segment from t=0, so index 0 is a
        // valid seat for any query.
        TimelineCursor { segments: timeline.segments(), idx: 0 }
    }

    /// The policy live at `t` — identical to [`BeliefTimeline::at`].
    fn at(&mut self, t: u64, stats: &mut SweepStats) -> BelievedPolicy {
        stats.lookups += 1;
        if self.segments[self.idx].0 > t {
            // Time ran backwards past the seated segment: re-seat.
            stats.resets += 1;
            self.idx = self.segments.partition_point(|&(from, _)| from <= t).saturating_sub(1);
        } else {
            while self.idx + 1 < self.segments.len() && self.segments[self.idx + 1].0 <= t {
                self.idx += 1;
            }
        }
        self.segments[self.idx].1
    }
}

/// One sweep's per-site cursors over a timeline family.
struct SiteCursors<'a> {
    cursors: Vec<TimelineCursor<'a>>,
}

impl<'a> SiteCursors<'a> {
    fn over_beliefs(beliefs: &'a BeliefAtlas, bot: usize, n_sites: usize) -> SiteCursors<'a> {
        SiteCursors {
            cursors: (0..n_sites).map(|s| TimelineCursor::new(beliefs.timeline(bot, s))).collect(),
        }
    }

    fn over_served(served: &'a [BeliefTimeline], n_sites: usize) -> SiteCursors<'a> {
        SiteCursors { cursors: served[..n_sites].iter().map(TimelineCursor::new).collect() }
    }

    fn at(&mut self, site: usize, t: u64, stats: &mut SweepStats) -> BelievedPolicy {
        self.cursors[site].at(t, stats)
    }
}

/// Telemetry accumulated by one sweep stage. Stages return their stats
/// and the caller merges them serially in bot-name order, so counter
/// totals are worker-count invariant.
#[derive(Debug, Clone, Copy)]
struct SweepStats {
    rows: u64,
    lookups: u64,
    resets: u64,
    event_lo: u64,
    event_hi: u64,
}

impl Default for SweepStats {
    fn default() -> SweepStats {
        SweepStats { rows: 0, lookups: 0, resets: 0, event_lo: u64::MAX, event_hi: 0 }
    }
}

impl SweepStats {
    fn observe_row(&mut self, t: u64) {
        self.rows += 1;
        self.event_lo = self.event_lo.min(t);
        self.event_hi = self.event_hi.max(t);
    }

    fn merge(&mut self, other: SweepStats) {
        self.rows += other.rows;
        self.lookups += other.lookups;
        self.resets += other.resets;
        self.event_lo = self.event_lo.min(other.event_lo);
        self.event_hi = self.event_hi.max(other.event_hi);
    }

    /// Flush into the global registry under a per-pass label.
    fn flush(&self, pass: &str) {
        let obs = botscope_obs::global();
        obs.counter(&format!("attribution_rows_total{{pass=\"{pass}\"}}")).add(self.rows);
        obs.counter(&format!("attribution_policy_lookups_total{{pass=\"{pass}\"}}"))
            .add(self.lookups);
        obs.counter(&format!("attribution_cursor_resets_total{{pass=\"{pass}\"}}"))
            .add(self.resets);
    }
}

// ---------------------------------------------------------------------
// Violation attribution.
// ---------------------------------------------------------------------

/// Attribute every fleet bot's page accesses in `table` against the
/// monitored beliefs and the served ground truth. Bots absent from the
/// atlas (anonymous traffic, unknown agents) and rows on sites outside
/// the estate are skipped; robots.txt fetches are always allowed and
/// not counted. Fans out over [`worker_threads`] scoped workers.
pub fn attribute_table(
    table: &LogTable,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
) -> BTreeMap<String, AttributionCounts> {
    attribute_table_with_threads(table, beliefs, served, corpus, worker_threads())
}

/// [`attribute_table`] with an explicit worker count: one stage per
/// bot over `std::thread::scope` workers, merged in bot-name order.
/// Output is identical at any worker count.
pub fn attribute_table_with_threads(
    table: &LogTable,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
    threads: usize,
) -> BTreeMap<String, AttributionCounts> {
    let obs = botscope_obs::global();
    let mut span = obs.span("attribution_attribute_table");
    let logs = standardize_table_with_threads(table, threads);
    let robots = table.interner().get("/robots.txt");
    let n_sites = served.len().min(beliefs.n_sites());
    let site_of = site_index_of(table, n_sites);
    let bot_index: BTreeMap<&str, usize> =
        beliefs.bots.iter().enumerate().map(|(i, name)| (name.as_str(), i)).collect();

    let views: Vec<&BotRowView<'_>> = logs.bots.values().collect();
    let results: Vec<Option<(AttributionCounts, SweepStats)>> =
        run_indexed(views.len(), threads, |i| {
            let view = views[i];
            let &bot = bot_index.get(view.name.as_str())?;
            Some(attribute_bot(table, view, bot, beliefs, served, corpus, robots, &site_of))
        });

    let mut stats = SweepStats::default();
    let mut out = BTreeMap::new();
    for (view, result) in views.iter().zip(results) {
        let Some((counts, bot_stats)) = result else {
            continue;
        };
        stats.merge(bot_stats);
        if counts.accesses > 0 {
            out.insert(view.name.clone(), counts);
        }
    }
    stats.flush("attribute");
    if stats.rows > 0 {
        span.event_range(stats.event_lo, stats.event_hi);
    }
    out
}

/// One bot's attribution sweep: rows are chronological, so the
/// per-(bot, site) cursors only step forward.
#[allow(clippy::too_many_arguments)]
fn attribute_bot(
    table: &LogTable,
    view: &BotRowView<'_>,
    bot: usize,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
    robots: Option<Sym>,
    site_of: &[Option<usize>],
) -> (AttributionCounts, SweepStats) {
    let n_sites = served.len().min(beliefs.n_sites());
    let mut cache = AllowCache::new(corpus, &view.name);
    let mut believed_at = SiteCursors::over_beliefs(beliefs, bot, n_sites);
    let mut served_at = SiteCursors::over_served(served, n_sites);
    let mut counts = AttributionCounts::default();
    let mut stats = SweepStats::default();
    for row in &view.rows {
        if Some(row.uri_path) == robots {
            continue;
        }
        let Some(site) = site_of[row.sitename.index()] else {
            continue;
        };
        let t = row.timestamp.unix();
        stats.observe_row(t);
        let believed = believed_at.at(site, t, &mut stats);
        let served_policy = served_at.at(site, t, &mut stats);
        let allowed_believed = cache.allows(table, believed, row.uri_path);
        let allowed_served = cache.allows(table, served_policy, row.uri_path);

        counts.accesses += 1;
        if !allowed_believed {
            counts.believed_violations += 1;
        }
        if allowed_served {
            counts.allowed_served += 1;
            continue;
        }
        // A served-policy violation: attribute it.
        if !allowed_believed || believed == BelievedPolicy::Unfetched {
            counts.deliberate += 1;
        } else {
            match believed {
                BelievedPolicy::Version(_) => counts.stale_cache += 1,
                BelievedPolicy::AllowAll => counts.fetch_artifact += 1,
                // Unfetched handled above; DisallowAll allows only
                // robots.txt, so an allowed-believed page fetch
                // under it cannot exist.
                BelievedPolicy::Unfetched | BelievedPolicy::DisallowAll => {
                    unreachable!("allowed page fetch under {believed:?}")
                }
            }
        }
    }
    (counts, stats)
}

/// Serial binary-search reference for [`attribute_table`]: the original
/// single-threaded implementation with per-row [`BeliefTimeline::at`]
/// lookups, kept as an independently-written oracle for the
/// `attribution_equiv` proptests. Not a production path.
pub fn attribute_table_reference(
    table: &LogTable,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
) -> BTreeMap<String, AttributionCounts> {
    let logs = standardize_table(table);
    let robots = table.interner().get("/robots.txt");
    let site_of = site_index_of(table, served.len().min(beliefs.n_sites()));
    let bot_index: BTreeMap<&str, usize> =
        beliefs.bots.iter().enumerate().map(|(i, name)| (name.as_str(), i)).collect();

    let mut out = BTreeMap::new();
    for view in logs.bots.values() {
        let Some(&bot) = bot_index.get(view.name.as_str()) else {
            continue;
        };
        let mut cache = AllowCache::new(corpus, &view.name);
        let mut counts = AttributionCounts::default();
        for row in &view.rows {
            if Some(row.uri_path) == robots {
                continue;
            }
            let Some(site) = site_of[row.sitename.index()] else {
                continue;
            };
            let t = row.timestamp.unix();
            let believed = beliefs.timeline(bot, site).at(t);
            let served_policy = served[site].at(t);
            let allowed_believed = cache.allows(table, believed, row.uri_path);
            let allowed_served = cache.allows(table, served_policy, row.uri_path);

            counts.accesses += 1;
            if !allowed_believed {
                counts.believed_violations += 1;
            }
            if allowed_served {
                counts.allowed_served += 1;
                continue;
            }
            if !allowed_believed || believed == BelievedPolicy::Unfetched {
                counts.deliberate += 1;
            } else {
                match believed {
                    BelievedPolicy::Version(_) => counts.stale_cache += 1,
                    BelievedPolicy::AllowAll => counts.fetch_artifact += 1,
                    BelievedPolicy::Unfetched | BelievedPolicy::DisallowAll => {
                        unreachable!("allowed page fetch under {believed:?}")
                    }
                }
            }
        }
        if counts.accesses > 0 {
            out.insert(view.name.clone(), counts);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Basis scoring.
// ---------------------------------------------------------------------

/// Believed- and served-basis compliance of one bot, in the §4.2
/// success/trial vocabulary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyScore {
    /// Allowed-target compliance: every access is a trial, successes
    /// are accesses the basis policy allowed (robots.txt fetches are
    /// always successes — cf. the disallow metric).
    pub allowed: DirectiveCounts,
    /// Crawl-delay compliance: τ-stratified inter-access deltas are
    /// trials only while the basis policy sets a crawl delay for the
    /// bot; successes are deltas meeting it.
    pub crawl_delay: DirectiveCounts,
}

/// Score every fleet bot's accesses against the believed or the served
/// policy — the generalization of the endpoint/disallow ("allowed
/// target") and crawl-delay metrics to arbitrary policy timelines.
/// Computing both bases and differencing them is the coupled analysis:
/// believed-basis compliance measures intent, served-basis compliance
/// measures effect. Fans out over [`worker_threads`] scoped workers.
pub fn score_table(
    table: &LogTable,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
    basis: PolicyBasis,
) -> BTreeMap<String, PolicyScore> {
    score_table_with_threads(table, beliefs, served, corpus, basis, worker_threads())
}

/// [`score_table`] with an explicit worker count: per-bot stages,
/// bot-name merge, worker-count-invariant output.
pub fn score_table_with_threads(
    table: &LogTable,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
    basis: PolicyBasis,
    threads: usize,
) -> BTreeMap<String, PolicyScore> {
    let obs = botscope_obs::global();
    let mut span = obs.span("attribution_score_table");
    let logs = standardize_table_with_threads(table, threads);
    let n_sites = served.len().min(beliefs.n_sites());
    let site_of = site_index_of(table, n_sites);
    let bot_index: BTreeMap<&str, usize> =
        beliefs.bots.iter().enumerate().map(|(i, name)| (name.as_str(), i)).collect();

    let views: Vec<&BotRowView<'_>> = logs.bots.values().collect();
    let results: Vec<Option<(PolicyScore, SweepStats)>> = run_indexed(views.len(), threads, |i| {
        let view = views[i];
        let &bot = bot_index.get(view.name.as_str())?;
        Some(score_bot(table, view, bot, beliefs, served, corpus, basis, &site_of))
    });

    let mut stats = SweepStats::default();
    let mut out = BTreeMap::new();
    for (view, result) in views.iter().zip(results) {
        let Some((score, bot_stats)) = result else {
            continue;
        };
        stats.merge(bot_stats);
        if score.allowed.trials > 0 {
            out.insert(view.name.clone(), score);
        }
    }
    stats.flush("score");
    if stats.rows > 0 {
        span.event_range(stats.event_lo, stats.event_hi);
    }
    out
}

/// One bot's basis score. The row sweep is chronological (cursors step
/// forward); the crawl-delay pass walks τ groups in key order, each
/// group time-sorted, so the cursor re-seats at most once per group.
#[allow(clippy::too_many_arguments)]
fn score_bot(
    table: &LogTable,
    view: &BotRowView<'_>,
    bot: usize,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
    basis: PolicyBasis,
    site_of: &[Option<usize>],
) -> (PolicyScore, SweepStats) {
    let n_sites = served.len().min(beliefs.n_sites());
    let mut basis_at = match basis {
        PolicyBasis::Believed => SiteCursors::over_beliefs(beliefs, bot, n_sites),
        PolicyBasis::Served => SiteCursors::over_served(served, n_sites),
    };
    let mut cache = AllowCache::new(corpus, &view.name);
    let mut score = PolicyScore::default();
    let mut stats = SweepStats::default();

    // Allowed-target metric, and τ-group collection in one sweep. The
    // grouping map is ordered so the crawl-delay pass below visits
    // groups deterministically (cursor-reset telemetry stays
    // worker-count and run-to-run invariant).
    let mut by_tau: BTreeMap<(usize, u64, usize), Vec<&RecordRow>> = BTreeMap::new();
    for &row in &view.rows {
        let Some(site) = site_of[row.sitename.index()] else {
            continue;
        };
        let t = row.timestamp.unix();
        stats.observe_row(t);
        let policy = basis_at.at(site, t, &mut stats);
        score.allowed.trials += 1;
        if cache.allows(table, policy, row.uri_path) {
            score.allowed.successes += 1;
        }
        by_tau.entry((row.asn.index(), row.ip_hash, row.useragent.index())).or_default().push(row);
    }

    // Crawl-delay under the basis policy: a delta is a trial only
    // when the policy live (on the later access's site, at its
    // instant) sets a delay for this bot; single-access τ groups
    // under a live delay count as one compliant instance, matching
    // the §4.2 convention.
    for rows in by_tau.values_mut() {
        rows.sort_by_key(|r| r.timestamp);
        if rows.len() == 1 {
            let row = rows[0];
            let site = site_of[row.sitename.index()].expect("filtered above");
            let policy = basis_at.at(site, row.timestamp.unix(), &mut stats);
            if policy.crawl_delay(corpus, &view.name).is_some() {
                score.crawl_delay.successes += 1;
                score.crawl_delay.trials += 1;
            }
            continue;
        }
        for pair in rows.windows(2) {
            let later = pair[1];
            let site = site_of[later.sitename.index()].expect("filtered above");
            let policy = basis_at.at(site, later.timestamp.unix(), &mut stats);
            let Some(required) = policy.crawl_delay(corpus, &view.name) else {
                continue;
            };
            let delta = later.timestamp.unix() - pair[0].timestamp.unix();
            score.crawl_delay.trials += 1;
            if delta as f64 >= required {
                score.crawl_delay.successes += 1;
            }
        }
    }
    (score, stats)
}

/// Serial binary-search reference for [`score_table`]: the original
/// single-threaded implementation, kept as an independently-written
/// oracle for the `attribution_equiv` proptests. Not a production path.
pub fn score_table_reference(
    table: &LogTable,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
    basis: PolicyBasis,
) -> BTreeMap<String, PolicyScore> {
    let logs = standardize_table(table);
    let site_of = site_index_of(table, served.len().min(beliefs.n_sites()));
    let bot_index: BTreeMap<&str, usize> =
        beliefs.bots.iter().enumerate().map(|(i, name)| (name.as_str(), i)).collect();

    let mut out = BTreeMap::new();
    for view in logs.bots.values() {
        let Some(&bot) = bot_index.get(view.name.as_str()) else {
            continue;
        };
        let policy_at = |site: usize, t: u64| -> BelievedPolicy {
            match basis {
                PolicyBasis::Believed => beliefs.timeline(bot, site).at(t),
                PolicyBasis::Served => served[site].at(t),
            }
        };
        let mut cache = AllowCache::new(corpus, &view.name);
        let mut score = PolicyScore::default();

        let mut by_tau: HashMap<(Sym, u64, Sym), Vec<&RecordRow>> = HashMap::new();
        for &row in &view.rows {
            let Some(site) = site_of[row.sitename.index()] else {
                continue;
            };
            let policy = policy_at(site, row.timestamp.unix());
            score.allowed.trials += 1;
            if cache.allows(table, policy, row.uri_path) {
                score.allowed.successes += 1;
            }
            by_tau.entry((row.asn, row.ip_hash, row.useragent)).or_default().push(row);
        }

        let mut groups: Vec<Vec<&RecordRow>> = by_tau.into_values().collect();
        for rows in &mut groups {
            rows.sort_by_key(|r| r.timestamp);
            if rows.len() == 1 {
                let row = rows[0];
                let site = site_of[row.sitename.index()].expect("filtered above");
                let policy = policy_at(site, row.timestamp.unix());
                if policy.crawl_delay(corpus, &view.name).is_some() {
                    score.crawl_delay.successes += 1;
                    score.crawl_delay.trials += 1;
                }
                continue;
            }
            for pair in rows.windows(2) {
                let later = pair[1];
                let site = site_of[later.sitename.index()].expect("filtered above");
                let policy = policy_at(site, later.timestamp.unix());
                let Some(required) = policy.crawl_delay(corpus, &view.name) else {
                    continue;
                };
                let delta = later.timestamp.unix() - pair[0].timestamp.unix();
                score.crawl_delay.trials += 1;
                if delta as f64 >= required {
                    score.crawl_delay.successes += 1;
                }
            }
        }

        if score.allowed.trials > 0 {
            out.insert(view.name.clone(), score);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Row-level excusal mask (believed-basis analysis support).
// ---------------------------------------------------------------------

/// Per-row excusal verdicts against the served ground truth: `true`
/// marks a served-policy violation the belief layer excuses (stale
/// cache or fetch-layer entitlement) — exactly the rows a
/// believed-basis experiment analysis drops from the non-compliant
/// pool. Robots.txt fetches, anonymous rows, unmonitored bots, foreign
/// sites, allowed fetches, and deliberate violations are all `false`.
///
/// Verdicts are pure per row, so the mask is worker-count invariant;
/// the row grid is fixed (independent of `threads`) so cursor
/// telemetry is too.
pub fn excusal_mask(
    table: &LogTable,
    beliefs: &BeliefAtlas,
    served: &[BeliefTimeline],
    corpus: &PolicyCorpus,
    threads: usize,
) -> Vec<bool> {
    let rows = table.rows();
    let n = rows.len();
    let n_sites = served.len().min(beliefs.n_sites());
    let site_of = site_index_of(table, n_sites);
    let robots = table.interner().get("/robots.txt");
    let bot_index: BTreeMap<&str, usize> =
        beliefs.bots.iter().enumerate().map(|(i, name)| (name.as_str(), i)).collect();

    // Map each distinct user-agent symbol to its atlas bot (None =
    // anonymous or unmonitored), once.
    let standardizer = Standardizer::new();
    let mut bot_of: Vec<Option<usize>> = vec![None; table.interner().len()];
    let mut seen = vec![false; table.interner().len()];
    for row in rows {
        let idx = row.useragent.index();
        if !seen[idx] {
            seen[idx] = true;
            bot_of[idx] = standardizer
                .standardize(table.resolve(row.useragent))
                .and_then(|s| bot_index.get(s.bot.canonical).copied());
        }
    }

    // Contiguous row chunks: rows are chronological, so each chunk's
    // cursors sweep forward from a fresh seat.
    const CHUNK: usize = 1 << 16;
    let chunks = n.div_ceil(CHUNK).max(1);
    let parts: Vec<(Vec<bool>, SweepStats)> = run_indexed(chunks, threads, |c| {
        let lo = c * CHUNK;
        let hi = ((c + 1) * CHUNK).min(n);
        let mut stats = SweepStats::default();
        let mut caches: Vec<Option<AllowCache<'_>>> =
            (0..beliefs.bots.len()).map(|_| None).collect();
        let mut believed_cur: Vec<Option<SiteCursors<'_>>> =
            (0..beliefs.bots.len()).map(|_| None).collect();
        let mut served_cur = SiteCursors::over_served(served, n_sites);
        let mut mask = vec![false; hi - lo];
        for (slot, row) in rows[lo..hi].iter().enumerate() {
            let Some(bot) = bot_of[row.useragent.index()] else {
                continue;
            };
            if Some(row.uri_path) == robots {
                continue;
            }
            let Some(site) = site_of[row.sitename.index()] else {
                continue;
            };
            let t = row.timestamp.unix();
            stats.observe_row(t);
            let believed = believed_cur[bot]
                .get_or_insert_with(|| SiteCursors::over_beliefs(beliefs, bot, n_sites))
                .at(site, t, &mut stats);
            let served_policy = served_cur.at(site, t, &mut stats);
            let cache =
                caches[bot].get_or_insert_with(|| AllowCache::new(corpus, &beliefs.bots[bot]));
            let allowed_believed = cache.allows(table, believed, row.uri_path);
            if cache.allows(table, served_policy, row.uri_path) {
                continue;
            }
            mask[slot] = allowed_believed
                && matches!(believed, BelievedPolicy::Version(_) | BelievedPolicy::AllowAll);
        }
        (mask, stats)
    });

    let mut stats = SweepStats::default();
    let mut mask = Vec::with_capacity(n);
    for (part, part_stats) in parts {
        mask.extend(part);
        stats.merge(part_stats);
    }
    stats.flush("excusal");
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_simnet::PolicyVersion;
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::time::Timestamp;

    const GPT_UA: &str = "Mozilla/5.0 (compatible; GPTBot/1.1)";
    const SITE: &str = "site-00.example.edu";

    fn rec(t: u64, path: &str) -> AccessRecord {
        AccessRecord {
            useragent: GPT_UA.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 7,
            asn: "MICROSOFT-CORP".into(),
            sitename: SITE.into(),
            uri_path: path.into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    fn atlas_with(timeline: BeliefTimeline) -> BeliefAtlas {
        let mut atlas = BeliefAtlas::new(vec!["GPTBot".into()], 1);
        *atlas.timeline_mut(0, 0) = timeline;
        atlas
    }

    fn v(version: PolicyVersion) -> BelievedPolicy {
        BelievedPolicy::Version(version)
    }

    #[test]
    fn cursor_matches_binary_search_everywhere() {
        let mut tl = BeliefTimeline::new();
        tl.record(100, v(PolicyVersion::Base));
        tl.record(500, BelievedPolicy::AllowAll);
        tl.record(900, v(PolicyVersion::V3DisallowAll));
        let mut stats = SweepStats::default();
        let mut cursor = TimelineCursor::new(&tl);
        // Forward sweep, then rewinds, then forward again.
        for t in [0, 99, 100, 499, 500, 901, 10, 500, 899, 2_000, 0] {
            assert_eq!(cursor.at(t, &mut stats), tl.at(t), "t={t}");
        }
        assert_eq!(stats.lookups, 11);
        assert!(stats.resets >= 2, "rewinds re-seat: {stats:?}");
    }

    #[test]
    fn stale_cache_crawl_is_an_artifact_not_a_violation() {
        // Served swaps Base → v3 at t=1000; the bot's belief stays at
        // the stale Base document throughout. Page fetches after the
        // swap violate the served policy but attribute to the stale
        // cache — zero deliberate violations.
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(v(PolicyVersion::Base)));
        let mut served_tl = BeliefTimeline::always(v(PolicyVersion::Base));
        served_tl.record(1_000, v(PolicyVersion::V3DisallowAll));
        let served = vec![served_tl];

        let records = vec![
            rec(100, "/news/item-001"),   // allowed under both
            rec(1_500, "/news/item-001"), // served v3 forbids, stale Base allows
            rec(1_600, "/news/item-002"),
            rec(1_700, "/robots.txt"), // never an attribution target
        ];
        let table = LogTable::from_records(&records);
        let out = attribute_table(&table, &beliefs, &served, &corpus);
        let c = out["GPTBot"];
        assert_eq!(c.accesses, 3);
        assert_eq!(c.allowed_served, 1);
        assert_eq!(c.stale_cache, 2, "{c:?}");
        assert_eq!(c.deliberate, 0);
        assert_eq!(c.fetch_artifact, 0);
        assert_eq!(c.believed_violations, 0, "its own belief allowed everything");
        assert_eq!(c.violations_served(), 2);
        assert_eq!(c.deliberate_share(), Some(0.0));

        // The excusal mask marks exactly the two stale-cache rows.
        let mask = excusal_mask(&table, &beliefs, &served, &corpus, 1);
        assert_eq!(mask, vec![false, true, true, false]);
    }

    #[test]
    fn believed_violations_are_deliberate() {
        // The bot's own belief is the v3 document (it fetched it!) and
        // it crawls pages anyway: deliberate, whatever is served.
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(v(PolicyVersion::V3DisallowAll)));
        let served = vec![BeliefTimeline::always(v(PolicyVersion::V3DisallowAll))];
        let records = vec![rec(10, "/news/item-001"), rec(20, "/people/person-0001")];
        let table = LogTable::from_records(&records);
        let c = attribute_table(&table, &beliefs, &served, &corpus)["GPTBot"];
        assert_eq!(c.deliberate, 2);
        assert_eq!(c.believed_violations, 2);
        assert_eq!(c.stale_cache + c.fetch_artifact, 0);
        assert_eq!(c.deliberate_share(), Some(1.0));
        // Deliberate violations are never excused.
        let mask = excusal_mask(&table, &beliefs, &served, &corpus, 1);
        assert_eq!(mask, vec![false, false]);
    }

    #[test]
    fn never_fetching_robots_is_deliberate() {
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::new()); // Unfetched forever
        let served = vec![BeliefTimeline::always(v(PolicyVersion::V3DisallowAll))];
        let table = LogTable::from_records(&[rec(10, "/news/item-001")]);
        let c = attribute_table(&table, &beliefs, &served, &corpus)["GPTBot"];
        assert_eq!(c.deliberate, 1, "choosing ignorance is not an excuse: {c:?}");
        assert_eq!(c.believed_violations, 0, "it believed nothing forbade it");
    }

    #[test]
    fn fetch_layer_entitlement_is_an_artifact() {
        // The bot's last robots.txt fetch resolved 4xx: RFC 9309 says
        // crawl without restriction. The served file forbids the path —
        // an artifact of the fetch layer, not defiance.
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(BelievedPolicy::AllowAll));
        let served = vec![BeliefTimeline::always(v(PolicyVersion::V3DisallowAll))];
        let table = LogTable::from_records(&[rec(10, "/news/item-001")]);
        let c = attribute_table(&table, &beliefs, &served, &corpus)["GPTBot"];
        assert_eq!(c.fetch_artifact, 1, "{c:?}");
        assert_eq!(c.deliberate, 0);
        let mask = excusal_mask(&table, &beliefs, &served, &corpus, 1);
        assert_eq!(mask, vec![true], "fetch artifacts are excused");
    }

    #[test]
    fn restricted_paths_violate_under_base_too() {
        // /secure/* is disallowed even by the Base file: a fetch there
        // with a fresh Base belief is deliberate under both bases.
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(v(PolicyVersion::Base)));
        let served = vec![BeliefTimeline::always(v(PolicyVersion::Base))];
        let table = LogTable::from_records(&[rec(10, "/secure/admin-0"), rec(20, "/about")]);
        let c = attribute_table(&table, &beliefs, &served, &corpus)["GPTBot"];
        assert_eq!(c.accesses, 2);
        assert_eq!(c.allowed_served, 1);
        assert_eq!(c.deliberate, 1);
        assert_eq!(c.believed_violations, 1);
    }

    #[test]
    fn score_bases_diverge_exactly_where_beliefs_do() {
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(v(PolicyVersion::Base)));
        let mut served_tl = BeliefTimeline::always(v(PolicyVersion::Base));
        served_tl.record(1_000, v(PolicyVersion::V3DisallowAll));
        let served = vec![served_tl];
        let records = vec![
            rec(100, "/news/item-001"),
            rec(1_500, "/news/item-001"),
            rec(1_600, "/robots.txt"),
        ];
        let table = LogTable::from_records(&records);

        let believed =
            score_table(&table, &beliefs, &served, &corpus, PolicyBasis::Believed)["GPTBot"];
        let served_score =
            score_table(&table, &beliefs, &served, &corpus, PolicyBasis::Served)["GPTBot"];
        // Believed basis: all three rows allowed (robots.txt always).
        assert_eq!(believed.allowed, DirectiveCounts { successes: 3, trials: 3 });
        // Served basis: the post-swap page fetch is a violation.
        assert_eq!(served_score.allowed, DirectiveCounts { successes: 2, trials: 3 });
        // No crawl delay in either policy: zero trials.
        assert_eq!(believed.crawl_delay.trials, 0);
        assert_eq!(served_score.crawl_delay.trials, 0);
    }

    #[test]
    fn crawl_delay_trials_only_while_delay_is_live() {
        let corpus = PolicyCorpus::new();
        // Served: v1 (30 s crawl delay) from t=1000 on; Base before.
        let mut served_tl = BeliefTimeline::always(v(PolicyVersion::Base));
        served_tl.record(1_000, v(PolicyVersion::V1CrawlDelay));
        let served = vec![served_tl.clone()];
        let beliefs = atlas_with(served_tl); // belief tracks served
        let records = vec![
            rec(0, "/a"),
            rec(5, "/b"),     // delta 5 under Base: no trial
            rec(1_100, "/c"), // delta 1095 under v1: compliant trial
            rec(1_110, "/d"), // delta 10 under v1: violating trial
        ];
        let table = LogTable::from_records(&records);
        let s = score_table(&table, &beliefs, &served, &corpus, PolicyBasis::Served)["GPTBot"];
        assert_eq!(s.crawl_delay, DirectiveCounts { successes: 1, trials: 2 }, "{s:?}");
        // A single access while the delay is live counts once.
        let table = LogTable::from_records(&[rec(2_000, "/a")]);
        let s = score_table(&table, &beliefs, &served, &corpus, PolicyBasis::Served)["GPTBot"];
        assert_eq!(s.crawl_delay, DirectiveCounts { successes: 1, trials: 1 });
    }

    #[test]
    fn unknown_agents_and_foreign_sites_are_skipped() {
        let corpus = PolicyCorpus::new();
        let beliefs = atlas_with(BeliefTimeline::always(v(PolicyVersion::Base)));
        let served = vec![BeliefTimeline::always(v(PolicyVersion::Base))];
        let mut records = vec![rec(10, "/about")];
        records.push(AccessRecord { useragent: "curl/8.0".into(), ..rec(20, "/about") });
        records.push(AccessRecord { sitename: "elsewhere.example.com".into(), ..rec(30, "/x") });
        let table = LogTable::from_records(&records);
        let out = attribute_table(&table, &beliefs, &served, &corpus);
        assert_eq!(out.len(), 1);
        assert_eq!(out["GPTBot"].accesses, 1);
        let mask = excusal_mask(&table, &beliefs, &served, &corpus, 2);
        assert_eq!(mask, vec![false, false, false]);
    }
}
