//! robots.txt re-check-frequency analysis (paper §5.1).
//!
//! Two outputs:
//!
//! * per-bot window coverage — did the bot re-fetch `robots.txt` within
//!   every 12/24/48/72/168-hour window of the observation period?
//!   (Figure 10 aggregates the proportion of bots per category that did),
//! * per-bot-per-phase check booleans — did the bot fetch `robots.txt`
//!   at all while a given experimental file was live? (Table 7's
//!   "Checked robots.txt" columns).

use std::collections::{BTreeMap, HashMap};

use botscope_simnet::PolicyVersion;
use botscope_stats::window::{window_coverage, PAPER_WINDOWS_HOURS};
use botscope_useragent::BotCategory;
use botscope_weblog::intern::{StringInterner, Sym};
use botscope_weblog::sink::RowSink;
use botscope_weblog::table::{LogTable, RecordRow};

use crate::metrics::PathClasses;
use crate::pipeline::{standardize_table, StandardizedTable};

/// Per-bot re-check profile.
#[derive(Debug, Clone, PartialEq)]
pub struct RecheckProfile {
    /// Canonical bot name.
    pub bot: String,
    /// Category.
    pub category: BotCategory,
    /// Times (unix secs) of robots.txt fetches.
    pub check_times: Vec<u64>,
    /// For each paper window length (hours → fully covered?).
    pub covered: BTreeMap<u64, bool>,
}

impl RecheckProfile {
    /// Whether the bot checked robots.txt at all.
    pub fn ever_checked(&self) -> bool {
        !self.check_times.is_empty()
    }
}

/// Figure 10's series: per category, the proportion of (checking) bots
/// that re-check within each window length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecheckByCategory {
    /// (category, window hours) → proportion in [0, 1].
    pub proportions: BTreeMap<(BotCategory, u64), f64>,
    /// Bots per category that fetched robots.txt at least once.
    pub checking_bots: BTreeMap<BotCategory, usize>,
}

/// Build per-bot re-check profiles over an observation horizon.
///
/// `horizon_end` is the end of the dataset (unix secs); windows are
/// anchored at each bot's first robots.txt fetch, per the paper.
/// robots.txt fetches are recognized by path symbol, so the scan is
/// string-free. Convenience wrapper over [`profiles_table_with`] that
/// classifies the interner itself.
pub fn profiles_table(logs: &StandardizedTable<'_>, horizon_end: u64) -> Vec<RecheckProfile> {
    profiles_table_with(&PathClasses::new(logs.table), logs, horizon_end)
}

/// [`profiles_table`] with a caller-supplied [`PathClasses`], so callers
/// that already classified the table's interner (report generation does)
/// don't pay for a second scan of it.
pub fn profiles_table_with(
    classes: &PathClasses,
    logs: &StandardizedTable<'_>,
    horizon_end: u64,
) -> Vec<RecheckProfile> {
    let mut out = Vec::new();
    for view in logs.bots.values() {
        let mut check_times: Vec<u64> = view
            .rows
            .iter()
            .filter(|r| classes.is_robots(r.uri_path))
            .map(|r| r.timestamp.unix())
            .collect();
        check_times.sort_unstable();
        let mut covered = BTreeMap::new();
        for &h in &PAPER_WINDOWS_HOURS {
            let ok = window_coverage(&check_times, h * 3600, horizon_end)
                .is_some_and(|c| c.fully_covered());
            covered.insert(h, ok);
        }
        out.push(RecheckProfile {
            bot: view.name.clone(),
            category: view.category,
            check_times,
            covered,
        });
    }
    out
}

/// Profiles straight from an interned table — the entry point for
/// *monitored* fetch logs: the monitoring daemon's `FetchEventLog`
/// emits `/robots.txt` rows in the ordinary access-record schema, so
/// Figure 10 recomputes from live-monitoring output exactly as it does
/// from weblog rows. (Standardizes the table, then runs
/// [`profiles_table`].)
pub fn profiles_from_table(table: &LogTable, horizon_end: u64) -> Vec<RecheckProfile> {
    let logs = standardize_table(table);
    profiles_table(&logs, horizon_end)
}

/// Aggregate profiles into Figure 10's category proportions. Only bots
/// that checked robots.txt at least once enter the denominator ("if they
/// check it at all", §5.1).
pub fn by_category(profiles: &[RecheckProfile]) -> RecheckByCategory {
    let mut out = RecheckByCategory::default();
    let mut per_cat: BTreeMap<BotCategory, Vec<&RecheckProfile>> = BTreeMap::new();
    for p in profiles {
        if p.ever_checked() {
            per_cat.entry(p.category).or_default().push(p);
        }
    }
    for (cat, ps) in per_cat {
        out.checking_bots.insert(cat, ps.len());
        for &h in &PAPER_WINDOWS_HOURS {
            let covered = ps.iter().filter(|p| p.covered[&h]).count();
            out.proportions.insert((cat, h), covered as f64 / ps.len() as f64);
        }
    }
    out
}

/// Per-site policy deployment windows: site name →
/// `(version, from_unix, to_unix)` spans, time-ascending — the shape
/// `SitePolicyServer::version_windows` exports per monitored site.
pub type SiteVersionWindows = BTreeMap<String, Vec<(PolicyVersion, u64, u64)>>;

/// Coalesce deployment windows across non-behavioral transitions.
///
/// `is_behavioral(from, to)` decides whether swapping `from` for `to`
/// changed any decision (the robots.txt semantic analyzer's
/// `classify_change` is the intended oracle; this crate stays
/// parser-agnostic by taking a closure). Contiguous spans whose
/// boundary transition is *not* behavioral merge into one span that
/// keeps the earlier version label — a bot that checked during either
/// half saw the same effective policy, so Table 7's "checked while vN
/// was live" columns should not credit (or debit) the cosmetic swap.
pub fn coalesce_behavioral_windows(
    windows: &SiteVersionWindows,
    is_behavioral: impl Fn(PolicyVersion, PolicyVersion) -> bool,
) -> SiteVersionWindows {
    let mut out = SiteVersionWindows::new();
    for (site, spans) in windows {
        let mut merged: Vec<(PolicyVersion, u64, u64)> = Vec::with_capacity(spans.len());
        for &(version, from, to) in spans {
            match merged.last_mut() {
                Some(prev) if prev.2 == from && !is_behavioral(prev.0, version) => {
                    prev.2 = to;
                }
                _ => merged.push((version, from, to)),
            }
        }
        out.insert(site.clone(), merged);
    }
    out
}

/// One bot's Table 7 digest-window row: per policy version, whether the
/// bot fetched robots.txt *on a site while that site was serving the
/// version* (`None` = the version was never live anywhere the bot could
/// have seen it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseCheckRow {
    /// Canonical bot name.
    pub bot: String,
    /// Category.
    pub category: BotCategory,
    /// version index (via [`PolicyVersion::index`]) → checked?
    pub checked: [Option<bool>; 4],
    /// Total robots.txt fetches attributed to the bot.
    pub checks: u64,
}

/// Derive per-phase "checked robots.txt while vN was live" columns from
/// monitored fetch logs: thread each site's deployment windows through
/// every bot's robots.txt fetch trace. A version's cell is `Some(true)`
/// once any fetch lands inside any site's window for that version,
/// `Some(false)` when windows existed but no fetch hit them, and `None`
/// when the version was never deployed. Rows come back in bot-name
/// order; bots with no robots.txt fetch at all still appear (all
/// deployed cells `Some(false)`) — those are Table 7's never-checkers.
pub fn phase_check_matrix(table: &LogTable, windows: &SiteVersionWindows) -> Vec<PhaseCheckRow> {
    let classes = PathClasses::new(table);
    let logs = standardize_table(table);
    // Which versions were deployed at all (the `None` columns).
    let mut deployed = [false; 4];
    for spans in windows.values() {
        for &(version, _, _) in spans {
            deployed[version.index()] = true;
        }
    }
    // Resolve site symbols once, indexed by symbol so the per-row
    // lookup is O(1) even on 100k-site monitor estates.
    type SpanSlice<'w> = &'w [(PolicyVersion, u64, u64)];
    let mut site_spans: Vec<Option<SpanSlice<'_>>> = vec![None; table.interner().len()];
    for (name, spans) in windows {
        if let Some(sym) = table.interner().get(name) {
            site_spans[sym.index()] = Some(spans.as_slice());
        }
    }

    let mut out = Vec::with_capacity(logs.bots.len());
    for view in logs.bots.values() {
        let mut hit = [false; 4];
        let mut checks = 0u64;
        for row in &view.rows {
            if !classes.is_robots(row.uri_path) {
                continue;
            }
            checks += 1;
            let t = row.timestamp.unix();
            if let Some(spans) = site_spans[row.sitename.index()] {
                if let Some(&(version, _, _)) =
                    spans.iter().find(|&&(_, from, to)| t >= from && t < to)
                {
                    hit[version.index()] = true;
                }
            }
        }
        let mut checked = [None; 4];
        for i in 0..4 {
            if deployed[i] {
                checked[i] = Some(hit[i]);
            }
        }
        out.push(PhaseCheckRow {
            bot: view.name.clone(),
            category: view.category,
            checked,
            checks,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Streaming accumulators (bounded-memory §5.1 reports).
// ---------------------------------------------------------------------

/// Incremental [`window_coverage`] over one bot's robots.txt fetch
/// times, arriving in nondecreasing order.
///
/// State is O(1): the anchor, the complete-window count (fixed the
/// moment the anchor lands), the highest window index hit so far, and
/// whether any window was skipped. For sorted input this is equivalent
/// to the batch computation: the window index only ever advances, so a
/// gap (`idx > hi + 1`) can never be filled by a later fetch.
#[derive(Debug, Clone, Copy)]
struct WindowAccum {
    window_secs: u64,
    anchored: bool,
    first: u64,
    total: u64,
    counted_any: bool,
    hi: u64,
    missed: bool,
}

impl WindowAccum {
    fn new(window_secs: u64) -> WindowAccum {
        WindowAccum {
            window_secs,
            anchored: false,
            first: 0,
            total: 0,
            counted_any: false,
            hi: 0,
            missed: false,
        }
    }

    fn push(&mut self, t: u64, horizon_end: u64) {
        if !self.anchored {
            self.anchored = true;
            self.first = t;
            self.total = if t >= horizon_end { 0 } else { (horizon_end - t) / self.window_secs };
            // The anchor fetch itself hits window 0 (when any complete
            // window exists at all).
            self.counted_any = self.total > 0;
            return;
        }
        debug_assert!(t >= self.first, "rows must arrive in nondecreasing time order");
        if t < self.first || t >= horizon_end {
            return;
        }
        let idx = (t - self.first) / self.window_secs;
        if idx >= self.total {
            return;
        }
        if idx > self.hi + 1 {
            self.missed = true;
        }
        if idx > self.hi {
            self.hi = idx;
        }
    }

    /// The batch predicate: every complete window contained a fetch.
    fn fully_covered(&self) -> bool {
        self.counted_any && !self.missed && self.hi + 1 == self.total
    }
}

/// Per-bot streaming state: O(windows) coverage accumulators plus the
/// Table 7 hit flags.
#[derive(Debug, Clone)]
struct BotAccum {
    category: BotCategory,
    checks: u64,
    hit: [bool; 4],
    windows: [WindowAccum; 5],
}

/// Bounded-memory accumulator for the §5.1 monitor reports.
///
/// Feed it, as a [`RowSink`], the daemon's streamed fetch rows — in the
/// k-way merge's canonical, time-ascending order — and it reproduces exactly
/// what the materialized pipeline computes as
/// [`by_category`]`(&`[`profiles_from_table`]`(..))` and
/// [`phase_check_matrix`]: the per-category re-check coverage table and
/// the monitored Table 7 matrix. State is O(bots × windows + sites),
/// never O(rows), so `monitor --stream` prints the same report bytes as
/// the materialized path without ever holding the table.
pub struct RecheckAccumulator {
    horizon_end: u64,
    windows: SiteVersionWindows,
    deployed: [bool; 4],
    standardizer: botscope_useragent::Standardizer,
    /// Stream user-agent symbol → standardized bot (one stream, one
    /// dictionary: see [`RowSink`]).
    ua_cache: HashMap<Sym, Option<&'static botscope_useragent::BotSpec>>,
    bots: BTreeMap<&'static str, BotAccum>,
}

impl RecheckAccumulator {
    /// An empty accumulator over `windows` (per-site deployment spans,
    /// known before streaming starts) and the observation horizon.
    pub fn new(windows: SiteVersionWindows, horizon_end: u64) -> RecheckAccumulator {
        let mut deployed = [false; 4];
        for spans in windows.values() {
            for &(version, _, _) in spans {
                deployed[version.index()] = true;
            }
        }
        RecheckAccumulator {
            horizon_end,
            windows,
            deployed,
            standardizer: botscope_useragent::Standardizer::new(),
            ua_cache: HashMap::new(),
            bots: BTreeMap::new(),
        }
    }

    /// Figure 10's aggregation — equal to
    /// `by_category(&profiles_from_table(table, horizon_end))` over the
    /// materialized equivalent of the stream.
    pub fn by_category(&self) -> RecheckByCategory {
        let mut out = RecheckByCategory::default();
        let mut per_cat: BTreeMap<BotCategory, (usize, [usize; 5])> = BTreeMap::new();
        for b in self.bots.values() {
            if b.checks == 0 {
                continue;
            }
            let entry = per_cat.entry(b.category).or_default();
            entry.0 += 1;
            for (i, w) in b.windows.iter().enumerate() {
                entry.1[i] += usize::from(w.fully_covered());
            }
        }
        for (cat, (n, covered)) in per_cat {
            out.checking_bots.insert(cat, n);
            for (i, &h) in PAPER_WINDOWS_HOURS.iter().enumerate() {
                out.proportions.insert((cat, h), covered[i] as f64 / n as f64);
            }
        }
        out
    }

    /// The monitored Table 7 matrix — equal to
    /// `phase_check_matrix(table, windows)` over the materialized
    /// equivalent of the stream.
    pub fn phase_rows(&self) -> Vec<PhaseCheckRow> {
        self.bots
            .iter()
            .map(|(name, b)| {
                let mut checked = [None; 4];
                for (i, slot) in checked.iter_mut().enumerate() {
                    if self.deployed[i] {
                        *slot = Some(b.hit[i]);
                    }
                }
                PhaseCheckRow {
                    bot: (*name).to_string(),
                    category: b.category,
                    checked,
                    checks: b.checks,
                }
            })
            .collect()
    }

    /// The deployment windows the accumulator was built over.
    pub fn site_windows(&self) -> &SiteVersionWindows {
        &self.windows
    }
}

impl RowSink for RecheckAccumulator {
    /// Absorb one streamed row. Known bots register a row view even
    /// when the row is not a robots.txt fetch (Table 7's never-checker
    /// rows); anonymous agents are ignored, as in standardization.
    fn write_row(&mut self, interner: &StringInterner, row: &RecordRow) -> std::io::Result<()> {
        let Self { ua_cache, standardizer, .. } = self;
        let spec = *ua_cache.entry(row.useragent).or_insert_with(|| {
            standardizer.standardize(interner.resolve(row.useragent)).map(|s| s.bot)
        });
        let Some(bot) = spec else {
            return Ok(());
        };
        let accum = self.bots.entry(bot.canonical).or_insert_with(|| BotAccum {
            category: bot.category,
            checks: 0,
            hit: [false; 4],
            windows: PAPER_WINDOWS_HOURS.map(|h| WindowAccum::new(h * 3600)),
        });
        if interner.resolve(row.uri_path) != "/robots.txt" {
            return Ok(());
        }
        accum.checks += 1;
        let t = row.timestamp.unix();
        for w in &mut accum.windows {
            w.push(t, self.horizon_end);
        }
        if let Some(spans) = self.windows.get(interner.resolve(row.sitename)) {
            if let Some(&(version, _, _)) = spans.iter().find(|&&(_, from, to)| t >= from && t < to)
            {
                accum.hit[version.index()] = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::time::Timestamp;

    fn rec(ua: &str, t: u64, path: &str) -> AccessRecord {
        AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 1,
            asn: "GOOGLE".into(),
            sitename: "s".into(),
            uri_path: path.into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    const H: u64 = 3600;

    #[test]
    fn frequent_checker_covers_all_windows() {
        // GPTBot checks every 10 hours for 15 days.
        let mut records = Vec::new();
        for i in 0..36 {
            records.push(rec("Mozilla/5.0 (compatible; GPTBot/1.1)", i * 10 * H, "/robots.txt"));
        }
        let ps = profiles_from_table(&LogTable::from_records(&records), 360 * H);
        let gpt = ps.iter().find(|p| p.bot == "GPTBot").unwrap();
        assert!(gpt.ever_checked());
        for &h in &PAPER_WINDOWS_HOURS {
            assert!(gpt.covered[&h], "window {h}h");
        }
    }

    #[test]
    fn sparse_checker_covers_only_long_windows() {
        // Checks every 100 hours.
        let mut records = Vec::new();
        for i in 0..10 {
            records.push(rec("Mozilla/5.0 (compatible; bingbot/2.0)", i * 100 * H, "/robots.txt"));
        }
        let ps = profiles_from_table(&LogTable::from_records(&records), 1000 * H);
        let bing = ps.iter().find(|p| p.bot == "bingbot").unwrap();
        assert!(!bing.covered[&12]);
        assert!(!bing.covered[&24]);
        assert!(bing.covered[&168]);
    }

    #[test]
    fn never_checker_excluded_from_category_proportions() {
        let records = vec![
            rec("axios/1.6.2", 0, "/a"),
            rec("axios/1.6.2", 10, "/b"),
            rec("Mozilla/5.0 (compatible; SemrushBot/7~bl)", 0, "/robots.txt"),
        ];
        let ps = profiles_from_table(&LogTable::from_records(&records), 100 * H);
        let axios = ps.iter().find(|p| p.bot == "Axios").unwrap();
        assert!(!axios.ever_checked());
        let agg = by_category(&ps);
        assert!(
            !agg.checking_bots.contains_key(&BotCategory::Other)
                || agg.checking_bots[&BotCategory::Other] == 0
                || {
                    // Axios is Other; SemrushBot is SEO. Other must not count Axios.
                    agg.checking_bots.get(&BotCategory::Other).copied().unwrap_or(0) == 0
                }
        );
        assert_eq!(agg.checking_bots[&BotCategory::SeoCrawler], 1);
    }

    #[test]
    fn category_proportions_bounds() {
        let mut records = Vec::new();
        // Two SEO bots: one dense checker, one single check.
        for i in 0..40 {
            records.push(rec(
                "Mozilla/5.0 (compatible; SemrushBot/7~bl)",
                i * 6 * H,
                "/robots.txt",
            ));
        }
        records.push(rec("Mozilla/5.0 (compatible; AhrefsBot/7.0)", 0, "/robots.txt"));
        let ps = profiles_from_table(&LogTable::from_records(&records), 240 * H);
        let agg = by_category(&ps);
        assert_eq!(agg.checking_bots[&BotCategory::SeoCrawler], 2);
        for &h in &PAPER_WINDOWS_HOURS {
            let p = agg.proportions[&(BotCategory::SeoCrawler, h)];
            assert!((0.0..=1.0).contains(&p));
        }
        // Dense checker covers 12h windows, single-check bot does not →
        // proportion is 0.5 at 12h.
        assert!((agg.proportions[&(BotCategory::SeoCrawler, 12)] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn phase_check_matrix_threads_site_windows() {
        use botscope_simnet::PolicyVersion as V;
        // Site A deploys Base then v1; site B stays Base. GPTBot checks
        // A during v1 and B during Base; bingbot checks nothing inside
        // any window; axios never checks at all.
        let rec_on = |ua: &str, site: &str, t: u64, path: &str| AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 1,
            asn: "GOOGLE".into(),
            sitename: site.into(),
            uri_path: path.into(),
            status: 200,
            bytes: 1,
            referer: None,
        };
        let gpt = "Mozilla/5.0 (compatible; GPTBot/1.1)";
        let bing = "Mozilla/5.0 (compatible; bingbot/2.0)";
        let records = vec![
            rec_on(gpt, "a.example.edu", 1_500, "/robots.txt"), // A: inside v1
            rec_on(gpt, "b.example.edu", 10, "/robots.txt"),    // B: inside Base
            rec_on(bing, "a.example.edu", 5_000, "/robots.txt"), // A: past every window
            rec_on("axios/1.6.2", "a.example.edu", 100, "/page"),
        ];
        let table = LogTable::from_records(&records);
        let mut windows = SiteVersionWindows::new();
        windows.insert(
            "a.example.edu".into(),
            vec![(V::Base, 0, 1_000), (V::V1CrawlDelay, 1_000, 2_000)],
        );
        windows.insert("b.example.edu".into(), vec![(V::Base, 0, 2_000)]);
        let matrix = phase_check_matrix(&table, &windows);
        let row = |bot: &str| matrix.iter().find(|r| r.bot == bot).unwrap();

        let g = row("GPTBot");
        assert_eq!(g.checked[V::Base.index()], Some(true));
        assert_eq!(g.checked[V::V1CrawlDelay.index()], Some(true));
        assert_eq!(g.checked[V::V2EndpointOnly.index()], None, "never deployed");
        assert_eq!(g.checks, 2);

        let b = row("bingbot");
        assert_eq!(b.checked[V::Base.index()], Some(false), "check landed outside the windows");
        assert_eq!(b.checks, 1);

        let a = row("Axios");
        assert_eq!(a.checks, 0);
        assert_eq!(a.checked[V::Base.index()], Some(false), "Table 7 never-checker row");
    }

    #[test]
    fn coalesce_merges_only_cosmetic_contiguous_spans() {
        use PolicyVersion as V;
        let mut windows = SiteVersionWindows::new();
        windows.insert(
            "a.example.edu".into(),
            vec![
                (V::Base, 0, 1_000),
                (V::V1CrawlDelay, 1_000, 2_000),
                (V::V2EndpointOnly, 2_000, 3_000),
            ],
        );
        // Gap between spans: never merged, even if cosmetic.
        windows
            .insert("b.example.edu".into(), vec![(V::Base, 0, 500), (V::V1CrawlDelay, 600, 900)]);

        // Oracle: only Base -> V1 is cosmetic.
        let cosmetic = |from: V, to: V| !(from == V::Base && to == V::V1CrawlDelay);
        let merged = coalesce_behavioral_windows(&windows, cosmetic);
        assert_eq!(
            merged["a.example.edu"],
            vec![(V::Base, 0, 2_000), (V::V2EndpointOnly, 2_000, 3_000)],
            "cosmetic boundary folds into the earlier span"
        );
        assert_eq!(
            merged["b.example.edu"],
            vec![(V::Base, 0, 500), (V::V1CrawlDelay, 600, 900)],
            "non-contiguous spans stay separate"
        );

        // All-behavioral oracle: identity.
        let same = coalesce_behavioral_windows(&windows, |_, _| true);
        assert_eq!(same, windows);
    }
}
