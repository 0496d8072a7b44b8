//! The three compliance metrics of paper §4.2.
//!
//! **The τ-tuple** (normative definition — every stratification in this
//! workspace refers here): the paper groups accesses "into sets of
//! accesses associated with a unique triple τᵢ = (ASN, IP hash,
//! user-agent)", where the user agent is the **raw** header string, not
//! the canonical bot name. Two raw UA variants of one bot (say
//! `GPTBot/1.1` and `GPTBot/1.2`) are distinct clients with independent
//! pacing; pooling them would measure deltas between unrelated request
//! streams and systematically understate crawl-delay compliance.
//!
//! All three metrics reduce to a success/trial count so they can feed
//! the pooled two-proportion z-test directly:
//!
//! * **crawl delay** — stratify a bot's accesses by the τ-tuple; within
//!   each τ sort by time and test each inter-access delta against the
//!   30-second requirement; a τ with a single access counts as one
//!   compliant delta (the paper: "we count this as an instance of
//!   compliance");
//! * **endpoint access** — per user agent, the fraction of accesses that
//!   hit an allowed target: `/robots.txt` (always permitted) or
//!   `/page-data/*`;
//! * **disallow** — per user agent, the fraction of accesses that hit
//!   `/robots.txt`, the only permitted target under full denial.

use botscope_weblog::intern::Sym;
use botscope_weblog::table::{LogTable, RecordRow};

/// A success/trial pair; the unit every metric returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectiveCounts {
    /// Compliant observations.
    pub successes: u64,
    /// Total observations.
    pub trials: u64,
}

impl DirectiveCounts {
    /// Compliance ratio; `None` when there are no trials.
    pub fn ratio(&self) -> Option<f64> {
        if self.trials == 0 {
            None
        } else {
            Some(self.successes as f64 / self.trials as f64)
        }
    }

    /// Merge two counts.
    pub fn merge(&mut self, other: DirectiveCounts) {
        self.successes += other.successes;
        self.trials += other.trials;
    }

    /// As a `(successes, trials)` tuple for the z-test API.
    pub fn as_tuple(&self) -> (u64, u64) {
        (self.successes, self.trials)
    }
}

/// The crawl-delay requirement of the paper's v1 file, in seconds.
pub const CRAWL_DELAY_SECS: u64 = 30;

/// Per-symbol path classification, computed once per table so the
/// metrics never touch a string.
#[derive(Debug, Clone)]
pub struct PathClasses {
    flags: Vec<u8>,
}

impl PathClasses {
    const ROBOTS: u8 = 1;
    const PAGE_DATA: u8 = 2;

    /// Classify every interned string of `table` (non-path symbols
    /// simply get no flags).
    pub fn new(table: &LogTable) -> PathClasses {
        let flags = table
            .interner()
            .iter()
            .map(|(_, s)| {
                let mut f = 0u8;
                if s == "/robots.txt" {
                    f |= Self::ROBOTS;
                }
                if s.starts_with("/page-data/") {
                    f |= Self::PAGE_DATA;
                }
                f
            })
            .collect();
        PathClasses { flags }
    }

    /// Whether the symbol is exactly `/robots.txt`.
    pub fn is_robots(&self, path: Sym) -> bool {
        self.flags[path.index()] & Self::ROBOTS != 0
    }

    /// Whether the symbol starts with `/page-data/`.
    pub fn is_page_data(&self, path: Sym) -> bool {
        self.flags[path.index()] & Self::PAGE_DATA != 0
    }
}

/// Crawl-delay compliance for a row set, stratified by the full
/// (ASN, IP hash, raw user agent) τ-tuple exactly as §4.2 prescribes
/// (see the module docs for the normative definition), keyed by
/// symbols instead of strings.
///
/// Callers typically pass one *canonical bot*'s rows; since a canonical
/// bot pools raw UA variants, the raw agent stays part of the key here
/// so variants never share a τ group. Rows may be unsorted.
pub fn crawl_delay_counts_rows(rows: &[&RecordRow], delay_secs: u64) -> DirectiveCounts {
    use std::collections::HashMap;
    let mut by_tau: HashMap<(Sym, u64, Sym), Vec<u64>> = HashMap::new();
    for r in rows {
        by_tau.entry((r.asn, r.ip_hash, r.useragent)).or_default().push(r.timestamp.unix());
    }
    let mut counts = DirectiveCounts::default();
    for (_, mut times) in by_tau {
        times.sort_unstable();
        if times.len() == 1 {
            // Single access: counted as compliant.
            counts.successes += 1;
            counts.trials += 1;
            continue;
        }
        for pair in times.windows(2) {
            let delta = pair[1] - pair[0];
            counts.trials += 1;
            if delta >= delay_secs {
                counts.successes += 1;
            }
        }
    }
    counts
}

/// Endpoint-access compliance: allowed targets are `/robots.txt` and the
/// `/page-data/` prefix (paper §4.2, v2 analysis).
pub fn endpoint_counts_rows(classes: &PathClasses, rows: &[&RecordRow]) -> DirectiveCounts {
    let mut counts = DirectiveCounts::default();
    for r in rows {
        counts.trials += 1;
        if classes.is_robots(r.uri_path) || classes.is_page_data(r.uri_path) {
            counts.successes += 1;
        }
    }
    counts
}

/// Disallow compliance: the only allowed target is `/robots.txt`
/// (paper §4.2, v3 analysis).
pub fn disallow_counts_rows(classes: &PathClasses, rows: &[&RecordRow]) -> DirectiveCounts {
    let mut counts = DirectiveCounts::default();
    for r in rows {
        counts.trials += 1;
        if classes.is_robots(r.uri_path) {
            counts.successes += 1;
        }
    }
    counts
}

/// Convenience: group a table per raw user agent and compute crawl-delay
/// counts for each (used by the ablation bench).
pub fn crawl_delay_by_useragent(
    table: &LogTable,
    delay_secs: u64,
) -> Vec<(String, DirectiveCounts)> {
    table
        .by_useragent()
        .into_iter()
        .map(|(ua, rows)| (ua.to_string(), crawl_delay_counts_rows(&rows, delay_secs)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::time::Timestamp;

    fn rec(ip: u64, t: u64, path: &str) -> AccessRecord {
        AccessRecord {
            useragent: "bot".into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: ip,
            asn: "GOOGLE".into(),
            sitename: "s".into(),
            uri_path: path.into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    /// The three metrics over `records`, interned into one table:
    /// (crawl delay at `delay_secs`, endpoint, disallow).
    fn metrics(
        records: &[AccessRecord],
        delay_secs: u64,
    ) -> (DirectiveCounts, DirectiveCounts, DirectiveCounts) {
        let table = LogTable::from_records(records);
        let classes = PathClasses::new(&table);
        let rows: Vec<&RecordRow> = table.rows().iter().collect();
        (
            crawl_delay_counts_rows(&rows, delay_secs),
            endpoint_counts_rows(&classes, &rows),
            disallow_counts_rows(&classes, &rows),
        )
    }

    fn crawl_delay(records: &[AccessRecord], delay_secs: u64) -> DirectiveCounts {
        metrics(records, delay_secs).0
    }

    #[test]
    fn crawl_delay_counting() {
        // One τ, deltas 40 and 10: one compliant of two.
        let c = crawl_delay(&[rec(1, 0, "/a"), rec(1, 40, "/b"), rec(1, 50, "/c")], 30);
        assert_eq!(c, DirectiveCounts { successes: 1, trials: 2 });
        assert_eq!(c.ratio(), Some(0.5));
    }

    #[test]
    fn single_access_is_compliant() {
        let c = crawl_delay(&[rec(1, 0, "/a")], 30);
        assert_eq!(c, DirectiveCounts { successes: 1, trials: 1 });
        assert_eq!(c.ratio(), Some(1.0));
    }

    #[test]
    fn tau_stratification_separates_ips() {
        // Two IPs interleaved in time. Pooled naively the deltas would be
        // tiny; stratified each IP is slow and fully compliant — the
        // paper's reason for τ-tuples.
        let rs = [rec(1, 0, "/a"), rec(2, 5, "/a"), rec(1, 60, "/b"), rec(2, 65, "/b")];
        assert_eq!(crawl_delay(&rs, 30), DirectiveCounts { successes: 2, trials: 2 });
    }

    #[test]
    fn exact_threshold_counts_as_compliant() {
        assert_eq!(crawl_delay(&[rec(1, 0, "/a"), rec(1, 30, "/b")], 30).ratio(), Some(1.0));
        assert_eq!(crawl_delay(&[rec(1, 0, "/a"), rec(1, 29, "/b")], 30).ratio(), Some(0.0));
    }

    #[test]
    fn endpoint_metric() {
        let rs = [
            rec(1, 0, "/robots.txt"),
            rec(1, 1, "/page-data/x/page-data.json"),
            rec(1, 2, "/news/item-001"),
            rec(1, 3, "/page-data-fake"), // prefix must include the slash
        ];
        assert_eq!(metrics(&rs, 30).1, DirectiveCounts { successes: 2, trials: 4 });
    }

    #[test]
    fn disallow_metric() {
        let rs = [rec(1, 0, "/robots.txt"), rec(1, 1, "/a"), rec(1, 2, "/b")];
        let c = metrics(&rs, 30).2;
        assert_eq!(c, DirectiveCounts { successes: 1, trials: 3 });
        assert!((c.ratio().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        let (crawl, endpoint, disallow) = metrics(&[], 30);
        assert_eq!(crawl.trials, 0);
        assert_eq!(endpoint.trials, 0);
        assert_eq!(disallow.ratio(), None);
    }

    #[test]
    fn merge_and_tuple() {
        let mut a = DirectiveCounts { successes: 1, trials: 2 };
        a.merge(DirectiveCounts { successes: 3, trials: 4 });
        assert_eq!(a.as_tuple(), (4, 6));
    }

    #[test]
    fn path_classes_flag_robots_and_page_data() {
        let table = LogTable::from_records(&[
            rec(1, 0, "/robots.txt"),
            rec(1, 40, "/page-data/x/page-data.json"),
            rec(2, 5, "/page-data-fake"),
        ]);
        let classes = PathClasses::new(&table);
        let paths: Vec<(bool, bool)> = table
            .rows()
            .iter()
            .map(|r| (classes.is_robots(r.uri_path), classes.is_page_data(r.uri_path)))
            .collect();
        assert_eq!(paths, vec![(true, false), (false, true), (false, false)]);
        // Non-path symbols (the agent) carry no flags.
        let ua = table.rows()[0].useragent;
        assert!(!classes.is_robots(ua) && !classes.is_page_data(ua));
    }

    #[test]
    fn by_useragent_helper() {
        let table = LogTable::from_records(&[rec(1, 0, "/a"), rec(1, 100, "/b")]);
        let per_ua = crawl_delay_by_useragent(&table, 30);
        assert_eq!(per_ua.len(), 1);
        assert_eq!(per_ua[0].0, "bot");
        assert_eq!(per_ua[0].1.ratio(), Some(1.0));
    }

    /// A raw-UA variant of [`rec`]: same ASN and IP, different agent
    /// string.
    fn rec_ua(ua: &str, ip: u64, t: u64, path: &str) -> AccessRecord {
        AccessRecord { useragent: ua.into(), ..rec(ip, t, path) }
    }

    #[test]
    fn tau_stratification_separates_raw_ua_variants() {
        // Two UA variants of one canonical bot, same ASN and IP,
        // interleaved 5 s apart. Pooled under (ASN, IP) alone the deltas
        // would be 5 s (non-compliant); stratified by the full τ-tuple
        // each variant is its own slow, fully compliant client.
        let rs = [
            rec_ua("GPTBot/1.1", 1, 0, "/a"),
            rec_ua("GPTBot/1.2", 1, 5, "/a"),
            rec_ua("GPTBot/1.1", 1, 60, "/b"),
            rec_ua("GPTBot/1.2", 1, 65, "/b"),
        ];
        assert_eq!(crawl_delay(&rs, 30), DirectiveCounts { successes: 2, trials: 2 });
    }

    #[test]
    fn single_access_ua_variants_each_count_once() {
        // One access per variant on a shared ASN/IP: two single-access τ
        // groups, each counted as one compliant instance.
        let rs = [rec_ua("GPTBot/1.1", 1, 0, "/a"), rec_ua("GPTBot/1.2", 1, 1, "/a")];
        assert_eq!(crawl_delay(&rs, 30), DirectiveCounts { successes: 2, trials: 2 });
    }
}
