//! Preprocessing glue: raw logs → per-bot views.
//!
//! Reproduces the study's §3.1 enrichment: standardize every user agent
//! against the known-bot corpus, attach the Dark-Visitors category, and
//! split the dataset into known-bot traffic and the anonymous remainder.

use std::collections::BTreeMap;

use botscope_useragent::{BotCategory, Standardizer};
use botscope_weblog::intern::Sym;
use botscope_weblog::table::{LogTable, RecordRow};

/// A known bot's slice of a [`LogTable`].
#[derive(Debug, Clone)]
pub struct BotRowView<'t> {
    /// Canonical name (registry spelling).
    pub name: String,
    /// Category.
    pub category: BotCategory,
    /// Whether the operator publicly promises to respect robots.txt.
    pub promise: botscope_useragent::RobotsPromise,
    /// Sponsoring entity.
    pub sponsor: &'static str,
    /// The bot's rows, in input order.
    pub rows: Vec<&'t RecordRow>,
}

/// The standardized table: known bots by name, plus everything that did
/// not match the corpus.
#[derive(Debug, Clone)]
pub struct StandardizedTable<'t> {
    /// The table the row views borrow from.
    pub table: &'t LogTable,
    /// Known-bot views, keyed by canonical name (deterministic order).
    pub bots: BTreeMap<String, BotRowView<'t>>,
    /// Rows from agents that matched no known bot.
    pub anonymous: Vec<&'t RecordRow>,
}

impl<'t> StandardizedTable<'t> {
    /// Total rows attributed to known bots.
    pub fn known_bot_records(&self) -> usize {
        self.bots.values().map(|v| v.rows.len()).sum()
    }

    /// Per-bot row slices as the spoof detector expects them.
    pub fn per_bot_rows(&self) -> BTreeMap<String, Vec<&'t RecordRow>> {
        self.bots.iter().map(|(k, v)| (k.clone(), v.rows.clone())).collect()
    }

    /// Bots in a category.
    pub fn in_category(&self, category: BotCategory) -> Vec<&BotRowView<'t>> {
        self.bots.values().filter(|v| v.category == category).collect()
    }
}

/// Standardize a whole table. See [`standardize_rows`].
pub fn standardize_table(table: &LogTable) -> StandardizedTable<'_> {
    standardize_table_with_threads(table, 1)
}

/// [`standardize_table`] with the table's distinct user agents
/// standardized across `threads` scoped workers.
///
/// Standardizing one agent string is a pure function of the registry, so
/// sharding the distinct-agent set is free of ordering effects: the
/// output is identical at any worker count. Grouping rows into per-bot
/// views stays serial — after the per-agent results are in, it is one
/// array index per row.
pub fn standardize_table_with_threads(table: &LogTable, threads: usize) -> StandardizedTable<'_> {
    assert!(threads >= 1, "at least one worker required");
    // Distinct user-agent symbols, in first-appearance order.
    let mut seen = vec![false; table.interner().len()];
    let mut distinct: Vec<Sym> = Vec::new();
    for row in table.rows() {
        if !seen[row.useragent.index()] {
            seen[row.useragent.index()] = true;
            distinct.push(row.useragent);
        }
    }

    // spec_of[sym.index()]: the standardization verdict for every
    // distinct agent symbol (None = anonymous). Verdicts come from
    // `standardize_batch` (one fuzzy pass per distinct token, not per
    // agent), sharded over the worker pool in contiguous chunks; worker
    // threads only pay off when there are enough distinct agents to
    // amortize spawning.
    let standardizer = Standardizer::new();
    let headers: Vec<&str> = distinct.iter().map(|&sym| table.resolve(sym)).collect();
    let chunks = if headers.len() < 64 { 1 } else { threads };
    let chunk_size = headers.len().div_ceil(chunks.max(1)).max(1);
    let verdicts: Vec<Vec<Option<&'static botscope_useragent::BotSpec>>> =
        run_indexed(chunks, threads, |c| {
            let lo = (c * chunk_size).min(headers.len());
            let hi = ((c + 1) * chunk_size).min(headers.len());
            standardizer.standardize_batch(&headers[lo..hi])
        });
    let mut spec_of: Vec<Option<&'static botscope_useragent::BotSpec>> =
        vec![None; table.interner().len()];
    for (&sym, &spec) in distinct.iter().zip(verdicts.iter().flatten()) {
        spec_of[sym.index()] = spec;
    }

    // Map each agent symbol to its view slot, then group rows with one
    // array index per row.
    let mut slot_of = vec![u32::MAX; table.interner().len()];
    let mut views: Vec<BotRowView<'_>> = Vec::new();
    let mut slot_by_name: BTreeMap<&'static str, u32> = BTreeMap::new();
    for &sym in &distinct {
        if let Some(bot) = spec_of[sym.index()] {
            let slot = *slot_by_name.entry(bot.canonical).or_insert_with(|| {
                views.push(view_for(bot));
                (views.len() - 1) as u32
            });
            slot_of[sym.index()] = slot;
        }
    }
    let mut anonymous: Vec<&RecordRow> = Vec::new();
    for row in table.rows() {
        match slot_of[row.useragent.index()] {
            u32::MAX => anonymous.push(row),
            slot => views[slot as usize].rows.push(row),
        }
    }
    let bots: BTreeMap<String, BotRowView<'_>> =
        views.into_iter().map(|v| (v.name.clone(), v)).collect();
    StandardizedTable { table, bots, anonymous }
}

/// Standardize a row subset of a table. Each distinct user-agent
/// *symbol* is standardized once and cached in a dense array, so the
/// per-row cost is one integer index.
pub fn standardize_rows<'t>(
    table: &'t LogTable,
    rows: impl IntoIterator<Item = &'t RecordRow>,
) -> StandardizedTable<'t> {
    let standardizer = Standardizer::new();
    // cache[sym.index()]: None = unseen, Some(u32::MAX) = anonymous,
    // Some(slot) = index into `views`.
    let mut cache: Vec<Option<u32>> = vec![None; table.interner().len()];
    let mut views: Vec<BotRowView<'t>> = Vec::new();
    let mut slot_by_name: BTreeMap<&'static str, u32> = BTreeMap::new();
    let mut anonymous: Vec<&'t RecordRow> = Vec::new();

    for row in rows {
        let idx = row.useragent.index();
        let slot = *cache[idx].get_or_insert_with(|| {
            match standardizer.standardize(table.resolve(row.useragent)).map(|s| s.bot) {
                Some(bot) => *slot_by_name.entry(bot.canonical).or_insert_with(|| {
                    views.push(view_for(bot));
                    (views.len() - 1) as u32
                }),
                None => u32::MAX,
            }
        });
        match slot {
            u32::MAX => anonymous.push(row),
            slot => views[slot as usize].rows.push(row),
        }
    }
    let bots: BTreeMap<String, BotRowView<'t>> =
        views.into_iter().map(|v| (v.name.clone(), v)).collect();
    StandardizedTable { table, bots, anonymous }
}

/// Run `f(0..n)` across `threads` scoped workers and return the results
/// in index order — the workspace's shared fan-out shape (simnet
/// generation units, distinct-agent standardization, per-bot analysis).
/// `f` must be a pure function of its index for the output to be
/// worker-count invariant; the pool only changes execution order.
/// Serial (no spawns) when `threads` is 1 or there is at most one item.
pub(crate) fn run_indexed<T: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    assert!(threads >= 1, "at least one worker required");
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // Hand out work in chunks: per-index locking would swamp sub-µs
    // items (distinct-agent standardization) with contention, while
    // large fixed chunks would load-balance badly over very uneven items
    // (per-bot row counts are heavy-tailed). n/(threads·8) strikes the
    // balance; the clamp keeps chunks sane at both extremes.
    let chunk = (n / (threads * 8)).clamp(1, 1024);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                let out: Vec<T> = (start..end).map(&f).collect();
                results.lock().expect("no poisoned workers").push((start, out));
            });
        }
    });
    let mut v = results.into_inner().expect("workers joined");
    v.sort_by_key(|&(start, _)| start);
    v.into_iter().flat_map(|(_, chunk)| chunk).collect()
}

/// An empty [`BotRowView`] carrying a spec's metadata.
fn view_for(bot: &'static botscope_useragent::BotSpec) -> BotRowView<'static> {
    BotRowView {
        name: bot.canonical.to_string(),
        category: bot.category,
        promise: bot.respects_robots,
        sponsor: bot.sponsor,
        rows: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::time::Timestamp;

    fn rec(ua: &str, t: u64) -> AccessRecord {
        AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 1,
            asn: "GOOGLE".into(),
            sitename: "s".into(),
            uri_path: "/".into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    #[test]
    fn known_bots_are_grouped() {
        let table = LogTable::from_records(&[
            rec("Mozilla/5.0 (compatible; GPTBot/1.1)", 0),
            rec("Mozilla/5.0 (compatible; GPTBot/1.2)", 1), // version variant
            rec("Mozilla/5.0 (compatible; bingbot/2.0)", 2),
            rec("Mozilla/5.0 (Windows NT 10.0) Chrome/120 Safari/537", 3),
        ]);
        let logs = standardize_table(&table);
        assert_eq!(logs.bots["GPTBot"].rows.len(), 2, "UA variants merge");
        assert_eq!(logs.bots["bingbot"].rows.len(), 1);
        assert_eq!(logs.anonymous.len(), 1);
        assert_eq!(logs.known_bot_records(), 3);
        // Rows keep input order within a view.
        let times: Vec<u64> = logs.bots["GPTBot"].rows.iter().map(|r| r.timestamp.unix()).collect();
        assert_eq!(times, vec![0, 1]);
    }

    #[test]
    fn metadata_attached() {
        let table = LogTable::from_records(&[rec("Bytespider; spider-feedback@bytedance.com", 0)]);
        let logs = standardize_table(&table);
        let v = &logs.bots["Bytespider"];
        assert_eq!(v.category, BotCategory::AiDataScraper);
        assert_eq!(v.sponsor, "ByteDance");
        assert_eq!(v.promise, botscope_useragent::RobotsPromise::No);
    }

    #[test]
    fn category_query() {
        let table = LogTable::from_records(&[
            rec("Mozilla/5.0 (compatible; SemrushBot/7~bl)", 0),
            rec("Mozilla/5.0 (compatible; AhrefsBot/7.0)", 1),
        ]);
        let logs = standardize_table(&table);
        assert_eq!(logs.in_category(BotCategory::SeoCrawler).len(), 2);
        assert!(logs.in_category(BotCategory::Archiver).is_empty());
    }

    #[test]
    fn empty_input() {
        let table = LogTable::new();
        let logs = standardize_table(&table);
        assert!(logs.bots.is_empty());
        assert!(logs.anonymous.is_empty());
    }

    #[test]
    fn row_subsets_and_worker_counts_agree() {
        let table = LogTable::from_records(&[
            rec("Mozilla/5.0 (compatible; GPTBot/1.1)", 0),
            rec("Mozilla/5.0 (compatible; GPTBot/1.2)", 1),
            rec("Mozilla/5.0 (compatible; bingbot/2.0)", 2),
            rec("Mozilla/5.0 (Windows NT 10.0) Chrome/120 Safari/537", 3),
        ]);
        let whole = standardize_table(&table);
        let by_rows = standardize_rows(&table, table.rows());
        let threaded = standardize_table_with_threads(&table, 2);
        for other in [&by_rows, &threaded] {
            assert_eq!(other.anonymous, whole.anonymous);
            assert_eq!(other.per_bot_rows(), whole.per_bot_rows());
            for (name, view) in &other.bots {
                assert_eq!(view.category, whole.bots[name].category);
                assert_eq!(view.sponsor, whole.bots[name].sponsor);
            }
        }
        // A subset keeps only the bots its rows name.
        let subset = standardize_rows(&table, &table.rows()[2..]);
        assert_eq!(subset.bots.keys().collect::<Vec<_>>(), vec!["bingbot"]);
        assert_eq!(subset.anonymous.len(), 1);
    }
}
