//! User-agent spoofing detection (paper §5.2).
//!
//! "We develop an empirical heuristic that if a bot's traffic is
//! associated ≥90 % of the time with one ASN, other ASNs associated with
//! this user agent are likely spoofed." The detector takes a per-bot
//! row set, finds the dominant ASN, and — when dominance clears the
//! threshold and minority networks exist — flags every minority-network
//! request as possibly spoofed.

use std::collections::BTreeMap;

use botscope_weblog::intern::Sym;
use botscope_weblog::table::{LogTable, RecordRow};

/// The paper's dominance threshold.
pub const DOMINANCE_THRESHOLD: f64 = 0.90;

/// Minimum observations before a bot enters the dominance analysis.
pub const MIN_DETECT_REQUESTS: u64 = 10;

/// Detection result for one bot.
#[derive(Debug, Clone, PartialEq)]
pub struct SpoofFinding {
    /// Canonical bot name (or raw user agent when unstandardized).
    pub bot: String,
    /// The dominant ASN.
    pub main_asn: String,
    /// Share of traffic from the dominant ASN.
    pub main_share: f64,
    /// Minority ASNs with their request counts, descending by count then
    /// name (deterministic).
    pub suspicious: Vec<(String, u64)>,
    /// Total requests observed for the bot.
    pub total_requests: u64,
    /// Requests flagged as possibly spoofed.
    pub spoofed_requests: u64,
}

/// Whole-dataset spoofing report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpoofReport {
    /// One finding per flagged bot, sorted by name.
    pub findings: Vec<SpoofFinding>,
}

impl SpoofReport {
    /// The finding for a bot, if flagged.
    pub fn finding_for(&self, bot: &str) -> Option<&SpoofFinding> {
        self.findings.iter().find(|f| f.bot == bot)
    }

    /// Total flagged requests across all bots.
    pub fn total_spoofed(&self) -> u64 {
        self.findings.iter().map(|f| f.spoofed_requests).sum()
    }
}

/// Analyze one bot's rows under the dominance heuristic. Per-ASN counts
/// are keyed by symbol, and names are resolved only for the finding
/// itself.
///
/// Returns `None` when the bot is not flagged: fewer than `min_requests`
/// observations, a single ASN, or dominance below `threshold`.
pub fn analyze_bot_rows(
    table: &LogTable,
    bot: &str,
    rows: &[&RecordRow],
    threshold: f64,
    min_requests: u64,
) -> Option<SpoofFinding> {
    assert!((0.0..=1.0).contains(&threshold), "threshold {threshold} not a probability");
    let total = rows.len() as u64;
    if total < min_requests {
        return None;
    }
    use std::collections::HashMap;
    let mut per_asn: HashMap<Sym, u64> = HashMap::new();
    for r in rows {
        *per_asn.entry(r.asn).or_default() += 1;
    }
    if per_asn.len() < 2 {
        return None;
    }
    let (&main_asn, &main_count) = per_asn
        .iter()
        .max_by_key(|&(&sym, &count)| (count, std::cmp::Reverse(table.resolve(sym))))
        .expect("non-empty");
    let main_share = main_count as f64 / total as f64;
    if main_share < threshold {
        return None;
    }
    let mut suspicious: Vec<(String, u64)> = per_asn
        .iter()
        .filter(|&(&sym, _)| sym != main_asn)
        .map(|(&sym, &count)| (table.resolve(sym).to_string(), count))
        .collect();
    suspicious.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let spoofed_requests = suspicious.iter().map(|&(_, c)| c).sum();
    Some(SpoofFinding {
        bot: bot.to_string(),
        main_asn: table.resolve(main_asn).to_string(),
        main_share,
        suspicious,
        total_requests: total,
        spoofed_requests,
    })
}

/// Analyze a per-bot partition of a table with the paper's threshold and
/// a minimum of 10 observations per bot.
pub fn detect_rows(table: &LogTable, per_bot: &BTreeMap<String, Vec<&RecordRow>>) -> SpoofReport {
    detect_rows_with(table, per_bot, DOMINANCE_THRESHOLD, MIN_DETECT_REQUESTS)
}

/// [`detect_rows`] with explicit parameters (the §5.2 limitations call
/// the 90 % threshold "somewhat arbitrary"; the ablation bench sweeps it
/// here).
pub fn detect_rows_with(
    table: &LogTable,
    per_bot: &BTreeMap<String, Vec<&RecordRow>>,
    threshold: f64,
    min_requests: u64,
) -> SpoofReport {
    let mut findings: Vec<SpoofFinding> = per_bot
        .iter()
        .filter_map(|(bot, rows)| analyze_bot_rows(table, bot, rows, threshold, min_requests))
        .collect();
    findings.sort_by(|a, b| a.bot.cmp(&b.bot));
    SpoofReport { findings }
}

/// Partition one bot's rows into (legitimate, possibly-spoofed) using a
/// finding.
pub fn split_rows<'t>(
    finding: &SpoofFinding,
    table: &LogTable,
    rows: &[&'t RecordRow],
) -> (Vec<&'t RecordRow>, Vec<&'t RecordRow>) {
    match table.interner().get(&finding.main_asn) {
        Some(main) => rows.iter().partition(|r| r.asn == main),
        // The main ASN never occurs in this table: everything is minority.
        None => (Vec::new(), rows.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botscope_weblog::record::AccessRecord;
    use botscope_weblog::time::Timestamp;

    fn rec(asn: &str, t: u64) -> AccessRecord {
        AccessRecord {
            useragent: "bot".into(),
            timestamp: Timestamp::from_unix(t),
            ip_hash: 1,
            asn: asn.into(),
            sitename: "s".into(),
            uri_path: "/".into(),
            status: 200,
            bytes: 1,
            referer: None,
        }
    }

    /// [`analyze_bot_rows`] over `records` interned into one table.
    fn analyze(
        bot: &str,
        records: &[AccessRecord],
        threshold: f64,
        min: u64,
    ) -> Option<SpoofFinding> {
        let table = LogTable::from_records(records);
        let rows: Vec<&RecordRow> = table.rows().iter().collect();
        analyze_bot_rows(&table, bot, &rows, threshold, min)
    }

    #[test]
    fn dominant_with_minority_is_flagged() {
        let mut rs: Vec<AccessRecord> = (0..95).map(|t| rec("GOOGLE", t)).collect();
        rs.push(rec("M247", 100));
        rs.push(rec("M247", 101));
        rs.push(rec("PROSPERO-AS", 102));
        let f = analyze("Googlebot", &rs, 0.9, 10).expect("flagged");
        assert_eq!(f.main_asn, "GOOGLE");
        assert!(f.main_share > 0.9);
        assert_eq!(f.spoofed_requests, 3);
        assert_eq!(f.suspicious[0], ("M247".to_string(), 2));
        assert_eq!(f.suspicious[1], ("PROSPERO-AS".to_string(), 1));
    }

    #[test]
    fn single_asn_not_flagged() {
        let rs: Vec<AccessRecord> = (0..50).map(|t| rec("GOOGLE", t)).collect();
        assert!(analyze("b", &rs, 0.9, 10).is_none());
    }

    #[test]
    fn balanced_traffic_not_flagged() {
        let mut rs: Vec<AccessRecord> = (0..50).map(|t| rec("GOOGLE", t)).collect();
        rs.extend((0..50).map(|t| rec("AMAZON-02", 100 + t)));
        assert!(analyze("b", &rs, 0.9, 10).is_none());
    }

    #[test]
    fn few_requests_not_flagged() {
        let rs = vec![rec("GOOGLE", 0), rec("M247", 1)];
        assert!(analyze("b", &rs, 0.9, 10).is_none());
        // But allowed with min_requests 1.
        assert!(analyze("b", &rs, 0.5, 1).is_some());
    }

    #[test]
    fn threshold_boundary() {
        // Exactly 90%: 90 of 100.
        let mut rs: Vec<AccessRecord> = (0..90).map(|t| rec("A", t)).collect();
        rs.extend((0..10).map(|t| rec("B", 1000 + t)));
        assert!(analyze("b", &rs, 0.9, 10).is_some(), "90% meets ≥90%");
        // 89 of 100 does not.
        let mut rs: Vec<AccessRecord> = (0..89).map(|t| rec("A", t)).collect();
        rs.extend((0..11).map(|t| rec("B", 1000 + t)));
        assert!(analyze("b", &rs, 0.9, 10).is_none());
    }

    #[test]
    fn dominance_tie_breaks_to_the_smaller_asn_name() {
        // 50/50 split at threshold 0.5: both ASNs dominate equally, and
        // the lexicographically smaller name wins whatever the symbol ids.
        let mut rs: Vec<AccessRecord> = (0..5).map(|t| rec("ZZ-NET", t)).collect();
        rs.extend((0..5).map(|t| rec("AA-NET", 10 + t)));
        let f = analyze("b", &rs, 0.5, 1).expect("flagged");
        assert_eq!(f.main_asn, "AA-NET");
        assert_eq!(f.suspicious, vec![("ZZ-NET".to_string(), 5)]);
    }

    #[test]
    fn split_partitions_correctly() {
        let mut rs: Vec<AccessRecord> = (0..95).map(|t| rec("GOOGLE", t)).collect();
        rs.push(rec("M247", 100));
        rs.push(rec("M247", 101));
        rs.push(rec("PROSPERO-AS", 102));
        let table = LogTable::from_records(&rs);
        let rows: Vec<&RecordRow> = table.rows().iter().collect();
        let f = analyze_bot_rows(&table, "b", &rows, 0.9, 10).unwrap();
        let (legit, spoofed) = split_rows(&f, &table, &rows);
        assert_eq!(legit.len(), 95);
        assert_eq!(spoofed.len(), 3);
        assert!(spoofed.iter().all(|r| table.resolve(r.asn) != "GOOGLE"));
    }

    #[test]
    fn report_totals() {
        let records: Vec<AccessRecord> = (0..95)
            .map(|t| rec("GOOGLE", t))
            .chain([rec("M247", 99)])
            .chain((0..20).map(|t| rec("OVH", t)))
            .collect();
        let table = LogTable::from_records(&records);
        let mut per_bot: BTreeMap<String, Vec<&RecordRow>> = BTreeMap::new();
        per_bot.insert("flagged".into(), table.rows()[..96].iter().collect());
        per_bot.insert("clean".into(), table.rows()[96..].iter().collect());
        let report = detect_rows(&table, &per_bot);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.total_spoofed(), 1);
        assert!(report.finding_for("flagged").is_some());
        assert!(report.finding_for("clean").is_none());
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn bad_threshold_panics() {
        let _ = analyze("b", &[], 1.5, 1);
    }

    #[test]
    fn split_rows_with_foreign_main_asn() {
        let rs = vec![rec("OVH", 0), rec("OVH", 1)];
        let table = LogTable::from_records(&rs);
        let row_refs: Vec<&RecordRow> = table.rows().iter().collect();
        let finding = SpoofFinding {
            bot: "b".into(),
            main_asn: "NOT-PRESENT".into(),
            main_share: 1.0,
            suspicious: vec![],
            total_requests: 2,
            spoofed_requests: 0,
        };
        let (legit, spoofed) = split_rows(&finding, &table, &row_refs);
        assert!(legit.is_empty());
        assert_eq!(spoofed.len(), 2);
    }
}
