//! Property-based tests for the web-log substrate.

use botscope_weblog::codec::{decode_table, decode_table_read, encode_table, DecodeError, HEADER};
use botscope_weblog::colfmt;
use botscope_weblog::record::AccessRecord;
use botscope_weblog::session::Session;
use botscope_weblog::sink::RowSink;
use botscope_weblog::stream::{CsvRowStream, RowStream};
use botscope_weblog::summary::DatasetSummary;
use botscope_weblog::table::LogTable;
use botscope_weblog::time::Timestamp;
use proptest::prelude::*;

/// `records` as a CSV document, written through a table.
fn encode(records: &[AccessRecord]) -> String {
    encode_table(&LogTable::from_records(records))
}

/// Sessions of `records` through the table path.
fn sessionize(records: &[AccessRecord], gap_secs: u64) -> Vec<Session> {
    LogTable::from_records(records).sessionize(gap_secs)
}

/// Resolve one interned row against `stream`'s dictionary.
fn resolve_row(stream: &dyn RowStream, row: &botscope_weblog::RecordRow) -> AccessRecord {
    let i = stream.interner();
    AccessRecord {
        useragent: i.resolve(row.useragent).to_string(),
        timestamp: row.timestamp,
        ip_hash: row.ip_hash,
        asn: i.resolve(row.asn).to_string(),
        sitename: i.resolve(row.sitename).to_string(),
        uri_path: i.resolve(row.uri_path).to_string(),
        status: row.status,
        bytes: row.bytes,
        referer: row.referer.map(|s| i.resolve(s).to_string()),
    }
}

/// `text` decoded row by row through a [`CsvRowStream`]: the records up
/// to the first error, and that error (a bad header fails the stream's
/// constructor).
fn drain_csv(text: &str) -> (Vec<AccessRecord>, Option<DecodeError>) {
    let mut stream = match CsvRowStream::new(text.as_bytes()) {
        Ok(stream) => stream,
        Err(e) => return (Vec::new(), Some(e)),
    };
    let mut records = Vec::new();
    while let Some(item) = stream.next_row() {
        match item {
            Ok(row) => records.push(resolve_row(&stream, &row)),
            Err(e) => return (records, Some(e)),
        }
    }
    (records, None)
}

/// `records` as a table whose dictionary is in sorted string order (the
/// k-way merge's dictionary shape), so its ids generally differ from
/// the first-sight ids a sink assigns.
fn sorted_dictionary(records: &[AccessRecord]) -> LogTable {
    let first_sight = LogTable::from_records(records);
    let mut strings: Vec<&str> = first_sight.interner().iter().map(|(_, s)| s).collect();
    strings.sort_unstable();
    let mut table = LogTable::new();
    for s in strings {
        table.intern(s);
    }
    for r in records {
        table.push_record(r);
    }
    table
}

/// Stream `table`'s interned rows through a `BinSink` with `page_rows`
/// rows per page.
fn sink_bytes(table: &LogTable, page_rows: usize) -> Vec<u8> {
    let mut sink = colfmt::BinSink::new(Vec::new()).expect("bin sink").with_page_rows(page_rows);
    for row in table.rows() {
        sink.write_row(table.interner(), row).expect("write row");
    }
    sink.finish().expect("finish");
    sink.into_inner()
}

/// The table decoder and a drained [`CsvRowStream`] must agree on any
/// input: same records on success, same first error (line and message)
/// on failure. Panics on disagreement (the proptest macro reports the
/// inputs).
fn check_stream_equivalence(text: &str) {
    let (streamed, stream_err) = drain_csv(text);
    match decode_table_read(text.as_bytes()) {
        Ok(table) => {
            assert_eq!(stream_err, None);
            assert_eq!(table.to_records(), streamed);
        }
        Err(e) => assert_eq!(stream_err, Some(e)),
    }
}

/// Arbitrary record with adversarial string fields.
fn record_strategy() -> impl Strategy<Value = AccessRecord> {
    (
        "[ -~]{0,60}",         // useragent: printable ASCII incl. quotes/commas
        0u64..4_102_444_800,   // timestamp: epoch..2100
        any::<u64>(),          // ip hash
        "[A-Za-z0-9_-]{1,24}", // asn
        "[a-z0-9.-]{1,30}",    // sitename
        "/[ -~]{0,40}",        // path
        100u16..600,           // status
        0u64..10_000_000,      // bytes
        proptest::option::of("[ -~]{1,40}"),
    )
        .prop_map(
            |(useragent, secs, ip_hash, asn, sitename, uri_path, status, bytes, referer)| {
                AccessRecord {
                    useragent,
                    timestamp: Timestamp::from_unix(secs),
                    ip_hash,
                    asn,
                    sitename,
                    uri_path,
                    status,
                    bytes,
                    referer,
                }
            },
        )
}

proptest! {
    #[test]
    fn csv_roundtrip(records in prop::collection::vec(record_strategy(), 0..30)) {
        // Fields containing raw newlines can't survive a line-oriented
        // format unquoted; our strategy avoids them, quoting handles the
        // rest (commas, quotes).
        let text = encode(&records);
        let back = decode_table(&text).expect("decode what we encoded");
        prop_assert_eq!(back.to_records(), records);
        prop_assert_eq!(encode_table(&back), text);
    }

    #[test]
    fn stream_decode_equivalent_on_valid_logs(
        records in prop::collection::vec(record_strategy(), 0..30),
    ) {
        let text = encode(&records);
        let (streamed, err) = drain_csv(&text);
        prop_assert_eq!(err, None);
        prop_assert_eq!(streamed, records.clone());
        // The interned table path agrees too.
        let table = decode_table_read(text.as_bytes()).expect("own encoding decodes");
        prop_assert_eq!(table.to_records(), records);
    }

    #[test]
    fn stream_decode_equivalent_on_arbitrary_text(text in "[ -~\n]{0,500}") {
        check_stream_equivalence(&text);
    }

    #[test]
    fn stream_decode_equivalent_on_headered_garbage(
        lines in prop::collection::vec("[ -~]{0,60}", 0..20),
    ) {
        // A valid header followed by arbitrary body lines: exercises the
        // per-record error paths rather than the header check.
        let text = format!("{HEADER}\n{}", lines.join("\n"));
        check_stream_equivalence(&text);
    }

    #[test]
    fn stream_decode_equivalent_on_tampered_logs(
        records in prop::collection::vec(record_strategy(), 1..15),
        pos in 0usize..100_000,
        byte in 0x20u8..0x7F,
    ) {
        // Flip one byte of a valid log: the table decoder and the row
        // stream must still agree on the outcome, whatever it is.
        let mut text = encode(&records).into_bytes();
        let at = pos % text.len();
        text[at] = byte;
        if let Ok(text) = String::from_utf8(text) {
            check_stream_equivalence(&text);
        }
    }

    #[test]
    fn table_summary_agrees_with_sessions(
        records in prop::collection::vec(record_strategy(), 0..50),
        gap in 1u64..50_000,
    ) {
        // The table round-trips its records, and the Table 2 summary
        // counts exactly the sessions sessionization produces.
        let table = LogTable::from_records(&records);
        prop_assert_eq!(table.to_records(), records.clone());
        let sessions = table.sessionize(gap);
        let summary = DatasetSummary::compute_table_with_gap(&table, gap);
        prop_assert_eq!(summary.total_page_visits, sessions.len());
        prop_assert_eq!(table.count_sessions(table.rows(), gap), sessions.len());
        prop_assert_eq!(summary.total_bytes, sessions.iter().map(|s| s.bytes).sum::<u64>());
        prop_assert_eq!(summary.raw_records, records.len());
    }

    #[test]
    fn timestamp_roundtrip(secs in 0u64..4_102_444_800) {
        let t = Timestamp::from_unix(secs);
        let parsed = Timestamp::parse_iso8601(&t.to_iso8601()).expect("own output parses");
        prop_assert_eq!(parsed, t);
    }

    #[test]
    fn civil_fields_in_range(secs in 0u64..4_102_444_800) {
        let c = Timestamp::from_unix(secs).civil();
        prop_assert!((1..=12).contains(&c.month));
        prop_assert!((1..=31).contains(&c.day));
        prop_assert!(c.hour < 24 && c.minute < 60 && c.second < 60);
        prop_assert!((1970..=2100).contains(&c.year));
    }

    #[test]
    fn sessionize_conserves_accesses_and_bytes(
        records in prop::collection::vec(record_strategy(), 0..60),
        gap in 1u64..100_000,
    ) {
        let sessions = sessionize(&records, gap);
        let total_accesses: u64 = sessions.iter().map(|s| s.accesses).sum();
        prop_assert_eq!(total_accesses, records.len() as u64);
        let total_bytes: u64 = sessions.iter().map(|s| s.bytes).sum();
        let expect: u64 = records.iter().map(|r| r.bytes).sum();
        prop_assert_eq!(total_bytes, expect);
    }

    #[test]
    fn sessionize_monotone_in_gap(
        records in prop::collection::vec(record_strategy(), 0..60),
        gap in 1u64..50_000,
    ) {
        // A larger gap can only merge sessions, never split them.
        let small = sessionize(&records, gap).len();
        let large = sessionize(&records, gap * 2).len();
        prop_assert!(large <= small, "gap {gap}: {small} vs {large}");
    }

    #[test]
    fn sessions_never_cross_entities(
        records in prop::collection::vec(record_strategy(), 0..40),
    ) {
        for s in sessionize(&records, 300) {
            let members: Vec<&AccessRecord> = records
                .iter()
                .filter(|r| {
                    r.useragent == s.useragent && r.ip_hash == s.ip_hash && r.asn == s.asn
                })
                .collect();
            prop_assert!(s.accesses as usize <= members.len());
        }
    }

    #[test]
    fn table_views_partition_the_rows(
        records in prop::collection::vec(record_strategy(), 0..50),
    ) {
        // by_tau and by_useragent are partitions of the row set, keyed
        // and ordered deterministically; τ groups agree with the
        // record-level τ-tuple.
        let table = LogTable::from_records(&records);
        let tau_groups = table.by_tau();
        let grouped: usize = tau_groups.iter().map(|(_, v)| v.len()).sum();
        prop_assert_eq!(grouped, records.len());
        prop_assert!(tau_groups.windows(2).all(|w| w[0].0 < w[1].0), "τ keys sorted + unique");
        for ((asn, ip, ua), rows) in &tau_groups {
            for row in rows {
                let r = table.materialize(row);
                prop_assert_eq!(r.tau_ref(), (*asn, *ip, *ua));
            }
        }
        let ua_groups = table.by_useragent();
        let grouped: usize = ua_groups.iter().map(|(_, v)| v.len()).sum();
        prop_assert_eq!(grouped, records.len());
        prop_assert!(ua_groups.windows(2).all(|w| w[0].0 < w[1].0));
        // Every robots.txt fetch lands in the robots-times view.
        let robots_total: usize =
            table.robots_checks_by_useragent().values().map(std::vec::Vec::len).sum();
        let expect = records.iter().filter(|r| r.is_robots_fetch()).count();
        prop_assert_eq!(robots_total, expect);
    }

    #[test]
    fn binary_roundtrip_matches_csv_and_table(
        records in prop::collection::vec(record_strategy(), 0..40),
    ) {
        let table = LogTable::from_records(&records);

        // Materialized writer (full dictionary up front, ids preserved).
        let mut bin = Vec::new();
        colfmt::write_table(&mut bin, &table).expect("encode binary");
        let back = colfmt::read_table(&bin[..]).expect("decode own binary");
        prop_assert_eq!(back.to_records(), records.clone());

        // Streaming writer (dictionary deltas, sink-side re-interning),
        // fed from a dictionary in a different order: the file must not
        // depend on the stream's ids.
        let streamed_bytes = sink_bytes(&sorted_dictionary(&records), colfmt::PAGE_ROWS);
        prop_assert_eq!(&streamed_bytes, &sink_bytes(&table, colfmt::PAGE_ROWS));
        let back = colfmt::read_table(&streamed_bytes[..]).expect("decode streamed binary");
        prop_assert_eq!(back.to_records(), records.clone());

        // Row-by-row reader agrees with the CSV round trip record for
        // record (interner remapping included: the reader builds its
        // own dictionary, so symbol ids need not match the writer's).
        let csv = encode(&records);
        let from_csv = decode_table(&csv).expect("decode own CSV").to_records();
        let mut reader = colfmt::BinReader::new(&bin[..]).expect("binary header");
        let mut from_bin = Vec::new();
        while let Some(row) = reader.next_row() {
            from_bin.push(resolve_row(&reader, &row.expect("clean row")));
        }
        prop_assert_eq!(from_bin, from_csv);
    }

    #[test]
    fn binary_concatenated_chunks_roundtrip(
        a in prop::collection::vec(record_strategy(), 0..20),
        b in prop::collection::vec(record_strategy(), 0..20),
    ) {
        // Two chunks through one sink exercise dictionary-delta pages:
        // chunk b's new strings arrive in a later dict page and must
        // remap onto the reader's interner cleanly.
        let expect: Vec<AccessRecord> = a.into_iter().chain(b).collect();
        let bytes = sink_bytes(&sorted_dictionary(&expect), 7);
        let back = colfmt::read_table(&bytes[..]).expect("decode");
        prop_assert_eq!(back.to_records(), expect);
    }

    #[test]
    fn binary_mutation_never_panics(
        records in prop::collection::vec(record_strategy(), 1..15),
        pos in 0usize..100_000,
        byte in any::<u8>(),
    ) {
        // Flip one byte anywhere in a valid binary log: decoding must
        // return clean records or a DecodeError — never panic, and
        // never allocate from a hostile length field.
        let table = LogTable::from_records(&records);
        let mut bytes = Vec::new();
        colfmt::write_table(&mut bytes, &table).expect("encode binary");
        let at = pos % bytes.len();
        bytes[at] = byte;
        match colfmt::read_table(&bytes[..]) {
            Ok(table) => prop_assert!(table.len() <= records.len() + bytes.len()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        // The raw (dictionary-skipping) reader must be just as safe.
        match colfmt::BinReader::new_raw(&bytes[..]) {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok(mut raw) => {
                let mut n = 0usize;
                while let Some(row) = raw.next_row() {
                    match row {
                        Ok(_) => n += 1,
                        Err(e) => {
                            prop_assert!(!e.to_string().is_empty());
                            break;
                        }
                    }
                }
                prop_assert!(n <= records.len() + bytes.len());
            }
        }
    }

    #[test]
    fn binary_truncation_never_panics(
        records in prop::collection::vec(record_strategy(), 1..15),
        keep in 0usize..100_000,
    ) {
        // Any prefix of a valid binary log decodes cleanly or fails
        // with a DecodeError mentioning truncation — never a panic.
        let table = LogTable::from_records(&records);
        let mut bytes = Vec::new();
        colfmt::write_table(&mut bytes, &table).expect("encode binary");
        bytes.truncate(keep % (bytes.len() + 1));
        match colfmt::read_table(&bytes[..]) {
            Ok(table) => prop_assert!(table.len() <= records.len()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn csv_decode_errors_carry_one_based_line_numbers(
        records in prop::collection::vec(record_strategy(), 0..12),
        at in 0usize..13,
    ) {
        // Insert one malformed body line into a valid log: the reported
        // line number must point at it exactly, counting the header as
        // line 1.
        let at = at.min(records.len());
        let mut lines: Vec<String> = encode(&records).lines().map(String::from).collect();
        lines.insert(1 + at, "not,a,record".into());
        let text = lines.join("\n");
        let err = decode_table_read(text.as_bytes()).expect_err("malformed line must fail");
        prop_assert_eq!(err.line, 1 + at + 1, "header is line 1, body starts at 2");
        let (_, stream_err) = drain_csv(&text);
        prop_assert_eq!(stream_err.expect("row stream too").line, err.line);
    }

    #[test]
    fn summary_counts_bounded_by_records(
        records in prop::collection::vec(record_strategy(), 0..50),
    ) {
        let s = DatasetSummary::compute_table(&LogTable::from_records(&records));
        prop_assert!(s.unique_ips <= records.len());
        prop_assert!(s.unique_user_agents <= records.len());
        prop_assert!(s.unique_asns <= records.len());
        prop_assert!(s.total_page_visits <= records.len());
        prop_assert!(s.unique_page_visits <= records.len());
        prop_assert_eq!(s.raw_records, records.len());
        prop_assert_eq!(s.total_bytes, records.iter().map(|r| r.bytes).sum::<u64>());
    }
}
