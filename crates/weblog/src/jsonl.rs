//! JSON-Lines export of access records.
//!
//! Log pipelines (jq, DuckDB, pandas) prefer JSONL over CSV for nested or
//! optional fields. This is an *encoder only*, hand-rolled against RFC
//! 8259 string-escaping rules — the fixed schema makes a serde stack
//! unnecessary (DESIGN.md §7); re-import uses the CSV codec.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::intern::StringInterner;
use crate::record::AccessRecord;
use crate::table::{LogTable, RecordRow};

/// Escape a string per RFC 8259 §7 into `out` (with surrounding quotes).
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append one interned row to `out` as a single JSON object (no
/// trailing newline). The one row encoder behind [`write_table`] and
/// [`crate::sink::JsonlSink`].
pub fn encode_row(interner: &StringInterner, row: &RecordRow, out: &mut String) {
    out.push_str("{\"useragent\":");
    escape_into(interner.resolve(row.useragent), out);
    out.push_str(",\"timestamp\":");
    escape_into(&row.timestamp.to_iso8601(), out);
    let _ = write!(out, ",\"ip_hash\":\"{:016x}\"", row.ip_hash);
    out.push_str(",\"asn\":");
    escape_into(interner.resolve(row.asn), out);
    out.push_str(",\"sitename\":");
    escape_into(interner.resolve(row.sitename), out);
    out.push_str(",\"uri_path\":");
    escape_into(interner.resolve(row.uri_path), out);
    let _ = write!(out, ",\"status\":{},\"bytes\":{}", row.status, row.bytes);
    out.push_str(",\"referer\":");
    match row.referer {
        Some(referer) => escape_into(interner.resolve(referer), out),
        None => out.push_str("null"),
    }
    out.push('}');
}

/// Encode a table to a writer, one JSON object per line.
pub fn write_table<W: Write>(w: &mut W, table: &LogTable) -> io::Result<()> {
    let mut line = String::with_capacity(192);
    for row in table.rows() {
        line.clear();
        encode_row(table.interner(), row, &mut line);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Encode a dataset: one JSON object per line.
pub fn encode(records: &[AccessRecord]) -> String {
    let mut out = Vec::with_capacity(records.len() * 192);
    write_table(&mut out, &LogTable::from_records(records)).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("encoded JSON is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn sample() -> AccessRecord {
        AccessRecord {
            useragent: "Mozilla/5.0 (compatible; \"Quoted\"Bot/1.0)".into(),
            timestamp: Timestamp::from_date(2025, 2, 12),
            ip_hash: 0xDEAD_BEEF,
            asn: "GOOGLE".into(),
            sitename: "site-00.example.edu".into(),
            uri_path: "/a\\b\tc".into(),
            status: 200,
            bytes: 1234,
            referer: None,
        }
    }

    /// One record's JSON object, without the line terminator.
    fn encode_record(r: &AccessRecord) -> String {
        let mut text = encode(std::slice::from_ref(r));
        assert_eq!(text.pop(), Some('\n'));
        text
    }

    #[test]
    fn object_shape() {
        let line = encode_record(&sample());
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"timestamp\":\"2025-02-12T00:00:00Z\""));
        assert!(line.contains("\"ip_hash\":\"00000000deadbeef\""));
        assert!(line.contains("\"status\":200"));
        assert!(line.contains("\"referer\":null"));
    }

    #[test]
    fn quotes_and_backslashes_escaped() {
        let line = encode_record(&sample());
        assert!(line.contains("\\\"Quoted\\\"Bot"));
        assert!(line.contains("/a\\\\b\\tc"));
        // The line must be a single physical line.
        assert!(!line.contains('\n'));
    }

    #[test]
    fn control_characters_become_unicode_escapes() {
        let mut r = sample();
        r.useragent = "bad\u{01}agent".into();
        let line = encode_record(&r);
        assert!(line.contains("bad\\u0001agent"));
    }

    #[test]
    fn referer_present() {
        let mut r = sample();
        r.referer = Some("https://ref/?q=\"x\"".into());
        let line = encode_record(&r);
        assert!(line.contains("\"referer\":\"https://ref/?q=\\\"x\\\"\""));
    }

    #[test]
    fn one_line_per_record() {
        let records = vec![sample(), sample(), sample()];
        let text = encode(&records);
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with('\n'));
        assert!(encode(&[]).is_empty());
    }

    #[test]
    fn balanced_quotes_and_braces() {
        // Structural sanity for hostile inputs: every line has balanced
        // braces and an even number of unescaped quotes.
        let mut r = sample();
        r.useragent = "\\\"\\\\\"\"\n\r\t".into();
        let line = encode_record(&r);
        let unescaped_quotes = {
            let bytes = line.as_bytes();
            let mut count = 0;
            let mut i = 0;
            while i < bytes.len() {
                if bytes[i] == b'\\' {
                    i += 2;
                    continue;
                }
                if bytes[i] == b'"' {
                    count += 1;
                }
                i += 1;
            }
            count
        };
        assert_eq!(unescaped_quotes % 2, 0, "{line}");
    }
}
