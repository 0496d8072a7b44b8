//! CSV persistence for access records.
//!
//! A small, standards-correct CSV implementation (RFC 4180 quoting) fixed
//! to the ten-column record schema. Hand-rolled deliberately: the schema is
//! static, so a serde stack would add dependency weight without value
//! (see DESIGN.md §7).

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

use crate::intern::StringInterner;
use crate::record::AccessRecord;
use crate::table::{LogTable, RecordRow};
use crate::time::Timestamp;

/// The header row.
pub const HEADER: &str = "useragent,timestamp,ip_hash,asn,sitename,uri_path,status,bytes,referer";

/// Error decoding a CSV line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// 1-based line number (0 when unknown).
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Line 0 means "no line number", e.g. errors from the binary
        // format (`crate::colfmt`), which reports byte offsets in the
        // message instead.
        if self.line == 0 {
            write!(f, "decode error: {}", self.message)
        } else {
            write!(f, "CSV decode error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for DecodeError {}

/// Quote a field if it contains a comma, quote, or newline.
fn quote(field: &str, out: &mut String) {
    if field.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Append one interned row to `out` as a CSV line (no trailing
/// newline). The one row encoder behind [`write_table`] and
/// [`crate::sink::CsvSink`].
pub fn encode_row(interner: &StringInterner, row: &RecordRow, out: &mut String) {
    quote(interner.resolve(row.useragent), out);
    out.push(',');
    out.push_str(&row.timestamp.to_iso8601());
    let _ = write!(out, ",{:016x},", row.ip_hash);
    quote(interner.resolve(row.asn), out);
    out.push(',');
    quote(interner.resolve(row.sitename), out);
    out.push(',');
    quote(interner.resolve(row.uri_path), out);
    let _ = write!(out, ",{},{},", row.status, row.bytes);
    quote(row.referer.map_or("", |s| interner.resolve(s)), out);
}

/// Split one CSV line into fields honouring RFC 4180 quoting.
fn split_csv_line(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(ch) = chars.next() {
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => cur.push(ch),
            }
        } else {
            match ch {
                '"' if cur.is_empty() => in_quotes = true,
                ',' => {
                    fields.push(std::mem::take(&mut cur));
                }
                '"' => return Err("stray quote inside unquoted field".into()),
                _ => cur.push(ch),
            }
        }
    }
    if in_quotes {
        return Err("unterminated quoted field".into());
    }
    fields.push(cur);
    Ok(fields)
}

/// Decode one CSV line (not the header) into a record.
pub fn decode_record(line: &str, line_no: usize) -> Result<AccessRecord, DecodeError> {
    let err = |m: String| DecodeError { line: line_no, message: m };
    let fields = split_csv_line(line).map_err(&err)?;
    if fields.len() != 9 {
        return Err(err(format!("expected 9 fields, got {}", fields.len())));
    }
    let timestamp = Timestamp::parse_iso8601(&fields[1]).map_err(|e| err(e.to_string()))?;
    let ip_hash = u64::from_str_radix(&fields[2], 16)
        .map_err(|_| err(format!("bad ip_hash {:?}", fields[2])))?;
    let status =
        fields[6].parse::<u16>().map_err(|_| err(format!("bad status {:?}", fields[6])))?;
    let bytes = fields[7].parse::<u64>().map_err(|_| err(format!("bad bytes {:?}", fields[7])))?;
    let referer = if fields[8].is_empty() { None } else { Some(fields[8].clone()) };
    Ok(AccessRecord {
        useragent: fields[0].clone(),
        timestamp,
        ip_hash,
        asn: fields[3].clone(),
        sitename: fields[4].clone(),
        uri_path: fields[5].clone(),
        status,
        bytes,
        referer,
    })
}

/// Decode a full CSV document (header required) into a [`LogTable`]:
/// [`decode_table_read`] over the text's bytes.
pub fn decode_table(text: &str) -> Result<LogTable, DecodeError> {
    decode_table_read(text.as_bytes())
}

/// Decode from a buffered reader into a [`LogTable`], one line at a
/// time, interning strings as rows stream in. The header is required
/// (empty input is an empty table), empty lines are skipped, and
/// decoding stops at the first malformed line. Errors, I/O failures
/// included, carry the failing 1-based line number (the header is
/// line 1).
pub fn decode_table_read<R: BufRead>(mut reader: R) -> Result<LogTable, DecodeError> {
    let mut table = LogTable::new();
    let mut buf = String::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        line_no += 1;
        let n = reader
            .read_line(&mut buf)
            .map_err(|e| DecodeError { line: line_no, message: format!("read failed: {e}") })?;
        if n == 0 {
            return Ok(table);
        }
        // Strip exactly one line terminator (`\n` or `\r\n`), matching
        // `str::lines`: a `\r` not followed by `\n` — including on an
        // unterminated final line — is field content.
        let line = match buf.strip_suffix('\n') {
            Some(rest) => rest.strip_suffix('\r').unwrap_or(rest),
            None => buf.as_str(),
        };
        if line_no == 1 {
            if line != HEADER {
                return Err(DecodeError {
                    line: 1,
                    message: format!("unexpected header {line:?}"),
                });
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        table.push_record(&decode_record(line, line_no)?);
    }
}

/// Encode a table to a writer, streaming row by row (header included).
pub fn write_table<W: Write>(w: &mut W, table: &LogTable) -> io::Result<()> {
    w.write_all(HEADER.as_bytes())?;
    w.write_all(b"\n")?;
    let mut line = String::with_capacity(160);
    for row in table.rows() {
        line.clear();
        encode_row(table.interner(), row, &mut line);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Encode a whole table as a CSV string (header included).
pub fn encode_table(table: &LogTable) -> String {
    let mut out = Vec::with_capacity(table.len() * 128 + HEADER.len() + 1);
    write_table(&mut out, table).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("encoded CSV is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ua: &str, path: &str) -> AccessRecord {
        AccessRecord {
            useragent: ua.into(),
            timestamp: Timestamp::from_date(2025, 2, 12),
            ip_hash: 0xABCD,
            asn: "GOOGLE".into(),
            sitename: "site-00.example.edu".into(),
            uri_path: path.into(),
            status: 200,
            bytes: 512,
            referer: None,
        }
    }

    /// `records` encoded through a table.
    fn encode(records: &[AccessRecord]) -> String {
        encode_table(&LogTable::from_records(records))
    }

    /// `text` decoded into a table, viewed as records.
    fn decode(text: &str) -> Result<Vec<AccessRecord>, DecodeError> {
        decode_table(text).map(|table| table.to_records())
    }

    #[test]
    fn roundtrip_simple() {
        let records = vec![sample("GPTBot/1.0", "/a"), sample("bingbot/2.0", "/b")];
        let text = encode(&records);
        let back = decode(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn roundtrip_with_quoting() {
        let mut r = sample("Mozilla/5.0 (compatible; X, \"quoted\"; +http://x)", "/q");
        r.referer = Some("https://ref.example/with,comma".into());
        let text = encode(&[r.clone()]);
        let back = decode(&text).unwrap();
        assert_eq!(back, vec![r]);
    }

    #[test]
    fn empty_dataset() {
        assert_eq!(decode("").unwrap(), vec![]);
        let enc = encode(&[]);
        assert_eq!(decode(&enc).unwrap(), vec![]);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(decode("nope\n").is_err());
    }

    #[test]
    fn bad_fields_rejected() {
        let good = encode(&[sample("a", "/")]);
        let mut lines: Vec<&str> = good.lines().collect();
        let tampered = lines[1].replace("2025-02-12T00:00:00Z", "not-a-time");
        lines[1] = &tampered;
        let text = lines.join("\n");
        let e = decode(&text).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn field_count_enforced() {
        let text = format!("{HEADER}\nonly,three,fields\n");
        let e = decode(&text).unwrap_err();
        assert!(e.message.contains("9 fields"));
    }

    #[test]
    fn unterminated_quote_rejected() {
        let text = format!("{HEADER}\n\"unterminated,2025-02-12T00:00:00Z,0,a,b,/,200,1,\n");
        assert!(decode(&text).is_err());
    }

    #[test]
    fn ip_hash_is_hex() {
        let text = encode(&[sample("x", "/")]);
        assert!(text.contains(",000000000000abcd,"));
    }

    #[test]
    fn table_roundtrip_is_byte_identical() {
        let mut r = sample("Mozilla/5.0 (compatible; X, \"q\"; +http://x)", "/q");
        r.referer = Some("https://ref.example/with,comma".into());
        let records = vec![r, sample("GPTBot/1.0", "/a")];
        let text = encode(&records);
        let table = decode_table(&text).expect("valid input");
        assert_eq!(table.to_records(), records);
        assert_eq!(encode_table(&table), text);
    }

    #[test]
    fn line_terminators_match_str_lines() {
        let records = vec![sample("a", "/x"), sample("b", "/y")];
        let text = encode(&records);
        // CRLF terminators are stripped like str::lines does…
        let crlf = text.replace('\n', "\r\n");
        assert_eq!(decode(&crlf).unwrap(), records);
        // …but only ONE terminator: an unquoted field ending in '\r'
        // before the '\r\n' keeps that '\r' as content, exactly as
        // str::lines sees it.
        let tricky = format!("{HEADER}\nua,2025-02-12T00:00:00Z,0,GOOGLE,site,/a,200,10,ref\r\r\n");
        assert_eq!(decode(&tricky).unwrap()[0].referer.as_deref(), Some("ref\r"));
        // A bare trailing '\r' on an unterminated final line is content.
        let bare = format!("{HEADER}\nua,2025-02-12T00:00:00Z,0,GOOGLE,site,/a,200,10,ref\r");
        assert_eq!(decode(&bare).unwrap()[0].referer.as_deref(), Some("ref\r"));
        // Errors carry the 1-based line number.
        let bad = format!("{HEADER}\nonly,three,fields\n");
        let e = decode_table_read(bad.as_bytes()).unwrap_err();
        assert_eq!(e.line, 2);
        // Empty input is an empty table.
        assert!(decode_table_read("".as_bytes()).unwrap().is_empty());
    }
}
