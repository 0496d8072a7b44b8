//! Row streams: pull-based readers over interned rows.
//!
//! [`RowStream`] is the input-side dual of [`crate::sink::RowSink`]: a
//! source of [`RecordRow`]s whose symbols live in an interner the stream
//! exposes. Consumers that only need one pass (the streaming analysis
//! engine, the k-way merge) can run off any implementation — an
//! in-memory table ([`TableRowStream`]), a CSV file ([`CsvRowStream`]),
//! or the binary format ([`crate::colfmt::BinReader`]) — with memory
//! bounded by the dictionary plus one row.

use std::io::BufRead;

use crate::codec::{self, DecodeError};
use crate::colfmt::BinReader;
use crate::intern::StringInterner;
use crate::table::{LogTable, RecordRow};

/// A pull-based source of interned rows.
///
/// The symbols in every yielded row belong to [`RowStream::interner`],
/// which may **grow** between rows (streaming decoders intern strings
/// as they first appear) but never invalidates earlier symbols.
/// Streams fuse: after the first `Err` or the first `None`, every
/// subsequent call returns `None`.
pub trait RowStream {
    /// The next row, `None` at end of stream.
    fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>>;

    /// The interner the yielded rows' symbols belong to.
    fn interner(&self) -> &StringInterner;
}

/// Streams a CSV document (workspace schema, header required) as
/// interned rows, one line at a time.
#[derive(Debug)]
pub struct CsvRowStream<R: BufRead> {
    reader: R,
    interner: StringInterner,
    buf: String,
    /// 1-based number of the last line read (the header is line 1).
    line_no: usize,
    done: bool,
}

impl<R: BufRead> CsvRowStream<R> {
    /// Wrap `reader` and validate the header line.
    pub fn new(mut reader: R) -> Result<CsvRowStream<R>, DecodeError> {
        let mut buf = String::new();
        let n = reader
            .read_line(&mut buf)
            .map_err(|e| DecodeError { line: 1, message: format!("read failed: {e}") })?;
        let done = if n == 0 {
            true // empty input is an empty dataset, like codec::decode_table_read
        } else {
            let line = strip_terminator(&buf);
            if line != codec::HEADER {
                return Err(DecodeError {
                    line: 1,
                    message: format!("unexpected header {line:?}"),
                });
            }
            false
        };
        Ok(CsvRowStream { reader, interner: StringInterner::new(), buf, line_no: 1, done })
    }
}

/// Strip exactly one line terminator (`\n` or `\r\n`), matching
/// `str::lines`: a bare `\r` is field content.
fn strip_terminator(buf: &str) -> &str {
    match buf.strip_suffix('\n') {
        Some(rest) => rest.strip_suffix('\r').unwrap_or(rest),
        None => buf,
    }
}

impl<R: BufRead> RowStream for CsvRowStream<R> {
    fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        if self.done {
            return None;
        }
        loop {
            self.buf.clear();
            self.line_no += 1;
            let n = match self.reader.read_line(&mut self.buf) {
                Ok(n) => n,
                Err(e) => {
                    self.done = true;
                    return Some(Err(DecodeError {
                        line: self.line_no,
                        message: format!("read failed: {e}"),
                    }));
                }
            };
            if n == 0 {
                self.done = true;
                return None;
            }
            let line = strip_terminator(&self.buf);
            if line.is_empty() {
                continue;
            }
            match codec::decode_record(line, self.line_no) {
                Ok(record) => {
                    let row = RecordRow {
                        useragent: self.interner.intern(&record.useragent),
                        asn: self.interner.intern(&record.asn),
                        sitename: self.interner.intern(&record.sitename),
                        uri_path: self.interner.intern(&record.uri_path),
                        referer: record.referer.as_deref().map(|s| self.interner.intern(s)),
                        timestamp: record.timestamp,
                        ip_hash: record.ip_hash,
                        bytes: record.bytes,
                        status: record.status,
                    };
                    return Some(Ok(row));
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }

    fn interner(&self) -> &StringInterner {
        &self.interner
    }
}

impl<R: BufRead> RowStream for BinReader<R> {
    fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        BinReader::next_row(self)
    }

    fn interner(&self) -> &StringInterner {
        BinReader::interner(self)
    }
}

/// Streams an in-memory [`LogTable`]'s rows — the equivalence anchor
/// for stream-vs-table tests, and the adapter that lets streaming
/// consumers run over materialized data.
#[derive(Debug)]
pub struct TableRowStream<'t> {
    table: &'t LogTable,
    next: usize,
}

impl<'t> TableRowStream<'t> {
    /// Stream `table`'s rows in table order.
    pub fn new(table: &'t LogTable) -> TableRowStream<'t> {
        TableRowStream { table, next: 0 }
    }
}

impl RowStream for TableRowStream<'_> {
    fn next_row(&mut self) -> Option<Result<RecordRow, DecodeError>> {
        let row = self.table.rows().get(self.next)?;
        self.next += 1;
        Some(Ok(*row))
    }

    fn interner(&self) -> &StringInterner {
        self.table.interner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AccessRecord;
    use crate::time::Timestamp;

    fn sample(i: u64) -> AccessRecord {
        AccessRecord {
            useragent: format!("bot/{}", i % 2),
            timestamp: Timestamp::from_unix(5_000 + i),
            ip_hash: i,
            asn: "GOOGLE".into(),
            sitename: "site-00.example.edu".into(),
            uri_path: format!("/p/{i}"),
            status: 200,
            bytes: 64,
            referer: None,
        }
    }

    fn drain(stream: &mut dyn RowStream) -> Vec<AccessRecord> {
        let mut out = Vec::new();
        while let Some(row) = stream.next_row() {
            let row = row.expect("valid row");
            let i = stream.interner();
            out.push(AccessRecord {
                useragent: i.resolve(row.useragent).to_string(),
                timestamp: row.timestamp,
                ip_hash: row.ip_hash,
                asn: i.resolve(row.asn).to_string(),
                sitename: i.resolve(row.sitename).to_string(),
                uri_path: i.resolve(row.uri_path).to_string(),
                status: row.status,
                bytes: row.bytes,
                referer: row.referer.map(|s| i.resolve(s).to_string()),
            });
        }
        out
    }

    #[test]
    fn csv_stream_matches_decode() {
        let records: Vec<AccessRecord> = (0..7).map(sample).collect();
        let text = codec::encode_table(&LogTable::from_records(&records));
        let mut s = CsvRowStream::new(text.as_bytes()).unwrap();
        assert_eq!(drain(&mut s), records);
        assert!(s.next_row().is_none());
    }

    #[test]
    fn csv_stream_empty_input() {
        let mut s = CsvRowStream::new(&b""[..]).unwrap();
        assert!(s.next_row().is_none());
    }

    #[test]
    fn csv_stream_rejects_bad_header() {
        let e = CsvRowStream::new(&b"nope\n"[..]).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn csv_stream_error_line_numbers_and_fusing() {
        let text = format!("{}\nonly,three,fields\n", codec::HEADER);
        let mut s = CsvRowStream::new(text.as_bytes()).unwrap();
        let e = s.next_row().unwrap().unwrap_err();
        assert_eq!(e.line, 2);
        assert!(s.next_row().is_none());
    }

    #[test]
    fn table_stream_yields_raw_rows() {
        let records: Vec<AccessRecord> = (0..4).map(sample).collect();
        let table = LogTable::from_records(&records);
        let mut s = TableRowStream::new(&table);
        assert_eq!(drain(&mut s), records);
    }

    #[test]
    fn bin_reader_is_a_row_stream() {
        let records: Vec<AccessRecord> = (0..4).map(sample).collect();
        let table = LogTable::from_records(&records);
        let mut bytes = Vec::new();
        crate::colfmt::write_table(&mut bytes, &table).unwrap();
        let mut s = BinReader::new(&bytes[..]).unwrap();
        assert_eq!(drain(&mut s), records);
    }
}
