//! Row-streaming output sinks.
//!
//! Producers that emit rows in a deterministic order (the k-way merge
//! behind streamed generation and the monitoring daemon) push each
//! interned [`RecordRow`] to every sink as it is produced, instead of
//! materializing a full [`LogTable`] first and encoding it afterwards —
//! bounding memory to the producer's working set rather than the whole
//! dataset. Rows stay interned the whole way: a sink resolves the
//! strings it needs from the stream's dictionary and never builds an
//! owned record.
//!
//! [`CsvSink`] shares its row encoder with [`crate::codec::write_table`],
//! and [`JsonlSink`] with [`crate::jsonl::write_table`], so streaming and
//! materialized paths are byte-identical and can be `cmp`-verified
//! against each other.

use std::io::{self, Write};

use crate::codec;
use crate::intern::{StringInterner, Sym};
use crate::jsonl;
use crate::table::{LogTable, RecordRow};

/// A destination for a deterministic stream of interned rows.
///
/// One stream passes one dictionary, unchanged, to every
/// [`RowSink::write_row`] call: a row's symbols resolve in the
/// `interner` passed with it, and the same `interner` comes with every
/// row of the stream. A sink may therefore cache per-[`Sym`] work (a
/// translation into its own dictionary, a parsed user agent) for the
/// whole stream.
pub trait RowSink {
    /// Write one row. Order is the producer's canonical order.
    fn write_row(&mut self, interner: &StringInterner, row: &RecordRow) -> io::Result<()>;

    /// Flush any buffered output; called once after the final row.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Translates a stream's symbols into a sink's own interner through a
/// dense `Sym`-indexed table, interning each source string on first
/// sight. Fields are visited in the order useragent, asn, sitename,
/// uri_path, referer — the order of [`LogTable::push_record`] — so the
/// sink's dictionary comes out exactly as if the rows' records had been
/// pushed one by one.
#[derive(Debug, Default)]
pub(crate) struct SymMap {
    ids: Vec<Option<Sym>>,
}

impl SymMap {
    pub(crate) fn row(
        &mut self,
        from: &StringInterner,
        row: &RecordRow,
        mut intern: impl FnMut(&str) -> Sym,
    ) -> RecordRow {
        if self.ids.len() < from.len() {
            self.ids.resize(from.len(), None);
        }
        let ids = &mut self.ids;
        let mut map = |sym: Sym| *ids[sym.index()].get_or_insert_with(|| intern(from.resolve(sym)));
        RecordRow {
            useragent: map(row.useragent),
            asn: map(row.asn),
            sitename: map(row.sitename),
            uri_path: map(row.uri_path),
            referer: row.referer.map(map),
            ..*row
        }
    }
}

/// Streams rows as the workspace CSV schema (header included).
pub struct CsvSink<W: Write> {
    writer: W,
    line: String,
}

impl<W: Write> CsvSink<W> {
    /// Wrap `writer`, emitting the CSV header immediately.
    pub fn new(mut writer: W) -> io::Result<CsvSink<W>> {
        writer.write_all(codec::HEADER.as_bytes())?;
        writer.write_all(b"\n")?;
        Ok(CsvSink { writer, line: String::with_capacity(160) })
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> RowSink for CsvSink<W> {
    fn write_row(&mut self, interner: &StringInterner, row: &RecordRow) -> io::Result<()> {
        self.line.clear();
        codec::encode_row(interner, row, &mut self.line);
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Streams rows as JSON Lines.
pub struct JsonlSink<W: Write> {
    writer: W,
    line: String,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap `writer`.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink { writer, line: String::with_capacity(192) }
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> RowSink for JsonlSink<W> {
    fn write_row(&mut self, interner: &StringInterner, row: &RecordRow) -> io::Result<()> {
        self.line.clear();
        jsonl::encode_row(interner, row, &mut self.line);
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Collects the stream back into a [`LogTable`] — the compatibility
/// sink, and the equivalence anchor for tests. The table's interner is
/// its own, filled in first-sight order in the field order of
/// [`LogTable::push_record`].
#[derive(Debug, Default)]
pub struct TableSink {
    /// The collected rows.
    pub table: LogTable,
    map: SymMap,
}

impl TableSink {
    /// An empty collector.
    pub fn new() -> TableSink {
        TableSink::default()
    }
}

impl RowSink for TableSink {
    fn write_row(&mut self, interner: &StringInterner, row: &RecordRow) -> io::Result<()> {
        let row = self.map.row(interner, row, |s| self.table.intern(s));
        self.table.push_row(row);
        Ok(())
    }
}

/// Counts rows and discards them (dry runs, throughput probes).
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Rows seen.
    pub rows: u64,
}

impl RowSink for CountingSink {
    fn write_row(&mut self, _interner: &StringInterner, _row: &RecordRow) -> io::Result<()> {
        self.rows += 1;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::record::AccessRecord;
    use crate::time::Timestamp;

    fn sample(i: u64) -> AccessRecord {
        AccessRecord {
            useragent: format!("bot/{i}"),
            timestamp: Timestamp::from_unix(1_000 + i),
            ip_hash: i,
            asn: "GOOGLE".into(),
            sitename: "s.example.edu".into(),
            uri_path: "/robots.txt".into(),
            status: 200,
            bytes: 10,
            referer: (i % 2 == 1).then(|| format!("https://ref.example/{i}")),
        }
    }

    /// `records` as a table whose dictionary is in sorted string order
    /// (the k-way merge's dictionary shape), so its ids differ from the
    /// first-sight ids a sink assigns.
    pub(crate) fn sorted_dictionary(records: &[AccessRecord]) -> LogTable {
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

    fn feed(sink: &mut dyn RowSink, table: &LogTable) {
        for row in table.rows() {
            sink.write_row(table.interner(), row).unwrap();
        }
        sink.finish().unwrap();
    }

    #[test]
    fn csv_sink_matches_write_table() {
        let records: Vec<AccessRecord> = (0..5).map(sample).collect();
        let table = sorted_dictionary(&records);
        let mut sink = CsvSink::new(Vec::new()).unwrap();
        feed(&mut sink, &table);
        let expected = codec::encode_table(&LogTable::from_records(&records));
        assert_eq!(sink.into_inner(), expected.into_bytes());
    }

    #[test]
    fn jsonl_sink_matches_write_table() {
        let records: Vec<AccessRecord> = (0..3).map(sample).collect();
        let table = sorted_dictionary(&records);
        let mut sink = JsonlSink::new(Vec::new());
        feed(&mut sink, &table);
        let mut expected = Vec::new();
        jsonl::write_table(&mut expected, &LogTable::from_records(&records)).unwrap();
        assert_eq!(sink.into_inner(), expected);
    }

    #[test]
    fn table_and_counting_sinks() {
        let records: Vec<AccessRecord> = (0..4).map(sample).collect();
        let table = sorted_dictionary(&records);
        let mut collected = TableSink::new();
        let mut count = CountingSink::default();
        feed(&mut collected, &table);
        feed(&mut count, &table);
        assert_eq!(collected.table.to_records(), records);
        assert_eq!(count.rows, 4);
        // The collected dictionary is in first-sight order, as if the
        // records had been pushed directly.
        let direct = LogTable::from_records(&records);
        assert_eq!(collected.table.rows(), direct.rows());
        assert!(collected.table.interner().iter().eq(direct.interner().iter()));
    }
}
