//! Ordered page streams over the pager: the building block spilling
//! operators use for partition files.
//!
//! A [`PageStreamWriter`] buffers rows for one logical stream (an external
//! hash join partition, a sorted run, …) and flushes them to pager pages when
//! the buffer reaches a byte or row threshold, so a fan-out of writers cannot
//! hoard the memory budget. [`PageStreamWriter::finish`] seals the stream
//! into a [`PageStream`] — the ordered page list plus row/byte accounting the
//! consumer needs for its recursion decisions — and a [`PageStreamReader`]
//! walks the pages in write order, freeing each page as soon as it has been
//! handed out (streams are consume-once: a spilled partition is never read
//! twice).
//!
//! Rows come back exactly in the order they were pushed: pages are appended
//! and read in order, and each page preserves its row order through the
//! page-codec round trip ([`encode_batch`](super::encode_batch) /
//! [`decode_batch`](super::decode_batch)).

use std::sync::Arc;

use super::pool::{PageId, Pager};
use crate::{RecordBatch, Result, Schema, StorageError, Value};

/// Buffers rows for one page stream and flushes them to pager pages.
///
/// Flushing happens when the buffered rows exceed `flush_bytes` (approximate,
/// via [`Value::approx_size`]) or `max_rows`, whichever comes first.
///
/// Pages are built without per-value type validation: the page codec tags
/// every value individually, so the schema's declared column types are
/// advisory (spilling operators use placeholder types for bookkeeping
/// columns holding mixed values). Row *arity* is still checked.
pub struct PageStreamWriter {
    schema: Schema,
    buffer: Vec<Vec<Value>>,
    buffer_bytes: usize,
    flush_bytes: usize,
    max_rows: usize,
    pages: Vec<PageId>,
    rows: usize,
    bytes: usize,
}

impl PageStreamWriter {
    /// Creates a writer producing pages of `schema`-shaped batches.
    ///
    /// Panics if `max_rows` is zero (a page must be able to hold a row).
    pub fn new(schema: Schema, flush_bytes: usize, max_rows: usize) -> Self {
        assert!(max_rows > 0, "a page must hold at least one row");
        PageStreamWriter {
            schema,
            buffer: Vec::new(),
            buffer_bytes: 0,
            flush_bytes: flush_bytes.max(1),
            max_rows,
            pages: Vec::new(),
            rows: 0,
            bytes: 0,
        }
    }

    /// Appends one row, flushing the buffer to a page when it is full.
    pub fn push_row(&mut self, pager: &Pager, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        let size = row.iter().map(Value::approx_size).sum::<usize>();
        self.buffer_bytes += size;
        self.bytes += size;
        self.rows += 1;
        self.buffer.push(row);
        if self.buffer_bytes >= self.flush_bytes || self.buffer.len() >= self.max_rows {
            self.flush(pager)?;
        }
        Ok(())
    }

    /// Rows pushed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    fn flush(&mut self, pager: &Pager) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let batch = RecordBatch::from_rows_unchecked(self.schema.clone(), self.buffer.drain(..));
        self.buffer_bytes = 0;
        self.pages.push(pager.append_page(batch)?);
        Ok(())
    }

    /// Flushes any buffered rows and seals the stream.
    pub fn finish(mut self, pager: &Pager) -> Result<PageStream> {
        self.flush(pager)?;
        Ok(PageStream {
            schema: self.schema,
            pages: self.pages,
            rows: self.rows,
            bytes: self.bytes,
        })
    }
}

/// A sealed, ordered sequence of pager pages plus its size accounting.
pub struct PageStream {
    schema: Schema,
    pages: Vec<PageId>,
    rows: usize,
    bytes: usize,
}

impl PageStream {
    /// The schema every page of this stream was written with.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows across all pages.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Approximate decoded bytes across all pages (the accounting the
    /// consumer's spill/recursion decisions run on).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of pages in the stream.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// True when no rows were ever pushed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Starts consuming the stream in write order.
    pub fn reader(self) -> PageStreamReader {
        PageStreamReader {
            pages: self.pages,
            next: 0,
        }
    }

    /// Starts a non-consuming pass over the stream in write order. Unlike
    /// [`PageStream::reader`], pages stay in the pool (or spill file) after
    /// being read, so the stream can be scanned any number of times — the
    /// multi-pass access pattern of a block-nested-loop join. Free the
    /// stream explicitly with [`PageStream::free`] when done.
    pub fn scan(&self) -> PageStreamScan<'_> {
        PageStreamScan {
            stream: self,
            next: 0,
        }
    }

    /// Frees every page without reading it (abandoning the stream).
    pub fn free(self, pager: &Pager) -> Result<()> {
        for id in self.pages {
            pager.free_page(id)?;
        }
        Ok(())
    }
}

/// Re-runnable, non-consuming cursor over a [`PageStream`]'s pages (see
/// [`PageStream::scan`]). Reading faults pages back in through the pool; the
/// pool's normal eviction keeps the resident set within budget, so a full
/// pass costs IO, not memory.
pub struct PageStreamScan<'s> {
    stream: &'s PageStream,
    next: usize,
}

impl PageStreamScan<'_> {
    /// Reads the next non-empty page without freeing it, or `None` at the
    /// end of the stream.
    pub fn next_batch(&mut self, pager: &Pager) -> Result<Option<Arc<RecordBatch>>> {
        while self.next < self.stream.pages.len() {
            let id = self.stream.pages[self.next];
            self.next += 1;
            let batch = pager.read_page(id)?;
            if batch.num_rows() > 0 {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

/// Consume-once cursor over a [`PageStream`]'s pages.
///
/// Each [`PageStreamReader::next_batch`] call reads the next page and
/// immediately frees it in the pool — the returned `Arc` keeps the decoded
/// batch alive for the caller while the pool reclaims the frame's budget, so
/// a reader holds at most one page outside the pool at a time.
pub struct PageStreamReader {
    pages: Vec<PageId>,
    next: usize,
}

impl PageStreamReader {
    /// Reads (and frees) the next page, or `None` when the stream is done.
    pub fn next_batch(&mut self, pager: &Pager) -> Result<Option<Arc<RecordBatch>>> {
        while self.next < self.pages.len() {
            let id = self.pages[self.next];
            self.next += 1;
            let batch = pager.read_page(id)?;
            pager.free_page(id)?;
            if batch.num_rows() > 0 {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }

    /// Frees every unread page (early close / error paths).
    ///
    /// A reader dropped mid-stream without `release` leaks its remaining
    /// pages into the pool until the pager itself drops (which also deletes
    /// the spill file) — acceptable on error paths, where operators unwind
    /// without running `close`.
    pub fn release(&mut self, pager: &Pager) {
        for &id in &self.pages[self.next..] {
            let _ = pager.free_page(id);
        }
        self.next = self.pages.len();
    }
}

#[cfg(test)]
mod tests {
    use super::super::MemoryBudget;
    use super::*;
    use crate::{ColumnDef, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::public("a", DataType::Int),
            ColumnDef::public("b", DataType::Varchar),
        ])
    }

    fn row(i: i64) -> Vec<Value> {
        vec![Value::Int(i), Value::Str(format!("r{i}"))]
    }

    #[test]
    fn rows_come_back_in_push_order() {
        let pager = Arc::new(Pager::new(&MemoryBudget::unlimited()));
        let mut writer = PageStreamWriter::new(schema(), 64, 7);
        for i in 0..100 {
            writer.push_row(&pager, row(i)).unwrap();
        }
        let stream = writer.finish(&pager).unwrap();
        assert_eq!(stream.rows(), 100);
        assert!(stream.bytes() > 0);
        assert!(stream.num_pages() > 1, "tiny thresholds force many pages");

        let mut reader = stream.reader();
        let mut seen = Vec::new();
        while let Some(batch) = reader.next_batch(&pager).unwrap() {
            for r in 0..batch.num_rows() {
                seen.push(batch.column(0).get(r).as_i64().unwrap());
            }
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn reading_frees_pages_as_it_goes() {
        let pager = Arc::new(Pager::new(&MemoryBudget::unlimited()));
        let mut writer = PageStreamWriter::new(schema(), 1, 1); // one row per page
        for i in 0..5 {
            writer.push_row(&pager, row(i)).unwrap();
        }
        let stream = writer.finish(&pager).unwrap();
        assert_eq!(stream.num_pages(), 5);
        let mut reader = stream.reader();
        let mut read = 0;
        while reader.next_batch(&pager).unwrap().is_some() {
            read += 1;
        }
        assert_eq!(read, 5);
        assert_eq!(
            pager.resident_bytes(),
            0,
            "every page is freed once consumed"
        );
    }

    #[test]
    fn empty_stream_reads_nothing() {
        let pager = Arc::new(Pager::new(&MemoryBudget::unlimited()));
        let writer = PageStreamWriter::new(schema(), 1024, 8);
        let stream = writer.finish(&pager).unwrap();
        assert!(stream.is_empty());
        assert_eq!(stream.num_pages(), 0);
        assert!(stream.reader().next_batch(&pager).unwrap().is_none());
    }

    #[test]
    fn free_and_release_drop_all_pages() {
        let pager = Arc::new(Pager::new(&MemoryBudget::unlimited()));
        let mut writer = PageStreamWriter::new(schema(), 1, 1);
        for i in 0..4 {
            writer.push_row(&pager, row(i)).unwrap();
        }
        writer.finish(&pager).unwrap().free(&pager).unwrap();
        assert_eq!(pager.resident_bytes(), 0);

        let mut writer = PageStreamWriter::new(schema(), 1, 1);
        for i in 0..4 {
            writer.push_row(&pager, row(i)).unwrap();
        }
        let mut reader = writer.finish(&pager).unwrap().reader();
        reader.next_batch(&pager).unwrap();
        reader.release(&pager);
        assert_eq!(pager.resident_bytes(), 0);
        assert!(reader.next_batch(&pager).unwrap().is_none());
    }

    #[test]
    fn scan_is_repeatable_and_keeps_pages() {
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(64)));
        let mut writer = PageStreamWriter::new(schema(), 32, 4);
        for i in 0..30 {
            writer.push_row(&pager, row(i)).unwrap();
        }
        let stream = writer.finish(&pager).unwrap();
        for _ in 0..3 {
            let mut scan = stream.scan();
            let mut seen = Vec::new();
            while let Some(batch) = scan.next_batch(&pager).unwrap() {
                for r in 0..batch.num_rows() {
                    seen.push(batch.column(0).get(r).as_i64().unwrap());
                }
            }
            assert_eq!(seen, (0..30).collect::<Vec<_>>(), "every pass is full");
        }
        // Pages survived the scans and are reclaimed by an explicit free.
        stream.free(&pager).unwrap();
        assert_eq!(pager.resident_bytes(), 0);
    }

    #[test]
    fn streams_spill_under_a_tiny_budget_and_round_trip() {
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(64)));
        let mut writer = PageStreamWriter::new(schema(), 32, 4);
        for i in 0..50 {
            writer.push_row(&pager, row(i)).unwrap();
        }
        let stream = writer.finish(&pager).unwrap();
        assert!(pager.stats().pages_spilled > 0, "64B budget must spill");
        let mut reader = stream.reader();
        let mut seen = Vec::new();
        while let Some(batch) = reader.next_batch(&pager).unwrap() {
            for r in 0..batch.num_rows() {
                seen.push(batch.column(0).get(r).as_i64().unwrap());
            }
        }
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }
}
