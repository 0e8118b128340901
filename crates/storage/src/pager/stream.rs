//! Ordered page streams over the pager: the building block spilling
//! operators use for partition files.
//!
//! A [`PageStreamWriter`] buffers rows — one at a time, or a batch's worth
//! copied a column at a time — for one logical stream (an external hash join
//! partition, a sorted run, …) and flushes them to pager pages when the
//! buffer reaches a byte or row threshold, so a fan-out of writers cannot
//! hoard the memory budget. [`PageStreamWriter::finish`] seals the stream
//! into a [`PageStream`] — the ordered page list plus row/byte accounting the
//! consumer needs for its recursion decisions — and a [`PageStreamReader`]
//! walks the pages in write order, freeing each page as soon as it has been
//! handed out (streams are consume-once: a spilled partition is never read
//! twice), and the pages it never handed out when it is dropped. A sealed
//! stream holds its pager too, and frees whatever pages it still owns when
//! it is dropped unread: an operator that unwinds or errors between
//! partitioning and reading leaves no page behind in a pager its caller
//! keeps.
//!
//! Rows come back exactly in the order they were pushed: pages are appended
//! and read in order, and each page preserves its row order through the
//! page-codec round trip ([`encode_batch`](super::encode_batch) /
//! [`decode_batch`](super::decode_batch)).

use std::sync::Arc;

use super::pool::{PageId, Pager};
use crate::{Column, RecordBatch, Result, Schema, StorageError, Value};

/// Buffers rows for one page stream and flushes them to pages of its pager.
///
/// Flushing happens when the buffered rows exceed `flush_bytes` (approximate,
/// via [`Value::approx_size`]) or `max_rows`, whichever comes first, checked
/// after every row: [`PageStreamWriter::push_row`] and
/// [`PageStreamWriter::push_batch`] cut the same rows into the same pages.
/// A writer dropped before [`PageStreamWriter::finish`] frees the pages it
/// flushed.
///
/// Pages are built without per-value type validation: the page codec tags
/// every value individually, so the schema's declared column types are
/// advisory (spilling operators use placeholder types for bookkeeping
/// columns holding mixed values). Row *arity* is still checked.
pub struct PageStreamWriter {
    pager: Arc<Pager>,
    schema: Schema,
    /// The buffered rows, a column per schema column.
    buffer: Vec<Column>,
    buffered: usize,
    buffer_bytes: usize,
    flush_bytes: usize,
    max_rows: usize,
    pages: Vec<PageId>,
    rows: usize,
    bytes: usize,
}

impl PageStreamWriter {
    /// Creates a writer producing pages of `schema`-shaped batches in
    /// `pager`.
    ///
    /// Panics if `max_rows` is zero (a page must be able to hold a row).
    pub fn new(pager: &Arc<Pager>, schema: Schema, flush_bytes: usize, max_rows: usize) -> Self {
        assert!(max_rows > 0, "a page must hold at least one row");
        PageStreamWriter {
            pager: Arc::clone(pager),
            buffer: empty_columns(&schema),
            schema,
            buffered: 0,
            buffer_bytes: 0,
            flush_bytes: flush_bytes.max(1),
            max_rows,
            pages: Vec::new(),
            rows: 0,
            bytes: 0,
        }
    }

    /// Appends one row, flushing the buffer to a page when it is full.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        let size = row.iter().map(Value::approx_size).sum::<usize>();
        for (column, value) in self.buffer.iter_mut().zip(row) {
            column.push_unchecked(value);
        }
        match self.fits(size) {
            true => Ok(()),
            false => self.flush(),
        }
    }

    /// Appends every row of `batch`, whose columns must line up with the
    /// schema's: the rows go into pages exactly as [`Self::push_row`] would
    /// put them one by one, but each page's rows are copied a column at a
    /// time.
    pub fn push_batch(&mut self, batch: &RecordBatch) -> Result<()> {
        if batch.num_columns() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                found: batch.num_columns(),
            });
        }
        let mut sizes = vec![0usize; batch.num_rows()];
        for column in batch.columns() {
            let cells = column.cells();
            for (row, size) in sizes.iter_mut().enumerate() {
                *size += cells.approx_size(row);
            }
        }
        let mut start = 0;
        for (row, size) in sizes.into_iter().enumerate() {
            if !self.fits(size) {
                self.buffer_rows(batch, start, row + 1 - start);
                start = row + 1;
                self.flush()?;
            }
        }
        self.buffer_rows(batch, start, batch.num_rows() - start);
        Ok(())
    }

    /// Counts a row of `size` bytes as buffered; `true` while the buffer is
    /// still short of a page.
    fn fits(&mut self, size: usize) -> bool {
        self.buffer_bytes += size;
        self.bytes += size;
        self.rows += 1;
        self.buffered += 1;
        self.buffer_bytes < self.flush_bytes && self.buffered < self.max_rows
    }

    /// Copies `len` rows of `batch` from `start` on into the buffer.
    fn buffer_rows(&mut self, batch: &RecordBatch, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        for (column, more) in self.buffer.iter_mut().zip(batch.columns()) {
            column.extend(&more.slice(start, len));
        }
    }

    /// Rows pushed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    fn flush(&mut self) -> Result<()> {
        if self.buffered == 0 {
            return Ok(());
        }
        let columns = std::mem::replace(&mut self.buffer, empty_columns(&self.schema));
        let batch = RecordBatch::new(self.schema.clone(), columns)?;
        self.buffered = 0;
        self.buffer_bytes = 0;
        self.pages.push(self.pager.append_page(batch)?);
        Ok(())
    }

    /// Flushes any buffered rows and seals the stream, which takes over the
    /// pages and the pager.
    pub fn finish(mut self) -> Result<PageStream> {
        self.flush()?;
        Ok(PageStream {
            pager: Arc::clone(&self.pager),
            schema: self.schema.clone(),
            pages: std::mem::take(&mut self.pages),
            rows: self.rows,
            bytes: self.bytes,
        })
    }
}

impl Drop for PageStreamWriter {
    fn drop(&mut self) {
        free_all(&self.pager, &self.pages);
    }
}

/// A sealed, ordered sequence of pager pages plus its size accounting.
/// Dropping it frees the pages it still owns.
pub struct PageStream {
    pager: Arc<Pager>,
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

    /// Starts consuming the stream in write order; the reader takes over
    /// its pages.
    pub fn reader(mut self) -> PageStreamReader {
        PageStreamReader {
            pager: Arc::clone(&self.pager),
            pages: std::mem::take(&mut self.pages),
            next: 0,
        }
    }

    /// Starts a non-consuming pass over the stream in write order. Unlike
    /// [`PageStream::reader`], pages stay in the pool (or spill file) after
    /// being read, so the stream can be scanned any number of times — the
    /// multi-pass access pattern of a block-nested-loop join. The pages are
    /// freed when the stream is dropped.
    pub fn scan(&self) -> PageStreamScan<'_> {
        PageStreamScan {
            stream: self,
            next: 0,
        }
    }
}

impl Drop for PageStream {
    fn drop(&mut self) {
        free_all(&self.pager, &self.pages);
    }
}

/// An empty column for every column of `schema`.
fn empty_columns(schema: &Schema) -> Vec<Column> {
    (schema.columns().iter())
        .map(|def| Column::new(def.data_type))
        .collect()
}

/// Frees pages on a drop path, where an error has nowhere to go (the lease
/// frees whatever is left when it drops).
fn free_all(pager: &Pager, pages: &[PageId]) {
    for &id in pages {
        let _ = pager.free_page(id);
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
    pub fn next_batch(&mut self) -> Result<Option<Arc<RecordBatch>>> {
        while self.next < self.stream.pages.len() {
            let id = self.stream.pages[self.next];
            self.next += 1;
            let batch = self.stream.pager.read_page(id)?;
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
/// a reader holds at most one page outside the pool at a time. Dropping a
/// reader frees the pages it has not read: an operator that unwinds, or
/// stops early, leaves no page of its streams behind in a pager its caller
/// keeps.
pub struct PageStreamReader {
    pager: Arc<Pager>,
    pages: Vec<PageId>,
    next: usize,
}

impl PageStreamReader {
    /// Reads (and frees) the next page, or `None` when the stream is done.
    pub fn next_batch(&mut self) -> Result<Option<Arc<RecordBatch>>> {
        while self.next < self.pages.len() {
            let id = self.pages[self.next];
            self.next += 1;
            let batch = self.pager.read_page(id)?;
            self.pager.free_page(id)?;
            if batch.num_rows() > 0 {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

impl Drop for PageStreamReader {
    fn drop(&mut self) {
        free_all(&self.pager, &self.pages[self.next..]);
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
        let mut writer = PageStreamWriter::new(&pager, schema(), 64, 7);
        for i in 0..100 {
            writer.push_row(row(i)).unwrap();
        }
        let stream = writer.finish().unwrap();
        assert_eq!(stream.rows(), 100);
        assert!(stream.bytes() > 0);
        assert!(stream.num_pages() > 1, "tiny thresholds force many pages");

        let mut reader = stream.reader();
        let mut seen = Vec::new();
        while let Some(batch) = reader.next_batch().unwrap() {
            for r in 0..batch.num_rows() {
                seen.push(batch.column(0).value(r).as_i64().unwrap());
            }
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn batches_are_cut_into_the_pages_rows_would_be() {
        // Shares of varied widths and NULLs, under a placeholder type as
        // spilled key columns declare them, next to plain columns.
        let schema = Schema::new(vec![
            ColumnDef::public("a", DataType::Int),
            ColumnDef::public("b", DataType::Varchar),
            ColumnDef::public("__key0", DataType::Int),
        ]);
        let cell = |i: i64| match i % 4 {
            0 => Value::Null,
            n => Value::Encrypted(num_bigint::BigUint::from(7u32) << (40 * n as u32 + i as u32)),
        };
        let rows: Vec<Vec<Value>> = (0..157)
            .map(|i| vec![Value::Int(i), Value::Str(format!("r{}", i % 13)), cell(i)])
            .collect();
        for (flush_bytes, max_rows) in [(64, 1000), (300, 7), (1 << 20, 16), (1, 1)] {
            let pager = Arc::new(Pager::new(&MemoryBudget::unlimited()));
            let mut by_row = PageStreamWriter::new(&pager, schema.clone(), flush_bytes, max_rows);
            for row in &rows {
                by_row.push_row(row.clone()).unwrap();
            }
            let mut by_batch = PageStreamWriter::new(&pager, schema.clone(), flush_bytes, max_rows);
            let batch = RecordBatch::from_rows_unchecked(schema.clone(), rows.clone());
            for (start, len) in [(0, 0), (0, 40), (40, 1), (41, 99), (140, 17)] {
                by_batch
                    .push_batch(&batch.slice(start, len).unwrap())
                    .unwrap();
            }
            let (by_row, by_batch) = (by_row.finish().unwrap(), by_batch.finish().unwrap());
            assert_eq!(
                by_row.num_pages(),
                by_batch.num_pages(),
                "{flush_bytes}/{max_rows}"
            );
            assert_eq!(by_row.bytes(), by_batch.bytes());
            assert_eq!(by_row.rows(), by_batch.rows());
            let (mut a, mut b) = (by_row.reader(), by_batch.reader());
            while let Some(page) = a.next_batch().unwrap() {
                let other = b.next_batch().unwrap().expect("as many pages");
                assert_eq!(
                    super::super::encode_batch(&page),
                    super::super::encode_batch(&other)
                );
            }
        }
    }

    #[test]
    fn reading_frees_pages_as_it_goes() {
        let pager = Arc::new(Pager::new(&MemoryBudget::unlimited()));
        let mut writer = PageStreamWriter::new(&pager, schema(), 1, 1); // one row per page
        for i in 0..5 {
            writer.push_row(row(i)).unwrap();
        }
        let stream = writer.finish().unwrap();
        assert_eq!(stream.num_pages(), 5);
        let mut reader = stream.reader();
        let mut read = 0;
        while reader.next_batch().unwrap().is_some() {
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
        let writer = PageStreamWriter::new(&pager, schema(), 1024, 8);
        let stream = writer.finish().unwrap();
        assert!(stream.is_empty());
        assert_eq!(stream.num_pages(), 0);
        assert!(stream.reader().next_batch().unwrap().is_none());
    }

    #[test]
    fn free_and_release_drop_all_pages() {
        let pager = Arc::new(Pager::new(&MemoryBudget::unlimited()));
        let mut writer = PageStreamWriter::new(&pager, schema(), 1, 1);
        for i in 0..4 {
            writer.push_row(row(i)).unwrap();
        }
        drop(writer.finish().unwrap());
        assert_eq!(pager.resident_bytes(), 0, "an unread stream frees on drop");

        let mut writer = PageStreamWriter::new(&pager, schema(), 1, 1);
        for i in 0..4 {
            writer.push_row(row(i)).unwrap();
        }
        assert!(pager.resident_bytes() > 0);
        drop(writer);
        assert_eq!(
            pager.resident_bytes(),
            0,
            "an unfinished writer frees on drop"
        );

        let mut writer = PageStreamWriter::new(&pager, schema(), 1, 1);
        for i in 0..4 {
            writer.push_row(row(i)).unwrap();
        }
        // A reader dropped part-way frees the pages it never read.
        let mut reader = writer.finish().unwrap().reader();
        reader.next_batch().unwrap();
        drop(reader);
        assert_eq!(pager.resident_bytes(), 0);
    }

    #[test]
    fn scan_is_repeatable_and_keeps_pages() {
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(64)));
        let mut writer = PageStreamWriter::new(&pager, schema(), 32, 4);
        for i in 0..30 {
            writer.push_row(row(i)).unwrap();
        }
        let stream = writer.finish().unwrap();
        for _ in 0..3 {
            let mut scan = stream.scan();
            let mut seen = Vec::new();
            while let Some(batch) = scan.next_batch().unwrap() {
                for r in 0..batch.num_rows() {
                    seen.push(batch.column(0).value(r).as_i64().unwrap());
                }
            }
            assert_eq!(seen, (0..30).collect::<Vec<_>>(), "every pass is full");
        }
        // Pages survived the scans and are reclaimed when the stream drops.
        drop(stream);
        assert_eq!(pager.resident_bytes(), 0);
    }

    #[test]
    fn streams_spill_under_a_tiny_budget_and_round_trip() {
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(64)));
        let mut writer = PageStreamWriter::new(&pager, schema(), 32, 4);
        for i in 0..50 {
            writer.push_row(row(i)).unwrap();
        }
        let stream = writer.finish().unwrap();
        assert!(pager.stats().pages_spilled > 0, "64B budget must spill");
        let mut reader = stream.reader();
        let mut seen = Vec::new();
        while let Some(batch) = reader.next_batch().unwrap() {
            for r in 0..batch.num_rows() {
                seen.push(batch.column(0).value(r).as_i64().unwrap());
            }
        }
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }
}
