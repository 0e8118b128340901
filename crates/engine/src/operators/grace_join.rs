//! The hash join's overflow path: Grace-style partitioning through the
//! pager.
//!
//! [`HashJoin`] holds its build (right) side in memory while it fits the
//! [`MemoryBudget`](sdb_storage::MemoryBudget). On the first overflow it
//! replays the held batches, then the rest of the build input, into the
//! classic Grace plan:
//!
//! 1. **Partition** — both inputs hash-partition by join key into `FANOUT`
//!    paired pager streams ([`PageStreamWriter`]), the evaluated key
//!    components riding along as extra `__key{i}` columns so a faulted-in row
//!    never re-evaluates its key (re-evaluation could re-trigger subquery
//!    resolution and would double-count UDF statistics); what a row is
//!    routed by is the hash of those components
//!    ([`sdb_storage::keys`]), recomputed from them at every level.
//!    Probe rows also carry their global arrival sequence number. Key
//!    evaluation is morsel-parallel (the same path the in-memory join
//!    uses); routing happens serially in arrival order, so every stream
//!    preserves input order.
//! 2. **Join pairs** — each build partition is materialised and indexed by
//!    its key columns with the in-memory machinery, then its probe partition
//!    streams against it page by page. A build partition still larger than
//!    the budget recursively re-partitions *both* streams at the next hash
//!    level (bounded depth, like the aggregation's overflow path); beyond
//!    that it is joined in memory — a single pathological key cannot be
//!    split further. Partition pairs are independent up to the final
//!    ordered merge, so with `parallelism > 1` they join concurrently on
//!    scoped worker threads (`scoped_workers`); concurrency is additionally
//!    capped so the workers' simultaneous build materialisations stay within
//!    roughly one memory budget (`budget / largest build partition`).
//! 3. **Merge** — each pair's output (sequence number attached) parks in an
//!    output stream; the drain phase k-way-merges all output streams by
//!    sequence number.
//!
//! **Byte-identity with the in-memory path:** that path emits, for each
//! probe row in arrival order, its matches in ascending build-row order (or
//! one null-padded row for an unmatched LEFT JOIN probe row). Partition
//! streams preserve arrival order, a probe row's entire output lands in
//! exactly one partition (one key → one partition at every level), and
//! within a partition build rows stay in ascending global order — so each
//! output stream is sorted by sequence number and the k-way merge reproduces
//! the in-memory row order exactly, at any parallelism × batch size. NULL
//! join keys never match: null-keyed build rows are dropped at partition
//! time, null-keyed probe rows are dropped for inner joins and routed to
//! partition zero for LEFT JOINs (they only need padding).
//!
//! Residual (non-equi) ON conjuncts are handled exactly as for the in-memory
//! path: the planner puts a [`super::filter::Filter`] above the join for
//! inner joins and falls back to the nested-loop operator for LEFT JOINs,
//! where residuals decide *matching*, not post-join filtering.
//!
//! Oracle-backed keys (group-tag equality surrogates) are resolved through
//! the cross-batch accumulator: each side's raw chunks are parked in the
//! pager while operand rows coalesce, so the whole side resolves in **one
//! round trip per key call** and spilled chunks are never re-resolved — the
//! resolved virtual columns ride along when the chunks stream back out for
//! partitioning (and only the evaluated `__key{i}` components enter the
//! partition streams, so recursion levels pay zero further trips). Tags come
//! from a keyed PRF of the plaintext and are stable across round trips, so
//! partitioning by them is sound (rank surrogates never appear in equi-join
//! keys).

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter;
use std::ops::Range;
use std::sync::Arc;

use sdb_sql::ast::{Expr, JoinKind};
use sdb_storage::{
    Column, ColumnDef, DataType, PageStream, PageStreamReader, PageStreamWriter, RecordBatch,
    Schema, Value,
};

use parking_lot::Mutex;

use sdb_storage::partition_ranges;

use super::expr::input_column;
use super::join::{keys_of_batch, BuildSide, HashJoin};
use super::oracle::{collect_oracle_calls_all, resolve_for_exprs, OracleAccumulator};
use super::parallel::scoped_workers;
use super::spill_aggregate::{flush_bytes, partition_writers, FANOUT, MAX_LEVELS};
use super::{append_rows, ExecContext, Replay};
use crate::Result;
use sdb_storage::keys::{partition_of, BatchKeys};

/// A hash join whose build side overflowed: every partition pair has been
/// joined and the output streams drain through a sequence-number merge.
pub(super) struct Spilled {
    /// The emitted schema: probe columns then build columns, no bookkeeping.
    output_schema: Schema,
    cursors: Vec<OutCursor>,
    /// Min-heap of `(frontier sequence number, cursor index)`. A probe row's
    /// entire output lives in one stream, so sequence numbers never collide
    /// across cursors.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// The probe side produced at least one batch (possibly empty) — the
    /// in-memory path then emits at least one (possibly empty) batch.
    probe_saw_batch: bool,
    emitted: bool,
}

impl HashJoin<'_> {
    /// The page schema of build partition streams: the key components, then
    /// the build side's original columns.
    fn build_page_schema(&self, right_schema: &Schema) -> Schema {
        let mut defs = key_defs(&self.right_keys, right_schema);
        defs.extend(right_schema.columns().iter().cloned());
        Schema::new(defs)
    }

    /// The page schema of probe partition streams: arrival sequence number,
    /// the key components, then the probe side's original columns.
    fn probe_page_schema(&self, left_schema: &Schema) -> Schema {
        let mut defs = vec![ColumnDef::public("__seq", DataType::Int)];
        defs.extend(key_defs(&self.left_keys, left_schema));
        defs.extend(left_schema.columns().iter().cloned());
        Schema::new(defs)
    }

    /// The overflow path: routes the held build batches, then the rest of
    /// the build input, into `FANOUT` keyed streams, drains the probe side
    /// into paired streams and joins every pair. When the keys carry oracle
    /// calls, each side's raw chunks are parked in a cross-batch accumulator
    /// first, so the whole side resolves in one coalesced round trip per
    /// call instead of one per chunk.
    pub(super) fn spill(&mut self, mut build: Replay) -> Result<Spilled> {
        let right_schema = build.schema().clone();
        let payload = right_schema.len();
        let build_schema = self.build_page_schema(&right_schema);
        let mut build_writers = partition_writers(&self.ctx, &build_schema);
        match self.spill_resolver(&self.right_keys, &right_schema)? {
            Some(mut resolver) => {
                while let Some(batch) = build.next_batch(self.right.as_mut())? {
                    resolver.push(&self.ctx, &batch)?;
                }
                let mut epoch = resolver.flush(&self.ctx)?;
                while let Some(resolved) = epoch.next_resolved()? {
                    self.partition_build_chunk(resolved, payload, &mut build_writers)?;
                }
            }
            None => {
                while let Some(batch) = build.next_batch(self.right.as_mut())? {
                    self.partition_build_chunk(batch, payload, &mut build_writers)?;
                }
            }
        }

        // Partitioned probe: drain the probe side into paired streams,
        // through an accumulator of its own when the probe keys carry
        // oracle calls.
        let mut probe_writers: Option<Vec<PageStreamWriter>> = None;
        let mut left_schema = Schema::empty();
        let mut probe_saw_batch = false;
        let mut next_seq = 0u64;
        let mut probe_resolver: Option<OracleAccumulator> = None;
        while let Some(batch) = self.left.next_batch()? {
            if !probe_saw_batch {
                probe_saw_batch = true;
                left_schema = batch.schema().clone();
                probe_writers = Some(partition_writers(
                    &self.ctx,
                    &self.probe_page_schema(&left_schema),
                ));
                probe_resolver = self.spill_resolver(&self.left_keys, &left_schema)?;
            }
            match &mut probe_resolver {
                Some(resolver) => resolver.push(&self.ctx, &batch)?,
                None => {
                    let writers = probe_writers.as_mut().expect("created above");
                    self.partition_probe_chunk(batch, left_schema.len(), writers, &mut next_seq)?;
                }
            }
        }
        if let Some(resolver) = probe_resolver {
            let writers = probe_writers.as_mut().expect("created with the resolver");
            let mut epoch = resolver.flush(&self.ctx)?;
            while let Some(resolved) = epoch.next_resolved()? {
                self.partition_probe_chunk(resolved, left_schema.len(), writers, &mut next_seq)?;
            }
        }

        let build_streams = finish_writers(build_writers)?;
        self.ctx.stats_mut().join_build_partitions +=
            build_streams.iter().filter(|s| !s.is_empty()).count();
        let probe_streams = match probe_writers {
            Some(writers) => finish_writers(writers)?,
            // No probe batches: nothing can be emitted; the build
            // partitions free their pages as they drop.
            None => {
                return Ok(Spilled {
                    output_schema: Schema::empty(),
                    cursors: Vec::new(),
                    heap: BinaryHeap::new(),
                    probe_saw_batch: false,
                    emitted: false,
                });
            }
        };

        // Join every partition pair, recursing on oversized build
        // partitions. Pairs are independent (their outputs merge by sequence
        // number below), so they fan out across workers.
        let output_schema = left_schema.join(&right_schema);
        let joiner = PairJoiner {
            ctx: &self.ctx,
            kind: self.kind,
            keys: self.left_keys.len(),
        };
        let pairs: Vec<(PageStream, PageStream)> =
            build_streams.into_iter().zip(probe_streams).collect();
        let outputs = joiner.join_pairs(pairs, &output_schema)?;

        let mut cursors = Vec::new();
        let mut heap = BinaryHeap::new();
        for stream in outputs {
            let mut cursor = OutCursor {
                reader: stream.reader(),
                current: None,
                row: 0,
            };
            cursor.fetch()?;
            if let Some(seq) = cursor.frontier_seq()? {
                heap.push(Reverse((seq, cursors.len())));
            }
            cursors.push(cursor);
        }
        Ok(Spilled {
            output_schema,
            cursors,
            heap,
            probe_saw_batch,
            emitted: false,
        })
    }

    /// A cross-batch accumulator for the oracle calls in `keys`, or `None`
    /// when there is nothing to coalesce (no calls, or the calls already
    /// materialised as columns of `schema`).
    fn spill_resolver(&self, keys: &[Expr], schema: &Schema) -> Result<Option<OracleAccumulator>> {
        let calls = collect_oracle_calls_all(keys);
        if calls.is_empty() {
            return Ok(None);
        }
        let resolver = OracleAccumulator::new(&self.ctx, &calls, Arc::default(), schema)?;
        Ok((!resolver.is_passthrough()).then_some(resolver))
    }

    /// Routes one build-side chunk into the partition writers. Null-keyed
    /// rows are dropped — they can never match, and LEFT JOIN padding is
    /// driven by the probe side. Only the first `payload` columns of each
    /// row enter the stream (resolved key columns appended by the
    /// accumulator are bookkeeping, not join output).
    fn partition_build_chunk(
        &self,
        batch: RecordBatch,
        payload: usize,
        writers: &mut [PageStreamWriter],
    ) -> Result<()> {
        let mut keys = self.right_keys.clone();
        let working = resolve_for_exprs(&self.ctx, batch.clone(), &mut keys)?;
        let keys = keys_of_batch(&self.ctx, &keys, &working)?;
        let mut routed = 0usize;
        for (row, &hash) in keys.hashes.iter().enumerate() {
            if keys.nulls[row] {
                continue;
            }
            let mut out: Vec<Value> = keys.row(row).map(Cow::into_owned).collect();
            out.extend(batch.row(row).into_iter().take(payload));
            writers[partition_of(hash, 0, FANOUT)].push_row(out)?;
            routed += 1;
        }
        self.ctx.stats_mut().join_spilled_rows += routed;
        Ok(())
    }

    /// Routes one probe-side chunk into the partition writers, tagging every
    /// row with its global arrival sequence number. Null-keyed rows are
    /// dropped for inner joins and routed to partition zero for LEFT JOINs,
    /// where they will null-pad.
    fn partition_probe_chunk(
        &self,
        batch: RecordBatch,
        payload: usize,
        writers: &mut [PageStreamWriter],
        next_seq: &mut u64,
    ) -> Result<()> {
        let mut keys = self.left_keys.clone();
        let working = resolve_for_exprs(&self.ctx, batch.clone(), &mut keys)?;
        let keys = keys_of_batch(&self.ctx, &keys, &working)?;
        let mut routed = 0usize;
        for (row, &hash) in keys.hashes.iter().enumerate() {
            let seq = *next_seq;
            *next_seq += 1;
            let p = match keys.nulls[row] {
                false => partition_of(hash, 0, FANOUT),
                true if self.kind == JoinKind::Left => 0,
                true => continue,
            };
            let mut out = vec![Value::Int(seq as i64)];
            out.extend(keys.row(row).map(Cow::into_owned));
            out.extend(batch.row(row).into_iter().take(payload));
            writers[p].push_row(out)?;
            routed += 1;
        }
        self.ctx.stats_mut().join_spilled_rows += routed;
        Ok(())
    }
}

/// The pair-joining phase of the Grace join, factored out of the operator so
/// it can be shared (`Sync`) across scoped worker threads: partition pairs
/// are independent up to the final sequence-number merge.
struct PairJoiner<'j, 'a> {
    ctx: &'j Arc<ExecContext<'a>>,
    kind: JoinKind,
    /// How many key components lead a build row and follow a probe row's
    /// sequence number.
    keys: usize,
}

impl PairJoiner<'_, '_> {
    /// Joins every partition pair, fanning independent pairs out across
    /// scoped workers. Concurrency is capped both by the parallelism knob
    /// and by the budget: each in-flight pair may materialise up to one
    /// build partition, so at most `budget / largest build partition`
    /// workers run at once (serial when one partition alone approaches the
    /// budget). Outputs come back in pair order — the sequence-number merge
    /// above does not depend on it, but determinism keeps debugging sane.
    fn join_pairs(
        &self,
        pairs: Vec<(PageStream, PageStream)>,
        output_schema: &Schema,
    ) -> Result<Vec<PageStream>> {
        let workers = self.pair_workers(&pairs);
        if workers <= 1 {
            let mut outputs = Vec::new();
            for (build, probe) in pairs {
                self.join_partition(build, probe, 1, output_schema, &mut outputs)?;
            }
            return Ok(outputs);
        }
        let ranges = partition_ranges(pairs.len(), workers);
        let cells: Vec<Mutex<Option<(PageStream, PageStream)>>> =
            pairs.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let results: Vec<Vec<PageStream>> = scoped_workers(workers, |i| {
            let mut outputs = Vec::new();
            if let Some(range) = ranges.get(i) {
                for idx in range.clone() {
                    let (build, probe) =
                        cells[idx].lock().take().expect("each pair is joined once");
                    self.join_partition(build, probe, 1, output_schema, &mut outputs)?;
                }
            }
            Ok(outputs)
        })?;
        Ok(results.into_iter().flatten().collect())
    }

    /// How many workers may join pairs concurrently without the combined
    /// build materialisations running far past the budget.
    fn pair_workers(&self, pairs: &[(PageStream, PageStream)]) -> usize {
        let parallelism = self.ctx.config().parallelism.min(pairs.len()).max(1);
        if parallelism <= 1 {
            return 1;
        }
        let Some(limit) = self.ctx.config().memory_budget.limit() else {
            return parallelism;
        };
        let largest = pairs.iter().map(|(b, _)| b.bytes()).max().unwrap_or(0);
        if largest == 0 {
            return parallelism;
        }
        parallelism.min((limit / largest).max(1))
    }

    /// Joins one build/probe partition pair, re-partitioning both at the
    /// next hash level while the build side still exceeds the budget (and
    /// levels remain). Leaf pairs append their joined rows, sequence numbers
    /// attached, to a fresh output stream.
    fn join_partition(
        &self,
        build: PageStream,
        probe: PageStream,
        level: u32,
        output_schema: &Schema,
        outputs: &mut Vec<PageStream>,
    ) -> Result<()> {
        let pager = Arc::clone(self.ctx.pager());
        // Streams returned from unread free their pages as they drop.
        if probe.is_empty() {
            // No probe rows: no output can exist (inner or LEFT).
            return Ok(());
        }
        if build.is_empty() && self.kind != JoinKind::Left {
            // Inner join against nothing: no probe row can match.
            return Ok(());
        }
        let limit = (self.ctx.config().memory_budget.limit()).unwrap_or(usize::MAX);
        if build.bytes() > limit && level <= MAX_LEVELS {
            // Still too big: split both sides by a different hash of the key.
            return self.repartition_pair(build, probe, level, output_schema, outputs);
        }

        // Leaf: materialise the build partition and index it by its key
        // columns, then stream the probe partition against it page by page.
        let mut build_rows = RecordBatch::empty(build.schema().clone());
        let mut reader = build.reader();
        while let Some(page) = reader.next_batch()? {
            build_rows.append(&page)?;
        }
        let keys = BatchKeys::new(
            build_rows.columns()[..self.keys].to_vec(),
            build_rows.num_rows(),
        );
        let payload: Vec<usize> = (self.keys..build_rows.num_columns()).collect();
        let side = BuildSide::new(build_rows.project(&payload), keys);

        let page_schema = out_page_schema(output_schema);
        let mut out = PageStreamWriter::new(
            &pager,
            page_schema.clone(),
            flush_bytes(self.ctx),
            self.ctx.config().batch_size,
        );
        // Each probe page's joined rows are one gather: the sequence number
        // and probe payload by probe row, the build payload by match.
        let mut reader = probe.reader();
        while let Some(page) = reader.next_batch()? {
            let keys = BatchKeys::new(page.columns()[1..1 + self.keys].to_vec(), page.num_rows());
            let (probe_rows, matched) = side.matches(&keys, self.kind == JoinKind::Left);
            let probe_side = iter::once(0).chain(1 + self.keys..page.num_columns());
            let mut columns: Vec<Column> = probe_side
                .map(|i| page.column(i).gather(&probe_rows))
                .collect();
            columns.extend((side.rows.columns().iter()).map(|c| c.gather_or_null(&matched)));
            out.push_batch(&RecordBatch::new(page_schema.clone(), columns)?)?;
        }
        let stream = out.finish()?;
        if !stream.is_empty() {
            outputs.push(stream);
        }
        Ok(())
    }

    /// Splits both streams of an oversized pair at hash level `level` and
    /// recurses into the sub-pairs at `level + 1`. Rows keep their attached
    /// key components (and sequence number), so re-partitioning re-hashes
    /// but never re-evaluates expressions; order within every sub-stream
    /// stays arrival order.
    fn repartition_pair(
        &self,
        build: PageStream,
        probe: PageStream,
        level: u32,
        output_schema: &Schema,
        outputs: &mut Vec<PageStream>,
    ) -> Result<()> {
        let build_schema = build.schema().clone();
        let mut build_writers = partition_writers(self.ctx, &build_schema);
        let mut reader = build.reader();
        let mut routed = 0usize;
        while let Some(page) = reader.next_batch()? {
            let keys = BatchKeys::new(page.columns()[..self.keys].to_vec(), page.num_rows());
            for (row, &hash) in keys.hashes.iter().enumerate() {
                let p = partition_of(hash, level, FANOUT);
                build_writers[p].push_row(page.row(row))?;
                routed += 1;
            }
        }

        let probe_schema = probe.schema().clone();
        let mut probe_writers = partition_writers(self.ctx, &probe_schema);
        let mut reader = probe.reader();
        while let Some(page) = reader.next_batch()? {
            let keys = BatchKeys::new(page.columns()[1..1 + self.keys].to_vec(), page.num_rows());
            for (row, &hash) in keys.hashes.iter().enumerate() {
                // Null-keyed LEFT JOIN rows stay in partition zero.
                let p = match keys.nulls[row] {
                    true => 0,
                    false => partition_of(hash, level, FANOUT),
                };
                probe_writers[p].push_row(page.row(row))?;
                routed += 1;
            }
        }
        self.ctx.stats_mut().join_spilled_rows += routed;

        let build_streams = finish_writers(build_writers)?;
        self.ctx.stats_mut().join_build_partitions +=
            build_streams.iter().filter(|s| !s.is_empty()).count();
        let probe_streams = finish_writers(probe_writers)?;
        for (sub_build, sub_probe) in build_streams.into_iter().zip(probe_streams) {
            self.join_partition(sub_build, sub_probe, level + 1, output_schema, outputs)?;
        }
        Ok(())
    }
}

impl Spilled {
    /// The next merged output batch of up to `batch_size` rows.
    pub(super) fn next_batch(&mut self, batch_size: usize) -> Result<Option<RecordBatch>> {
        if self.heap.is_empty() {
            // Match the in-memory path on degenerate inputs: one empty
            // combined-schema batch if the probe side produced batches,
            // nothing at all otherwise.
            if self.emitted || !self.probe_saw_batch {
                return Ok(None);
            }
            self.emitted = true;
            return Ok(Some(RecordBatch::empty(self.output_schema.clone())));
        }
        // Consecutive rows of one page are one run, copied as a whole.
        let mut columns: Vec<Column> = (self.output_schema.columns().iter())
            .map(|c| Column::new(c.data_type))
            .collect();
        let mut run: Option<(Arc<RecordBatch>, Range<usize>)> = None;
        let mut rows = 0;
        while rows < batch_size {
            let Some(Reverse((_, idx))) = self.heap.pop() else {
                break;
            };
            let cursor = &mut self.cursors[idx];
            let page = cursor.current.as_ref().expect("frontier implies a page");
            match &mut run {
                Some((open, range)) if Arc::ptr_eq(open, page) && range.end == cursor.row => {
                    range.end += 1;
                }
                _ => {
                    let next = (Arc::clone(page), cursor.row..cursor.row + 1);
                    if let Some((open, range)) = run.replace(next) {
                        append_rows(&mut columns, &open, 1, range);
                    }
                }
            }
            rows += 1;
            cursor.advance()?;
            if let Some(seq) = cursor.frontier_seq()? {
                self.heap.push(Reverse((seq, idx)));
            }
        }
        if let Some((open, range)) = run {
            append_rows(&mut columns, &open, 1, range);
        }
        self.emitted = true;
        Ok(Some(RecordBatch::new(self.output_schema.clone(), columns)?))
    }
}

/// One output stream's cursor in the drain merge.
struct OutCursor {
    reader: PageStreamReader,
    current: Option<Arc<RecordBatch>>,
    row: usize,
}

impl OutCursor {
    /// Fetches the next non-empty page (consumed pages are freed by the
    /// reader as it goes).
    fn fetch(&mut self) -> Result<()> {
        self.row = 0;
        self.current = self.reader.next_batch()?;
        Ok(())
    }

    /// Moves past the current frontier row.
    fn advance(&mut self) -> Result<()> {
        self.row += 1;
        let exhausted = self
            .current
            .as_ref()
            .is_some_and(|page| self.row >= page.num_rows());
        if exhausted {
            self.fetch()?;
        }
        Ok(())
    }

    /// The current row's sequence number, or `None` when exhausted.
    fn frontier_seq(&self) -> Result<Option<u64>> {
        match &self.current {
            None => Ok(None),
            Some(page) => Ok(Some(page.column(0).value(self.row).as_i64()? as u64)),
        }
    }
}

/// The bookkeeping columns carrying one side's evaluated key components
/// through its partition streams: typed like the input column where the key
/// is one, a placeholder otherwise (the page codec tags mismatching values
/// individually).
fn key_defs(keys: &[Expr], schema: &Schema) -> Vec<ColumnDef> {
    let data_type = |key| {
        input_column(key, schema).map_or(DataType::Int, |idx| schema.column_at(idx).data_type)
    };
    (keys.iter().enumerate())
        .map(|(i, key)| ColumnDef::public(&format!("__key{i}"), data_type(key)))
        .collect()
}

/// The page schema of output streams: the probe row's sequence number, then
/// the combined output columns.
fn out_page_schema(output_schema: &Schema) -> Schema {
    let mut defs = vec![ColumnDef::public("__seq", DataType::Int)];
    defs.extend(output_schema.columns().iter().cloned());
    Schema::new(defs)
}

/// Seals a set of partition writers into their streams.
fn finish_writers(writers: Vec<PageStreamWriter>) -> Result<Vec<PageStream>> {
    writers
        .into_iter()
        .map(|w| w.finish().map_err(Into::into))
        .collect()
}
