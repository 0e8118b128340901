//! Per-query execution tracing: a span tree mirroring the physical plan.
//!
//! When tracing is on ([`crate::ExecConfig::tracing`],
//! default off, `SDB_TRACE=1` flips the engine default),
//! [`crate::planner::PhysicalPlanner`] wraps every physical operator in an
//! [`InstrumentedOperator`]. Each wrapper owns one span of a [`QueryTrace`]
//! and records, per lifecycle call (`open` / `next_batch` / `close`):
//!
//! * wall time, split by lifecycle phase;
//! * batches and rows produced;
//! * the *attributed delta* of every global [`ExecutionStats`] counter —
//!   the merged-shard snapshot is diffed around the call, so oracle trips,
//!   spilled pages and kernel engagement land on the operator that paid
//!   them. Deltas are **inclusive** (a blocking operator's `open` covers the
//!   children it drains); [`QueryTrace::report`] derives the exclusive
//!   per-span share by subtracting direct children.
//!
//! Pager spill/eviction hooks (`install_pager_observer`) and the oracle
//! round-trip hooks in [`crate::operators::oracle`] additionally attach
//! timestamped [`TraceEvent`]s to whichever span is *currently executing*
//! (tracked by an atomic span id the wrappers swap on entry/exit), giving a
//! round-trip and spill timeline per operator.
//!
//! Tracing never changes query output: the wrapper forwards batches
//! untouched and delegates `name()` / `describe()`, so plan renderings and
//! byte-identity contracts are preserved. With tracing off the planner
//! inserts no wrappers and no hooks are installed — the off path costs
//! nothing.
//!
//! [`TraceReport`] is the stable serialisable form: `EXPLAIN ANALYZE`
//! renders it ([`TraceReport::render`]) and [`TraceReport::to_json`] /
//! [`TraceReport::write_to_dir`] (`SDB_TRACE_DIR`) export it for tooling.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use sdb_storage::{Pager, PagerEvent, RecordBatch};

use crate::operators::{BoxedOperator, ExecContext, PhysicalOperator};
use crate::stats::ExecutionStats;
use crate::Result;

/// Identifies one span within its [`QueryTrace`] (an index into the arena).
pub type SpanId = usize;

/// Cap on events kept per span; beyond it only `dropped_events` counts, so a
/// pathological spill storm cannot balloon the trace.
const MAX_EVENTS_PER_SPAN: usize = 256;

/// Sentinel for "no span is currently executing".
const NO_SPAN: usize = usize::MAX;

/// Which lifecycle call a recording belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `PhysicalOperator::open`.
    Open,
    /// `PhysicalOperator::next_batch`.
    Next,
    /// `PhysicalOperator::close`.
    Close,
}

/// One timestamped event attached to a span (oracle round trip, spill write /
/// read, eviction).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Microseconds since the trace started.
    pub at_us: u64,
    /// Event kind: `oracle_trip_start`, `oracle_trip_end`, `spill_write`,
    /// `spill_read` or `evict`.
    pub kind: String,
    /// Payload size in bytes (0 when not applicable).
    pub bytes: usize,
    /// Rows involved (0 when not applicable).
    pub rows: usize,
}

/// One span's raw accumulation (arena entry).
#[derive(Debug, Default)]
struct SpanData {
    name: &'static str,
    children: Vec<SpanId>,
    est_rows: Option<f64>,
    open: Duration,
    next: Duration,
    close: Duration,
    batches_out: usize,
    rows_out: usize,
    /// Inclusive counter deltas (children's work included).
    counters: ExecutionStats,
    events: Vec<TraceEvent>,
    dropped_events: usize,
}

/// A lock-cheap per-query trace: an arena of spans built bottom-up as the
/// planner lowers the plan, plus an atomic "currently executing span" id that
/// event hooks use for attribution.
///
/// The span arena sits behind one mutex — plans are *driven* by a single
/// thread (parallel operators fan out phases inside a lifecycle call, they
/// never drive sibling subtrees concurrently), so wrapper recordings never
/// contend; worker-thread event hooks contend only for the brief event push.
pub struct QueryTrace {
    spans: Mutex<Vec<SpanData>>,
    current: AtomicUsize,
    started: Instant,
}

impl Default for QueryTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryTrace {
    /// Creates an empty trace; the clock starts now.
    pub fn new() -> Self {
        QueryTrace {
            spans: Mutex::new(Vec::new()),
            current: AtomicUsize::new(NO_SPAN),
            started: Instant::now(),
        }
    }

    /// Registers a span for one physical operator. `children` are the span
    /// ids of its direct inputs (already registered — the planner lowers
    /// bottom-up); `est_rows` is the optimizer's cardinality estimate for
    /// the operator's logical node, when statistics exist.
    pub fn begin_span(
        &self,
        name: &'static str,
        children: Vec<SpanId>,
        est_rows: Option<f64>,
    ) -> SpanId {
        let mut spans = self.spans.lock();
        spans.push(SpanData {
            name,
            children,
            est_rows,
            ..SpanData::default()
        });
        spans.len() - 1
    }

    /// Marks `span` as the currently executing span and returns the previous
    /// one, for restoration on exit ([`Self::set_current`]).
    pub fn swap_current(&self, span: SpanId) -> SpanId {
        self.current.swap(span, Ordering::SeqCst)
    }

    /// Restores the currently-executing span (the value a matching
    /// [`Self::swap_current`] returned).
    pub fn set_current(&self, span: SpanId) {
        self.current.store(span, Ordering::SeqCst);
    }

    /// Attaches a timestamped event to the currently executing span. Events
    /// fired outside any span (e.g. pool teardown) are dropped; spans keep at
    /// most `MAX_EVENTS_PER_SPAN` events and count the overflow.
    pub fn event(&self, kind: &str, bytes: usize, rows: usize) {
        let current = self.current.load(Ordering::SeqCst);
        if current == NO_SPAN {
            return;
        }
        let at_us = self.started.elapsed().as_micros() as u64;
        let mut spans = self.spans.lock();
        let Some(span) = spans.get_mut(current) else {
            return;
        };
        if span.events.len() >= MAX_EVENTS_PER_SPAN {
            span.dropped_events += 1;
            return;
        }
        span.events.push(TraceEvent {
            at_us,
            kind: kind.to_string(),
            bytes,
            rows,
        });
    }

    /// Records one lifecycle call on `span`: its wall time, the attributed
    /// (inclusive) counter delta, and — for a `next_batch` that produced a
    /// batch — the row count.
    pub fn record(
        &self,
        span: SpanId,
        phase: Phase,
        elapsed: Duration,
        delta: ExecutionStats,
        produced_rows: Option<usize>,
    ) {
        let mut spans = self.spans.lock();
        let Some(data) = spans.get_mut(span) else {
            return;
        };
        match phase {
            Phase::Open => data.open += elapsed,
            Phase::Next => data.next += elapsed,
            Phase::Close => data.close += elapsed,
        }
        data.counters.merge(&delta);
        if let Some(rows) = produced_rows {
            data.batches_out += 1;
            data.rows_out += rows;
        }
    }

    /// The root span (the last one registered — the planner lowers
    /// bottom-up, so the outermost operator registers last), or `None` for
    /// an empty trace.
    pub fn root(&self) -> Option<SpanId> {
        let spans = self.spans.lock();
        spans.len().checked_sub(1)
    }

    /// Snapshots the trace into its stable, serialisable report form,
    /// deriving each span's *exclusive* time and counters by subtracting its
    /// direct children's inclusive figures.
    pub fn report(&self) -> TraceReport {
        let spans = self.spans.lock();
        let inclusive_us: Vec<u64> = spans
            .iter()
            .map(|s| (s.open + s.next + s.close).as_micros() as u64)
            .collect();
        let reports = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let own_us = inclusive_us[id];
                let child_us: u64 = s.children.iter().map(|&c| inclusive_us[c]).sum();
                let mut child_counters = ExecutionStats::default();
                for &c in &s.children {
                    child_counters.merge(&spans[c].counters);
                }
                SpanReport {
                    id,
                    name: s.name.to_string(),
                    children: s.children.clone(),
                    est_rows: s.est_rows,
                    open_us: s.open.as_micros() as u64,
                    next_us: s.next.as_micros() as u64,
                    close_us: s.close.as_micros() as u64,
                    exclusive_us: own_us.saturating_sub(child_us),
                    batches_out: s.batches_out,
                    rows_out: s.rows_out,
                    counters: s.counters.clone(),
                    exclusive: s.counters.delta_since(&child_counters),
                    events: s.events.clone(),
                    dropped_events: s.dropped_events,
                }
            })
            .collect::<Vec<_>>();
        TraceReport {
            total_time_us: self.started.elapsed().as_micros() as u64,
            root: reports.len().checked_sub(1),
            spans: reports,
        }
    }
}

/// One span in a [`TraceReport`]: an operator's accumulated measurements in
/// their final, export-stable form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanReport {
    /// The span's id — its index in [`TraceReport::spans`].
    pub id: SpanId,
    /// Operator name (`PhysicalOperator::name`), e.g. `"HashJoin"`.
    pub name: String,
    /// Span ids of this operator's direct inputs.
    pub children: Vec<SpanId>,
    /// Optimizer cardinality estimate for this operator's logical node, when
    /// statistics existed at plan time.
    pub est_rows: Option<f64>,
    /// Wall time (µs) spent inside `open`, children included.
    pub open_us: u64,
    /// Wall time (µs) spent across all `next_batch` calls, children included.
    pub next_us: u64,
    /// Wall time (µs) spent inside `close`, children included.
    pub close_us: u64,
    /// Inclusive wall time minus the direct children's inclusive wall time:
    /// this operator's own share.
    pub exclusive_us: u64,
    /// Batches this operator produced.
    pub batches_out: usize,
    /// Rows this operator produced.
    pub rows_out: usize,
    /// Inclusive counter deltas attributed to this span (children included).
    pub counters: ExecutionStats,
    /// Exclusive counter deltas: [`Self::counters`] minus the direct
    /// children's inclusive counters.
    pub exclusive: ExecutionStats,
    /// Timestamped oracle / spill / eviction events attached to this span
    /// (capped; see [`Self::dropped_events`]).
    pub events: Vec<TraceEvent>,
    /// Events dropped after the per-span cap was reached.
    pub dropped_events: usize,
}

/// The stable, serialisable form of a [`QueryTrace`]: what `EXPLAIN ANALYZE`
/// renders and what `SDB_TRACE_DIR` JSON files contain.
///
/// Schema stability: spans are indexed by `id` into [`Self::spans`],
/// `root` names the plan root, durations are integer microseconds, counters
/// reuse the [`ExecutionStats`] field names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Wall time (µs) from trace start to snapshot — for a traced query,
    /// effectively the query's total execution time.
    pub total_time_us: u64,
    /// Id of the root span (the plan's outermost operator), `None` when the
    /// trace recorded no spans.
    pub root: Option<SpanId>,
    /// All spans, indexed by [`SpanReport::id`].
    pub spans: Vec<SpanReport>,
}

/// Monotonic counter making `SDB_TRACE_DIR` filenames unique within a
/// process.
static TRACE_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

impl TraceReport {
    /// Serialises the report as pretty-printed JSON (stable schema; see the
    /// type docs).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace report serialisation cannot fail")
    }

    /// Writes the report as a uniquely named JSON file under `dir` (created
    /// if missing), returning the path. Used by the engine when
    /// `SDB_TRACE_DIR` is set.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let seq = TRACE_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("trace-{}-{seq}.json", std::process::id()));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Renders the span tree as indented plan lines annotated with actual
    /// rows, wall time, estimate-vs-actual deviation and per-operator
    /// (exclusive) oracle / spill / kernel attribution — the body of
    /// `EXPLAIN ANALYZE`.
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.spans.len());
        if let Some(root) = self.root {
            self.render_span(root, 0, &mut lines);
        }
        lines
    }

    fn render_span(&self, id: SpanId, depth: usize, out: &mut Vec<String>) {
        let span = &self.spans[id];
        out.push(format!("{}{}", "  ".repeat(depth), span.annotation()));
        for &child in &span.children {
            self.render_span(child, depth + 1, out);
        }
    }
}

impl SpanReport {
    /// One rendered `EXPLAIN ANALYZE` line for this span (no indentation).
    fn annotation(&self) -> String {
        let mut line = format!(
            "{} rows={} batches={}",
            self.name, self.rows_out, self.batches_out
        );
        match self.est_rows {
            Some(est) => {
                let deviation = (self.rows_out as f64 - est) / est.max(1.0) * 100.0;
                line.push_str(&format!(" est\u{2248}{est:.0} ({deviation:+.1}%)"));
            }
            None => line.push_str(" est=?"),
        }
        line.push_str(&format!(
            " time={} (self {})",
            fmt_us(self.open_us + self.next_us + self.close_us),
            fmt_us(self.exclusive_us),
        ));
        let x = &self.exclusive;
        if x.scan_columns_total > 0 {
            line.push_str(&format!(
                " cols={}/{}",
                x.scan_columns_read, x.scan_columns_total
            ));
        }
        if x.oracle_round_trips > 0 || x.oracle_memo_hits > 0 {
            line.push_str(&format!(
                " oracle[trips={} rows={} bytes={} memo={} wait={}]",
                x.oracle_round_trips,
                x.oracle_rows_shipped,
                x.oracle_bytes_shipped,
                x.oracle_memo_hits,
                fmt_us(x.oracle_time.as_micros() as u64),
            ));
        }
        if x.key_update_calls > 0 {
            line.push_str(&format!(
                " keyupd[calls={} pows={} derived={}]",
                x.key_update_calls, x.key_update_pows, x.key_update_derived,
            ));
        }
        if x.pages_spilled > 0 || x.pages_evicted > 0 || x.spill_bytes_read > 0 {
            line.push_str(&format!(
                " spill[pages={} written={} read={} evicted={}]",
                x.pages_spilled, x.spill_bytes_written, x.spill_bytes_read, x.pages_evicted,
            ));
        }
        if x.vectorised_batches > 0 || x.scalar_fallback_batches > 0 {
            line.push_str(&format!(
                " kernel[vec={} scalar={}]",
                x.vectorised_batches, x.scalar_fallback_batches,
            ));
        }
        if x.subquery_time > Duration::ZERO {
            line.push_str(&format!(
                " subqueries={}",
                fmt_us(x.subquery_time.as_micros() as u64)
            ));
        }
        if !self.events.is_empty() || self.dropped_events > 0 {
            line.push_str(&format!(
                " events={}",
                self.events.len() + self.dropped_events
            ));
        }
        line
    }
}

/// Formats integer microseconds for humans (`417µs`, `12.3ms`, `4.56s`).
pub(crate) fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{us}\u{b5}s")
    }
}

/// Installs the trace's pager hook on `pager`: spill writes/reads and
/// evictions become timestamped events on whichever span is executing.
pub(crate) fn install_pager_observer(pager: &Arc<Pager>, trace: &Arc<QueryTrace>) {
    let trace = Arc::clone(trace);
    // Appended rather than installed exclusively: the serving layer hangs
    // its metrics observer on the same lease, and both must see every event.
    pager.add_observer(Arc::new(move |event: PagerEvent| match event {
        PagerEvent::SpillWrite { bytes } => trace.event("spill_write", bytes, 0),
        PagerEvent::SpillRead { bytes } => trace.event("spill_read", bytes, 0),
        PagerEvent::Evict => trace.event("evict", 0, 0),
    }));
}

/// Wraps one physical operator, recording its lifecycle into one span of the
/// query's [`QueryTrace`].
///
/// `name()` / `describe()` delegate to the inner operator, so instrumented
/// plans render identically to uninstrumented ones; batches pass through
/// untouched, so traced execution is byte-identical.
pub struct InstrumentedOperator<'a> {
    inner: BoxedOperator<'a>,
    ctx: Arc<ExecContext<'a>>,
    trace: Arc<QueryTrace>,
    span: SpanId,
}

impl<'a> InstrumentedOperator<'a> {
    /// Wraps `inner`, recording into `span` of `trace`.
    pub fn new(
        inner: BoxedOperator<'a>,
        ctx: Arc<ExecContext<'a>>,
        trace: Arc<QueryTrace>,
        span: SpanId,
    ) -> Self {
        InstrumentedOperator {
            inner,
            ctx,
            trace,
            span,
        }
    }

    /// Runs one lifecycle call with the span marked current, then records
    /// wall time and the attributed counter delta.
    fn measured<T>(
        &mut self,
        phase: Phase,
        call: impl FnOnce(&mut BoxedOperator<'a>) -> Result<T>,
        rows_of: impl Fn(&T) -> Option<usize>,
    ) -> Result<T> {
        let before = self.ctx.stats();
        let prev = self.trace.swap_current(self.span);
        let start = Instant::now();
        let result = call(&mut self.inner);
        let elapsed = start.elapsed();
        self.trace.set_current(prev);
        let delta = self.ctx.stats().delta_since(&before);
        let produced = result.as_ref().ok().and_then(&rows_of);
        self.trace
            .record(self.span, phase, elapsed, delta, produced);
        result
    }
}

impl PhysicalOperator for InstrumentedOperator<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn open(&mut self) -> Result<()> {
        self.measured(Phase::Open, |op| op.open(), |_| None)
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        self.measured(
            Phase::Next,
            |op| op.next_batch(),
            |batch: &Option<RecordBatch>| batch.as_ref().map(RecordBatch::num_rows),
        )
    }

    fn close(&mut self) -> Result<()> {
        self.measured(Phase::Close, |op| op.close(), |_| None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_exclusive_subtracts_children() {
        let trace = QueryTrace::new();
        let leaf = trace.begin_span("TableScan", vec![], Some(100.0));
        let root = trace.begin_span("Filter", vec![leaf], Some(40.0));
        trace.record(
            leaf,
            Phase::Next,
            Duration::from_micros(300),
            ExecutionStats {
                rows_scanned: 100,
                ..Default::default()
            },
            Some(100),
        );
        trace.record(
            root,
            Phase::Next,
            Duration::from_micros(1_000),
            ExecutionStats {
                rows_scanned: 100,
                vectorised_batches: 1,
                ..Default::default()
            },
            Some(42),
        );
        let report = trace.report();
        assert_eq!(report.root, Some(root));
        let r = &report.spans[root];
        assert_eq!(r.rows_out, 42);
        assert_eq!(r.batches_out, 1);
        assert_eq!(r.next_us, 1_000);
        assert_eq!(r.exclusive_us, 700, "children's inclusive time subtracted");
        assert_eq!(r.counters.rows_scanned, 100, "inclusive keeps the child's");
        assert_eq!(r.exclusive.rows_scanned, 0, "exclusive subtracts it");
        assert_eq!(r.exclusive.vectorised_batches, 1);
    }

    #[test]
    fn events_attach_to_the_current_span_and_cap() {
        let trace = QueryTrace::new();
        let span = trace.begin_span("GraceHashJoin", vec![], None);
        trace.event("orphan", 1, 0); // no current span: dropped silently
        let prev = trace.swap_current(span);
        for _ in 0..MAX_EVENTS_PER_SPAN + 3 {
            trace.event("spill_write", 4096, 0);
        }
        trace.set_current(prev);
        trace.event("late", 1, 0); // span restored to none: dropped
        let report = trace.report();
        let s = &report.spans[span];
        assert_eq!(s.events.len(), MAX_EVENTS_PER_SPAN);
        assert_eq!(s.dropped_events, 3);
        assert_eq!(s.events[0].kind, "spill_write");
        assert_eq!(s.events[0].bytes, 4096);
    }

    #[test]
    fn report_json_roundtrips() {
        let trace = QueryTrace::new();
        let a = trace.begin_span("TableScan", vec![], Some(10.0));
        let _root = trace.begin_span("Limit", vec![a], None);
        let report = trace.report();
        let back: TraceReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn render_annotates_rows_estimates_and_deviation() {
        let trace = QueryTrace::new();
        let leaf = trace.begin_span("TableScan", vec![], Some(200.0));
        let root = trace.begin_span("Filter", vec![leaf], Some(100.0));
        trace.record(
            leaf,
            Phase::Next,
            Duration::from_micros(10),
            ExecutionStats::default(),
            Some(200),
        );
        trace.record(
            root,
            Phase::Next,
            Duration::from_micros(20),
            ExecutionStats {
                oracle_round_trips: 2,
                oracle_rows_shipped: 50,
                ..Default::default()
            },
            Some(90),
        );
        let lines = trace.report().render();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("Filter rows=90"), "{}", lines[0]);
        assert!(lines[0].contains("est\u{2248}100 (-10.0%)"), "{}", lines[0]);
        assert!(lines[0].contains("oracle[trips=2 rows=50"), "{}", lines[0]);
        assert!(lines[1].starts_with("  TableScan rows=200"), "{}", lines[1]);
        assert!(lines[1].contains("(+0.0%)"), "{}", lines[1]);
    }

    #[test]
    fn fmt_us_scales_units() {
        assert_eq!(fmt_us(417), "417\u{b5}s");
        assert_eq!(fmt_us(12_340), "12.3ms");
        assert_eq!(fmt_us(4_560_000), "4.56s");
    }
}
