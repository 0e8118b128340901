//! Pieces every workload shares: the run configuration, the two deployments
//! of the same data (SDB and plaintext), the answer check against the
//! plaintext engine, and the decomposed query path of the traced run.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sdb::wire::{RecordingOracle, WireMessageKind};
use sdb::{SdbClient, SdbConfig, SdbError};
use sdb_engine::trace::TraceReport;
use sdb_engine::{
    ExecutionStats, MemoryBudget, OracleRequest, OracleResult, QueryOptions, SdbOracle, SpEngine,
};
use sdb_storage::{RecordBatch, Table, Value};
use sdb_workload::{generate_all, ScaleFactor, SensitivityProfile};

use crate::trace::{out_dir, QueryRecord, Recorder};
use crate::yardstick::Interval;

/// Seed of the generated tables: the one the repository's bench targets
/// share. As with TPC-H's `dbgen`, the data of a scale factor is the same on
/// every run, and so is the key material (the profile's own seed); `--seed`
/// drives what a client varies — lookup keys, thresholds, request order,
/// INSERT values. Tables drawn per seed change selectivities and plans (12 %
/// on `sdb_pass_s`), keys drawn per seed change the cost of the share
/// arithmetic (±6 % on `tpch_crypto`, exactly repeatable per key): either
/// way two seeds would be two workloads.
pub const DATA_SEED: u64 = sdb_bench::BENCH_SEED;

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Lookup keys, thresholds, request order and INSERT values derive from
    /// this.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or timed run (end-to-end metrics).
    pub trace: bool,
    /// Every workload at `ScaleFactor::tiny()`, two passes.
    pub smoke: bool,
}

impl RunConfig {
    /// The workload's scale factor, or tiny under `--smoke`.
    pub fn scale(&self, full: f64) -> ScaleFactor {
        if self.smoke {
            ScaleFactor::tiny()
        } else {
            ScaleFactor(full)
        }
    }

    /// Times a timed run sets its workload up; `setup_s` is the median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Calls `pass` with the pass number until the window closes: at least
    /// three passes (two under `--smoke`, which has no window).
    pub fn timed_passes(&self, share: f64, mut pass: impl FnMut(usize)) {
        let (min_passes, window) = if self.smoke {
            (2, 0.0)
        } else {
            (3, self.seconds * share)
        };
        let started = Instant::now();
        let mut n = 0;
        while n < min_passes || started.elapsed().as_secs_f64() < window {
            pass(n);
            n += 1;
        }
    }
}

/// `profile` with two upload threads, capped at the cores this box has.
pub fn client_config(profile: SdbConfig) -> SdbConfig {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    profile.with_upload_threads(threads)
}

/// The data set at `sf` under both sensitivity profiles (financial columns
/// sensitive, and all public), and the seconds generating took.
pub fn generate(sf: ScaleFactor) -> (Vec<Table>, Vec<Table>, f64) {
    let started = Instant::now();
    let sensitive = generate_all(sf, SensitivityProfile::Financial, DATA_SEED);
    let public = generate_all(sf, SensitivityProfile::None, DATA_SEED);
    (sensitive, public, started.elapsed().as_secs_f64())
}

/// Rows of the generated table called `name`.
pub fn rows_of(tables: &[Table], name: &str) -> i64 {
    let table = tables.iter().find(|t| t.name() == name);
    table.map_or(1, Table::num_rows) as i64
}

/// SP bytes stored per byte of the plaintext catalog.
pub fn stored_bytes_per_plain_byte(client: &SdbClient, plain: &SpEngine) -> f64 {
    client.sp_storage_size_bytes() as f64 / plain.catalog().approx_size_bytes() as f64
}

/// Serial execution for every measured query (the box has two cores; the
/// serving workload uses both for its two sessions).
pub fn serial() -> QueryOptions {
    QueryOptions::default().with_parallelism(1)
}

/// A bounded budget whose spill files stay inside the checkout.
pub fn bounded_budget(bytes: usize) -> MemoryBudget {
    let dir = out_dir().join("spill");
    std::fs::create_dir_all(&dir).expect("create spill directory");
    MemoryBudget::bytes(bytes).with_spill_dir(dir)
}

/// The SDB deployment and the plaintext deployment of one generated data set.
pub struct Deployment {
    pub client: SdbClient,
    pub plain: SpEngine,
    /// Seconds `generate_all` took (both sensitivity profiles).
    pub generate_s: f64,
}

impl Deployment {
    /// Keygen, generate, stage, encrypt and upload (which analyzes every
    /// table), and the plaintext load of the same data.
    pub fn build(config: SdbConfig, sf: ScaleFactor) -> Deployment {
        let (sensitive, public, generate_s) = generate(sf);
        let mut client = SdbClient::new(config).expect("client");
        for table in sensitive {
            client.stage_table(table).expect("stage table");
        }
        client.upload_all().expect("upload");
        // The upload payloads are the audit haystack, not part of any pass.
        client.wire().clear();
        Deployment {
            client,
            plain: plaintext_engine(public),
            generate_s,
        }
    }
}

/// A plaintext engine holding `tables` (load analyzes each).
pub fn plaintext_engine(tables: Vec<Table>) -> SpEngine {
    let engine = SpEngine::new();
    for table in tables {
        engine.load_table(table).expect("load table");
    }
    engine
}

/// Sets the workload up `reps` times and keeps the last. `build` does
/// everything a run does before its first timed pass — the deployment, the
/// reference answers and the warm-up pass — and returns what it built with
/// the calibrated seconds that took. Each earlier instance is dropped before
/// the next is built so peak memory holds one deployment.
pub fn repeat_setup<T>(reps: usize, mut build: impl FnMut() -> (T, f64)) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(reps);
    let mut current = None;
    for _ in 0..reps.max(1) {
        drop(current.take());
        let (built, s) = build();
        current = Some(built);
        seconds.push(s);
    }
    (current.expect("at least one set-up"), seconds)
}

/// Calibrated seconds of `intervals` together.
pub fn calibrated_sum(intervals: &[Interval]) -> f64 {
    intervals.iter().map(Interval::calibrated_s).sum()
}

/// Result rows in a form that compares SDB answers with plaintext answers:
/// numbers at a common fixed-point scale, everything else as rendered.
pub fn canonical_rows(batch: &RecordBatch) -> Vec<Vec<String>> {
    batch
        .rows()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Int(_) | Value::Decimal { .. } | Value::Bool(_) => v
                        .as_scaled_i128(6)
                        .map(|x| x.to_string())
                        .unwrap_or_else(|_| v.render()),
                    other => other.render(),
                })
                .collect()
        })
        .collect()
}

/// Reference answers from the plaintext engine, one per distinct statement,
/// and the tally of checked operations.
#[derive(Default)]
pub struct Checker {
    reference: HashMap<String, Vec<Vec<String>>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Computes the reference for `sql` on `plain` unless it is known.
    pub fn learn(&mut self, plain: &SpEngine, sql: &str) {
        if !self.reference.contains_key(sql) {
            let output = plain
                .execute_sql_with(sql, &serial())
                .unwrap_or_else(|e| panic!("plaintext reference failed for {sql}: {e}"));
            self.reference
                .insert(sql.to_string(), canonical_rows(&output.batch));
        }
    }

    /// Counts one operation; it fails on an error or when its rows differ
    /// from the plaintext reference.
    pub fn check<E: std::fmt::Display>(&mut self, sql: &str, result: Result<&RecordBatch, E>) {
        self.attempted += 1;
        let reference = self
            .reference
            .get(sql)
            .unwrap_or_else(|| panic!("no reference answer for {sql}"));
        match result {
            Ok(batch) if canonical_rows(batch) == *reference => {}
            Ok(batch) => {
                self.failed += 1;
                eprintln!(
                    "MISMATCH ({} rows, expected {}): {sql}",
                    batch.num_rows(),
                    reference.len()
                );
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("ERROR {e}: {sql}");
            }
        }
    }

    /// Counts one operation that has no rows to compare (an upload, an
    /// INSERT).
    pub fn check_ok<T, E: std::fmt::Display>(&mut self, what: &str, result: &Result<T, E>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("ERROR {e}: {what}");
        }
    }
}

/// DO-side seconds of one query: parse + rewrite + decrypt at the proxy,
/// plus the time the SP waited on the proxy's oracle.
pub fn do_seconds(result: &sdb::QueryResult) -> f64 {
    (result.client_time() + result.server_stats.oracle_time).as_secs_f64()
}

/// Bytes the wire log holds per direction; clears the log so its payloads
/// do not pile up across passes.
pub struct WireBytes {
    pub to_sp: usize,
    pub from_sp: usize,
    pub oracle: usize,
    pub upload: usize,
}

impl WireBytes {
    pub fn drain(wire: &sdb::WireLog) -> WireBytes {
        let bytes = WireBytes {
            to_sp: wire.bytes_of_kind(WireMessageKind::QueryToSp),
            from_sp: wire.bytes_of_kind(WireMessageKind::ResultToProxy),
            oracle: wire.bytes_of_kind(WireMessageKind::OracleRequest)
                + wire.bytes_of_kind(WireMessageKind::OracleResponse),
            upload: wire.bytes_of_kind(WireMessageKind::Upload),
        };
        wire.clear();
        bytes
    }

    pub fn total(&self) -> usize {
        self.to_sp + self.from_sp + self.oracle + self.upload
    }
}

/// One oracle call as a timing wrapper saw it.
#[derive(Debug, Clone, Copy)]
struct OracleCall {
    start: Instant,
    end: Instant,
    rows: usize,
}

/// Timing wrapper implementing [`SdbOracle`] around another oracle.
struct TimedOracle {
    inner: Arc<dyn SdbOracle>,
    calls: Arc<Mutex<Vec<OracleCall>>>,
}

impl TimedOracle {
    fn wrap(inner: Arc<dyn SdbOracle>) -> (Arc<dyn SdbOracle>, Arc<Mutex<Vec<OracleCall>>>) {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let oracle = TimedOracle {
            inner,
            calls: Arc::clone(&calls),
        };
        (Arc::new(oracle), calls)
    }
}

impl SdbOracle for TimedOracle {
    fn resolve(&self, request: OracleRequest) -> OracleResult {
        let rows = request.rows.len();
        let start = Instant::now();
        let response = self.inner.resolve(request);
        let end = Instant::now();
        self.calls
            .lock()
            .expect("oracle call log poisoned")
            .push(OracleCall { start, end, rows });
        response
    }
}

/// One query run through the harness's re-creation of
/// `SdbClient::run_rewritten_with`, with each layer's share of it.
pub struct Decomposed {
    pub batch: RecordBatch,
    pub wall: Duration,
    pub parse: Duration,
    pub rewrite: Duration,
    pub execute: Duration,
    pub decrypt: Duration,
    /// Time inside `ProxyOracle::resolve` (the DO's service time).
    pub oracle_service: Duration,
    /// Time on the oracle link around it (request/response serialisation).
    pub oracle_link: Duration,
    /// Time serialising the query and its result onto the wire log.
    pub wire: Duration,
    pub oracle_requests: usize,
    pub oracle_rows: usize,
    pub stats: ExecutionStats,
    pub op_trace: Option<TraceReport>,
    /// Rewritten SQL, for `explain_sql`.
    pub server_sql: String,
}

/// Runs `sql` the way `SdbClient::query_with` does, from the client's public
/// parts, recording one span per layer boundary:
/// `query` → `proxy.rewrite` (child `sql.parse`), `core.wire`,
/// `engine.execute` (children `core.oracle_link`, each with a
/// `proxy.oracle` child), `core.wire`, `proxy.decrypt`.
pub fn run_decomposed(
    client: &SdbClient,
    sql: &str,
    opts: &QueryOptions,
    recorder: &mut Recorder,
    label: &str,
    pass: usize,
) -> Result<Decomposed, SdbError> {
    let query = recorder.queries.len();
    let proxy = client.proxy();
    let wire = client.wire();

    let started = Instant::now();
    let rewritten = proxy.rewrite(sql)?;
    let rewrite_done = Instant::now();

    wire.record(WireMessageKind::QueryToSp, rewritten.server_sql.clone());
    let (service, service_calls) = TimedOracle::wrap(proxy.oracle(&rewritten));
    let (link, link_calls) =
        TimedOracle::wrap(Arc::new(RecordingOracle::new(service, wire.clone())));
    let opts = opts.clone().with_oracle(link);
    let sent = Instant::now();

    let output = client
        .engine()
        .execute_sql_with(&rewritten.server_sql, &opts)?;
    let executed = Instant::now();

    let payload = serde_json::to_string(&output.batch).unwrap_or_default();
    wire.record(WireMessageKind::ResultToProxy, payload);
    let received = Instant::now();

    let (batch, _) = proxy.decrypt_result(&rewritten, &output.batch)?;
    let finished = Instant::now();

    let root = recorder.push(query, "query", None, started, finished);
    let rewrite = recorder.push(query, "proxy.rewrite", Some(root), started, rewrite_done);
    recorder.push(
        query,
        "sql.parse",
        Some(rewrite),
        started,
        started + rewritten.parse_time,
    );
    recorder.push(query, "core.wire", Some(root), rewrite_done, sent);
    let execute = recorder.push(query, "engine.execute", Some(root), sent, executed);
    let link_calls = link_calls.lock().expect("oracle call log poisoned").clone();
    let service_calls = service_calls
        .lock()
        .expect("oracle call log poisoned")
        .clone();
    for (outer, inner) in link_calls.iter().zip(&service_calls) {
        let span = recorder.push(
            query,
            "core.oracle_link",
            Some(execute),
            outer.start,
            outer.end,
        );
        recorder.push(query, "proxy.oracle", Some(span), inner.start, inner.end);
    }
    recorder.push(query, "core.wire", Some(root), executed, received);
    recorder.push(query, "proxy.decrypt", Some(root), received, finished);
    let wall = finished - started;
    recorder.queries.push(QueryRecord {
        query,
        label: label.to_string(),
        pass,
        wall_us: wall.as_secs_f64() * 1e6,
    });

    let total = |calls: &[OracleCall]| calls.iter().map(|c| c.end - c.start).sum::<Duration>();
    let oracle_service = total(&service_calls);
    Ok(Decomposed {
        batch,
        wall,
        parse: rewritten.parse_time,
        rewrite: (rewrite_done - started).saturating_sub(rewritten.parse_time),
        execute: executed - sent,
        decrypt: finished - received,
        oracle_service,
        oracle_link: total(&link_calls).saturating_sub(oracle_service),
        wire: (sent - rewrite_done) + (received - executed),
        oracle_requests: service_calls.len(),
        oracle_rows: service_calls.iter().map(|c| c.rows).sum(),
        stats: output.stats,
        op_trace: output.trace,
        server_sql: rewritten.server_sql,
    })
}
