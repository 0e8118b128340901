//! The end-to-end SDB client: the application-facing facade that owns both the
//! DO-side proxy and the SP-side engine and moves every exchange between them
//! through the byte-counted wire layer.

use std::fmt;
use std::sync::Arc;

use sdb_engine::{EngineError, ExecConfig, ExecutionStats, QueryOptions, QueryOutput, SpEngine};
use sdb_proxy::proxy::{ClientCost, RewrittenQuery};
use sdb_proxy::{ProxyError, SdbProxy, UploadOptions};
use sdb_sql::ast::{Expr, Literal, UnaryOp};
use sdb_sql::{parse_sql, SqlError, Statement};
use sdb_storage::{
    Catalog, ColumnDef, DataType, RecordBatch, Schema, Sensitivity, StorageError, Table, Value,
};

use crate::wire::{RecordingOracle, WireLog, WireMessageKind};
use crate::Result;
use sdb_crypto::KeyConfig;

/// Errors surfaced by the client.
#[derive(Debug, Clone, PartialEq)]
pub enum SdbError {
    /// From the proxy (rewriting, keys, decryption).
    Proxy(ProxyError),
    /// From the SP engine.
    Engine(EngineError),
    /// From SQL parsing at the client.
    Sql(SqlError),
    /// From the storage layer.
    Storage(StorageError),
    /// Incorrect API usage (e.g. querying before uploading).
    Usage {
        /// Description of the misuse.
        detail: String,
    },
}

impl fmt::Display for SdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdbError::Proxy(e) => write!(f, "proxy error: {e}"),
            SdbError::Engine(e) => write!(f, "engine error: {e}"),
            SdbError::Sql(e) => write!(f, "SQL error: {e}"),
            SdbError::Storage(e) => write!(f, "storage error: {e}"),
            SdbError::Usage { detail } => write!(f, "usage error: {detail}"),
        }
    }
}

impl std::error::Error for SdbError {}

impl From<ProxyError> for SdbError {
    fn from(e: ProxyError) -> Self {
        SdbError::Proxy(e)
    }
}
impl From<EngineError> for SdbError {
    fn from(e: EngineError) -> Self {
        SdbError::Engine(e)
    }
}
impl From<SqlError> for SdbError {
    fn from(e: SqlError) -> Self {
        SdbError::Sql(e)
    }
}
impl From<StorageError> for SdbError {
    fn from(e: StorageError) -> Self {
        SdbError::Storage(e)
    }
}

/// Client configuration.
#[derive(Debug, Clone, Copy)]
pub struct SdbConfig {
    /// Cryptographic parameter profile.
    pub key_config: KeyConfig,
    /// Key of a fixture's generator (tests, benches): every DO secret is
    /// drawn from `Drbg::seed_from_u64(seed)`, so the same seed gives the
    /// same keys. Unused when `entropy_keyed` is set.
    pub seed: u64,
    /// Key the DO's generator from the operating system
    /// (`SdbProxy::from_entropy`) instead of from `seed`.
    pub entropy_keyed: bool,
    /// Default upload options.
    pub upload: UploadOptions,
}

impl SdbConfig {
    /// Fast profile for tests (small modulus, still an honest instantiation).
    /// Its keys come from the fixed seed `0x5db`, like every profile's:
    /// see [`Self::entropy_keyed`].
    pub fn test_profile() -> Self {
        SdbConfig {
            key_config: KeyConfig::TEST,
            seed: 0x5db,
            entropy_keyed: false,
            upload: UploadOptions::default(),
        }
    }

    /// Mid-size profile for examples and benches (512-bit modulus).
    pub fn balanced_profile() -> Self {
        SdbConfig {
            key_config: KeyConfig::BALANCED,
            seed: 0x5db,
            entropy_keyed: false,
            upload: UploadOptions::default(),
        }
    }

    /// The paper's parameters (2048-bit modulus). Slow: key generation alone takes
    /// seconds; use for fidelity runs, not for tests.
    pub fn paper_profile() -> Self {
        SdbConfig {
            key_config: KeyConfig::PAPER,
            seed: 0x5db,
            entropy_keyed: false,
            upload: UploadOptions::default(),
        }
    }

    /// This profile's key sizes with every DO secret drawn from the
    /// operating system's entropy, as a deployment needs: the profiles
    /// themselves are fixtures whose keys anyone can regenerate from the
    /// public seed. Building the client fails when the OS has no entropy
    /// to give.
    pub fn entropy_keyed(mut self) -> Self {
        self.entropy_keyed = true;
        self
    }

    /// Sets the number of upload encryption threads.
    pub fn with_upload_threads(mut self, threads: usize) -> Self {
        self.upload.threads = threads;
        self
    }
}

/// The result of one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The decrypted, post-processed result rows.
    pub batch: RecordBatch,
    /// The rewritten SQL that actually executed at the SP (paper Figure 3).
    pub rewritten_sql: String,
    /// Client-side cost breakdown (parse + rewrite + decrypt).
    pub client_cost: ClientCost,
    /// Server-side execution statistics.
    pub server_stats: ExecutionStats,
    /// Bytes sent to the SP for this query: the rewritten SQL, or its
    /// shape statement (the draws, and the template on its first sending).
    pub bytes_to_sp: usize,
    /// Bytes received from the SP for this query (encrypted result).
    pub bytes_from_sp: usize,
    /// The per-operator execution trace, when tracing was on for this query
    /// — rides along so the serving layer's slow-query log can capture it.
    pub trace: Option<sdb_engine::trace::TraceReport>,
    /// Row-keyed item keys the DO derived by exponentiation (oracle requests
    /// and result decryption).
    pub item_keys_derived: usize,
    /// Row-keyed item keys the DO served from its item-key memo.
    pub item_key_memo_hits: usize,
    /// 1 when the proxy replayed a cached statement shape instead of
    /// parsing and rewriting the SQL, 0 otherwise.
    pub do_shape_hits: usize,
}

impl QueryResult {
    /// The result rows as value vectors.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        self.batch.rows().collect()
    }

    /// The result column names.
    pub fn column_names(&self) -> Vec<String> {
        self.batch
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect()
    }

    /// Total client time (parse + rewrite + decrypt).
    pub fn client_time(&self) -> std::time::Duration {
        self.client_cost.total()
    }
}

/// The end-to-end SDB client.
pub struct SdbClient {
    config: SdbConfig,
    proxy: SdbProxy,
    engine: SpEngine,
    /// DO-side plaintext staging area for tables defined but not yet
    /// uploaded: an upload moves its table out.
    staging: Catalog,
    wire: WireLog,
}

impl SdbClient {
    /// Creates a client with fresh key material.
    pub fn new(config: SdbConfig) -> Result<Self> {
        Ok(SdbClient {
            proxy: match config.entropy_keyed {
                true => SdbProxy::from_entropy(config.key_config)?,
                false => SdbProxy::new(config.key_config, config.seed)?,
            },
            engine: SpEngine::new(),
            staging: Catalog::new(),
            wire: WireLog::new(),
            config,
        })
    }

    /// Runs the SP's queries under `config` (batch size, parallelism,
    /// memory budget, …) instead of the process defaults.
    pub fn with_exec_config(mut self, config: ExecConfig) -> Self {
        self.engine = self.engine.with_config(config);
        self
    }

    /// Executes a DDL/DML statement on the DO side: `CREATE TABLE … (… SENSITIVE …)`
    /// creates a staging table; `INSERT` adds rows to the staging table (or, once
    /// the table has been uploaded, encrypts them and appends at the SP).
    pub fn execute(&mut self, sql: &str) -> Result<()> {
        match parse_sql(sql)? {
            Statement::CreateTable { name, columns } => {
                let schema =
                    declared_schema(columns.iter().map(|c| (&c.name, c.data_type, c.sensitive)));
                self.ensure_not_uploaded(&name)?;
                self.staging.create_table(&name, schema)?;
                Ok(())
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let logical_rows = self.literal_rows(&table, &columns, &rows)?;
                if self.is_uploaded(&table) {
                    // Encrypt at the proxy and append its columns at the
                    // SP; the rows cross the wire as an upload, rendered
                    // when read.
                    let physical = self.proxy.encrypt_rows(&table, logical_rows)?;
                    let handle = self.engine.catalog().table(&table)?;
                    let mut guard = handle.write();
                    let start = guard.num_rows();
                    guard.append_columns(&physical)?;
                    let rows = start..guard.num_rows();
                    drop(guard);
                    self.wire.record_rows(WireMessageKind::Upload, handle, rows);
                    Ok(())
                } else {
                    let handle = self.staging.table(&table)?;
                    let mut guard = handle.write();
                    for row in logical_rows {
                        guard.insert_row(row)?;
                    }
                    Ok(())
                }
            }
            Statement::Query(_) => Err(SdbError::Usage {
                detail: "use query() for SELECT statements".into(),
            }),
            Statement::Analyze { table } => {
                match table {
                    Some(table) => self.analyze(&table)?,
                    None => {
                        for table in self.uploaded_tables() {
                            self.analyze(&table)?;
                        }
                    }
                }
                Ok(())
            }
            Statement::Explain(_) => Err(SdbError::Usage {
                detail: "use explain() for EXPLAIN statements".into(),
            }),
            Statement::ExplainAnalyze(_) => Err(SdbError::Usage {
                detail: "use explain_analyze() for EXPLAIN ANALYZE statements".into(),
            }),
        }
    }

    /// Refreshes the SP-side optimizer statistics for one uploaded table
    /// (upload itself analyzes automatically; call this after incremental
    /// INSERTs when estimates drift).
    pub fn analyze(&self, table: &str) -> Result<()> {
        let name = table.to_ascii_lowercase();
        if !self.is_uploaded(&name) {
            return Err(SdbError::Usage {
                detail: format!("table {name} is not uploaded; upload before ANALYZE"),
            });
        }
        self.engine.analyze(&name)?;
        Ok(())
    }

    /// Explains a query end to end: rewrites it at the proxy (exactly as
    /// [`SdbClient::query`] would) and renders the SP's chosen physical plan
    /// with per-node row and cost estimates — including the oracle round
    /// trips the rewritten predicates will pay. Nothing executes.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let rewritten = self.proxy.rewrite(sql)?;
        let mut lines = vec![format!("rewritten: {}", rewritten.server_sql)];
        lines.extend(self.engine.explain_sql(&rewritten.server_sql)?);
        Ok(lines.join("\n"))
    }

    /// Explains *and executes* a query end to end (`EXPLAIN ANALYZE`):
    /// rewrites it at the proxy exactly as [`SdbClient::query`] would, runs
    /// it at the SP with per-operator tracing forced on, and renders the
    /// physical tree annotated with actual rows, wall time,
    /// estimate-vs-actual deviation and oracle / spill attribution. The
    /// query's encrypted result rows are discarded; only the annotated plan
    /// comes back.
    ///
    /// A line under the rewritten SQL says whether the proxy replayed a
    /// cached shape (`DO shape hits`); the SP's header line that follows
    /// carries its planning time and plan-cache hits.
    /// The oracle travels with the query, as in
    /// [`Self::run_rewritten_with`], so concurrent calls on one client never
    /// touch each other's oracle.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let rewritten = self.proxy.rewrite(sql)?;
        let (output, _) = self.send(&rewritten, &QueryOptions::default(), true)?;

        let mut lines = vec![
            format!("rewritten: {}", rewritten.server_sql),
            format!("DO shape hits {}", u8::from(rewritten.shape_hit)),
        ];
        for row in output.batch.rows() {
            lines.push(row[0].as_str()?.to_string());
        }
        Ok(lines.join("\n"))
    }

    /// Loads an already-built plaintext table into the staging area (bulk loading
    /// path used by the workload generator and the benches).
    pub fn stage_table(&mut self, table: Table) -> Result<()> {
        self.ensure_not_uploaded(table.name())?;
        self.staging.register_table(table)?;
        Ok(())
    }

    /// Whether `table` is uploaded: the proxy holds its keys and metadata.
    fn is_uploaded(&self, table: &str) -> bool {
        (self.proxy.table_metas()).contains_key(&table.to_ascii_lowercase())
    }

    /// Refuses a table name the SP already holds: staging no longer does.
    fn ensure_not_uploaded(&self, name: &str) -> Result<()> {
        let name = name.to_ascii_lowercase();
        match self.is_uploaded(&name) {
            true => Err(StorageError::TableAlreadyExists { name }.into()),
            false => Ok(()),
        }
    }

    /// Encrypts and uploads one staged table to the SP (demo step 1), moving
    /// it out of staging: the DO keeps no plaintext copy of uploaded data.
    pub fn upload(&mut self, table: &str) -> Result<sdb_proxy::encryptor::UploadStats> {
        let name = table.to_ascii_lowercase();
        if self.is_uploaded(&name) {
            return Err(SdbError::Usage {
                detail: format!("table {name} is already uploaded"),
            });
        }
        let staged = self.staging.table(&name)?;
        let upload = (self.proxy).upload_table(&staged.read(), self.config.upload)?;
        let payload = serde_json::to_string(&upload.table).unwrap_or_default();
        self.wire.record(WireMessageKind::Upload, payload);
        self.engine.load_table(upload.table)?;
        self.staging.drop_table(&name)?;
        Ok(upload.stats)
    }

    /// Uploads every staged table.
    pub fn upload_all(&mut self) -> Result<()> {
        for name in self.staging.table_names() {
            self.upload(&name)?;
        }
        Ok(())
    }

    /// Runs a SELECT query end to end: rewrite at the proxy, execute at the SP,
    /// decrypt and post-process at the proxy.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let rewritten = self.proxy.rewrite(sql)?;
        self.run_rewritten(&rewritten)
    }

    /// Runs a SELECT query end to end with per-query execution overrides
    /// (budget, pager lease, cancellation token, parallelism, tracing) — the
    /// serving layer's secure-query path. A cancelled token surfaces as an
    /// engine error wrapping
    /// [`sdb_storage::StorageError::Cancelled`].
    pub fn query_with(&self, sql: &str, opts: &QueryOptions) -> Result<QueryResult> {
        let rewritten = self.proxy.rewrite(sql)?;
        self.run_rewritten_with(&rewritten, opts)
    }

    /// Rewrites a query without executing it (to inspect the rewritten SQL, as the
    /// demo's query view does).
    pub fn rewrite_only(&self, sql: &str) -> Result<RewrittenQuery> {
        Ok(self.proxy.rewrite(sql)?)
    }

    /// Executes an already-rewritten query.
    pub fn run_rewritten(&self, rewritten: &RewrittenQuery) -> Result<QueryResult> {
        self.run_rewritten_with(rewritten, &QueryOptions::default())
    }

    /// Executes an already-rewritten query with per-query overrides.
    pub fn run_rewritten_with(
        &self,
        rewritten: &RewrittenQuery,
        opts: &QueryOptions,
    ) -> Result<QueryResult> {
        let (output, bytes_to_sp) = self.send(rewritten, opts, false)?;

        let result_payload = serde_json::to_string(&output.batch).unwrap_or_default();
        let bytes_from_sp = result_payload.len();
        self.wire
            .record(WireMessageKind::ResultToProxy, result_payload);

        let (batch, decrypt_time) = self.proxy.decrypt_result(rewritten, &output.batch)?;
        Ok(QueryResult {
            batch,
            rewritten_sql: rewritten.server_sql.clone(),
            client_cost: ClientCost {
                parse: rewritten.parse_time,
                rewrite: rewritten.rewrite_time,
                decrypt: decrypt_time,
            },
            server_stats: output.stats,
            bytes_to_sp,
            bytes_from_sp,
            trace: output.trace,
            item_keys_derived: rewritten.session.item_keys_derived(),
            item_key_memo_hits: rewritten.session.item_key_memo_hits(),
            do_shape_hits: usize::from(rewritten.shape_hit),
        })
    }

    /// Sends a rewritten query to the SP and runs it there (as `EXPLAIN
    /// ANALYZE` with `analyze`), returning the SP's output and the bytes
    /// sent. A statement the proxy replayed goes by shape, with its template
    /// until the SP has been sent it; an SP that has dropped the shape
    /// answers `UnknownShape` and is sent the template again. Every message
    /// is recorded on the wire log as sent.
    fn send(
        &self,
        rewritten: &RewrittenQuery,
        opts: &QueryOptions,
        analyze: bool,
    ) -> Result<(QueryOutput, usize)> {
        // The oracle travels inside the per-query options rather than the
        // engine-wide slot, so concurrent sessions sharing this client can
        // never swap each other's oracle mid-query.
        let oracle = RecordingOracle::new(self.proxy.oracle(rewritten), self.wire.clone());
        let opts = opts.clone().with_oracle(Arc::new(oracle));
        let Some(mut statement) = rewritten.statement(false) else {
            let sql = &rewritten.server_sql;
            self.wire.record(WireMessageKind::QueryToSp, sql.clone());
            let output = if analyze {
                self.engine
                    .execute_sql_with(&format!("EXPLAIN ANALYZE {sql}"), &opts)?
            } else {
                self.engine.execute_sql_with(sql, &opts)?
            };
            return Ok((output, sql.len()));
        };
        let mut bytes = 0;
        loop {
            let payload = serde_json::to_string(&statement).unwrap_or_default();
            bytes += payload.len();
            self.wire.record(WireMessageKind::QueryToSp, payload);
            if let Some(shape) = rewritten.shape().filter(|_| statement.template.is_some()) {
                shape.announce();
            }
            let output = if analyze {
                self.engine.explain_analyze_shaped(&statement, &opts)
            } else {
                self.engine.execute_shaped(&statement, &opts)
            };
            match output {
                Err(EngineError::UnknownShape { .. }) if statement.template.is_none() => {
                    statement = rewritten.statement(true).expect("a shaped statement");
                }
                output => return Ok((output?, bytes)),
            }
        }
    }

    /// Size of the proxy's key store in bytes (demo step 1).
    pub fn keystore_size_bytes(&self) -> usize {
        self.proxy.keystore().approx_size_bytes()
    }

    /// Approximate size of the data stored at the SP.
    pub fn sp_storage_size_bytes(&self) -> usize {
        self.engine.catalog().approx_size_bytes()
    }

    /// The wire log: per-kind byte and message counts, and the captures a
    /// test opens to read payloads (the audit's wire haystack).
    pub fn wire(&self) -> &WireLog {
        &self.wire
    }

    /// The SP engine (for benches and inspection).
    pub fn engine(&self) -> &SpEngine {
        &self.engine
    }

    /// The DO proxy.
    pub fn proxy(&self) -> &SdbProxy {
        &self.proxy
    }

    /// Names of uploaded tables.
    pub fn uploaded_tables(&self) -> Vec<String> {
        self.proxy.table_metas().keys().cloned().collect()
    }

    // ------------------------------------------------------------------

    fn literal_rows(
        &self,
        table: &str,
        columns: &[String],
        rows: &[Vec<Expr>],
    ) -> Result<Vec<Vec<Value>>> {
        // An uploaded table's logical schema is the proxy's metadata, built
        // only to resolve an explicit column list.
        let uploaded = self.proxy.table_metas().get(&table.to_ascii_lowercase());
        let schema = match uploaded {
            Some(_) if columns.is_empty() => None,
            Some(meta) => Some(declared_schema(
                meta.columns
                    .iter()
                    .map(|c| (&c.name, c.data_type, c.sensitive)),
            )),
            None => Some(self.staging.table(table)?.read().schema().clone()),
        };
        let width = match uploaded {
            Some(meta) => meta.columns.len(),
            None => schema.as_ref().map_or(0, Schema::len),
        };

        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let mut values = vec![Value::Null; width];
            if columns.is_empty() {
                if row.len() != width {
                    return Err(SdbError::Storage(StorageError::ArityMismatch {
                        expected: width,
                        found: row.len(),
                    }));
                }
                for (i, expr) in row.iter().enumerate() {
                    values[i] = literal_value(expr)?;
                }
            } else {
                if columns.len() != row.len() {
                    return Err(SdbError::Storage(StorageError::ArityMismatch {
                        expected: columns.len(),
                        found: row.len(),
                    }));
                }
                let schema = schema.as_ref().expect("built for a column list");
                for (column, expr) in columns.iter().zip(row.iter()) {
                    let idx = schema.index_of(column)?;
                    values[idx] = literal_value(expr)?;
                }
            }
            out.push(values);
        }
        Ok(out)
    }
}

/// A schema of `(name, type, sensitive)` columns as the application
/// declared them.
fn declared_schema<'a>(columns: impl Iterator<Item = (&'a String, DataType, bool)>) -> Schema {
    let column = |(name, data_type, sensitive): (&String, _, _)| ColumnDef {
        name: name.clone(),
        data_type,
        sensitivity: match sensitive {
            true => Sensitivity::Sensitive,
            false => Sensitivity::Public,
        },
    };
    Schema::new(columns.map(column).collect())
}

/// Converts a literal INSERT expression into a runtime value.
fn literal_value(expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(lit) => Ok(match lit {
            Literal::Null => Value::Null,
            Literal::Int(v) => Value::Int(*v),
            Literal::Decimal { units, scale } => Value::Decimal {
                units: *units,
                scale: *scale,
            },
            Literal::Str(s) => Value::Str(s.clone()),
            Literal::Date(d) => Value::Date(*d),
            Literal::Bool(b) => Value::Bool(*b),
        }),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => match literal_value(expr)? {
            Value::Int(v) => Ok(Value::Int(-v)),
            Value::Decimal { units, scale } => Ok(Value::Decimal {
                units: -units,
                scale,
            }),
            other => Err(SdbError::Usage {
                detail: format!("cannot negate {other:?} in INSERT"),
            }),
        },
        other => Err(SdbError::Usage {
            detail: format!("INSERT values must be literals, found {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryAuditor, WireCapture};

    /// Two entropy-keyed clients get different moduli, and each answers
    /// like a seeded one.
    #[test]
    fn entropy_keyed_clients_have_their_own_keys() {
        let answer = |config: SdbConfig| {
            let mut client = SdbClient::new(config).unwrap();
            client
                .execute("CREATE TABLE t (id INT, v INT SENSITIVE)")
                .unwrap();
            client
                .execute("INSERT INTO t VALUES (1, 5), (2, -7), (3, 9)")
                .unwrap();
            client.upload_all().unwrap();
            client.execute("INSERT INTO t VALUES (4, 11)").unwrap();
            let rows = client
                .query("SELECT id FROM t WHERE v > 0 ORDER BY id")
                .unwrap()
                .rows();
            (client.proxy().keystore().system().n().clone(), rows)
        };
        let (n_a, rows_a) = answer(SdbConfig::test_profile().entropy_keyed());
        let (n_b, rows_b) = answer(SdbConfig::test_profile().entropy_keyed());
        let (n_seeded, rows_seeded) = answer(SdbConfig::test_profile());
        assert_ne!(n_a, n_b);
        assert_ne!(n_a, n_seeded);
        assert_eq!(rows_a, rows_seeded);
        assert_eq!(rows_b, rows_seeded);
        assert_eq!(rows_seeded.len(), 3);
    }

    /// Builds the standard employees/departments fixture on both an SDB client
    /// (salary, bonus, hired and codename sensitive) and a plaintext engine, so
    /// tests can compare answers.
    fn fixture() -> (SdbClient, SpEngine) {
        let (client, plain, _, _) = audited_fixture();
        (client, plain)
    }

    /// [`fixture`], plus an auditor holding the staged tables' sensitive
    /// values and a capture of the wire from the upload on.
    fn audited_fixture() -> (SdbClient, SpEngine, MemoryAuditor, WireCapture) {
        let ddl_sdb = [
            "CREATE TABLE emp (id INT, name VARCHAR(20), dept_id INT, salary DECIMAL(10,2) SENSITIVE, bonus INT SENSITIVE, hired DATE SENSITIVE, codename VARCHAR(30) SENSITIVE)",
            "CREATE TABLE dept (id INT, dept_name VARCHAR(20), budget INT SENSITIVE)",
        ];
        let ddl_plain = [
            "CREATE TABLE emp (id INT, name VARCHAR(20), dept_id INT, salary DECIMAL(10,2), bonus INT, hired DATE, codename VARCHAR(30))",
            "CREATE TABLE dept (id INT, dept_name VARCHAR(20), budget INT)",
        ];
        let inserts = [
            "INSERT INTO emp VALUES \
             (1, 'ann', 10, 1000.00, 50, DATE '2015-01-10', 'falcon'), \
             (2, 'bob', 10, 2500.50, 75, DATE '2016-03-20', 'osprey'), \
             (3, 'cat', 20, 1800.25, 20, DATE '2014-07-01', 'falcon'), \
             (4, 'dan', 20, 3200.00, 95, DATE '2018-11-05', 'kestrel'), \
             (5, 'eve', 30, 2100.75, 60, DATE '2017-05-15', 'osprey')",
            "INSERT INTO dept VALUES (10, 'eng', 500000), (20, 'ops', 350000), (40, 'hr', 120000)",
        ];

        let mut client = SdbClient::new(SdbConfig::test_profile()).unwrap();
        for sql in ddl_sdb {
            client.execute(sql).unwrap();
        }
        for sql in inserts {
            client.execute(sql).unwrap();
        }
        let mut auditor = MemoryAuditor::new();
        for name in client.staging.table_names() {
            auditor.register_table(&client.staging.table(&name).unwrap().read());
        }
        let capture = client.wire().capture();
        client.upload_all().unwrap();

        let plain = SpEngine::new();
        for sql in ddl_plain.iter().chain(inserts.iter()) {
            plain.execute_sql(sql).unwrap();
        }
        (client, plain, auditor, capture)
    }

    /// Compares the SDB answer for `sql` against the plaintext engine's answer,
    /// row by row (numerics compared at a common scale).
    fn assert_same_answer(client: &SdbClient, plain: &SpEngine, sql: &str) {
        let secure = client
            .query(sql)
            .unwrap_or_else(|e| panic!("SDB failed on {sql}: {e}"));
        let reference = plain
            .execute_sql(sql)
            .unwrap_or_else(|e| panic!("plaintext failed on {sql}: {e}"));
        let got = render_rows(&secure.batch);
        let want = render_rows(&reference.batch);
        assert_eq!(
            got, want,
            "answers differ for {sql}\nrewritten: {}",
            secure.rewritten_sql
        );
    }

    fn render_rows(batch: &RecordBatch) -> Vec<Vec<String>> {
        batch
            .rows()
            .map(|row| row.iter().map(canonical).collect())
            .collect()
    }

    fn canonical(v: &Value) -> String {
        match v {
            Value::Int(_) | Value::Decimal { .. } | Value::Bool(_) => v
                .as_scaled_i128(6)
                .map(|x| x.to_string())
                .unwrap_or_else(|_| v.render()),
            other => other.render(),
        }
    }

    #[test]
    fn projection_arithmetic_matches_plaintext() {
        let (client, plain) = fixture();
        for sql in [
            "SELECT id, salary FROM emp ORDER BY id",
            "SELECT id, salary * bonus AS product FROM emp ORDER BY id",
            "SELECT id, salary + bonus AS total FROM emp ORDER BY id",
            "SELECT id, salary - bonus AS diff FROM emp ORDER BY id",
            "SELECT id, salary * 2 AS doubled, bonus + 10 AS bumped FROM emp ORDER BY id",
            "SELECT id, salary * dept_id AS weighted FROM emp ORDER BY id",
            "SELECT id, 100 - bonus AS remaining FROM emp ORDER BY id",
        ] {
            assert_same_answer(&client, &plain, sql);
        }
    }

    #[test]
    fn filters_on_sensitive_columns_match_plaintext() {
        let (client, plain) = fixture();
        for sql in [
            "SELECT id FROM emp WHERE salary > 2000 ORDER BY id",
            "SELECT id FROM emp WHERE salary <= 1800.25 ORDER BY id",
            "SELECT id FROM emp WHERE bonus = 75 ORDER BY id",
            "SELECT id FROM emp WHERE salary BETWEEN 1500 AND 3000 ORDER BY id",
            "SELECT id FROM emp WHERE bonus IN (50, 95) ORDER BY id",
            "SELECT id FROM emp WHERE salary > 1000 AND bonus < 80 ORDER BY id",
            "SELECT id FROM emp WHERE salary > 3000 OR bonus = 20 ORDER BY id",
            "SELECT id FROM emp WHERE NOT (salary > 2000) ORDER BY id",
            "SELECT id FROM emp WHERE salary - bonus > 2000 ORDER BY id",
            "SELECT id FROM emp WHERE hired >= DATE '2016-01-01' ORDER BY id",
            "SELECT id FROM emp WHERE salary > bonus ORDER BY id",
            "SELECT id, name FROM emp WHERE codename = 'falcon' ORDER BY id",
            "SELECT id FROM emp WHERE codename <> 'osprey' ORDER BY id",
        ] {
            assert_same_answer(&client, &plain, sql);
        }
    }

    #[test]
    fn aggregates_match_plaintext() {
        let (client, plain) = fixture();
        for sql in [
            "SELECT SUM(salary) AS total FROM emp",
            "SELECT COUNT(*) AS n, COUNT(bonus) AS nb FROM emp",
            "SELECT AVG(bonus) AS mean FROM emp",
            "SELECT MIN(salary) AS lo, MAX(salary) AS hi FROM emp",
            "SELECT SUM(salary * bonus) AS weighted FROM emp",
            "SELECT SUM(salary) + SUM(bonus) AS combined FROM emp",
            "SELECT dept_id, SUM(salary) AS total FROM emp GROUP BY dept_id ORDER BY dept_id",
            "SELECT dept_id, COUNT(*) AS n, AVG(salary) AS mean FROM emp GROUP BY dept_id ORDER BY dept_id",
            "SELECT dept_id, MAX(bonus) AS top FROM emp GROUP BY dept_id ORDER BY dept_id",
            "SELECT dept_id, SUM(salary) AS total FROM emp GROUP BY dept_id HAVING SUM(salary) > 3000 ORDER BY dept_id",
            "SELECT dept_id, SUM(salary) AS total FROM emp WHERE bonus >= 50 GROUP BY dept_id ORDER BY dept_id",
        ] {
            assert_same_answer(&client, &plain, sql);
        }
    }

    #[test]
    fn group_by_sensitive_keys_matches_plaintext() {
        let (client, plain) = fixture();
        for sql in [
            "SELECT bonus, COUNT(*) AS n FROM emp GROUP BY bonus ORDER BY bonus",
            "SELECT codename, COUNT(*) AS n FROM emp GROUP BY codename ORDER BY codename",
            "SELECT hired, COUNT(*) AS n FROM emp GROUP BY hired ORDER BY hired",
        ] {
            assert_same_answer(&client, &plain, sql);
        }
    }

    #[test]
    fn joins_match_plaintext() {
        let (client, plain) = fixture();
        for sql in [
            "SELECT e.name, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.id",
            "SELECT e.name, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.id WHERE e.salary > 1500 ORDER BY e.id",
            "SELECT d.dept_name, SUM(e.salary) AS payroll FROM emp e JOIN dept d ON e.dept_id = d.id GROUP BY d.dept_name ORDER BY d.dept_name",
            "SELECT e.id, e.salary FROM emp e JOIN dept d ON e.dept_id = d.id WHERE d.budget > 200000 ORDER BY e.id",
        ] {
            assert_same_answer(&client, &plain, sql);
        }
    }

    #[test]
    fn order_limit_distinct_on_sensitive_matches_plaintext() {
        let (client, plain) = fixture();
        for sql in [
            "SELECT id, salary FROM emp ORDER BY salary DESC LIMIT 3",
            "SELECT id, salary FROM emp ORDER BY salary",
            "SELECT DISTINCT codename FROM emp ORDER BY codename",
            "SELECT DISTINCT bonus FROM emp ORDER BY bonus",
        ] {
            assert_same_answer(&client, &plain, sql);
        }
    }

    #[test]
    fn sensitive_varchar_projection_roundtrips() {
        let (client, _) = fixture();
        let result = client
            .query("SELECT id, codename FROM emp WHERE id = 1")
            .unwrap();
        assert_eq!(result.rows()[0][1], Value::Str("falcon".into()));
    }

    #[test]
    fn insensitive_query_passes_through_and_is_fast_path() {
        let (client, plain) = fixture();
        assert_same_answer(
            &client,
            &plain,
            "SELECT id, name FROM emp WHERE id > 2 ORDER BY id",
        );
        let rewritten = client
            .rewrite_only("SELECT id, name FROM emp WHERE id > 2 ORDER BY id")
            .unwrap();
        assert!(rewritten.plan.ingredients.is_empty());
    }

    #[test]
    fn rewritten_sql_contains_no_plaintext_and_audit_is_clean() {
        let (client, _, auditor, capture) = audited_fixture();
        let queries = [
            "SELECT id, salary * bonus AS c FROM emp WHERE salary > 2000",
            "SELECT dept_id, SUM(salary) AS t FROM emp GROUP BY dept_id",
            "SELECT codename, COUNT(*) AS n FROM emp GROUP BY codename",
            "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id WHERE d.budget > 200000",
        ];
        for sql in queries {
            let result = client.query(sql).unwrap();
            // The rewritten SQL itself must not contain any sensitive literal.
            assert!(!result.rewritten_sql.contains("2500.50"));
            assert!(!result.rewritten_sql.contains("falcon"));
        }
        // Demo step 3: nothing the SP stores or saw on the wire contains plaintext.
        let report = auditor.audit_client(&client, &capture);
        assert!(report.needles_checked > 0);
        assert!(
            report.is_clean(),
            "sensitive plaintext leaked: {:?}",
            report.findings
        );
    }

    #[test]
    fn cost_breakdown_is_reported() {
        let (client, _) = fixture();
        let result = client
            .query(
                "SELECT dept_id, SUM(salary) AS total FROM emp WHERE bonus > 30 GROUP BY dept_id",
            )
            .unwrap();
        assert!(result.server_stats.oracle_round_trips >= 1);
        assert!(result.bytes_to_sp > 0);
        assert!(result.bytes_from_sp > 0);
        assert!(result.client_time().as_nanos() > 0);
        assert!(result.server_stats.total_time >= result.server_stats.oracle_time);
    }

    #[test]
    fn insert_after_upload_encrypts_new_rows() {
        let (mut client, plain, mut auditor, capture) = audited_fixture();
        let insert =
            "INSERT INTO emp VALUES (6, 'fred', 30, 999.99, 5, DATE '2020-02-02', 'falcon')";
        for value in [
            Value::Decimal {
                units: 99_999,
                scale: 2,
            },
            Value::Int(5),
            Value::Date(sdb_sql::dates::parse_date("2020-02-02").unwrap()),
            Value::Str("falcon".into()),
        ] {
            auditor.register_value(&value);
        }
        client.execute(insert).unwrap();
        plain.execute_sql(insert).unwrap();
        assert_same_answer(&client, &plain, "SELECT id, salary FROM emp ORDER BY id");
        assert_same_answer(
            &client,
            &plain,
            "SELECT codename, COUNT(*) AS n FROM emp GROUP BY codename ORDER BY codename",
        );
        // The audit stays clean even after the incremental insert.
        assert!(auditor.audit_client(&client, &capture).is_clean());
    }

    /// An upload moves its table out of staging: the DO keeps no plaintext
    /// of uploaded data, the name stays taken, and a second upload of
    /// everything finds nothing to do.
    #[test]
    fn upload_moves_tables_out_of_staging() {
        let (mut client, _) = fixture();
        assert!(client.staging.is_empty());
        let taken = |result: Result<()>| {
            matches!(
                result,
                Err(SdbError::Storage(StorageError::TableAlreadyExists { .. }))
            )
        };
        assert!(taken(client.execute("CREATE TABLE emp (id INT)")));
        assert!(taken(client.stage_table(Table::new(
            "Dept",
            Schema::new(vec![ColumnDef::public("id", sdb_storage::DataType::Int)])
        ))));
        let uploads = client.wire().count_of_kind(WireMessageKind::Upload);
        client.upload_all().unwrap();
        assert_eq!(
            client.wire().count_of_kind(WireMessageKind::Upload),
            uploads
        );
        assert_eq!(client.uploaded_tables(), ["dept", "emp"]);
        assert!(client.staging.is_empty());
    }

    #[test]
    fn keystore_is_small_compared_to_data() {
        let (client, _) = fixture();
        assert!(client.keystore_size_bytes() > 0);
        assert!(client.sp_storage_size_bytes() > 0);
        // The key store holds a handful of numbers per column — orders of magnitude
        // smaller than the outsourced data is the qualitative claim; at this tiny
        // scale just check it does not dominate.
        assert!(client.keystore_size_bytes() < 10 * client.sp_storage_size_bytes());
    }

    #[test]
    fn explain_and_analyze_roundtrip() {
        let (mut client, _) = fixture();
        // Upload auto-analyzed: stats exist for the encrypted tables at the SP.
        assert!(client.engine().catalog().table_stats("emp").is_some());

        let text = client
            .explain(
                "SELECT e.name, d.dept_name FROM emp e \
                 JOIN dept d ON e.dept_id = d.id WHERE e.salary > 2000",
            )
            .unwrap();
        assert!(text.contains("rewritten:"), "{text}");
        assert!(text.contains("physical plan"), "{text}");
        assert!(text.contains("rows≈"), "{text}");
        assert!(
            text.contains("trips="),
            "oracle round trips must be priced: {text}"
        );

        // ANALYZE refreshes after incremental inserts; unknown tables fail.
        client
            .execute("INSERT INTO emp VALUES (7, 'gil', 10, 1.00, 1, DATE '2021-01-01', 'kestrel')")
            .unwrap();
        client.analyze("emp").unwrap();
        assert_eq!(
            client
                .engine()
                .catalog()
                .table_stats("emp")
                .unwrap()
                .row_count,
            6
        );
        client.execute("ANALYZE").unwrap();
        assert!(client.analyze("nope").is_err());
        assert!(matches!(
            client.execute("EXPLAIN SELECT id FROM emp"),
            Err(SdbError::Usage { .. })
        ));
    }

    #[test]
    fn explain_analyze_reports_actuals_with_oracle_attribution() {
        let (mut client, _) = fixture();
        let text = client
            .explain_analyze(
                "SELECT e.name, d.dept_name FROM emp e \
                 JOIN dept d ON e.dept_id = d.id WHERE e.salary > 2000",
            )
            .unwrap();
        assert!(text.contains("rewritten:"), "{text}");
        assert!(text.contains("analyzed plan ("), "{text}");
        assert!(text.contains(" rows="), "actual rows must render: {text}");
        assert!(text.contains(" time="), "wall time must render: {text}");
        assert!(
            text.contains("(self "),
            "exclusive share must render: {text}"
        );
        assert!(
            text.contains("oracle[trips="),
            "the secure filter's round trips must be attributed: {text}"
        );
        assert!(
            text.contains("est\u{2248}"),
            "upload auto-analyzes, so estimates must render: {text}"
        );
        // EXPLAIN ANALYZE through execute() points at the dedicated method.
        assert!(matches!(
            client.execute("EXPLAIN ANALYZE SELECT id FROM emp"),
            Err(SdbError::Usage { .. })
        ));
    }

    /// Concurrent `EXPLAIN ANALYZE` calls on one client each run against
    /// their own query's oracle, as concurrent queries do: none can swap in
    /// or drop another's (they once shared the engine-wide slot), so every
    /// call completes and counts the rows a lone call counts.
    #[test]
    fn concurrent_explain_analyze_calls_keep_their_own_oracle() {
        let (client, _) = fixture();
        let sqls = [
            "SELECT id FROM emp WHERE salary > 2000",
            "SELECT dept_id, SUM(bonus) AS b FROM emp WHERE bonus > 50 GROUP BY dept_id",
        ];
        let header = |text: &str| -> String {
            let line = text.lines().nth(2).expect("header").to_string();
            line.split(" rows in").next().unwrap().to_string()
        };
        let expected: Vec<String> = (sqls.iter())
            .map(|sql| header(&client.explain_analyze(sql).unwrap()))
            .collect();
        std::thread::scope(|scope| {
            let threads: Vec<_> = (sqls.iter().zip(&expected))
                .map(|(sql, expected)| {
                    let client = &client;
                    scope.spawn(move || {
                        for _ in 0..200 {
                            let text = (client.explain_analyze(sql))
                                .unwrap_or_else(|e| panic!("{sql}: {e}"));
                            assert_eq!(&header(&text), expected, "{sql}");
                            assert!(text.contains("oracle[trips="), "{text}");
                        }
                    })
                })
                .collect();
            for thread in threads {
                thread.join().expect("explain thread");
            }
        });
    }

    #[test]
    fn usage_errors_are_clear() {
        let mut client = SdbClient::new(SdbConfig::test_profile()).unwrap();
        assert!(matches!(
            client.execute("SELECT 1 FROM t"),
            Err(SdbError::Usage { .. })
        ));
        client.execute("CREATE TABLE t (a INT SENSITIVE)").unwrap();
        client.execute("INSERT INTO t VALUES (1)").unwrap();
        client.upload("t").unwrap();
        assert!(client.upload("t").is_err());
        assert!(client.query("SELECT missing FROM t").is_err());
    }
}
