//! The SDB proxy facade: the component the application talks to (paper §2.2).
//!
//! Responsibilities, quoted from the paper: storing column keys in its key store;
//! accepting SQL queries from the application; rewriting the SQL operators that
//! involve sensitive columns into their corresponding UDFs; receiving encrypted
//! results and decrypting them; sending the decrypted results back to the
//! application. The demo's client-cost breakdown (parse + rewrite + decrypt,
//! experiment E3) is measured here.
//!
//! A statement rewritten before, up to the public keys it looks up, replays
//! its cached [`Shape`] (see [`crate::shape`]): the same server SQL a cold
//! rewrite with the same fork of the proxy's generator would produce,
//! without parsing or rewriting.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use sdb_crypto::{Drbg, ItemKeyMemo, KeyConfig, KeyUpdateMemo};
use sdb_engine::ServerStatement;
use sdb_sql::{lift_literals, parse_sql, parse_tokens, Lexer, Query, Statement, Token};
use sdb_storage::{Column, RecordBatch, Table, Value};

use crate::decryptor::Decryptor;
use crate::encryptor::{EncryptedUpload, Encryptor, UploadOptions};
use crate::keystore::KeyStore;
use crate::meta::TableMeta;
use crate::oracle::{OracleParts, ProxyOracle};
use crate::plan::ResultPlan;
use crate::rewriter::Rewriter;
use crate::session::QuerySession;
use crate::shape::{Shape, ShapeCache, Template};
use crate::{ProxyError, Result};

/// The client-side cost breakdown of one query (demo step 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCost {
    /// Time spent parsing the application SQL.
    pub parse: Duration,
    /// Time spent rewriting it into the server query.
    pub rewrite: Duration,
    /// Time spent decrypting and post-processing the result.
    pub decrypt: Duration,
}

impl ClientCost {
    /// Total client-side time.
    pub fn total(&self) -> Duration {
        self.parse + self.rewrite + self.decrypt
    }
}

/// A rewritten query, ready to be submitted to the SP.
#[derive(Clone)]
pub struct RewrittenQuery {
    /// The original application SQL.
    pub original_sql: String,
    /// The rewritten query as SQL text (what Figure 3 of the paper displays and
    /// what is submitted to the SP).
    pub server_sql: String,
    /// The decryption / post-processing plan.
    pub plan: ResultPlan,
    /// The per-query session shared with the oracle.
    pub session: Arc<QuerySession>,
    /// Time spent parsing (lexing alone, on a shape hit).
    pub parse_time: Duration,
    /// Time spent rewriting (replaying, on a shape hit), up to rendering
    /// the server SQL.
    pub rewrite_time: Duration,
    /// Whether the rewrite replayed a cached shape.
    pub shape_hit: bool,
    /// The statement's shape, once the proxy has admitted it.
    shape: Option<Arc<Shape>>,
    /// The SQL rendering of each lifted literal, when the statement has a
    /// shape's slots for them.
    lifted: Vec<String>,
    /// The value of each key-update slot of the server query for this
    /// execution.
    draws: Vec<String>,
}

impl RewrittenQuery {
    /// The rewritten query as an AST, parsed on demand from
    /// [`Self::server_sql`].
    pub fn server_query(&self) -> Query {
        match parse_sql(&self.server_sql) {
            Ok(Statement::Query(query)) => query,
            other => unreachable!("the rewriter renders a query: {other:?}"),
        }
    }

    /// The value of each key-update slot of the server query (the `p` and
    /// `q` of every key update) for this execution.
    pub fn draws(&self) -> &[String] {
        &self.draws
    }

    /// The SQL rendering of each literal lifted into a slot of the
    /// statement's shape, in slot order (empty when nothing lifted).
    pub fn lifted(&self) -> &[String] {
        &self.lifted
    }

    /// The statement's shape, once the proxy has admitted it (from the
    /// text's second rewrite on).
    pub fn shape(&self) -> Option<&Arc<Shape>> {
        self.shape.as_ref()
    }

    /// What to send the SP: a replayed shape goes by shape, with the
    /// template until it has been sent (or when `resend`); `None` sends
    /// [`Self::server_sql`] as text. A shape admitted but never replayed
    /// thus costs the SP nothing.
    pub fn statement(&self, resend: bool) -> Option<ServerStatement> {
        let shape = self.shape.as_ref().filter(|_| self.shape_hit)?;
        Some(ServerStatement {
            shape: shape.id(),
            lifted: self.lifted.clone(),
            draws: self.draws.clone(),
            template: (resend || !shape.announced()).then(|| shape.template().to_string()),
        })
    }
}

impl std::fmt::Debug for RewrittenQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewrittenQuery")
            .field("original_sql", &self.original_sql)
            .field("server_sql", &self.server_sql)
            .field("outputs", &self.plan.outputs.len())
            .field("shape_hit", &self.shape_hit)
            .finish()
    }
}

/// The data-owner proxy.
pub struct SdbProxy {
    keystore: KeyStore,
    metas: BTreeMap<String, TableMeta>,
    /// The generator the key store was drawn from; every upload, query and
    /// INSERT after it draws from a fork of it.
    drbg: Mutex<Drbg>,
    /// What every query's rewrite, oracle and decryption would otherwise
    /// rebuild from the key store: `n` in decimal, the key-update memo, the
    /// oracle's parts (with the item-key memo) and the decryptor sharing
    /// them. None of it is part of the key store or its JSON.
    n_text: String,
    key_updates: KeyUpdateMemo,
    oracle_parts: Arc<OracleParts>,
    decryptor: Decryptor,
    /// Cached rewrites by lexed form.
    shapes: ShapeCache,
    /// The lower-case names of the columns a literal lifts beside: public
    /// in every uploaded table that has a column of the name.
    public_columns: HashSet<String>,
}

impl std::fmt::Debug for SdbProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SdbProxy")
            .field("tables", &self.metas.keys().collect::<Vec<_>>())
            .field("key_updates", &self.key_updates)
            .field("item_keys", self.oracle_parts.memo())
            .field("shapes", &self.shapes.len())
            .finish_non_exhaustive()
    }
}

impl SdbProxy {
    /// Creates a proxy with fixture key material under the given parameter
    /// profile: its generator is `Drbg::seed_from_u64(seed)`, so the same
    /// seed gives the same keys (tests, benches, the stock profiles).
    pub fn new(config: KeyConfig, seed: u64) -> Result<Self> {
        SdbProxy::with_drbg(config, Drbg::seed_from_u64(seed))
    }

    /// Creates a proxy whose generator is keyed by the operating system
    /// ([`Drbg::from_os`]), as a deployment needs. Fails when the OS has no
    /// entropy to give.
    pub fn from_entropy(config: KeyConfig) -> Result<Self> {
        SdbProxy::with_drbg(config, Drbg::from_os()?)
    }

    /// Creates a proxy whose every secret comes from `drbg`: the key store,
    /// and each upload's column keys, row ids and nonces, each query's key
    /// draws and each INSERT's row ids after it.
    fn with_drbg(config: KeyConfig, mut drbg: Drbg) -> Result<Self> {
        let keystore = KeyStore::generate(config, &mut drbg)?;
        let oracle_parts = Arc::new(OracleParts::new(&keystore));
        Ok(SdbProxy {
            n_text: keystore.system().n().to_string(),
            key_updates: KeyUpdateMemo::default(),
            decryptor: Decryptor::with_parts(Arc::clone(&oracle_parts), &keystore),
            oracle_parts,
            keystore,
            metas: BTreeMap::new(),
            drbg: Mutex::new(drbg),
            shapes: ShapeCache::default(),
            public_columns: HashSet::new(),
        })
    }

    /// The generator of one query or INSERT: a fork of the proxy's.
    fn task_rng(&self) -> Drbg {
        (self.drbg.lock().unwrap_or_else(PoisonError::into_inner)).fork()
    }

    /// The key store (e.g. to inspect its size, demo step 1).
    pub fn keystore(&self) -> &KeyStore {
        &self.keystore
    }

    /// The item-key memo the oracles and the decryptor share (its counters;
    /// the powers it holds never leave it).
    pub fn item_key_memo(&self) -> &ItemKeyMemo {
        self.oracle_parts.memo()
    }

    /// Metadata of the uploaded tables.
    pub fn table_metas(&self) -> &BTreeMap<String, TableMeta> {
        &self.metas
    }

    /// Statement shapes the proxy holds.
    pub fn statement_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// Approximate bytes the statement shapes hold.
    pub fn statement_shape_bytes(&self) -> usize {
        self.shapes.approx_bytes()
    }

    /// The template text of every statement shape the proxy holds (what the
    /// SP is sent once per shape).
    pub fn statement_templates(&self) -> Vec<String> {
        self.shapes.templates()
    }

    /// Encrypts a plaintext table for upload (demo step 1). The returned
    /// [`EncryptedUpload::table`] is what gets shipped to the SP; the proxy keeps
    /// the keys and the logical metadata.
    pub fn upload_table(
        &mut self,
        table: &Table,
        options: UploadOptions,
    ) -> Result<EncryptedUpload> {
        let drbg = self.drbg.get_mut().unwrap_or_else(PoisonError::into_inner);
        let upload = Encryptor::encrypt_table(&mut self.keystore, table, options, drbg)?;
        // The key store changed: every shape is rewritten afresh.
        self.shapes.clear();
        // The memo admits the table's stored keys and may hold an entry per
        // encrypted cell.
        let keys = self.keystore.table_keys(&upload.meta.name)?;
        let memo = self.oracle_parts.memo();
        for key in keys.columns.values().chain([&keys.aux]) {
            memo.admit(key.x());
        }
        memo.grow(table.num_rows() * (keys.columns.len() + 1));
        self.metas
            .insert(upload.meta.name.clone(), upload.meta.clone());
        let columns = || self.metas.values().flat_map(|meta| &meta.columns);
        let sensitive: HashSet<&str> = (columns().filter(|c| c.sensitive))
            .map(|c| c.name.as_str())
            .collect();
        self.public_columns = (columns())
            .filter(|c| !sensitive.contains(c.name.as_str()))
            .map(|c| c.name.to_ascii_lowercase())
            .collect();
        Ok(upload)
    }

    /// Encrypts logical rows for insertion into an already-uploaded table:
    /// the SP table's columns to append (see [`Encryptor::encrypt_rows`]).
    pub fn encrypt_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<Vec<Column>> {
        let meta = self.metas.get(&table.to_ascii_lowercase()).ok_or_else(|| {
            ProxyError::UnknownTable {
                name: table.to_string(),
            }
        })?;
        let mut rng = self.task_rng();
        let added = rows.len();
        let encrypted = Encryptor::encrypt_rows(&self.keystore, meta, rows, &mut rng)?;
        let columns = self.keystore.table_keys(&meta.name)?.columns.len();
        (self.oracle_parts.memo()).grow(added * (columns + 1));
        Ok(encrypted)
    }

    /// Parses and rewrites one application SELECT statement (demo step 2), or
    /// replays its cached shape. The text a shape was admitted from replays
    /// it as it is; any other text is lexed once: its lexed form, with the
    /// public literals lifted, names the shape, and on a miss is what is
    /// parsed.
    pub fn rewrite(&self, sql: &str) -> Result<RewrittenQuery> {
        if let Some((shape, lifted)) = self.shapes.get_text(sql) {
            return self.replay(sql, shape, lifted, Duration::ZERO);
        }
        let parse_started = Instant::now();
        let tokens = Lexer::new(sql).tokenize()?;
        if tokens.iter().any(|t| matches!(t, Token::Param(_))) {
            return Err(ProxyError::UnsupportedSensitiveOperation {
                detail: "statement parameters ($i) are not accepted from the application".into(),
            });
        }
        let (key, literals) = lift_literals(tokens, |c| self.public_columns.contains(c));
        let lifted: Vec<String> = literals.iter().map(ToString::to_string).collect();
        let lexed = parse_started.elapsed();
        if let Some(shape) = self.shapes.get(&key) {
            return self.replay(sql, shape, lifted, lexed);
        }
        let statement = parse_tokens(key.clone())?;
        let parse_time = parse_started.elapsed();
        let Statement::Query(mut query) = statement else {
            return Err(ProxyError::UnsupportedSensitiveOperation {
                detail: "only SELECT statements are rewritten; use upload_table / encrypt_rows for DDL and DML"
                    .into(),
            });
        };

        let rewrite_started = Instant::now();
        let session = Arc::new(QuerySession::new());
        let rewriter = Rewriter::new(
            &self.keystore,
            &self.metas,
            &self.key_updates,
            &self.n_text,
            session.clone(),
            self.task_rng(),
        );
        // Slots the rewriter does not copy as written go back to literals,
        // and the statement is never admitted under its lexed form.
        let (admissible, lifted) = if literals.is_empty() || rewriter.lift(&query, literals.len()) {
            (true, lifted)
        } else {
            query = query.bind_params(&literals)?;
            (false, Vec::new())
        };
        let output = rewriter.rewrite_query(&query)?;
        let rewrite_time = rewrite_started.elapsed();
        let template = output.server_query.to_string();
        let (server_sql, shape) = if admissible && self.shapes.sighted(&key) {
            let shape = Arc::new(Shape::new(
                template,
                &literals,
                output.plan.clone(),
                output.tape,
            ));
            self.shapes.admit(key, sql, &lifted, &shape);
            (shape.splice(&lifted, &output.draws), Some(shape))
        } else if output.draws.is_empty() && lifted.is_empty() {
            (template, None)
        } else {
            let template = Template::new(template, lifted.len());
            (template.splice(&lifted, &output.draws), None)
        };

        Ok(RewrittenQuery {
            original_sql: sql.to_string(),
            server_sql,
            plan: output.plan,
            session,
            parse_time,
            rewrite_time,
            shape_hit: false,
            shape,
            lifted,
            draws: output.draws,
        })
    }

    /// Replays `shape` for this execution, whose lifted literals render as
    /// `lifted` and whose lexing took `parse_time` (none, when the text is
    /// the one the shape was admitted from): the draws of the query's
    /// own RNG, the handles registered in order, the slots spliced in. Like
    /// a cold rewrite's, the rewrite time ends before the text is rendered.
    fn replay(
        &self,
        sql: &str,
        shape: Arc<Shape>,
        lifted: Vec<String>,
        parse_time: Duration,
    ) -> Result<RewrittenQuery> {
        let started = Instant::now();
        let session = Arc::new(QuerySession::new());
        let mut rng = self.task_rng();
        let tape = shape.tape();
        let (keys, draws) = tape.replay(self.keystore.system(), &mut rng, &self.key_updates)?;
        tape.register_handles(&keys, &session);
        let rewrite_time = started.elapsed();
        Ok(RewrittenQuery {
            original_sql: sql.to_string(),
            server_sql: shape.splice(&lifted, &draws),
            plan: shape.plan().clone(),
            session,
            parse_time,
            rewrite_time,
            shape_hit: true,
            shape: Some(shape),
            lifted,
            draws,
        })
    }

    /// Builds the oracle the SP engine should use while executing this query.
    pub fn oracle(&self, rewritten: &RewrittenQuery) -> Arc<ProxyOracle> {
        Arc::new(ProxyOracle::with_parts(
            Arc::clone(&self.oracle_parts),
            rewritten.session.clone(),
        ))
    }

    /// Decrypts and post-processes the SP's answer, returning the plaintext result
    /// plus the time spent (the "result decryption time" of the demo breakdown).
    pub fn decrypt_result(
        &self,
        rewritten: &RewrittenQuery,
        server_result: &RecordBatch,
    ) -> Result<(RecordBatch, Duration)> {
        let started = Instant::now();
        // Empty plan = passthrough (fully insensitive query).
        if rewritten.plan.ingredients.is_empty() && rewritten.plan.outputs.is_empty() {
            return Ok((server_result.clone(), started.elapsed()));
        }
        let result =
            (self.decryptor).decrypt(&rewritten.plan, &rewritten.session, server_result)?;
        Ok((result, started.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_storage::{ColumnDef, DataType, Schema};

    fn plaintext_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("balance", DataType::Decimal { scale: 2 }),
        ]);
        let mut t = Table::new("accounts", schema);
        for i in 0..5 {
            t.insert_row(vec![
                Value::Int(i),
                Value::Decimal {
                    units: 1000 + i * 250,
                    scale: 2,
                },
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn upload_then_rewrite_and_costs() {
        let mut proxy = SdbProxy::new(KeyConfig::TEST, 5).unwrap();
        let upload = proxy
            .upload_table(&plaintext_table(), UploadOptions::default())
            .unwrap();
        assert_eq!(upload.table.num_rows(), 5);
        assert!(proxy.table_metas().contains_key("accounts"));

        let rewritten = proxy
            .rewrite("SELECT id, balance FROM accounts WHERE balance > 12.00")
            .unwrap();
        assert!(rewritten.server_sql.contains("SDB_CMP_GT"));
        assert!(rewritten.parse_time.as_nanos() > 0);
        let cost = ClientCost {
            parse: rewritten.parse_time,
            rewrite: rewritten.rewrite_time,
            decrypt: Duration::from_micros(3),
        };
        assert!(cost.total() >= cost.decrypt);
    }

    /// The stock profiles' seed: anyone holding the code regenerates the
    /// key store of a proxy built from it.
    const STOCK_SEED: u64 = 0x5db;

    /// Whether `keystore` is the one the stock seed generates: same `n`,
    /// same secret `φ(n)`.
    fn from_stock_seed(keystore: &KeyStore) -> bool {
        let mut fixture = Drbg::seed_from_u64(STOCK_SEED);
        let stock = KeyStore::generate(keystore.system().config(), &mut fixture).unwrap();
        stock.system().n() == keystore.system().n()
            || stock.system().phi() == keystore.system().phi()
    }

    /// Entropy-keyed proxies share no modulus with each other or with the
    /// stock seed's key store — and a proxy planted on the stock seed is
    /// caught by the same check.
    #[test]
    fn entropy_keyed_proxies_are_not_the_stock_seeds() {
        let a = SdbProxy::from_entropy(KeyConfig::TEST).unwrap();
        let b = SdbProxy::from_entropy(KeyConfig::TEST).unwrap();
        assert_ne!(a.keystore().system().n(), b.keystore().system().n());
        assert!(!from_stock_seed(a.keystore()));
        assert!(!from_stock_seed(b.keystore()));
        let planted = SdbProxy::new(KeyConfig::TEST, STOCK_SEED).unwrap();
        assert!(from_stock_seed(planted.keystore()));
    }

    /// Every query and INSERT draws from a fork of the proxy's generator: a
    /// seeded proxy's first task is the fork its fixture generator makes
    /// after drawing the key store, an entropy-keyed proxy's is not, and two
    /// consecutive forks differ.
    #[test]
    fn entropy_keyed_tasks_draw_from_the_drbg() {
        use rand::RngCore;
        let words = |mut rng: Drbg| -> Vec<u64> { (0..4).map(|_| rng.next_u64()).collect() };
        let mut fixture = Drbg::seed_from_u64(5);
        KeyStore::generate(KeyConfig::TEST, &mut fixture).unwrap();
        let fixture_first = words(fixture.fork());
        let seeded = SdbProxy::new(KeyConfig::TEST, 5).unwrap();
        assert_eq!(words(seeded.task_rng()), fixture_first);
        let proxy = SdbProxy::from_entropy(KeyConfig::TEST).unwrap();
        let first = words(proxy.task_rng());
        assert_ne!(first, fixture_first);
        assert_ne!(first, words(proxy.task_rng()));
    }

    /// Rewrites fill the DO's key-update memo, not the key store: its JSON
    /// and size are what they were before the first query.
    #[test]
    fn the_key_update_memo_stays_out_of_the_key_store() {
        let mut proxy = SdbProxy::new(KeyConfig::TEST, 8).unwrap();
        proxy
            .upload_table(&plaintext_table(), UploadOptions::default())
            .unwrap();
        let json = serde_json::to_string(proxy.keystore()).unwrap();
        let bytes = proxy.keystore().approx_size_bytes();
        for _ in 0..2 {
            let rewritten = proxy
                .rewrite("SELECT SUM(balance), id FROM accounts WHERE balance > 12.00 GROUP BY id")
                .unwrap();
            assert!(rewritten.server_sql.contains("SDB_KEY_UPDATE"));
        }
        let memo = format!("{:?}", proxy.key_updates);
        assert!(
            !memo.ends_with("pairs: 0 }"),
            "the rewrites used the memo: {memo}"
        );
        assert_eq!(serde_json::to_string(proxy.keystore()).unwrap(), json);
        assert_eq!(proxy.keystore().approx_size_bytes(), bytes);
    }

    /// `Debug` of the key store, its table keys and ciphers, and the proxy
    /// print shape only: no decimal run of the store's JSON (the primes,
    /// `φ(n)`, `g`, every column key's `m` and `x`) and no column key's `m⁻¹`
    /// appears in any of them.
    #[test]
    fn debug_output_prints_no_do_secret() {
        let mut proxy = SdbProxy::new(KeyConfig::TEST, 9).unwrap();
        proxy
            .upload_table(&plaintext_table(), UploadOptions::default())
            .unwrap();
        let keystore = proxy.keystore();
        let json = serde_json::to_string(keystore).unwrap();
        let mut secrets: Vec<String> = (json.split(|c: char| !c.is_ascii_digit()))
            .filter(|run| run.len() >= 12)
            .map(str::to_string)
            .collect();
        let keys = keystore.table_keys("accounts").unwrap();
        for key in keys.columns.values().chain([&keys.aux]) {
            let n = keystore.system().n();
            let inverse = sdb_crypto::bigint::mod_inverse(key.m(), n).unwrap();
            secrets.push(inverse.to_string());
        }
        // n, ρ₁, ρ₂, φ(n), g; m and x of two keys; two inverses.
        assert!(secrets.len() >= 11, "{secrets:?}");
        let ciphers = keystore.table_ciphers("accounts").unwrap();
        let rendered = [
            format!("{keystore:?}"),
            format!("{proxy:?}"),
            format!("{keys:?}"),
            format!("{ciphers:?}"),
            format!("{:?}", keystore.system()),
        ];
        for text in &rendered {
            for secret in &secrets {
                assert!(!text.contains(secret.as_str()), "{secret} in {text}");
            }
        }
        assert!(rendered[0].contains("accounts") && rendered[0].contains("balance"));
    }

    /// A key store read back from its JSON rebuilds its ciphers: an INSERT
    /// encrypted under it is byte for byte the one the original encrypts.
    #[test]
    fn a_key_store_read_back_encrypts_as_the_original() {
        let mut proxy = SdbProxy::new(KeyConfig::TEST, 10).unwrap();
        proxy
            .upload_table(&plaintext_table(), UploadOptions::default())
            .unwrap();
        let json = serde_json::to_string(proxy.keystore()).unwrap();
        let back: KeyStore = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        let meta = &proxy.table_metas()["accounts"];
        let rows: Vec<Vec<Value>> = (0..3)
            .map(|i| {
                let units = 40 - 37 * i;
                vec![Value::Int(i), Value::Decimal { units, scale: 2 }]
            })
            .collect();
        let encrypt = |keystore: &KeyStore| {
            let mut rng = Drbg::seed_from_u64(0x1357);
            Encryptor::encrypt_rows(keystore, meta, rows.clone(), &mut rng).unwrap()
        };
        assert_eq!(encrypt(&back), encrypt(proxy.keystore()));
    }

    #[test]
    fn rewrite_rejects_non_select() {
        let proxy = SdbProxy::new(KeyConfig::TEST, 6).unwrap();
        assert!(proxy.rewrite("INSERT INTO t VALUES (1)").is_err());
    }

    #[test]
    fn encrypt_rows_requires_known_table() {
        let mut proxy = SdbProxy::new(KeyConfig::TEST, 7).unwrap();
        assert!(proxy
            .encrypt_rows("ghost", vec![vec![Value::Int(1)]])
            .is_err());
        proxy
            .upload_table(&plaintext_table(), UploadOptions::default())
            .unwrap();
        let columns = proxy
            .encrypt_rows(
                "accounts",
                vec![vec![
                    Value::Int(9),
                    Value::Decimal {
                        units: 77,
                        scale: 2,
                    },
                ]],
            )
            .unwrap();
        // Physical columns: row_id, sdb_s, id, balance.
        assert_eq!(columns.len(), 4);
        assert!(columns.iter().all(|column| column.len() == 1));
        assert!(matches!(*columns[3].value(0), Value::Encrypted(_)));
    }
}
