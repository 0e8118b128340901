//! Per-layer measurements of the traced run: micro-timings of the crypto,
//! UDF and page-codec functions, the per-pass fold of the decomposed query
//! path, and the stand-alone encrypt/load split of an upload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use num_bigint::BigUint;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdb::{SdbClient, SdbConfig};
use sdb_crypto::bigint::{mod_mul, mod_pow, random_coprime, random_in_range, random_odd_with_bits};
use sdb_crypto::{
    decrypt_value, encrypt_value, gen_item_key, mod_inverse_batch, KeyUpdateParams, SystemKey,
};
use sdb_engine::trace::TraceReport;
use sdb_engine::{QueryOptions, SpEngine, UdfRegistry};
use sdb_proxy::SdbProxy;
use sdb_storage::pager::{decode_batch, encode_batch};
use sdb_storage::{RecordBatch, Table, Value};
use sdb_workload::ScaleFactor;

use crate::deploy::{generate, run_decomposed, Checker, Decomposed, RunConfig, WireBytes};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Recorder;

/// Operands drawn per micro-benchmark; calls cycle through them.
const POOL: usize = 64;
/// Operations timed as one sample.
const BLOCK: usize = 32;
/// Operations a micro-benchmark aims for …
const TARGET_OPS: usize = 10_000;
/// … unless this much time runs out first (modular exponentiation at 512
/// bits and above costs far more than a microsecond).
const BUDGET: Duration = Duration::from_millis(150);

/// Times calls of `op` in blocks: median nanoseconds per call and the
/// number of calls made. Under `--smoke` one block of two calls, enough to
/// show the function still runs.
struct MicroTimer {
    smoke: bool,
}

impl MicroTimer {
    fn per_op_ns(&self, mut op: impl FnMut(usize)) -> (f64, usize) {
        let (block_len, min_blocks, target) = if self.smoke {
            (2, 1, 2)
        } else {
            (BLOCK, 3, TARGET_OPS)
        };
        let started = Instant::now();
        let mut blocks = Vec::new();
        let mut calls = 0;
        while calls < target && (blocks.len() < min_blocks || started.elapsed() < BUDGET) {
            let block = Instant::now();
            for _ in 0..block_len {
                op(calls % POOL);
                calls += 1;
            }
            blocks.push(block.elapsed().as_nanos() as f64 / block_len as f64);
        }
        (median(&blocks), calls)
    }
}

fn set_ns(out: &mut Outcome, name: &str, (ns, calls): (f64, usize)) {
    out.set(name, ns, calls);
}

/// The layer measurements that need no query: `crypto.*` and `engine.udf_*`
/// at the deployment's modulus, the page codec on its encrypted lineitem
/// table, and the encrypt/load split of uploading `sf` once more.
pub fn standing_layers(
    client: &SdbClient,
    config: SdbConfig,
    sf: ScaleFactor,
    cfg: &RunConfig,
    out: &mut Outcome,
) {
    crypto_micro(client.proxy().keystore().system(), cfg, out);
    codec_micro(client.engine(), out);
    upload_split(config, &generate(sf).0, out);
}

/// `crypto.*`: the share arithmetic at the workload's own modulus, plus the
/// key update at the paper's 2048-bit width for reference.
pub fn crypto_micro(system: &SystemKey, cfg: &RunConfig, out: &mut Outcome) {
    let timer = MicroTimer { smoke: cfg.smoke };
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc4a9);
    let n = system.n();
    let one = BigUint::from(1u32);
    let draw = |rng: &mut StdRng, modulus: &BigUint| -> Vec<BigUint> {
        (0..POOL).map(|_| random_coprime(rng, modulus)).collect()
    };
    let a = draw(&mut rng, n);
    let b = draw(&mut rng, n);
    let exponent = random_in_range(&mut rng, &one, system.phi());
    let update = KeyUpdateParams {
        p: exponent.clone(),
        q: random_coprime(&mut rng, n),
    };

    set_ns(
        out,
        "crypto.mod_mul_ns",
        timer.per_op_ns(|i| {
            black_box(mod_mul(&a[i], &b[i], n));
        }),
    );
    set_ns(
        out,
        "crypto.mod_pow_ns",
        timer.per_op_ns(|i| {
            black_box(mod_pow(&a[i], &exponent, n));
        }),
    );
    set_ns(
        out,
        "crypto.key_update_ns",
        timer.per_op_ns(|i| {
            black_box(update.apply(n, &a[i], &b[i]));
        }),
    );
    // One call inverts the whole pool; report the cost per item.
    let (per_call, calls) = timer.per_op_ns(|_| {
        black_box(mod_inverse_batch(&a, n).expect("coprime operands invert"));
    });
    out.set(
        "crypto.inverse_batch_ns",
        per_call / POOL as f64,
        calls * POOL,
    );

    let column_key = system.gen_column_key(&mut rng);
    let row_ids: Vec<BigUint> = (0..POOL).map(|_| system.gen_row_id(&mut rng)).collect();
    let plain: Vec<BigUint> = (0..POOL)
        .map(|i| BigUint::from(1_000u32 + i as u32))
        .collect();
    set_ns(
        out,
        "crypto.encrypt_ns",
        timer.per_op_ns(|i| {
            let item_key = gen_item_key(system, &column_key, &row_ids[i]);
            black_box(encrypt_value(system, &plain[i], &item_key));
        }),
    );
    set_ns(
        out,
        "crypto.decrypt_ns",
        timer.per_op_ns(|i| {
            black_box(decrypt_value(system, &a[i], &b[i]));
        }),
    );

    let wide = random_odd_with_bits(&mut rng, 2048);
    let wide_a = draw(&mut rng, &wide);
    let wide_update = KeyUpdateParams {
        p: random_in_range(&mut rng, &one, &wide),
        q: random_coprime(&mut rng, &wide),
    };
    set_ns(
        out,
        "crypto.key_update_ns_b2048",
        timer.per_op_ns(|i| {
            black_box(wide_update.apply(&wide, &wide_a[i], &wide_a[(i + 1) % POOL]));
        }),
    );

    // `engine.udf_*`: the same arithmetic through `UdfRegistry::get(..).invoke`,
    // which parses `n` (and `p`, `q`) from decimal strings on every call.
    let registry = UdfRegistry::with_sdb_udfs();
    let n_text = Value::Str(n.to_string());
    let enc = |v: &BigUint| Value::Encrypted(v.clone());
    let binary_args: Vec<Vec<Value>> = (0..POOL)
        .map(|i| vec![enc(&a[i]), enc(&b[i]), n_text.clone()])
        .collect();
    for (metric, udf) in [
        ("engine.udf_multiply_ns", "SDB_MULTIPLY"),
        ("engine.udf_add_ns", "SDB_ADD"),
    ] {
        let udf = registry.get(udf).expect("registered UDF");
        set_ns(
            out,
            metric,
            timer.per_op_ns(|i| {
                black_box(udf.invoke(&binary_args[i]).expect("UDF call"));
            }),
        );
    }
    let update_args: Vec<Vec<Value>> = (0..POOL)
        .map(|i| {
            vec![
                enc(&a[i]),
                enc(&b[i]),
                Value::Str(update.p.to_string()),
                Value::Str(update.q.to_string()),
                n_text.clone(),
            ]
        })
        .collect();
    let key_update = registry.get("SDB_KEY_UPDATE").expect("registered UDF");
    set_ns(
        out,
        "engine.udf_key_update_ns",
        timer.per_op_ns(|i| {
            black_box(key_update.invoke(&update_args[i]).expect("UDF call"));
        }),
    );
}

/// `storage.{encode,decode}_mb_per_s`: the page codec on one batch of the
/// encrypted lineitem table.
fn codec_micro(engine: &SpEngine, out: &mut Outcome) {
    let batch: RecordBatch = engine
        .catalog()
        .table("lineitem")
        .expect("lineitem is uploaded")
        .read()
        .scan()
        .limit(1024);
    let encoded = encode_batch(&batch);
    let mb = encoded.len() as f64 / 1e6;
    let mb_per_s = |samples: &[f64]| mb / median(samples);
    let mut encode_s = Vec::new();
    let mut decode_s = Vec::new();
    for _ in 0..15 {
        let started = Instant::now();
        black_box(encode_batch(&batch));
        encode_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        black_box(decode_batch(&encoded).expect("decode what encode wrote"));
        decode_s.push(started.elapsed().as_secs_f64());
    }
    out.set(
        "storage.encode_mb_per_s",
        mb_per_s(&encode_s),
        encode_s.len(),
    );
    out.set(
        "storage.decode_mb_per_s",
        mb_per_s(&decode_s),
        decode_s.len(),
    );
}

/// `proxy.encrypt_rows_per_s`, `storage.load_rows_per_s` and the stored
/// size: `SdbProxy::upload_table` and `SpEngine::load_table` called apart,
/// on a proxy and an engine of the harness's own.
pub fn upload_split(config: SdbConfig, tables: &[Table], out: &mut Outcome) {
    let mut proxy = SdbProxy::new(config.key_config, config.seed).expect("proxy");
    let engine = SpEngine::new();
    let (mut encrypt_s, mut load_s, mut rows) = (0.0, 0.0, 0usize);
    for table in tables {
        let started = Instant::now();
        let upload = proxy
            .upload_table(table, config.upload)
            .expect("encrypt table");
        encrypt_s += started.elapsed().as_secs_f64();
        rows += table.num_rows();
        let started = Instant::now();
        engine.load_table(upload.table).expect("load table");
        load_s += started.elapsed().as_secs_f64();
    }
    out.set("proxy.encrypt_rows_per_s", rows as f64 / encrypt_s, rows);
    out.set("storage.load_rows_per_s", rows as f64 / load_s, rows);
    out.set(
        "storage.sp_bytes_per_row",
        engine.catalog().approx_size_bytes() as f64 / rows as f64,
        rows,
    );
    out.set(
        "proxy.keystore_bytes",
        proxy.keystore().approx_size_bytes() as f64,
        1,
    );
}

/// Operator families of `engine.op_self_s.*`, in `spec` order.
const FAMILIES: [&str; 8] = [
    "scan",
    "filter",
    "project",
    "join",
    "aggregate",
    "sort",
    "oracle",
    "other",
];

fn family_of(operator: &str) -> usize {
    let by_name = [
        ("Scan", 0),
        ("Filter", 1),
        ("Project", 2),
        ("Join", 3),
        ("Aggregate", 4),
        ("Sort", 5),
        ("Oracle", 6),
    ];
    by_name
        .iter()
        .find(|(part, _)| operator.contains(part))
        .map_or(7, |&(_, family)| family)
}

/// What one traced pass spent in each layer: the sum over its queries.
#[derive(Debug, Clone, Default)]
struct LayerPass {
    pub queries: usize,
    pub wall_s: f64,
    pub parse_s: f64,
    pub rewrite_s: f64,
    pub decrypt_s: f64,
    pub plan_s: f64,
    pub execute_s: f64,
    pub oracle_service_s: f64,
    pub oracle_link_s: f64,
    pub wire_s: f64,
    pub op_self_s: [f64; 8],
    pub oracle_requests: usize,
    pub oracle_rows: usize,
    pub udf_calls: usize,
    pub rows_scanned: usize,
    pub round_trips: usize,
    pub memo_hits: usize,
    pub vectorised: usize,
    pub scalar_fallback: usize,
    pub pages_spilled: usize,
    pub spill_bytes_written: usize,
    pub spill_bytes_read: usize,
    pub pages_evicted: usize,
    pub peak_resident_pages: usize,
}

impl LayerPass {
    /// Adds one decomposed query and the time `explain_sql` took to plan it.
    fn add(&mut self, d: &Decomposed, plan: Duration) {
        self.queries += 1;
        self.wall_s += d.wall.as_secs_f64();
        self.parse_s += d.parse.as_secs_f64();
        self.rewrite_s += d.rewrite.as_secs_f64();
        self.decrypt_s += d.decrypt.as_secs_f64();
        self.plan_s += plan.as_secs_f64();
        self.execute_s += d.execute.as_secs_f64();
        self.oracle_service_s += d.oracle_service.as_secs_f64();
        self.oracle_link_s += d.oracle_link.as_secs_f64();
        self.wire_s += d.wire.as_secs_f64();
        if let Some(report) = &d.op_trace {
            self.add_operators(report);
        }
        self.oracle_requests += d.oracle_requests;
        self.oracle_rows += d.oracle_rows;
        let s = &d.stats;
        self.udf_calls += s.udf_calls;
        self.rows_scanned += s.rows_scanned;
        self.round_trips += s.oracle_round_trips;
        self.memo_hits += s.oracle_memo_hits;
        self.vectorised += s.vectorised_batches;
        self.scalar_fallback += s.scalar_fallback_batches;
        self.pages_spilled += s.pages_spilled;
        self.spill_bytes_written += s.spill_bytes_written;
        self.spill_bytes_read += s.spill_bytes_read;
        self.pages_evicted += s.pages_evicted;
        self.peak_resident_pages = self.peak_resident_pages.max(s.peak_resident_pages);
    }

    fn add_operators(&mut self, report: &TraceReport) {
        for span in &report.spans {
            self.op_self_s[family_of(&span.name)] += span.exclusive_us as f64 / 1e6;
        }
    }
}

/// Share of the window the traced passes take.
const TRACED_SHARE: f64 = 0.3;

/// The traced passes of a workload. Every statement `statements(pass)` names
/// goes through the decomposed path with the engine's per-operator tracing
/// on and is checked; the layer metrics, the first pass's wire bytes and
/// `trace.unattributed_share` are emitted and the spans written to
/// `trace-<workload>.json`. Returns each pass's wall seconds.
pub fn traced_passes<'a>(
    cfg: &RunConfig,
    workload: &str,
    client: &SdbClient,
    opts: &QueryOptions,
    statements: impl Fn(usize) -> Vec<(&'a str, &'a str)>,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Vec<f64> {
    let opts = opts.clone().with_tracing(true);
    let mut recorder = Recorder::new();
    let mut passes: Vec<LayerPass> = Vec::new();
    let mut wire = Vec::new();
    cfg.timed_passes(TRACED_SHARE, |pass| {
        let mut layer_pass = LayerPass::default();
        for (label, sql) in statements(pass) {
            let result = run_decomposed(client, sql, &opts, &mut recorder, label, pass);
            checker.check(sql, result.as_ref().map(|d| &d.batch));
            if let Ok(decomposed) = result {
                let planning = Instant::now();
                client
                    .engine()
                    .explain_sql(&decomposed.server_sql)
                    .expect("explain");
                layer_pass.add(&decomposed, planning.elapsed());
            }
        }
        passes.push(layer_pass);
        wire.push(WireBytes::drain(client.wire()));
    });
    emit_layer_passes(&passes, out);
    out.set("core.wire_to_sp_bytes", wire[0].to_sp as f64, 1);
    out.set("core.wire_from_sp_bytes", wire[0].from_sp as f64, 1);
    out.set("core.wire_oracle_bytes", wire[0].oracle as f64, 1);
    out.info(
        "trace.unattributed_share".to_string(),
        "share",
        recorder.worst_unattributed_share(),
        recorder.queries.len(),
    );
    let path = recorder
        .write(workload, cfg.seed)
        .expect("write trace file");
    println!("trace written to {}", path.display());
    passes.iter().map(|p| p.wall_s).collect()
}

/// Emits the layer metrics of the traced passes: times as the median over
/// passes, counts from the first pass (they repeat exactly for a seed).
fn emit_layer_passes(passes: &[LayerPass], out: &mut Outcome) {
    let n = passes.len();
    let first = &passes[0];
    let queries = first.queries.max(1) as f64;
    let med = |f: &dyn Fn(&LayerPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());

    // Per query, in microseconds.
    out.set("sql.parse_us", med(&|p| p.parse_s) * 1e6 / queries, n);
    out.set("proxy.rewrite_us", med(&|p| p.rewrite_s) * 1e6 / queries, n);
    out.set("proxy.decrypt_us", med(&|p| p.decrypt_s) * 1e6 / queries, n);
    out.set("engine.plan_us", med(&|p| p.plan_s) * 1e6 / queries, n);
    // Per pass, in seconds.
    out.set("proxy.oracle_service_s", med(&|p| p.oracle_service_s), n);
    out.set("core.wire_link_s", med(&|p| p.wire_s + p.oracle_link_s), n);
    out.set("engine.execute_s", med(&|p| p.execute_s), n);
    out.set(
        "engine.sp_self_s",
        med(&|p| p.execute_s - p.oracle_service_s - p.oracle_link_s),
        n,
    );
    for (family, name) in FAMILIES.iter().enumerate() {
        out.set(
            &format!("engine.op_self_s.{name}"),
            med(&|p| p.op_self_s[family]),
            n,
        );
    }
    // Per pass, exact.
    let counts = [
        ("proxy.oracle_requests", first.oracle_requests),
        ("proxy.oracle_rows", first.oracle_rows),
        ("engine.udf_calls", first.udf_calls),
        ("engine.rows_scanned", first.rows_scanned),
        ("engine.oracle_round_trips", first.round_trips),
        ("engine.oracle_memo_hits", first.memo_hits),
        ("storage.pages_spilled", first.pages_spilled),
        ("storage.spill_bytes_written", first.spill_bytes_written),
        ("storage.spill_bytes_read", first.spill_bytes_read),
        ("storage.pages_evicted", first.pages_evicted),
        ("storage.peak_resident_pages", first.peak_resident_pages),
    ];
    for (name, count) in counts {
        out.set(name, count as f64, 1);
    }
    let kernel_batches = first.vectorised + first.scalar_fallback;
    if kernel_batches > 0 {
        out.set(
            "engine.kernel_hit_share",
            first.vectorised as f64 / kernel_batches as f64,
            kernel_batches,
        );
    }
}
