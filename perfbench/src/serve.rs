//! `serve_mixed`: two closed-loop sessions push a seeded mix of point
//! lookups, small aggregates, an oracle compare and a full public sort
//! through one `SdbServer` (shared buffer pool, admission control, metrics
//! registry). Per-query fixed costs and shared-pool contention dominate;
//! crypto is minor.

use std::sync::Barrier;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdb::SdbConfig;
use sdb_engine::SpEngine;
use sdb_server::{AdmissionMode, SdbServer, ServerConfig};
use sdb_storage::RecordBatch;

use crate::deploy::{
    bounded_budget, client_config, do_seconds, generate, plaintext_engine, repeat_setup, rows_of,
    serial, stored_bytes_per_plain_byte, Checker, RunConfig, WireBytes,
};
use crate::layers;
use crate::report::{Outcome, TimedSamples};
use crate::stats::{median, percentile};
use crate::yardstick::Clock;

const SCALE: f64 = 0.5;
const SESSIONS: usize = 2;
/// Global budget of the shared pool; each of the two admission slots gets
/// half of it.
const GLOBAL_BUDGET: usize = 256 << 10;
/// Requests per session, walked in chunks of one pass and then repeated.
const REQUESTS_PER_SESSION: usize = 3000;
/// Requests per session in one pass.
const CHUNK: usize = 100;

/// Request classes with their count in every block of twenty requests:
/// 70 % point, 20 % agg, 5 % secure, 5 % sort. Blocks are shuffled, so
/// every pass carries exactly the same mix and only keys and order vary.
/// Within `point`, 4 customer, 8 orders and 2 lineitem lookups: by cost
/// (customer < orders < `SUM` agg < lineitem) that puts the median request
/// inside the orders lookups and the 99th percentile inside `secure`,
/// neither on a boundary between two kinds of request.
const CLASSES: [&str; 4] = ["point", "agg", "secure", "sort"];
const BLOCK: usize = 20;

struct Request {
    class: usize,
    sql: String,
}

/// One block of twenty requests with seeded keys, shuffled.
fn block(rng: &mut StdRng, orders: i64, customers: i64) -> Vec<Request> {
    let mut requests = Vec::with_capacity(BLOCK);
    let mut push = |class: usize, sql: String| requests.push(Request { class, sql });
    for _ in 0..8 {
        let key = rng.gen_range(1..=orders);
        push(
            0,
            format!(
                "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = {key}"
            ),
        );
    }
    for _ in 0..4 {
        let key = rng.gen_range(1..=customers);
        push(
            0,
            format!("SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = {key}"),
        );
    }
    for _ in 0..2 {
        let key = rng.gen_range(1..=orders);
        push(
            0,
            format!(
                "SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem \
                 WHERE l_orderkey = {key} ORDER BY l_linenumber"
            ),
        );
    }
    for _ in 0..3 {
        let key = rng.gen_range(1..=customers);
        push(
            1,
            format!("SELECT SUM(o_totalprice) AS total FROM orders WHERE o_custkey = {key}"),
        );
    }
    let year = rng.gen_range(1993..=1997);
    push(
        1,
        format!(
            "SELECT l.l_shipmode, COUNT(*) AS line_count FROM orders o \
             JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
             WHERE l.l_shipmode IN ('MAIL', 'SHIP') \
             AND l.l_receiptdate >= DATE '{year}-01-01' AND l.l_receiptdate < DATE '{}-01-01' \
             GROUP BY l.l_shipmode ORDER BY l.l_shipmode",
            year + 1
        ),
    );
    let threshold = rng.gen_range(0..10) * 1000;
    push(
        2,
        format!(
            "SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal > {threshold}.00 \
             ORDER BY c_custkey LIMIT 10"
        ),
    );
    push(
        3,
        "SELECT o_orderkey, o_custkey, o_orderdate, o_orderpriority FROM orders \
         ORDER BY o_orderdate, o_orderkey"
            .to_string(),
    );
    // Fisher–Yates.
    for i in (1..requests.len()).rev() {
        requests.swap(i, rng.gen_range(0..=i));
    }
    requests
}

/// The server, its plaintext twin, and each session's request list.
struct Serving {
    server: SdbServer,
    plain: SpEngine,
    sessions: [u64; SESSIONS],
    lists: [Vec<Request>; SESSIONS],
    generate_s: f64,
}

fn deploy(cfg: &RunConfig) -> (Serving, Checker) {
    let (sensitive, public, generate_s) = generate(cfg.scale(SCALE));
    let (orders, customers) = (rows_of(&public, "orders"), rows_of(&public, "customer"));

    let mut config = ServerConfig::test_profile()
        .with_global_budget(bounded_budget(GLOBAL_BUDGET))
        .with_max_concurrent(SESSIONS)
        .with_admission_mode(AdmissionMode::Queue)
        .with_parallelism(1)
        .with_tracing(false)
        .with_metrics(true);
    config.client = client_config(SdbConfig::test_profile());
    let mut server = SdbServer::new(config).expect("server");
    for table in sensitive {
        server.stage_table(table).expect("stage table");
    }
    server.upload_all().expect("upload");
    server.wire().clear();
    let plain = plaintext_engine(public);

    let per_session = if cfg.smoke {
        2 * BLOCK
    } else {
        REQUESTS_PER_SESSION
    };
    let mut checker = Checker::default();
    let lists = [1u64, 2].map(|session| {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (session * 0x9e37_79b9));
        let list: Vec<Request> = (0..per_session / BLOCK)
            .flat_map(|_| block(&mut rng, orders, customers))
            .collect();
        for request in &list {
            checker.learn(&plain, &request.sql);
        }
        list
    });
    let sessions = [server.connect(), server.connect()];
    let serving = Serving {
        server,
        plain,
        sessions,
        lists,
        generate_s,
    };
    (serving, checker)
}

impl Serving {
    fn chunk_len(&self) -> usize {
        CHUNK.min(self.lists[0].len())
    }

    /// The requests both sessions send in pass `pass`.
    fn chunk(&self, pass: usize) -> [&[Request]; SESSIONS] {
        let len = self.chunk_len();
        let chunks = self.lists[0].len() / len;
        let at = (pass % chunks) * len;
        [&self.lists[0][at..at + len], &self.lists[1][at..at + len]]
    }
}

/// What one request came back with.
struct Served {
    latency_s: f64,
    do_s: f64,
    batch: Result<RecordBatch, String>,
}

fn timed<E: std::fmt::Display>(run: impl FnOnce() -> Result<(RecordBatch, f64), E>) -> Served {
    let started = Instant::now();
    let result = run();
    let latency_s = started.elapsed().as_secs_f64();
    match result {
        Ok((batch, do_s)) => Served {
            latency_s,
            do_s,
            batch: Ok(batch),
        },
        Err(e) => Served {
            latency_s,
            do_s: 0.0,
            batch: Err(e.to_string()),
        },
    }
}

/// One closed-loop pass: each session's thread sends its chunk, waiting for
/// every reply. Returns the wall seconds from the common start to the last
/// reply, and what each request came back with.
fn run_chunk(
    chunk: [&[Request]; SESSIONS],
    exec: impl Fn(usize, &str) -> Served + Sync,
) -> (f64, [Vec<Served>; SESSIONS]) {
    let barrier = Barrier::new(SESSIONS);
    let (exec, barrier) = (&exec, &barrier);
    let runs = std::thread::scope(|scope| {
        let handles = [0, 1].map(|session| {
            scope.spawn(move || {
                barrier.wait();
                let started = Instant::now();
                let served: Vec<Served> = chunk[session]
                    .iter()
                    .map(|request| exec(session, &request.sql))
                    .collect();
                (started, Instant::now(), served)
            })
        });
        handles.map(|h| h.join().expect("session thread"))
    });
    let start = runs.iter().map(|r| r.0).min().expect("two sessions");
    let end = runs.iter().map(|r| r.1).max().expect("two sessions");
    ((end - start).as_secs_f64(), runs.map(|r| r.2))
}

/// Samples of the concurrent passes through the server and on plaintext.
#[derive(Default)]
struct ServeSamples {
    timed: TimedSamples,
    /// Latencies in ms per request class.
    class_ms: [Vec<f64>; 4],
    requests: usize,
}

impl Serving {
    /// Pass `pass` through the server with both sessions, then the same
    /// chunk on the plaintext engine; checks every answer. Times are scaled
    /// by the host's speed beside the pass when `clock` calibrates (the
    /// timed run), and are wall seconds otherwise (the traced run).
    fn concurrent_pass(
        &self,
        pass: usize,
        clock: &mut Clock,
        calibrated: bool,
        samples: &mut ServeSamples,
        checker: &mut Checker,
    ) {
        let chunk = self.chunk(pass);
        let ((wall, served), sdb) = clock.time(|| {
            run_chunk(chunk, |session, sql| {
                timed(|| {
                    self.server.execute(self.sessions[session], sql).map(|r| {
                        let do_s = do_seconds(&r);
                        (r.batch, do_s)
                    })
                })
            })
        });
        let wire = WireBytes::drain(self.server.wire());
        let ((plain_wall, _), plain) = clock.time(|| {
            run_chunk(chunk, |_, sql| {
                timed(|| {
                    self.plain
                        .execute_sql_with(sql, &serial())
                        .map(|o| (o.batch, 0.0))
                })
            })
        });
        let (sdb_speed, plain_speed) = if calibrated {
            (sdb.speed, plain.speed)
        } else {
            (1.0, 1.0)
        };

        let mut do_s = 0.0;
        let mut pass_ms = Vec::with_capacity(SESSIONS * chunk[0].len());
        for (requests, served) in chunk.iter().zip(&served) {
            for (request, reply) in requests.iter().zip(served) {
                do_s += reply.do_s;
                let latency_ms = reply.latency_s * sdb_speed * 1e3;
                pass_ms.push(latency_ms);
                samples.class_ms[request.class].push(latency_ms);
                checker.check(&request.sql, reply.batch.as_ref());
                samples.requests += 1;
            }
        }
        samples.timed.latency_ms.push(pass_ms);
        samples.timed.sdb_pass_s.push(wall * sdb_speed);
        samples.timed.sdb_wall_s.push(wall);
        samples.timed.plain_pass_s.push(plain_wall * plain_speed);
        samples.timed.do_pass_s.push(do_s * sdb_speed);
        samples.timed.wire_bytes.push(wire.total() as f64);
    }
}

fn emit_classes(samples: &ServeSamples, out: &mut Outcome) {
    for (class, ms) in CLASSES.iter().zip(&samples.class_ms) {
        if !ms.is_empty() {
            out.info(format!("q.{class}.sdb_ms"), "ms", median(ms), ms.len());
        }
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_timed(cfg)
    }
}

fn run_timed(cfg: &RunConfig) -> Outcome {
    let mut clock = Clock::new(SESSIONS);
    // Set-up ends with the warm-up pass: the last chunk, so timed
    // passes start at chunk 0.
    let ((serving, mut checker), setup_s) = repeat_setup(cfg.setup_reps(), || {
        let ((serving, mut checker), deploy) = clock.time(|| deploy(cfg));
        let chunks = serving.lists[0].len() / serving.chunk_len();
        let mut warm_up = ServeSamples::default();
        serving.concurrent_pass(chunks - 1, &mut clock, true, &mut warm_up, &mut checker);
        let s = deploy.calibrated_s() + warm_up.timed.sdb_pass_s[0] + warm_up.timed.plain_pass_s[0];
        ((serving, checker), s)
    });
    let mut samples = ServeSamples::default();
    samples.timed.setup_s = setup_s;
    samples.timed.stored_bytes_per_plain_byte =
        stored_bytes_per_plain_byte(serving.server.client(), &serving.plain);

    cfg.timed_passes(1.0, |pass| {
        serving.concurrent_pass(pass, &mut clock, true, &mut samples, &mut checker)
    });

    let mut out = Outcome::default();
    samples.timed.emit(&clock, &mut out);
    let wall: f64 = samples.timed.sdb_wall_s.iter().sum();
    out.info(
        "rate.qps".to_string(),
        "1/s",
        samples.requests as f64 / wall,
        samples.requests,
    );
    emit_classes(&samples, &mut out);
    out.tally(&checker);
    out
}

fn run_traced(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (serving, mut checker) = deploy(cfg);
    out.set("workload.generate_s", serving.generate_s, 1);
    layers::standing_layers(
        serving.server.client(),
        client_config(SdbConfig::test_profile()),
        cfg.scale(SCALE),
        cfg,
        &mut out,
    );

    // Concurrent passes, untraced: the rates and ratios, and the samples
    // the server's own registry must agree with.
    let chunks = serving.lists[0].len() / serving.chunk_len();
    let mut clock = Clock::new(SESSIONS);
    let mut warm_up = ServeSamples::default();
    serving.concurrent_pass(chunks - 1, &mut clock, false, &mut warm_up, &mut checker);
    let mut samples = ServeSamples::default();
    cfg.timed_passes(0.3, |pass| {
        serving.concurrent_pass(pass, &mut clock, false, &mut samples, &mut checker)
    });
    out.set("host.speed", median(&clock.readings), clock.readings.len());
    let wall: f64 = samples.timed.sdb_pass_s.iter().sum();
    let passes = samples.timed.sdb_pass_s.len();
    let sdb_pass = median(&samples.timed.sdb_pass_s);
    out.set("rate.qps", samples.requests as f64 / wall, samples.requests);
    out.set(
        "ratio.sdb_over_plain",
        sdb_pass / median(&samples.timed.plain_pass_s),
        passes,
    );
    out.set(
        "ratio.do_share",
        median(&samples.timed.do_pass_s) / (sdb_pass * SESSIONS as f64),
        passes,
    );
    emit_classes(&samples, &mut out);

    let snapshot = serving.server.metrics_snapshot();
    // Pooled over all passes, as the registry pools them.
    let pooled_ms: Vec<f64> = samples.timed.latency_ms.concat();
    let harness_p50_us = median(&pooled_ms) * 1e3;
    let harness_p99_us = percentile(&pooled_ms, 99.0) * 1e3;
    out.set(
        "server.registry_p50_us",
        snapshot.query_latency.p50 as f64,
        snapshot.query_latency.count as usize,
    );
    out.set(
        "server.registry_p99_us",
        snapshot.query_latency.p99 as f64,
        snapshot.query_latency.count as usize,
    );
    out.set(
        "server.admission_wait_us_p99",
        snapshot.admission_wait.p99 as f64,
        snapshot.admission_wait.count as usize,
    );
    out.set(
        "server.admissions_queued",
        snapshot.admissions_queued as f64,
        1,
    );
    out.set(
        "server.pool_spill_pages",
        snapshot.pool_spill_pages as f64,
        1,
    );
    out.set("server.pool_evictions", snapshot.pool_evictions as f64, 1);
    out.info(
        "serve.harness_p50_us".to_string(),
        "us",
        harness_p50_us,
        samples.requests,
    );
    out.info(
        "serve.harness_p99_us".to_string(),
        "us",
        harness_p99_us,
        samples.requests,
    );
    // The registry resolves a percentile to its log2 bucket's upper bound:
    // it may read up to twice the harness's value, never below it by more
    // than the samples the harness did not see (the warm-up chunk).
    let brackets = |registry: u64, harness: f64| {
        let ratio = registry as f64 / harness;
        (0.5..=2.0).contains(&ratio)
    };
    let agree = brackets(snapshot.query_latency.p50, harness_p50_us)
        && brackets(snapshot.query_latency.p99, harness_p99_us);
    out.info(
        "server.registry_brackets_harness".to_string(),
        "bool",
        f64::from(u8::from(agree)),
        1,
    );

    // One session, serial: the same statement through `SdbServer::execute`
    // and through `SdbClient::query_with` under the same budget share.
    let share = serial().with_memory_budget(bounded_budget(GLOBAL_BUDGET / SESSIONS));
    let mut overhead_us = Vec::new();
    let mut untraced_serial_s = Vec::new();
    cfg.timed_passes(0.2, |pass| {
        let mut pass_s = 0.0;
        for request in serving.chunk(pass)[0] {
            let through_server = timed(|| {
                serving
                    .server
                    .execute(serving.sessions[0], &request.sql)
                    .map(|r| (r.batch, 0.0))
            });
            let direct = timed(|| {
                serving
                    .server
                    .client()
                    .query_with(&request.sql, &share)
                    .map(|r| (r.batch, 0.0))
            });
            overhead_us.push((through_server.latency_s - direct.latency_s) * 1e6);
            pass_s += direct.latency_s;
        }
        untraced_serial_s.push(pass_s);
        serving.server.wire().clear();
    });
    out.set(
        "server.overhead_us",
        median(&overhead_us),
        overhead_us.len(),
    );

    // Session 1's chunks through the decomposed path, per-operator tracing
    // on. Passes walk different chunks, so the tracing overhead compares
    // like with like: chunk 0.
    let traced_s = layers::traced_passes(
        cfg,
        "serve_mixed",
        serving.server.client(),
        &share,
        |pass| {
            serving.chunk(pass)[0]
                .iter()
                .map(|request| (CLASSES[request.class], request.sql.as_str()))
                .collect()
        },
        &mut checker,
        &mut out,
    );
    out.set(
        "trace.overhead_share",
        traced_s[0] / untraced_serial_s[0] - 1.0,
        1,
    );
    out.tally(&checker);
    out
}
