//! `upload`: the write side. Each pass builds a fresh `SdbClient`, stages
//! the eight tables, encrypts and uploads them, then sends single-row
//! INSERTs to the uploaded `orders` table; the plaintext engine loads the
//! same tables. The same crypto and storage layers as the read workloads,
//! doing encryption and append instead of multiply and scan.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdb::{SdbClient, SdbConfig};
use sdb_storage::Table;

use crate::deploy::{
    calibrated_sum, client_config, generate, plaintext_engine, repeat_setup, rows_of, serial,
    stored_bytes_per_plain_byte, Checker, RunConfig, WireBytes,
};
use crate::layers;
use crate::report::{Outcome, TimedSamples};
use crate::stats::median;
use crate::yardstick::{Clock, Interval};

const SCALE: f64 = 0.25;
const INSERTS: usize = 500;
/// INSERT latencies are read in windows of this many. An INSERT takes a
/// quarter of a millisecond, so a hiccup of the host that lasts a few
/// milliseconds slows dozens in a row: it would set the 99th percentile of
/// a whole pass's INSERTs in about every second pass, but sets it in only a
/// fifth of the windows, and the median over windows leaves it out.
const INSERT_WINDOW: usize = 100;

/// After a pass's upload and INSERTs, these must read back what the
/// plaintext engine holds after the same INSERTs.
const READ_BACK: [&str; 2] = [
    "SELECT COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders",
    "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS total FROM lineitem",
];

/// The generated tables (both sensitivity profiles), the INSERT statements
/// and the read-back references.
struct Inputs {
    sensitive: Vec<Table>,
    public: Vec<Table>,
    inserts: Vec<String>,
    rows: usize,
    checker: Checker,
    generate_s: f64,
}

fn prepare(cfg: &RunConfig) -> Inputs {
    let (sensitive, public, generate_s) = generate(cfg.scale(SCALE));
    let (orders, customers) = (rows_of(&public, "orders"), rows_of(&public, "customer"));

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1257);
    let count = if cfg.smoke { 10 } else { INSERTS };
    let inserts: Vec<String> = (0..count as i64)
        .map(|i| {
            format!(
                "INSERT INTO orders VALUES ({}, {}, 'O', {}.{:02}, DATE '{}-{:02}-{:02}', '3-MEDIUM', 0)",
                orders + 1 + i,
                rng.gen_range(1..=customers),
                rng.gen_range(1_000..500_000),
                rng.gen_range(0..100),
                rng.gen_range(1992..=1998),
                rng.gen_range(1..=12),
                rng.gen_range(1..=28),
            )
        })
        .collect();

    // Reference: the plaintext engine after the same INSERTs.
    let reference = plaintext_engine(public.clone());
    for sql in &inserts {
        reference.execute_sql(sql).expect("plaintext INSERT");
    }
    let mut checker = Checker::default();
    for sql in READ_BACK {
        checker.learn(&reference, sql);
    }
    Inputs {
        rows: public.iter().map(Table::num_rows).sum(),
        sensitive,
        public,
        inserts,
        checker,
        generate_s,
    }
}

/// What one pass measured.
struct Pass {
    /// Staging, then one interval per uploaded table.
    upload: Vec<Interval>,
    plain_load: Interval,
    /// Seconds inside the proxy's encryptor: on the wall clock, and
    /// calibrated.
    encrypt_wall_s: f64,
    encrypt_s: f64,
    wire: WireBytes,
    /// Wall seconds of each INSERT, and the interval around all of them.
    insert_s: Vec<f64>,
    inserts: Interval,
    stored_bytes_per_plain_byte: f64,
}

fn pass(config: SdbConfig, inputs: &mut Inputs, clock: &mut Clock) -> Pass {
    let staged = inputs.sensitive.clone();
    let names: Vec<String> = staged.iter().map(|t| t.name().to_string()).collect();
    let public = inputs.public.clone();

    // SDB: fresh client → stage × 8 → encrypt and upload each table (each
    // its own interval, so the host is read between tables).
    let (mut client, staging) = clock.time(|| {
        let mut client = SdbClient::new(config).expect("client");
        for table in staged {
            client.stage_table(table).expect("stage table");
        }
        client
    });
    let mut upload = vec![staging];
    let (mut encrypt_wall_s, mut encrypt_s) = (0.0, 0.0);
    let mut uploads = Vec::with_capacity(names.len());
    for name in &names {
        let (uploaded, interval) = clock.time(|| client.upload(name));
        let encrypting = uploaded
            .as_ref()
            .map_or(0.0, |stats| stats.duration.as_secs_f64());
        encrypt_wall_s += encrypting;
        encrypt_s += encrypting * interval.speed;
        upload.push(interval);
        uploads.push(uploaded);
    }
    let wire = WireBytes::drain(client.wire());

    // Plaintext: fresh engine → load × 8.
    let (plain, plain_load) = clock.time(|| plaintext_engine(public));
    let stored_bytes_per_plain_byte = stored_bytes_per_plain_byte(&client, &plain);

    // Single-row INSERTs into the uploaded table.
    let mut insert_s = Vec::with_capacity(inputs.inserts.len());
    let (inserted, inserts) = clock.time(|| {
        let mut inserted = Vec::with_capacity(inputs.inserts.len());
        for sql in &inputs.inserts {
            let started = Instant::now();
            inserted.push(client.execute(sql));
            insert_s.push(started.elapsed().as_secs_f64());
        }
        inserted
    });

    for (name, uploaded) in names.iter().zip(&uploads) {
        inputs.checker.check_ok(name, uploaded);
    }
    for (sql, result) in inputs.inserts.iter().zip(&inserted) {
        inputs.checker.check_ok(sql, result);
    }
    for sql in READ_BACK {
        let result = client.query_with(sql, &serial());
        inputs.checker.check(sql, result.as_ref().map(|r| &r.batch));
    }
    Pass {
        upload,
        plain_load,
        encrypt_wall_s,
        encrypt_s,
        wire,
        insert_s,
        inserts,
        stored_bytes_per_plain_byte,
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut clock = Clock::new(2);
    let mut out = Outcome::default();
    let config = client_config(SdbConfig::test_profile());
    // Set-up ends with the warm-up pass.
    let reps = if cfg.trace { 1 } else { cfg.setup_reps() };
    let (mut inputs, setup_s) = repeat_setup(reps, || {
        let (mut inputs, prepared) = clock.time(|| prepare(cfg));
        let warm_up = pass(config, &mut inputs, &mut clock);
        let s = prepared.calibrated_s()
            + calibrated_sum(&warm_up.upload)
            + warm_up.plain_load.calibrated_s()
            + warm_up.inserts.calibrated_s();
        (inputs, s)
    });
    let mut passes = Vec::new();
    cfg.timed_passes(if cfg.trace { 0.5 } else { 1.0 }, |_| {
        passes.push(pass(config, &mut inputs, &mut clock))
    });

    // Rates and the traced run's ratios are in wall seconds.
    let upload_s: Vec<f64> = passes
        .iter()
        .map(|p| p.upload.iter().map(|i| i.wall_s).sum())
        .collect();
    let insert_s: Vec<f64> = passes.iter().flat_map(|p| p.insert_s.clone()).collect();
    let upload_rows_per_s = inputs.rows as f64 / median(&upload_s);
    let insert_rows_per_s = insert_s.len() as f64 / insert_s.iter().sum::<f64>();
    if cfg.trace {
        let plain_s: Vec<f64> = passes.iter().map(|p| p.plain_load.wall_s).collect();
        let encrypt_s: Vec<f64> = passes.iter().map(|p| p.encrypt_wall_s).collect();
        out.set("host.speed", median(&clock.readings), clock.readings.len());
        out.set("workload.generate_s", inputs.generate_s, 1);
        layers::upload_split(config, &inputs.sensitive, &mut out);
        let proxy = sdb_proxy::SdbProxy::new(config.key_config, config.seed).expect("proxy");
        layers::crypto_micro(proxy.keystore().system(), cfg, &mut out);
        out.set("core.wire_to_sp_bytes", passes[0].wire.upload as f64, 1);
        out.set("rate.upload_rows_per_s", upload_rows_per_s, upload_s.len());
        out.set("rate.insert_rows_per_s", insert_rows_per_s, insert_s.len());
        out.set(
            "ratio.sdb_over_plain",
            median(&upload_s) / median(&plain_s),
            upload_s.len(),
        );
        out.set(
            "ratio.do_share",
            median(&encrypt_s) / median(&upload_s),
            upload_s.len(),
        );
    } else {
        let samples = TimedSamples {
            setup_s,
            sdb_pass_s: passes.iter().map(|p| calibrated_sum(&p.upload)).collect(),
            sdb_wall_s: upload_s.clone(),
            plain_pass_s: passes.iter().map(|p| p.plain_load.calibrated_s()).collect(),
            do_pass_s: passes.iter().map(|p| p.encrypt_s).collect(),
            wire_bytes: passes.iter().map(|p| p.wire.total() as f64).collect(),
            latency_ms: passes
                .iter()
                .flat_map(|p| {
                    let to_ms = p.inserts.speed * 1e3;
                    p.insert_s
                        .chunks(INSERT_WINDOW)
                        .map(move |window| window.iter().map(|s| s * to_ms).collect())
                })
                .collect(),
            stored_bytes_per_plain_byte: passes[0].stored_bytes_per_plain_byte,
        };
        samples.emit(&clock, &mut out);
        out.info(
            "rate.upload_rows_per_s".to_string(),
            "rows/s",
            upload_rows_per_s,
            upload_s.len(),
        );
        out.info(
            "rate.insert_rows_per_s".to_string(),
            "rows/s",
            insert_rows_per_s,
            insert_s.len(),
        );
    }
    out.tally(&inputs.checker);
    out
}
