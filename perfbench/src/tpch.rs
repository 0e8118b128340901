//! The three analytic workloads: a fixed list of TPC-H-derived queries run
//! pass after pass through SDB and, interleaved, through the plaintext
//! engine on the same data.

use std::time::Instant;

use sdb::SdbConfig;
use sdb_engine::QueryOptions;
use sdb_workload::query_by_id;

use crate::deploy::{
    bounded_budget, calibrated_sum, client_config, do_seconds, repeat_setup, serial,
    stored_bytes_per_plain_byte, Checker, Deployment, RunConfig, WireBytes,
};
use crate::layers;
use crate::report::{Outcome, TimedSamples};
use crate::stats::median;
use crate::yardstick::{Clock, Interval};

/// Full public sort of the widest table: the external sort's own query.
const SPILL_SORT: &str = "SELECT l_orderkey, l_partkey, l_suppkey, l_shipdate, l_shipmode \
                          FROM lineitem ORDER BY l_shipdate, l_orderkey";

/// One analytic workload.
pub struct TpchWorkload {
    pub name: &'static str,
    config: SdbConfig,
    /// Scale factor (1.0 ≈ 6 000 lineitem rows).
    scale: f64,
    /// `(label, sql)` in pass order.
    queries: Vec<(String, String)>,
    /// Per-query memory budget in bytes; `None` is unlimited.
    budget: Option<usize>,
}

fn templates(ids: &[u8]) -> Vec<(String, String)> {
    ids.iter()
        .map(|&id| {
            let template = query_by_id(id).expect("TPC-H template");
            (format!("Q{id}"), template.sql.to_string())
        })
        .collect()
}

impl TpchWorkload {
    /// The workload called `name`, if it is one of the three.
    pub fn named(name: &str) -> Option<TpchWorkload> {
        match name {
            // Balanced (512-bit) profile so limb-count effects are visible;
            // share arithmetic and the oracle do nearly all the work.
            "tpch_crypto" => Some(TpchWorkload {
                name: "tpch_crypto",
                config: SdbConfig::balanced_profile(),
                scale: 0.03,
                queries: templates(&[1, 6, 18, 22]),
                budget: None,
            }),
            // Relational work dominates: scan, hash join, aggregate, sort.
            "tpch_join" => Some(TpchWorkload {
                name: "tpch_join",
                config: SdbConfig::test_profile(),
                scale: 1.0,
                queries: templates(&[3, 4, 5, 10, 12, 13, 14, 21]),
                budget: None,
            }),
            // The same operators under a 64 KiB budget: Grace join, external
            // sort, spilling aggregate, pager and page codec.
            "tpch_spill" => {
                let mut queries = templates(&[3, 5, 7, 13, 21]);
                queries.push(("sort".to_string(), SPILL_SORT.to_string()));
                Some(TpchWorkload {
                    name: "tpch_spill",
                    config: SdbConfig::test_profile(),
                    scale: 1.0,
                    queries,
                    budget: Some(64 << 10),
                })
            }
            _ => None,
        }
    }

    fn options(&self) -> QueryOptions {
        match self.budget {
            Some(bytes) => serial().with_memory_budget(bounded_budget(bytes)),
            None => serial(),
        }
    }

    fn deploy(&self, cfg: &RunConfig) -> (Deployment, Checker) {
        let deployment = Deployment::build(client_config(self.config), cfg.scale(self.scale));
        let mut checker = Checker::default();
        for (_, sql) in &self.queries {
            checker.learn(&deployment.plain, sql);
        }
        (deployment, checker)
    }

    pub fn run(&self, cfg: &RunConfig) -> Outcome {
        if cfg.trace {
            self.run_traced(cfg)
        } else {
            self.run_timed(cfg)
        }
    }

    /// One pass of the list through `SdbClient::query_with`: the interval
    /// and the DO-side wall seconds of each query, and the pass's wire
    /// bytes. Answers are checked after the clock stops.
    fn sdb_pass(
        &self,
        deployment: &Deployment,
        opts: &QueryOptions,
        clock: &mut Clock,
        checker: &mut Checker,
    ) -> (Vec<Interval>, Vec<f64>, WireBytes) {
        let mut intervals = Vec::with_capacity(self.queries.len());
        let mut results = Vec::with_capacity(self.queries.len());
        for (_, sql) in &self.queries {
            let (result, interval) = clock.time(|| deployment.client.query_with(sql, opts));
            results.push(result);
            intervals.push(interval);
        }
        let wire = WireBytes::drain(deployment.client.wire());
        let mut do_s = Vec::with_capacity(self.queries.len());
        for ((_, sql), result) in self.queries.iter().zip(&results) {
            checker.check(sql, result.as_ref().map(|r| &r.batch));
            do_s.push(result.as_ref().map_or(0.0, do_seconds));
        }
        (intervals, do_s, wire)
    }

    /// One pass of the list on the plaintext engine, as one interval (the
    /// queries take a millisecond or less on the small scale factors, and
    /// the yardstick's kernels between them would leave each a cold cache):
    /// each query's wall seconds, and the interval around all of them.
    fn plain_pass(
        &self,
        deployment: &Deployment,
        opts: &QueryOptions,
        clock: &mut Clock,
    ) -> (Vec<f64>, Interval) {
        clock.time(|| {
            self.queries
                .iter()
                .map(|(_, sql)| {
                    let started = Instant::now();
                    let result = deployment.plain.execute_sql_with(sql, opts);
                    let wall_s = started.elapsed().as_secs_f64();
                    result.expect("plaintext query");
                    wall_s
                })
                .collect()
        })
    }

    fn run_timed(&self, cfg: &RunConfig) -> Outcome {
        let mut clock = Clock::new(1);
        let opts = self.options();
        // Set-up ends with the warm-up pass (its answers are checked
        // like any other).
        let ((deployment, mut checker), setup_s) = repeat_setup(cfg.setup_reps(), || {
            let ((deployment, mut checker), deploy) = clock.time(|| self.deploy(cfg));
            let (sdb, _, _) = self.sdb_pass(&deployment, &opts, &mut clock, &mut checker);
            let (_, plain) = self.plain_pass(&deployment, &opts, &mut clock);
            let s = deploy.calibrated_s() + calibrated_sum(&sdb) + plain.calibrated_s();
            ((deployment, checker), s)
        });
        let mut samples = TimedSamples {
            setup_s,
            stored_bytes_per_plain_byte: stored_bytes_per_plain_byte(
                &deployment.client,
                &deployment.plain,
            ),
            ..TimedSamples::default()
        };
        let mut per_query = PerQuery::new(self.queries.len());

        cfg.timed_passes(1.0, |_| {
            let (sdb, do_s, wire) = self.sdb_pass(&deployment, &opts, &mut clock, &mut checker);
            let (plain_wall_s, plain) = self.plain_pass(&deployment, &opts, &mut clock);
            let sdb_s: Vec<f64> = sdb.iter().map(Interval::calibrated_s).collect();
            let plain_s: Vec<f64> = plain_wall_s.iter().map(|s| s * plain.speed).collect();
            samples.sdb_pass_s.push(sdb_s.iter().sum());
            samples.sdb_wall_s.push(sdb.iter().map(|i| i.wall_s).sum());
            samples.plain_pass_s.push(plain.calibrated_s());
            samples
                .do_pass_s
                .push(sdb.iter().zip(&do_s).map(|(i, d)| d * i.speed).sum());
            samples.wire_bytes.push(wire.total() as f64);
            samples
                .latency_ms
                .push(sdb_s.iter().map(|s| s * 1e3).collect());
            per_query.push(&sdb_s, &plain_s);
        });

        let mut out = Outcome::default();
        samples.emit(&clock, &mut out);
        per_query.emit(&self.queries, &mut out);
        out.tally(&checker);
        out
    }

    fn run_traced(&self, cfg: &RunConfig) -> Outcome {
        let mut out = Outcome::default();
        let (deployment, mut checker) = self.deploy(cfg);
        let client = &deployment.client;
        let opts = self.options();
        out.set("workload.generate_s", deployment.generate_s, 1);

        layers::standing_layers(
            client,
            client_config(self.config),
            cfg.scale(self.scale),
            cfg,
            &mut out,
        );

        // Warm-up, then untraced passes: the base of `trace.overhead_share`
        // and of the two headline ratios.
        let mut clock = Clock::new(1);
        self.sdb_pass(&deployment, &opts, &mut clock, &mut checker);
        self.plain_pass(&deployment, &opts, &mut clock);
        let (mut untraced_s, mut plain_s, mut do_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut per_query = PerQuery::new(self.queries.len());
        let wall =
            |intervals: &[Interval]| -> Vec<f64> { intervals.iter().map(|i| i.wall_s).collect() };
        cfg.timed_passes(0.3, |_| {
            let (sdb, pass_do_s, _) = self.sdb_pass(&deployment, &opts, &mut clock, &mut checker);
            let (sdb, plain) = (
                wall(&sdb),
                self.plain_pass(&deployment, &opts, &mut clock).0,
            );
            untraced_s.push(sdb.iter().sum::<f64>());
            plain_s.push(plain.iter().sum::<f64>());
            do_s.push(pass_do_s.iter().sum::<f64>());
            per_query.push(&sdb, &plain);
        });

        let statements: Vec<(&str, &str)> = self
            .queries
            .iter()
            .map(|(label, sql)| (label.as_str(), sql.as_str()))
            .collect();
        let traced_s = layers::traced_passes(
            cfg,
            self.name,
            client,
            &opts,
            |_| statements.clone(),
            &mut checker,
            &mut out,
        );

        // One pass with two workers per query, for the parallel speed-up.
        let parallel = opts.clone().with_parallelism(2);
        let (parallel_pass, _, _) = self.sdb_pass(&deployment, &parallel, &mut clock, &mut checker);
        let parallel_s = wall(&parallel_pass);

        let untraced = median(&untraced_s);
        out.set(
            "ratio.sdb_over_plain",
            untraced / median(&plain_s),
            untraced_s.len(),
        );
        out.set("ratio.do_share", median(&do_s) / untraced, untraced_s.len());
        out.set(
            "trace.overhead_share",
            median(&traced_s) / untraced - 1.0,
            traced_s.len(),
        );
        out.set(
            "engine.parallel2_speedup",
            untraced / parallel_s.iter().sum::<f64>(),
            1,
        );
        out.set(
            "rate.qps",
            self.queries.len() as f64 / untraced,
            untraced_s.len(),
        );
        out.set("host.speed", median(&clock.readings), clock.readings.len());
        per_query.emit(&self.queries, &mut out);
        out.tally(&checker);
        out
    }
}

/// Per-query seconds through SDB and on plaintext, one entry per pass.
struct PerQuery {
    sdb: Vec<Vec<f64>>,
    plain: Vec<Vec<f64>>,
}

impl PerQuery {
    fn new(queries: usize) -> Self {
        PerQuery {
            sdb: vec![Vec::new(); queries],
            plain: vec![Vec::new(); queries],
        }
    }

    fn push(&mut self, sdb: &[f64], plain: &[f64]) {
        for (i, (s, p)) in sdb.iter().zip(plain).enumerate() {
            self.sdb[i].push(*s);
            self.plain[i].push(*p);
        }
    }

    /// `q.<label>.sdb_ms` and `q.<label>.plain_ms`.
    fn emit(&self, queries: &[(String, String)], out: &mut Outcome) {
        for (i, (label, _)) in queries.iter().enumerate() {
            let n = self.sdb[i].len();
            out.info(
                format!("q.{label}.sdb_ms"),
                "ms",
                median(&self.sdb[i]) * 1e3,
                n,
            );
            out.info(
                format!("q.{label}.plain_ms"),
                "ms",
                median(&self.plain[i]) * 1e3,
                n,
            );
        }
    }
}
