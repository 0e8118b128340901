//! What a workload hands back, and how it is printed: one line per metric
//! (name, value, unit, sample count) and the closing JSON object the
//! benchmark contract asks for.

use std::fmt::Write as _;

use crate::deploy::Checker;
use crate::spec::{self, MetricSpec};
use crate::stats::{median, peak_rss_mb, percentile};
use crate::yardstick::Clock;

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Values of the contract's metrics (`spec::END_TO_END` or
    /// `spec::PER_LAYER`), by name.
    pub metrics: Vec<Measured>,
    /// Informational extras (`q.<label>.sdb_ms`, …): printed, never gated.
    pub info: Vec<Measured>,
}

impl Outcome {
    /// Records a contract metric; the name must be one `spec` lists.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let spec = spec::find(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        self.metrics.push(Measured {
            name: name.to_string(),
            unit: spec.unit,
            value,
            n,
        });
    }

    pub fn info(&mut self, name: String, unit: &'static str, value: f64, n: usize) {
        self.info.push(Measured {
            name,
            unit,
            value,
            n,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn tally(&mut self, checker: &Checker) {
        self.attempted += checker.attempted;
        self.failed += checker.failed;
    }

    /// Human-readable report: every metric of `specs` by name with its unit
    /// and sample count, then the informational extras.
    pub fn print(&self, workload: &str, specs: &[MetricSpec]) {
        println!(
            "workload {workload}: attempted {} failed {} failed_share {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for spec in specs {
            let (value, n) = self.get(spec.name).map_or((0.0, 0), |m| (m.value, m.n));
            println!("  {:<34} {:>16.6} {:<9} n={n}", spec.name, value, spec.unit);
        }
        for m in &self.info {
            println!("  {:<34} {:>16.6} {:<9} n={}", m.name, m.value, m.unit, m.n);
        }
    }

    /// The contract's result object: `correct`, `attempted`, `failed` and
    /// every metric of `specs` (a layer the workload does not exercise
    /// reports 0).
    pub fn result_json(&self, specs: &[MetricSpec]) -> String {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, spec) in specs.iter().enumerate() {
            let value = self.get(spec.name).map_or(0.0, |m| m.value);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            );
        }
        json.push_str("}}");
        json
    }
}

/// The samples of one timed (untraced) run, in the shape every workload
/// shares: one entry per pass, one latency per statement.
///
/// Every time here is in calibrated seconds (see `yardstick`), except
/// `sdb_wall_s`, the same passes as the wall clock saw them.
#[derive(Debug, Default)]
pub struct TimedSamples {
    /// One entry per set-up of the run: everything before the first timed
    /// pass, warm-up pass included.
    pub setup_s: Vec<f64>,
    pub sdb_pass_s: Vec<f64>,
    pub sdb_wall_s: Vec<f64>,
    pub plain_pass_s: Vec<f64>,
    pub do_pass_s: Vec<f64>,
    pub wire_bytes: Vec<f64>,
    /// Statement latencies of each pass (`upload`: of each window of
    /// INSERTs); percentiles are taken within an entry.
    pub latency_ms: Vec<Vec<f64>>,
    pub stored_bytes_per_plain_byte: f64,
}

impl TimedSamples {
    /// The nine end-to-end metrics, then the host's speed and the wall
    /// clock's view of the SDB passes for whoever wants seconds as they
    /// passed.
    pub fn emit(&self, clock: &Clock, out: &mut Outcome) {
        let passes = self.sdb_pass_s.len();
        out.set("setup_s", median(&self.setup_s), self.setup_s.len());
        out.set("sdb_pass_s", median(&self.sdb_pass_s), passes);
        out.set(
            "plain_pass_s",
            median(&self.plain_pass_s),
            self.plain_pass_s.len(),
        );
        out.set("do_pass_s", median(&self.do_pass_s), passes);
        // A count, and exact wherever the passes are alike; where they are
        // not (`serve_mixed` walks seeded chunks) the mean over passes
        // varies less from seed to seed than their median.
        out.set(
            "wire_bytes_per_pass",
            self.wire_bytes.iter().sum::<f64>() / passes as f64,
            passes,
        );
        // A percentile per pass, then the median over passes: one slow
        // spell of the host moves one pass's tail, not the run's.
        let statements = self.latency_ms.iter().map(Vec::len).sum();
        let over_passes = |of_pass: &dyn Fn(&[f64]) -> f64| {
            let per_pass: Vec<f64> = self.latency_ms.iter().map(|ms| of_pass(ms)).collect();
            median(&per_pass)
        };
        out.set("latency_p50_ms", over_passes(&median), statements);
        // The nearest-rank 99th percentile of a pass: a real p99 where a
        // pass has hundreds of statements, the slowest statement where it
        // has fewer than a hundred — hence "tail", with the samples beyond
        // it printed beside.
        out.set(
            "latency_tail_ms",
            over_passes(&|ms| percentile(ms, 99.0)),
            statements,
        );
        let per_pass = self.latency_ms.first().map_or(0, Vec::len);
        out.info(
            "latency_tail.beyond".to_string(),
            "count",
            (per_pass - (0.99 * per_pass as f64).ceil() as usize) as f64,
            per_pass,
        );
        out.set(
            "stored_bytes_per_plain_byte",
            self.stored_bytes_per_plain_byte,
            1,
        );
        out.set("peak_rss_mb", peak_rss_mb(), 1);
        out.info(
            "host.speed".to_string(),
            "ratio",
            median(&clock.readings),
            clock.readings.len(),
        );
        out.info(
            "wall.sdb_pass_s".to_string(),
            "s",
            median(&self.sdb_wall_s),
            passes,
        );
    }
}
