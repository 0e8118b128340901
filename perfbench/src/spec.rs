//! The benchmark's fixed vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root repeats these tables; `tests/smoke.rs` asserts the two
//! agree.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen before a change counts as a regression;
/// per-layer metrics carry no bound.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The five workloads, in the order an all-workload run executes them.
pub const WORKLOADS: [&str; 5] = [
    "tpch_crypto",
    "tpch_join",
    "tpch_spill",
    "serve_mixed",
    "upload",
];

use Better::{Higher, Lower};

/// Metrics a user of the system sees; measured with tracing off, emitted by
/// every workload, never zero.
pub const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sdb_pass_s", "s", Lower, 0.15),
    e2e("plain_pass_s", "s", Lower, 0.15),
    e2e("do_pass_s", "s", Lower, 0.15),
    e2e("wire_bytes_per_pass", "bytes", Lower, 0.02),
    e2e("latency_p50_ms", "ms", Lower, 0.15),
    e2e("latency_tail_ms", "ms", Lower, 0.2),
    e2e("stored_bytes_per_plain_byte", "ratio", Lower, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

/// Metrics of single layers (the crates); traced run only. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [MetricSpec; 63] = [
    // sdb-sql
    layer("sql.parse_us", "us", Lower),
    // sdb-proxy
    layer("proxy.rewrite_us", "us", Lower),
    layer("proxy.decrypt_us", "us", Lower),
    layer("proxy.oracle_service_s", "s", Lower),
    layer("proxy.oracle_requests", "count", Lower),
    layer("proxy.oracle_rows", "count", Lower),
    layer("proxy.encrypt_rows_per_s", "rows/s", Higher),
    layer("proxy.keystore_bytes", "bytes", Lower),
    // sdb-crypto
    layer("crypto.mod_mul_ns", "ns", Lower),
    layer("crypto.mod_pow_ns", "ns", Lower),
    layer("crypto.key_update_ns", "ns", Lower),
    layer("crypto.inverse_batch_ns", "ns", Lower),
    layer("crypto.encrypt_ns", "ns", Lower),
    layer("crypto.decrypt_ns", "ns", Lower),
    layer("crypto.key_update_ns_b2048", "ns", Lower),
    // sdb-engine
    layer("engine.execute_s", "s", Lower),
    layer("engine.sp_self_s", "s", Lower),
    layer("engine.plan_us", "us", Lower),
    layer("engine.udf_multiply_ns", "ns", Lower),
    layer("engine.udf_key_update_ns", "ns", Lower),
    layer("engine.udf_add_ns", "ns", Lower),
    layer("engine.udf_calls", "count", Lower),
    layer("engine.op_self_s.scan", "s", Lower),
    layer("engine.op_self_s.filter", "s", Lower),
    layer("engine.op_self_s.project", "s", Lower),
    layer("engine.op_self_s.join", "s", Lower),
    layer("engine.op_self_s.aggregate", "s", Lower),
    layer("engine.op_self_s.sort", "s", Lower),
    layer("engine.op_self_s.oracle", "s", Lower),
    layer("engine.op_self_s.other", "s", Lower),
    layer("engine.rows_scanned", "count", Lower),
    layer("engine.oracle_round_trips", "count", Lower),
    layer("engine.oracle_memo_hits", "count", Higher),
    layer("engine.kernel_hit_share", "share", Higher),
    layer("engine.parallel2_speedup", "ratio", Higher),
    // sdb-storage
    layer("storage.pages_spilled", "count", Lower),
    layer("storage.spill_bytes_written", "bytes", Lower),
    layer("storage.spill_bytes_read", "bytes", Lower),
    layer("storage.pages_evicted", "count", Lower),
    layer("storage.peak_resident_pages", "count", Lower),
    layer("storage.encode_mb_per_s", "MB/s", Higher),
    layer("storage.decode_mb_per_s", "MB/s", Higher),
    layer("storage.load_rows_per_s", "rows/s", Higher),
    layer("storage.sp_bytes_per_row", "bytes/row", Lower),
    // sdb-server
    layer("server.overhead_us", "us", Lower),
    layer("server.admission_wait_us_p99", "us", Lower),
    layer("server.admissions_queued", "count", Lower),
    layer("server.pool_spill_pages", "count", Lower),
    layer("server.pool_evictions", "count", Lower),
    layer("server.registry_p50_us", "us", Lower),
    layer("server.registry_p99_us", "us", Lower),
    // sdb (core) and sdb-workload
    layer("core.wire_link_s", "s", Lower),
    layer("core.wire_to_sp_bytes", "bytes", Lower),
    layer("core.wire_from_sp_bytes", "bytes", Lower),
    layer("core.wire_oracle_bytes", "bytes", Lower),
    layer("workload.generate_s", "s", Lower),
    // Derived; the paper's headline numbers, reported and never gated.
    layer("ratio.sdb_over_plain", "ratio", Lower),
    layer("ratio.do_share", "share", Lower),
    layer("rate.qps", "1/s", Higher),
    layer("rate.upload_rows_per_s", "rows/s", Higher),
    layer("rate.insert_rows_per_s", "rows/s", Higher),
    layer("trace.overhead_share", "share", Lower),
    // The host's speed beside the run (yardstick readings; 1.0 = nominal).
    layer("host.speed", "ratio", Higher),
];

/// The spec of a contract metric, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|spec| spec.name == name)
}

/// Environment variables that silently change what the engine or the server
/// does; the harness refuses to start while any is set.
pub const REFUSED_ENV: [&str; 7] = [
    "SDB_TEST_MEM_BUDGET",
    "SDB_TRACE",
    "SDB_TEST_SCALAR_EVAL",
    "SDB_TEST_ANALYZE",
    "SDB_TEST_ORACLE_LATENCY_MS",
    "SDB_SLOW_QUERY_MS",
    "SDB_TRACE_DIR",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must repeat these tables entry for entry: name,
    /// unit, direction and bound.
    #[test]
    fn benchmark_json_repeats_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut rest = json.as_str();
        for spec in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let bound = spec
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                spec.name,
                spec.unit,
                spec.better.as_str()
            );
            let at = rest
                .find(&entry)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks, or has out of order: {entry}"));
            rest = &rest[at + entry.len()..];
        }
        let metrics = json.matches("\"better\"").count();
        assert_eq!(metrics, END_TO_END.len() + PER_LAYER.len());
        for workload in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        }
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
    }
}
