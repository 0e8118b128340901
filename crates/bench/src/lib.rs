//! Shared helpers for the benchmark harness.
//!
//! Every bench target regenerates one of the paper's experiments (E1-E6);
//! this crate only hosts the fixtures they share. The end-to-end numbers are
//! `perf_report`'s (`perfbench/README.md`).

#![forbid(unsafe_code)]

use sdb::{SdbClient, SdbConfig};
use sdb_engine::SpEngine;
use sdb_workload::{generate_all, ScaleFactor, SensitivityProfile};

/// Builds an SDB deployment (financial columns encrypted) over the TPC-H workload.
pub fn sdb_deployment(sf: ScaleFactor, seed: u64) -> SdbClient {
    let mut client = SdbClient::new(SdbConfig::test_profile().with_upload_threads(4))
        .expect("client construction");
    for table in generate_all(sf, SensitivityProfile::Financial, seed) {
        client.stage_table(table).expect("stage table");
    }
    client.upload_all().expect("upload");
    client
}

/// Builds the plaintext deployment of the same data.
pub fn plaintext_deployment(sf: ScaleFactor, seed: u64) -> SpEngine {
    let engine = SpEngine::new();
    for table in generate_all(sf, SensitivityProfile::None, seed) {
        engine.load_table(table).expect("load table");
    }
    engine
}

/// The default bench seed (same data across bench targets so numbers compose).
pub const BENCH_SEED: u64 = 0xbe7c_2015;
