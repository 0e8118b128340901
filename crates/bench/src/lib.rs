//! Shared constants for the benchmark harness.
//!
//! The two criterion targets under `benches/` time single operations:
//! `operator_micro` the secure operators against their plaintext
//! counterparts, `ablation_modulus` the modular-arithmetic kernels across
//! modulus widths. The end-to-end numbers are `perf_report`'s
//! (`perfbench/README.md`), which takes its data seed from here.

#![forbid(unsafe_code)]

/// The default bench seed (same data across bench targets so numbers compose).
pub const BENCH_SEED: u64 = 0xbe7c_2015;
