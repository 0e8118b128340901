//! Shared constants for the benchmark harness.
//!
//! The criterion targets under `benches/` time single kernels and operators
//! (`operator_micro`, `ablation_modulus`, `columnar_kernels`); the end-to-end
//! numbers are `perf_report`'s (`perfbench/README.md`), which takes its data
//! seed from here.

#![forbid(unsafe_code)]

/// The default bench seed (same data across bench targets so numbers compose).
pub const BENCH_SEED: u64 = 0xbe7c_2015;
