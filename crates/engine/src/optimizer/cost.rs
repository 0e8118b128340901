//! The cost model: oracle round trips first, wire bytes second, spill IO
//! third, CPU last.
//!
//! In SDB the dominant execution cost is not CPU but the interactive
//! protocol: every comparison / group-tag / rank step over sensitive data is
//! a proxy↔SP round trip (a WAN RTT — tens of milliseconds) shipping blinded
//! operands. The cost model therefore prices, in order:
//!
//! 1. **oracle round trips** — [`ROUND_TRIP_COST`] CPU-row-equivalents each.
//!    A non-blocking oracle call coalesces operand rows across input batches
//!    and pays one trip per flush window (`ceil(rows /`
//!    [`ORACLE_FLUSH_ROWS`](crate::operators::oracle::ORACLE_FLUSH_ROWS)`)` —
//!    one trip for any realistic input). Rank calls are blocking and cost
//!    exactly one trip regardless of input size.
//! 2. **oracle wire bytes** — [`ORACLE_BYTE_COST`] per byte shipped
//!    (operands are ~[`ORACLE_ROW_BYTES`] per row per call).
//! 3. **spill IO** — [`SPILL_BYTE_COST`] per byte written + read back when a
//!    blocking operator's estimated materialisation exceeds the
//!    [`MemoryBudget`](sdb_storage::MemoryBudget).
//! 4. **CPU** — one unit per row touched ([`CPU_ROW_COST`]).

use sdb_sql::ast::Expr;

use crate::operators::oracle::collect_oracle_calls_all;
use crate::secure::oracle_fns;

/// Cost of one oracle round trip, in CPU-row-equivalents. A WAN round trip
/// is on the order of 10–100 ms while a row of plain execution is ~100 ns.
pub const ROUND_TRIP_COST: f64 = 100_000.0;

/// Cost per byte shipped to/from the oracle (serialisation + wire).
pub const ORACLE_BYTE_COST: f64 = 10.0;

/// Cost per byte written to or read from spill files.
pub const SPILL_BYTE_COST: f64 = 1.0;

/// Cost per row of plain CPU work.
pub const CPU_ROW_COST: f64 = 1.0;

/// Approximate wire size of one row's operands in one oracle call (an
/// encrypted share plus a row id, serialised).
pub const ORACLE_ROW_BYTES: f64 = 96.0;

/// An additive cost estimate, kept per component so `EXPLAIN` can show where
/// a plan's cost comes from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Estimated oracle round trips.
    pub oracle_round_trips: f64,
    /// Estimated bytes shipped to the oracle.
    pub oracle_bytes: f64,
    /// Estimated bytes written to + read back from spill files.
    pub spill_bytes: f64,
    /// Estimated rows of CPU work.
    pub cpu_rows: f64,
}

impl Cost {
    /// The zero cost.
    pub fn zero() -> Cost {
        Cost::default()
    }

    /// Component-wise sum.
    pub fn add(&self, other: &Cost) -> Cost {
        Cost {
            oracle_round_trips: self.oracle_round_trips + other.oracle_round_trips,
            oracle_bytes: self.oracle_bytes + other.oracle_bytes,
            spill_bytes: self.spill_bytes + other.spill_bytes,
            cpu_rows: self.cpu_rows + other.cpu_rows,
        }
    }

    /// The weighted scalar total the optimizer minimises.
    pub fn total(&self) -> f64 {
        self.oracle_round_trips * ROUND_TRIP_COST
            + self.oracle_bytes * ORACLE_BYTE_COST
            + self.spill_bytes * SPILL_BYTE_COST
            + self.cpu_rows * CPU_ROW_COST
    }

    /// Compact rendering for `EXPLAIN` (`trips=2 oracle_bytes=9216 …`).
    pub fn render(&self) -> String {
        format!(
            "trips={:.0} oracle_bytes={:.0} spill_bytes={:.0} cpu={:.0}",
            self.oracle_round_trips, self.oracle_bytes, self.spill_bytes, self.cpu_rows
        )
    }
}

/// Prices operators given the engine's execution knobs.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Rows per batch (an in-memory hash join's probe side resolves its key
    /// calls once per batch).
    pub batch_size: usize,
    /// The memory budget limit, if one is set (estimated materialisations
    /// beyond it are priced as spills).
    pub budget: Option<usize>,
}

impl CostModel {
    /// Trips one non-blocking oracle call pays over `rows` input rows: one
    /// per flush window of the cross-batch accumulator.
    fn trips_per_call(&self, rows: f64) -> f64 {
        let window = crate::operators::oracle::ORACLE_FLUSH_ROWS as f64;
        (rows / window).ceil().max(1.0)
    }

    /// Estimated round trips for the oracle calls inside `exprs` over
    /// `rows` input rows, together with the bytes shipped.
    pub fn oracle_cost(&self, exprs: &[Expr], rows: f64) -> Cost {
        let calls = collect_oracle_calls_all(exprs);
        if calls.is_empty() {
            return Cost::zero();
        }
        let batches = self.trips_per_call(rows);
        let mut trips = 0.0;
        for call in &calls {
            let blocking = matches!(
                call,
                Expr::Function { name, .. } if name.eq_ignore_ascii_case(oracle_fns::RANK)
            );
            // Rank surrogates resolve the whole input in one blocking trip;
            // everything else pays one trip per flush window.
            trips += if blocking { 1.0 } else { batches };
        }
        Cost {
            oracle_round_trips: trips,
            oracle_bytes: calls.len() as f64 * rows * ORACLE_ROW_BYTES,
            ..Cost::default()
        }
    }

    /// Spill cost of materialising `bytes` under the budget: zero when it
    /// fits, write + read back when it does not.
    pub fn spill_cost(&self, bytes: f64) -> Cost {
        match self.budget {
            Some(limit) if bytes > limit as f64 => Cost {
                spill_bytes: 2.0 * bytes,
                ..Cost::default()
            },
            _ => Cost::zero(),
        }
    }

    /// Cost of one binary join candidate.
    ///
    /// `hashable` joins price as hash joins: CPU over both inputs and the
    /// output, spill of both sides when the build side overflows the budget
    /// (the Grace join partitions both inputs through the pager), and oracle
    /// trips for `oracle_calls` key calls — the build side resolves once
    /// over the materialised input; the probe side resolves once per whole
    /// side when an overflowing build routes it through the cross-batch
    /// accumulator (the Grace plan), once per probe batch otherwise.
    /// Non-hashable joins price as nested loops (`probe × build` CPU).
    #[allow(clippy::too_many_arguments)]
    pub fn join_cost(
        &self,
        probe_rows: f64,
        probe_width: f64,
        build_rows: f64,
        build_width: f64,
        out_rows: f64,
        oracle_calls: f64,
        hashable: bool,
    ) -> Cost {
        if !hashable {
            return Cost {
                cpu_rows: (probe_rows * build_rows).max(probe_rows + build_rows) + out_rows,
                ..Cost::default()
            };
        }
        let mut cost = Cost {
            cpu_rows: probe_rows + build_rows + out_rows,
            ..Cost::default()
        };
        let build_bytes = build_rows * build_width;
        let spills = matches!(self.budget, Some(limit) if build_bytes > limit as f64);
        if spills {
            // Grace plan: both sides are partitioned through the pager.
            cost.spill_bytes += 2.0 * (build_bytes + probe_rows * probe_width);
        }
        let probe_trips = if spills {
            // Grace routes each side through the cross-batch accumulator:
            // one coalesced trip per call per side, spilled chunks never
            // re-resolve.
            self.trips_per_call(probe_rows)
        } else {
            (probe_rows / self.batch_size as f64).ceil().max(1.0)
        };
        cost.oracle_round_trips += oracle_calls * (probe_trips + 1.0);
        cost.oracle_bytes += oracle_calls * (probe_rows + build_rows) * ORACLE_ROW_BYTES;
        cost
    }

    /// Cost of sorting `rows` rows of `width` bytes (`n·log2 n` CPU plus a
    /// spill pass when the materialisation overflows the budget).
    pub fn sort_cost(&self, rows: f64, width: f64) -> Cost {
        let cmp = rows * rows.max(2.0).log2();
        Cost {
            cpu_rows: cmp,
            ..Cost::default()
        }
        .add(&self.spill_cost(rows * width))
    }

    /// Cost of aggregating `rows` input rows of `width` bytes.
    pub fn aggregate_cost(&self, rows: f64, width: f64) -> Cost {
        Cost {
            cpu_rows: rows,
            ..Cost::default()
        }
        .add(&self.spill_cost(rows * width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_sql::ast::Expr;

    fn model(budget: Option<usize>) -> CostModel {
        CostModel {
            batch_size: 1000,
            budget,
        }
    }

    fn cmp_call() -> Expr {
        Expr::func(
            oracle_fns::CMP_GT,
            vec![
                Expr::col("a"),
                Expr::col("rid"),
                Expr::str("h"),
                Expr::str("35"),
            ],
        )
    }

    fn rank_call() -> Expr {
        Expr::func(
            oracle_fns::RANK,
            vec![Expr::col("a"), Expr::col("rid"), Expr::str("h")],
        )
    }

    #[test]
    fn batching_collapses_cmp_trips_to_the_flush_window() {
        let m = model(None);
        let c = m.oracle_cost(&[cmp_call()], 2500.0);
        assert_eq!(
            c.oracle_round_trips, 1.0,
            "2500 rows fit one coalesced flush"
        );
        assert!(c.oracle_bytes > 0.0);
        assert_eq!(
            m.oracle_cost(&[rank_call()], 2500.0).oracle_round_trips,
            1.0,
            "rank is one blocking trip"
        );
        assert_eq!(m.oracle_cost(&[Expr::col("a")], 2500.0), Cost::zero());
        // Inputs beyond the flush window still pay one trip per window.
        let huge = 2.5 * crate::operators::oracle::ORACLE_FLUSH_ROWS as f64;
        assert_eq!(m.oracle_cost(&[cmp_call()], huge).oracle_round_trips, 3.0);
    }

    #[test]
    fn batched_grace_join_prices_one_probe_trip_per_call() {
        let m = model(Some(10_000));
        // Build side (10 000×16 B) overflows the 10 KB budget → Grace spill.
        let spilled = m.join_cost(8_000.0, 16.0, 10_000.0, 16.0, 100.0, 1.0, true);
        assert_eq!(
            spilled.oracle_round_trips, 2.0,
            "one coalesced trip per side"
        );
        // In-memory probes still stream per batch: 8 probe batches + build.
        let in_memory = m.join_cost(8_000.0, 16.0, 100.0, 16.0, 100.0, 1.0, true);
        assert_eq!(in_memory.oracle_round_trips, 9.0);
    }

    #[test]
    fn round_trips_dominate_the_total() {
        let one_trip = Cost {
            oracle_round_trips: 1.0,
            ..Cost::default()
        };
        let many_rows = Cost {
            cpu_rows: 50_000.0,
            ..Cost::default()
        };
        assert!(one_trip.total() > many_rows.total());
    }

    #[test]
    fn spill_costs_appear_only_over_budget() {
        let m = model(Some(10_000));
        assert_eq!(m.spill_cost(5_000.0), Cost::zero());
        assert_eq!(m.spill_cost(20_000.0).spill_bytes, 40_000.0);
        assert_eq!(model(None).spill_cost(1e12), Cost::zero());
    }

    #[test]
    fn hash_join_prefers_the_smaller_build_side() {
        // Budget chosen so the small build (100×16 B) fits and the large
        // one (10 000×16 B) spills.
        let m = model(Some(10_000));
        let small_build = m.join_cost(10_000.0, 16.0, 100.0, 16.0, 10_000.0, 0.0, true);
        let large_build = m.join_cost(100.0, 16.0, 10_000.0, 16.0, 10_000.0, 0.0, true);
        assert!(
            small_build.total() < large_build.total(),
            "building on the small side must be cheaper: {} vs {}",
            small_build.total(),
            large_build.total()
        );
    }

    #[test]
    fn nested_loop_is_priced_quadratically() {
        let m = model(None);
        let nl = m.join_cost(1_000.0, 16.0, 1_000.0, 16.0, 100.0, 0.0, false);
        let hash = m.join_cost(1_000.0, 16.0, 1_000.0, 16.0, 100.0, 0.0, true);
        assert!(nl.total() > 100.0 * hash.total());
    }
}
