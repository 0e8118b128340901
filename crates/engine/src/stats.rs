//! Execution statistics: the raw numbers behind the demo's cost breakdown
//! (experiment E3) and the upload accounting (experiment E2).

use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};
use serde::{Deserialize, Serialize};

/// Statistics collected while executing one query at the SP.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionStats {
    /// Rows read from base tables.
    pub rows_scanned: usize,
    /// Columns the table scans read: those the plan references.
    pub scan_columns_read: usize,
    /// Columns the scanned tables hold (`read / total` is the pruning ratio).
    pub scan_columns_total: usize,
    /// Rows produced by the root operator.
    pub rows_returned: usize,
    /// Number of scalar UDF invocations (SDB or plain).
    pub udf_calls: usize,
    /// `SDB_KEY_UPDATE` invocations among [`Self::udf_calls`], whether served
    /// from a key-update set's block or by the function itself.
    pub key_update_calls: usize,
    /// Exponentiations `S_e^p` raised for them: the heads of every row a set
    /// served (charged when a call first uses the row, so a row raised ahead
    /// in a lockstep block counts once, and only if used), plus one per call
    /// the function served itself.
    pub key_update_pows: usize,
    /// Powers obtained from a neighbouring exponent's with one multiplication.
    pub key_update_derived: usize,
    /// Number of oracle round trips to the DO proxy.
    pub oracle_round_trips: usize,
    /// Rows shipped to the oracle across all round trips.
    pub oracle_rows_shipped: usize,
    /// Operand rows answered from the encrypted-value memo instead of
    /// travelling the oracle link again.
    pub oracle_memo_hits: usize,
    /// Operand rows buffered across input batches by the cross-batch
    /// accumulator and resolved in coalesced per-call requests (rather than
    /// one request per call per batch).
    pub oracle_rows_coalesced: usize,
    /// Approximate bytes shipped to the oracle.
    pub oracle_bytes_shipped: usize,
    /// Wall-clock time spent inside oracle calls (this is *client* work from the
    /// SP's point of view).
    #[serde(with = "duration_micros")]
    pub oracle_time: Duration,
    /// Total wall-clock execution time at the SP (including oracle waits).
    #[serde(with = "duration_micros")]
    pub total_time: Duration,
    /// Pages written to spill files by the pager (bounded-memory execution).
    pub pages_spilled: usize,
    /// Encoded bytes written to spill files.
    pub spill_bytes_written: usize,
    /// Encoded bytes read back from spill files.
    pub spill_bytes_read: usize,
    /// Pages evicted from the buffer pool (spilled-dirty or already clean).
    pub pages_evicted: usize,
    /// Most pages resident in the buffer pool at any one time (merged across
    /// contexts with `max`, not summed — it is a high-water mark).
    pub peak_resident_pages: usize,
    /// Build-side partition streams written by Grace hash joins, counted
    /// across every recursion level (zero when no join spilled).
    pub join_build_partitions: usize,
    /// Build + probe rows routed through pager partition streams by Grace
    /// hash joins, re-partitioning passes included.
    pub join_spilled_rows: usize,
    /// Batches processed by a vectorised kernel (selection bitmap, key
    /// rendering or global-aggregation fast path).
    pub vectorised_batches: usize,
    /// Batches that fell back to the row-at-a-time scalar interpreter at a
    /// kernel-eligible site (kernels disabled, or shape not supported).
    pub scalar_fallback_batches: usize,
    /// Wall-clock time spent executing scalar subqueries on behalf of the
    /// parent query (cache misses only; memoised re-uses cost nothing).
    #[serde(with = "duration_micros")]
    pub subquery_time: Duration,
}

impl ExecutionStats {
    /// Time spent purely on server-side work (total minus oracle waits).
    pub fn server_time(&self) -> Duration {
        self.total_time.saturating_sub(self.oracle_time)
    }

    /// Merges another stats record into this one (used when a query executes
    /// subqueries).
    pub fn merge(&mut self, other: &ExecutionStats) {
        self.rows_scanned += other.rows_scanned;
        self.scan_columns_read += other.scan_columns_read;
        self.scan_columns_total += other.scan_columns_total;
        self.udf_calls += other.udf_calls;
        self.key_update_calls += other.key_update_calls;
        self.key_update_pows += other.key_update_pows;
        self.key_update_derived += other.key_update_derived;
        self.oracle_round_trips += other.oracle_round_trips;
        self.oracle_rows_shipped += other.oracle_rows_shipped;
        self.oracle_memo_hits += other.oracle_memo_hits;
        self.oracle_rows_coalesced += other.oracle_rows_coalesced;
        self.oracle_bytes_shipped += other.oracle_bytes_shipped;
        self.oracle_time += other.oracle_time;
        self.pages_spilled += other.pages_spilled;
        self.spill_bytes_written += other.spill_bytes_written;
        self.spill_bytes_read += other.spill_bytes_read;
        self.pages_evicted += other.pages_evicted;
        self.peak_resident_pages = self.peak_resident_pages.max(other.peak_resident_pages);
        self.join_build_partitions += other.join_build_partitions;
        self.join_spilled_rows += other.join_spilled_rows;
        self.vectorised_batches += other.vectorised_batches;
        self.scalar_fallback_batches += other.scalar_fallback_batches;
        self.subquery_time += other.subquery_time;
    }

    /// Counter increments accumulated between the `earlier` snapshot and
    /// this one (field-wise saturating subtraction). Used by the tracing
    /// layer to attribute global counters to individual operator spans.
    ///
    /// Whole-query fields (`rows_returned`, `total_time`) are zeroed —
    /// they are stamped once at the top level, not accumulated — and
    /// `peak_resident_pages` keeps the later high-water mark because the
    /// delta of a maximum is not meaningful.
    pub fn delta_since(&self, earlier: &ExecutionStats) -> ExecutionStats {
        ExecutionStats {
            rows_scanned: self.rows_scanned.saturating_sub(earlier.rows_scanned),
            scan_columns_read: self
                .scan_columns_read
                .saturating_sub(earlier.scan_columns_read),
            scan_columns_total: self
                .scan_columns_total
                .saturating_sub(earlier.scan_columns_total),
            rows_returned: 0,
            udf_calls: self.udf_calls.saturating_sub(earlier.udf_calls),
            key_update_calls: self
                .key_update_calls
                .saturating_sub(earlier.key_update_calls),
            key_update_pows: self.key_update_pows.saturating_sub(earlier.key_update_pows),
            key_update_derived: self
                .key_update_derived
                .saturating_sub(earlier.key_update_derived),
            oracle_round_trips: self
                .oracle_round_trips
                .saturating_sub(earlier.oracle_round_trips),
            oracle_rows_shipped: self
                .oracle_rows_shipped
                .saturating_sub(earlier.oracle_rows_shipped),
            oracle_memo_hits: self
                .oracle_memo_hits
                .saturating_sub(earlier.oracle_memo_hits),
            oracle_rows_coalesced: self
                .oracle_rows_coalesced
                .saturating_sub(earlier.oracle_rows_coalesced),
            oracle_bytes_shipped: self
                .oracle_bytes_shipped
                .saturating_sub(earlier.oracle_bytes_shipped),
            oracle_time: self.oracle_time.saturating_sub(earlier.oracle_time),
            total_time: Duration::ZERO,
            pages_spilled: self.pages_spilled.saturating_sub(earlier.pages_spilled),
            spill_bytes_written: self
                .spill_bytes_written
                .saturating_sub(earlier.spill_bytes_written),
            spill_bytes_read: self
                .spill_bytes_read
                .saturating_sub(earlier.spill_bytes_read),
            pages_evicted: self.pages_evicted.saturating_sub(earlier.pages_evicted),
            peak_resident_pages: self.peak_resident_pages,
            join_build_partitions: self
                .join_build_partitions
                .saturating_sub(earlier.join_build_partitions),
            join_spilled_rows: self
                .join_spilled_rows
                .saturating_sub(earlier.join_spilled_rows),
            vectorised_batches: self
                .vectorised_batches
                .saturating_sub(earlier.vectorised_batches),
            scalar_fallback_batches: self
                .scalar_fallback_batches
                .saturating_sub(earlier.scalar_fallback_batches),
            subquery_time: self.subquery_time.saturating_sub(earlier.subquery_time),
        }
    }

    /// Folds a pager's spill counters into this record.
    pub fn absorb_pager(&mut self, pager: &sdb_storage::PagerStats) {
        self.pages_spilled += pager.pages_spilled;
        self.spill_bytes_written += pager.spill_bytes_written;
        self.spill_bytes_read += pager.spill_bytes_read;
        self.pages_evicted += pager.pages_evicted;
        self.peak_resident_pages = self.peak_resident_pages.max(pager.peak_resident_pages);
    }
}

/// Thread-safe execution statistics, sharded per worker so parallel operators
/// never contend on one counter lock.
///
/// Worker `i` accumulates into shard `i % shards`; shard 0 doubles as the
/// "main thread" shard and is the only one carrying the whole-query fields
/// (`rows_returned`, `total_time` — `merge` deliberately skips them).
/// [`ShardedStats::snapshot`] folds every shard into one [`ExecutionStats`].
#[derive(Debug)]
pub struct ShardedStats {
    shards: Vec<Mutex<ExecutionStats>>,
}

impl ShardedStats {
    /// Creates `workers.max(1)` empty shards.
    pub fn new(workers: usize) -> Self {
        ShardedStats {
            shards: (0..workers.max(1))
                .map(|_| Mutex::new(ExecutionStats::default()))
                .collect(),
        }
    }

    /// Locks worker `worker`'s shard for accumulation.
    pub fn shard(&self, worker: usize) -> MutexGuard<'_, ExecutionStats> {
        self.shards[worker % self.shards.len()].lock()
    }

    /// Folds every shard into one merged snapshot.
    pub fn snapshot(&self) -> ExecutionStats {
        let mut total = self.shards[0].lock().clone();
        for shard in &self.shards[1..] {
            total.merge(&shard.lock());
        }
        total
    }
}

mod duration_micros {
    //! Serialise [`std::time::Duration`] as integer microseconds.
    use serde::{Deserialize, Deserializer, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(d.as_micros() as u64)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let micros = u64::deserialize(d)?;
        Ok(Duration::from_micros(micros))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_time_subtracts_oracle_time() {
        let stats = ExecutionStats {
            total_time: Duration::from_millis(10),
            oracle_time: Duration::from_millis(3),
            ..Default::default()
        };
        assert_eq!(stats.server_time(), Duration::from_millis(7));
    }

    #[test]
    fn merge_sums_spill_counters_but_maxes_the_peak() {
        let mut a = ExecutionStats {
            pages_spilled: 3,
            spill_bytes_written: 300,
            peak_resident_pages: 8,
            ..Default::default()
        };
        let b = ExecutionStats {
            pages_spilled: 2,
            spill_bytes_read: 150,
            pages_evicted: 5,
            peak_resident_pages: 5,
            join_build_partitions: 8,
            join_spilled_rows: 1_000,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.pages_spilled, 5);
        assert_eq!(a.spill_bytes_written, 300);
        assert_eq!(a.spill_bytes_read, 150);
        assert_eq!(a.pages_evicted, 5);
        assert_eq!(a.peak_resident_pages, 8, "peak is a high-water mark");
        assert_eq!(a.join_build_partitions, 8, "join counters sum");
        assert_eq!(a.join_spilled_rows, 1_000);
    }

    #[test]
    fn absorb_pager_counters() {
        let mut stats = ExecutionStats {
            peak_resident_pages: 2,
            ..Default::default()
        };
        stats.absorb_pager(&sdb_storage::PagerStats {
            pages_spilled: 4,
            spill_bytes_written: 400,
            spill_bytes_read: 100,
            pages_evicted: 6,
            peak_resident_pages: 9,
        });
        assert_eq!(stats.pages_spilled, 4);
        assert_eq!(stats.peak_resident_pages, 9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ExecutionStats {
            rows_scanned: 10,
            oracle_round_trips: 1,
            ..Default::default()
        };
        let b = ExecutionStats {
            rows_scanned: 5,
            oracle_round_trips: 2,
            oracle_rows_shipped: 100,
            oracle_memo_hits: 7,
            oracle_rows_coalesced: 60,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 15);
        assert_eq!(a.oracle_round_trips, 3);
        assert_eq!(a.oracle_rows_shipped, 100);
        assert_eq!(a.oracle_memo_hits, 7);
        assert_eq!(a.oracle_rows_coalesced, 60);
    }

    #[test]
    fn serde_roundtrips_the_memo_counters() {
        let stats = ExecutionStats {
            oracle_round_trips: 2,
            oracle_memo_hits: 9,
            oracle_rows_coalesced: 41,
            ..Default::default()
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: ExecutionStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.oracle_memo_hits, 9);
        assert_eq!(back.oracle_rows_coalesced, 41);
    }

    #[test]
    fn sharded_snapshot_merges_workers_and_keeps_shard0_totals() {
        let sharded = ShardedStats::new(3);
        {
            let mut s0 = sharded.shard(0);
            s0.rows_scanned = 10;
            s0.rows_returned = 7;
            s0.total_time = Duration::from_millis(5);
        }
        sharded.shard(1).rows_scanned = 20;
        {
            let mut s2 = sharded.shard(2);
            s2.rows_scanned = 30;
            s2.udf_calls = 4;
        }
        // Worker ids wrap around the shard count.
        sharded.shard(4).oracle_round_trips = 2;

        let snap = sharded.snapshot();
        assert_eq!(snap.rows_scanned, 60);
        assert_eq!(snap.udf_calls, 4);
        assert_eq!(snap.oracle_round_trips, 2, "worker 4 lands in shard 1");
        assert_eq!(
            snap.rows_returned, 7,
            "whole-query fields come from shard 0"
        );
        assert_eq!(snap.total_time, Duration::from_millis(5));
    }

    /// Exhaustive merge semantics: every field is spelled out with a full
    /// struct literal (no `..Default::default()`), so adding a counter to
    /// [`ExecutionStats`] without deciding its merge rule fails to compile
    /// here. Every field sums except `peak_resident_pages` (high-water
    /// mark: max) and the whole-query fields `rows_returned` / `total_time`
    /// (stamped once at the top level: merge leaves them untouched).
    #[test]
    fn merge_is_exhaustive_sum_except_peak_and_whole_query_fields() {
        let mut a = ExecutionStats {
            rows_scanned: 1,
            rows_returned: 2,
            udf_calls: 3,
            oracle_round_trips: 4,
            oracle_rows_shipped: 5,
            oracle_memo_hits: 6,
            oracle_rows_coalesced: 7,
            oracle_bytes_shipped: 8,
            oracle_time: Duration::from_micros(9),
            total_time: Duration::from_micros(10),
            pages_spilled: 11,
            spill_bytes_written: 12,
            spill_bytes_read: 13,
            pages_evicted: 14,
            peak_resident_pages: 15,
            join_build_partitions: 16,
            join_spilled_rows: 17,
            vectorised_batches: 18,
            scalar_fallback_batches: 19,
            subquery_time: Duration::from_micros(20),
            scan_columns_read: 21,
            scan_columns_total: 22,
            key_update_calls: 23,
            key_update_pows: 24,
            key_update_derived: 25,
        };
        let b = ExecutionStats {
            rows_scanned: 100,
            rows_returned: 200,
            udf_calls: 300,
            oracle_round_trips: 400,
            oracle_rows_shipped: 500,
            oracle_memo_hits: 600,
            oracle_rows_coalesced: 700,
            oracle_bytes_shipped: 800,
            oracle_time: Duration::from_micros(900),
            total_time: Duration::from_micros(1_000),
            pages_spilled: 1_100,
            spill_bytes_written: 1_200,
            spill_bytes_read: 1_300,
            pages_evicted: 1_400,
            peak_resident_pages: 1_500,
            join_build_partitions: 1_600,
            join_spilled_rows: 1_700,
            vectorised_batches: 1_800,
            scalar_fallback_batches: 1_900,
            subquery_time: Duration::from_micros(2_000),
            scan_columns_read: 2_100,
            scan_columns_total: 2_200,
            key_update_calls: 2_300,
            key_update_pows: 2_400,
            key_update_derived: 2_500,
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 101);
        assert_eq!(a.rows_returned, 2, "whole-query field: merge skips it");
        assert_eq!(a.udf_calls, 303);
        assert_eq!(a.oracle_round_trips, 404);
        assert_eq!(a.oracle_rows_shipped, 505);
        assert_eq!(a.oracle_memo_hits, 606);
        assert_eq!(a.oracle_rows_coalesced, 707);
        assert_eq!(a.oracle_bytes_shipped, 808);
        assert_eq!(a.oracle_time, Duration::from_micros(909));
        assert_eq!(
            a.total_time,
            Duration::from_micros(10),
            "whole-query field: merge skips it"
        );
        assert_eq!(a.pages_spilled, 1_111);
        assert_eq!(a.spill_bytes_written, 1_212);
        assert_eq!(a.spill_bytes_read, 1_313);
        assert_eq!(a.pages_evicted, 1_414);
        assert_eq!(a.peak_resident_pages, 1_500, "high-water mark: max");
        assert_eq!(a.join_build_partitions, 1_616);
        assert_eq!(a.join_spilled_rows, 1_717);
        assert_eq!(a.vectorised_batches, 1_818);
        assert_eq!(a.scalar_fallback_batches, 1_919);
        assert_eq!(a.subquery_time, Duration::from_micros(2_020));
        assert_eq!(a.scan_columns_read, 2_121);
        assert_eq!(a.scan_columns_total, 2_222);
        assert_eq!(a.key_update_calls, 2_323);
        assert_eq!(a.key_update_pows, 2_424);
        assert_eq!(a.key_update_derived, 2_525);
    }

    /// `delta_since` is merge's inverse on the summed fields: zeroes the
    /// whole-query fields and keeps the later high-water mark.
    #[test]
    fn delta_since_inverts_merge_on_summed_fields() {
        let before = ExecutionStats {
            rows_scanned: 10,
            oracle_round_trips: 2,
            oracle_time: Duration::from_micros(50),
            peak_resident_pages: 4,
            vectorised_batches: 3,
            ..Default::default()
        };
        let mut after = before.clone();
        after.merge(&ExecutionStats {
            rows_scanned: 7,
            oracle_round_trips: 1,
            oracle_time: Duration::from_micros(25),
            peak_resident_pages: 9,
            vectorised_batches: 2,
            subquery_time: Duration::from_micros(11),
            ..Default::default()
        });
        after.rows_returned = 99;
        after.total_time = Duration::from_micros(1_234);

        let delta = after.delta_since(&before);
        assert_eq!(delta.rows_scanned, 7);
        assert_eq!(delta.oracle_round_trips, 1);
        assert_eq!(delta.oracle_time, Duration::from_micros(25));
        assert_eq!(delta.vectorised_batches, 2);
        assert_eq!(delta.subquery_time, Duration::from_micros(11));
        assert_eq!(delta.rows_returned, 0, "whole-query fields zeroed");
        assert_eq!(delta.total_time, Duration::ZERO);
        assert_eq!(delta.peak_resident_pages, 9, "keeps the later peak");
    }

    #[test]
    fn serde_roundtrip() {
        let stats = ExecutionStats {
            rows_scanned: 7,
            total_time: Duration::from_micros(1234),
            ..Default::default()
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: ExecutionStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }
}
