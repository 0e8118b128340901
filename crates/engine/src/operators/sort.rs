//! The order-shaping operators: sort, limit and distinct.

use std::sync::Arc;

use sdb_sql::plan::SortKey;
use sdb_storage::{RecordBatch, Schema, Value};

use super::expr::bind_to_existing_columns;
use super::{materialize_input, BoxedOperator, ExecContext, PhysicalOperator};
use crate::kernels::keys::{keys_eq, BatchKeys, ChainIndex};
use crate::Result;

/// Sorts the materialised input by the given keys (stable, NULLs ordered by
/// the storage layer's total order).
///
/// Oracle-backed sort keys (e.g. `SDB_RANK` surrogates) are materialised by an
/// [`super::oracle::OracleResolve`] child inserted by the planner.
pub struct Sort<'a> {
    ctx: Arc<ExecContext<'a>>,
    input: BoxedOperator<'a>,
    keys: Vec<SortKey>,
    done: bool,
}

impl<'a> Sort<'a> {
    /// Creates a sort over `input`.
    pub fn new(ctx: Arc<ExecContext<'a>>, input: BoxedOperator<'a>, keys: Vec<SortKey>) -> Self {
        Sort {
            ctx,
            input,
            keys,
            done: false,
        }
    }
}

impl PhysicalOperator for Sort<'_> {
    fn name(&self) -> &'static str {
        "Sort"
    }

    fn describe(&self) -> String {
        format!("{}({})", self.name(), self.input.describe())
    }

    fn open(&mut self) -> Result<()> {
        self.done = false;
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let batch = materialize_input(self.input.as_mut())?
            .unwrap_or_else(|| RecordBatch::empty(Schema::empty()));

        let exprs: Vec<_> = self
            .keys
            .iter()
            .map(|k| bind_to_existing_columns(&k.expr, batch.schema()))
            .collect();
        let evaluator = self.ctx.evaluator();

        let mut key_values: Vec<Vec<Value>> = Vec::with_capacity(batch.num_rows());
        for row in 0..batch.num_rows() {
            let mut kv = Vec::with_capacity(exprs.len());
            for e in &exprs {
                kv.push(evaluator.evaluate(e, &batch, row)?);
            }
            key_values.push(kv);
        }
        self.ctx.record_udf_calls(&evaluator);

        let mut order: Vec<usize> = (0..batch.num_rows()).collect();
        order.sort_by(|&a, &b| {
            for (i, key) in self.keys.iter().enumerate() {
                let ord = key_values[a][i].cmp_total(&key_values[b][i]);
                let ord = if key.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        batch.reorder(&order).map(Some).map_err(Into::into)
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

/// Truncates the stream after `n` rows (streaming: stops pulling from its
/// child once satisfied).
pub struct Limit<'a> {
    input: BoxedOperator<'a>,
    n: usize,
    remaining: usize,
    emitted: bool,
}

impl<'a> Limit<'a> {
    /// Creates a limit of `n` rows over `input`.
    pub fn new(input: BoxedOperator<'a>, n: usize) -> Self {
        Limit {
            input,
            n,
            remaining: n,
            emitted: false,
        }
    }
}

impl PhysicalOperator for Limit<'_> {
    fn name(&self) -> &'static str {
        "Limit"
    }

    fn describe(&self) -> String {
        format!("{}({})", self.name(), self.input.describe())
    }

    fn open(&mut self) -> Result<()> {
        self.remaining = self.n;
        self.emitted = false;
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        if self.remaining == 0 && self.emitted {
            return Ok(None);
        }
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        self.emitted = true;
        let take = self.remaining.min(batch.num_rows());
        self.remaining -= take;
        if take == batch.num_rows() {
            Ok(Some(batch))
        } else {
            Ok(Some(batch.limit(take)))
        }
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

/// Removes duplicate rows (first occurrence wins), streaming batch by batch
/// with a running set of the rows emitted so far: the whole row is the key
/// (see [`crate::kernels::keys`]; NULLs equal each other).
pub struct Distinct<'a> {
    input: BoxedOperator<'a>,
    seen: Vec<Vec<Value>>,
    index: ChainIndex,
}

impl<'a> Distinct<'a> {
    /// Creates a distinct over `input`.
    pub fn new(input: BoxedOperator<'a>) -> Self {
        Distinct {
            input,
            seen: Vec::new(),
            index: ChainIndex::default(),
        }
    }
}

impl PhysicalOperator for Distinct<'_> {
    fn name(&self) -> &'static str {
        "Distinct"
    }

    fn describe(&self) -> String {
        format!("{}({})", self.name(), self.input.describe())
    }

    fn open(&mut self) -> Result<()> {
        self.seen.clear();
        self.index = ChainIndex::default();
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let keys = BatchKeys::new(batch.columns().to_vec(), batch.num_rows());
        let mut mask = Vec::with_capacity(batch.num_rows());
        for (row, &hash) in keys.hashes.iter().enumerate() {
            let seen = &self.seen;
            let is_new = !(self.index.matches(hash)).any(|i| keys_eq(&seen[i], keys.row(row)));
            if is_new {
                self.index.insert(hash);
                self.seen.push(keys.row(row).cloned().collect());
            }
            mask.push(is_new);
        }
        batch.filter(&mask).map(Some).map_err(Into::into)
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}
