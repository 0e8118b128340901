//! Vectorised execution kernels over the columnar batch representation.
//!
//! Each kernel compiles a *subset* of the scalar evaluator's surface against
//! an input schema, then evaluates entire [`sdb_storage::RecordBatch`]es over
//! pivoted [`sdb_storage::ColumnarColumn`]s — typed vectors plus validity
//! bitmaps — instead of per-row [`sdb_storage::Value`] interpretation. Two
//! kernel families exist:
//!
//! * [`select`] — predicate → selection [`sdb_storage::Bitmap`] for `Filter`;
//! * [`agg`] — global (no `GROUP BY`) SUM/COUNT/AVG/MIN/MAX folds.
//!
//! The one key path of every keyed operator — key columns, a hash per row,
//! the key equality and the chained index joins, grouping and `DISTINCT`
//! share — is [`sdb_storage::keys`], because the catalog's hash indexes are
//! built from it too.
//!
//! Compilation is conservative: anything that could *error* or call a UDF in
//! the scalar path (mixed-type comparisons, computed expressions, subqueries)
//! refuses to compile, so the kernels are infallible at evaluation time and
//! every observable — result bytes, error surfaces, oracle call counts — is
//! identical to the scalar path. Operators consult
//! [`ExecContext::vectorised`](crate::operators::ExecContext::vectorised)
//! (disabled via `SDB_TEST_SCALAR_EVAL=1`) and fall back to the scalar
//! interpreter whenever a kernel declines.

pub mod agg;
#[cfg(test)]
mod keys;
pub mod select;

pub use agg::GlobalAggKernel;
pub use select::CompiledPredicate;
