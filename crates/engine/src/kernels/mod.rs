//! Vectorised execution kernels over the columnar batch representation.
//!
//! Each kernel compiles a *subset* of the scalar evaluator's surface against
//! an input schema, then evaluates entire [`sdb_storage::RecordBatch`]es over
//! pivoted [`sdb_storage::ColumnarColumn`]s — typed vectors plus validity
//! bitmaps — instead of per-row [`sdb_storage::Value`] interpretation. Three
//! kernel families exist:
//!
//! * [`select`] — predicate → selection [`sdb_storage::Bitmap`], the seam's
//!   predicate entry (`Filter`, the nested-loop join);
//! * [`agg`] — global (no `GROUP BY`) SUM/COUNT/AVG/MIN/MAX folds;
//! * `shares` — expressions of the five SDB share UDFs over lanes of
//!   Montgomery limbs, for every operator that evaluates expressions into
//!   columns (`Project`, the hash aggregates, `OracleResolve`), behind
//!   `operators::expr::evaluate_exprs`.
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
//! identical to the scalar path. The share kernels are the one family that
//! evaluates UDF calls: they compile only the five share functions, check a
//! batch's cells before anything runs (a cell the interpreter would fail on
//! sends the whole batch to it), and count calls and key updates exactly as
//! the interpreter does. An operator runs a kernel whenever the expression's
//! shape compiles and the batch's cells pass its checks, and the row
//! interpreter ([`crate::eval`]) otherwise; the interpreter is also the
//! reference the kernel equivalence tests compare every kernel against.

pub mod agg;
#[cfg(test)]
mod keys;
pub mod select;
pub(crate) mod shares;

pub use agg::GlobalAggKernel;
pub use select::CompiledPredicate;
pub(crate) use shares::{KernelWork, ShareKernels};
