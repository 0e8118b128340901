//! # sdb-storage
//!
//! The storage substrate of the SDB reproduction: typed values, schemas, columnar
//! tables, record batches and a catalog. This is the "data store" half of the
//! service provider that the paper gets for free from Spark SQL — here it is built
//! from scratch so that the whole system is self-contained (see `ARCHITECTURE.md`,
//! "Crate map" and "Batches: shared buffers, windows, copy-on-write, column pruning").
//!
//! Sensitive columns are stored as [`Value::Encrypted`] residues (the `v_e` shares
//! of the paper) next to plain insensitive columns, exactly mirroring the paper's
//! storage layout: *"the SP stores the plain values of insensitive data and the
//! secret shares of sensitive data"*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bitmap;
pub mod cancel;
pub mod catalog;
pub mod column;
pub mod columnar;
pub mod error;
pub mod index;
pub mod keys;
pub mod pager;
pub mod persist;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use batch::{partition_ranges, RecordBatch};
pub use bitmap::Bitmap;
pub use cancel::CancelToken;
pub use catalog::Catalog;
pub use column::Column;
pub use columnar::{ColumnVector, ColumnarColumn};
pub use error::StorageError;
pub use index::{indexable, KeyIndex};
pub use pager::{
    BufferPool, MemoryBudget, PageId, PageStream, PageStreamReader, PageStreamScan,
    PageStreamWriter, Pager, PagerEvent, PagerObserver, PagerStats, PinnedPage,
};
pub use schema::{resolve_name, ColumnDef, NameResolution, Schema, Sensitivity};
pub use stats::{analyze_table, ColumnStats, HllSketch, TableStats};
pub use table::Table;
pub use value::{DataType, Value};

/// Library result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
