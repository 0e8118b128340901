//! The pager: bounded-memory page management for larger-than-RAM execution.
//!
//! Blocking operators (external sort runs, spilled aggregation partitions)
//! park intermediate [`crate::RecordBatch`]es here as *pages*. A shared
//! [`BufferPool`] keeps decoded pages resident in a fixed-capacity pool of
//! frames (pin/unpin, dirty tracking, clock eviction); when the pool exceeds
//! the configured [`MemoryBudget`] it evicts unpinned pages, encoding dirty
//! ones through the compact binary page codec ([`encode_batch`]) into
//! per-query append-only spill files in a temp directory.
//!
//! Queries hold a [`Pager`] — a *lease* on a pool. `Pager::new` gives a
//! private single-query pool; `Pager::shared` joins an existing global pool
//! (the serving layer's configuration). Spill files are created lazily on
//! the first eviction of one of the lease's dirty pages and deleted when
//! the lease is dropped — including on error and cancellation paths, since
//! drop runs during unwinding too.
//!
//! The budget is a *soft* bound on resident page bytes: pinned pages can
//! never be evicted, so a caller that pins more than the budget (e.g. a
//! k-way merge holding one page per run) temporarily exceeds it. Eviction
//! resumes as soon as pins are released. Under a shared pool, concurrent
//! pinners are additionally subject to reservation-aware admission: the
//! oldest active lease always proceeds, younger ones wait for pinned-byte
//! headroom.

mod codec;
mod pool;
mod stream;

pub use codec::{decode_batch, encode_batch};
#[cfg(any(test, feature = "test-hooks"))]
pub use pool::SpillFault;
pub use pool::{BufferPool, PageId, Pager, PagerEvent, PagerObserver, PagerStats, PinnedPage};
pub use stream::{PageStream, PageStreamReader, PageStreamScan, PageStreamWriter};

use std::path::{Path, PathBuf};

/// How much memory a query's blocking operators may keep resident before
/// they spill, and where spill files go.
///
/// The default is [`MemoryBudget::unlimited`]: nothing spills and no files
/// are created. A limited budget bounds both the pager's resident page bytes
/// and the operators' in-memory accumulation (sort runs, pending aggregation
/// rows); each side is bounded independently, so worst-case residency is a
/// small constant multiple of the budget, not the budget itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryBudget {
    bytes: Option<usize>,
    spill_dir: Option<PathBuf>,
}

impl MemoryBudget {
    /// No bound: operators materialise freely and the pager never evicts.
    pub fn unlimited() -> Self {
        MemoryBudget::default()
    }

    /// A bound of `limit` bytes (approximate, via
    /// [`crate::RecordBatch::approx_size_bytes`] accounting).
    ///
    /// Panics if `limit` is zero — use [`MemoryBudget::unlimited`] for "no
    /// budget".
    pub fn bytes(limit: usize) -> Self {
        assert!(limit > 0, "a memory budget must be positive");
        MemoryBudget {
            bytes: Some(limit),
            spill_dir: None,
        }
    }

    /// Overrides the directory spill files are created in (default: the
    /// system temp dir). The directory must already exist.
    pub fn with_spill_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.spill_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// The byte limit, or `None` when unlimited.
    pub fn limit(&self) -> Option<usize> {
        self.bytes
    }

    /// The directory spill files are created in.
    pub fn spill_dir(&self) -> PathBuf {
        self.spill_dir.clone().unwrap_or_else(std::env::temp_dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_by_default() {
        let b = MemoryBudget::default();
        assert_eq!(b.limit(), None);
        assert_eq!(b.spill_dir(), std::env::temp_dir());
    }

    #[test]
    fn limited_budget_with_custom_dir() {
        let b = MemoryBudget::bytes(4096).with_spill_dir("/some/dir");
        assert_eq!(b.limit(), Some(4096));
        assert_eq!(b.spill_dir(), PathBuf::from("/some/dir"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        let _ = MemoryBudget::bytes(0);
    }
}
