//! The fixed-capacity buffer pool of page frames and its spill files.
//!
//! Two layers live here:
//!
//! * [`BufferPool`] — the shared, bounded pool of page frames. One pool can
//!   back many concurrent queries; its capacity is a *global* budget.
//! * [`Pager`] — a per-query **lease** on a pool. Every page is owned by the
//!   lease that appended it; spill files, spill/eviction statistics and
//!   cleanup are all per-lease, so dropping a `Pager` (normally, on error,
//!   or on cancellation) releases every frame, disk slot and spill file the
//!   query created, no matter what the rest of the pool is doing.
//!
//! `Pager::new` creates a private pool with a single lease, which behaves
//! exactly like the historical single-query pager. `Pager::shared` joins an
//! existing pool, which is how the serving layer multiplexes sessions over
//! one global memory budget.
//!
//! ## Admission under concurrency
//!
//! Unpinned pages are evictable, so appends never block: the clock sweep
//! keeps residency at the budget. Pins are the hard case — a pinned frame
//! cannot be evicted, so concurrent pinners could jointly overshoot the
//! global limit without coordination. The pool therefore tracks pinned
//! bytes per lease and applies an *oldest-lease-proceeds* rule: a pin that
//! would push total pinned bytes past capacity waits (polling its
//! [`CancelToken`]) unless the pinning lease is the oldest active lease or
//! no other lease currently holds pins. The oldest lease never waits, so
//! there is no deadlock and every waiter eventually becomes oldest; a pool
//! with a single lease never waits at all, preserving the historical
//! soft-bound behaviour for standalone queries.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use super::{codec, MemoryBudget};
use crate::{CancelToken, RecordBatch, Result, StorageError};

/// How long a blocked pinner sleeps between admission re-checks. Short
/// enough that admission latency is dominated by the holder's work, long
/// enough not to spin.
const ADMISSION_POLL: Duration = Duration::from_micros(200);

/// A pager activity event, delivered to the registered observer as it
/// happens (the engine's tracing layer attaches these to operator spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagerEvent {
    /// A dirty page was encoded and appended to a spill file.
    SpillWrite {
        /// Encoded bytes written.
        bytes: usize,
    },
    /// An evicted page was read back and decoded from a spill file.
    SpillRead {
        /// Encoded bytes read.
        bytes: usize,
    },
    /// A page was dropped from the pool (spilled-dirty or already clean).
    Evict,
}

/// Observer callback receiving [`PagerEvent`]s; must be cheap and must not
/// call back into the pager (it runs under the pool lock). Events are
/// delivered to the lease *performing* the operation that caused them.
pub type PagerObserver = Arc<dyn Fn(PagerEvent) + Send + Sync>;

/// Shorthand for the borrowed observer threaded through pool internals.
type Notify<'a> = Option<&'a (dyn Fn(PagerEvent) + Send + Sync)>;

/// Opaque handle to a page owned by a [`Pager`] lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId(u64);

/// Counters describing a lease's spill and eviction activity, surfaced
/// through the engine's execution statistics. Attribution follows page
/// *ownership*: if global pressure from another query evicts this lease's
/// dirty page, the spill is charged here, because this lease pays the
/// fault-in later.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Dirty pages encoded and written to the lease's spill file.
    pub pages_spilled: usize,
    /// Encoded bytes written to the lease's spill file.
    pub spill_bytes_written: usize,
    /// Encoded bytes read back from the lease's spill file.
    pub spill_bytes_read: usize,
    /// Pages dropped from the pool (spilled-dirty or already-clean).
    pub pages_evicted: usize,
    /// Most pages of this lease resident in the pool at any one time.
    pub peak_resident_pages: usize,
}

/// A resident page frame.
struct Frame {
    batch: Arc<RecordBatch>,
    /// Approximate resident size, fixed at admission.
    bytes: usize,
    /// Lease that owns (created) this page.
    owner: u64,
    /// Not yet written to the spill file.
    dirty: bool,
    /// Pin count; pinned frames are never evicted.
    pins: usize,
    /// Clock reference bit: set on access, cleared by a passing hand.
    referenced: bool,
}

/// Location of an encoded page in its owner's spill file.
#[derive(Clone, Copy)]
struct DiskSlot {
    owner: u64,
    offset: u64,
    len: usize,
}

/// Per-lease pool state: statistics, spill file, residency accounting.
#[derive(Default)]
struct LeaseState {
    stats: PagerStats,
    spill: Option<SpillFile>,
    /// Frames owned by this lease currently resident.
    resident_pages: usize,
    /// Bytes of this lease's frames currently resident.
    resident_bytes: usize,
    /// Bytes of this lease's frames currently pinned (counted once per
    /// frame while `pins > 0`).
    pinned_bytes: usize,
    /// Per-lease resident-byte bound (the query's budget *share*): when
    /// exceeded, this lease's own unpinned pages are evicted even if the
    /// pool as a whole has room. `None` = bounded only by pool capacity.
    quota: Option<usize>,
    /// Whether this lease is currently parked in pin admission. Feeds the
    /// deadlock backstop in `may_pin`: when every *other* pin-holding lease
    /// is itself waiting, nobody can release pins, so the oldest waiter is
    /// granted rather than wedging the pool.
    waiting_for_pin: bool,
    /// The fault this lease's spill file injects.
    #[cfg(any(test, feature = "test-hooks"))]
    fault: Option<SpillFault>,
}

impl LeaseState {
    /// Whether this lease currently holds more resident bytes than its
    /// quota allows.
    fn over_quota(&self) -> bool {
        self.quota.is_some_and(|q| self.resident_bytes > q)
    }
}

/// The pool state behind the mutex.
struct PoolInner {
    frames: HashMap<u64, Frame>,
    disk: HashMap<u64, DiskSlot>,
    /// Resident page ids in clock order, swept by `hand`.
    clock: Vec<u64>,
    hand: usize,
    resident_bytes: usize,
    /// High-water mark of `resident_bytes`, sampled after each operation's
    /// eviction pass settles (so a transient admit-then-evict within one
    /// locked operation does not register).
    peak_resident_bytes: usize,
    /// Total bytes pinned across all leases.
    pinned_bytes: usize,
    next_page: u64,
    next_lease: u64,
    leases: HashMap<u64, LeaseState>,
}

/// A bounded, shareable buffer pool of [`RecordBatch`] pages with clock
/// eviction, per-lease spill-to-disk and reservation-aware pin admission.
/// See the [module docs](super) for the design.
///
/// Queries do not use a `BufferPool` directly — they hold a [`Pager`] lease
/// created with [`Pager::new`] (private pool) or [`Pager::shared`] (joining
/// a global pool).
pub struct BufferPool {
    capacity: Option<usize>,
    spill_dir: PathBuf,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// Creates an empty pool bounded by `budget`. No spill file is created
    /// until the first eviction of a dirty page.
    pub fn new(budget: &MemoryBudget) -> Self {
        BufferPool {
            capacity: budget.limit(),
            spill_dir: budget.spill_dir(),
            inner: Mutex::new(PoolInner {
                frames: HashMap::new(),
                disk: HashMap::new(),
                clock: Vec::new(),
                hand: 0,
                resident_bytes: 0,
                peak_resident_bytes: 0,
                pinned_bytes: 0,
                next_page: 0,
                next_lease: 0,
                leases: HashMap::new(),
            }),
        }
    }

    /// The pool's byte capacity (`None` = unlimited).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Bytes of decoded pages currently resident across all leases.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().resident_bytes
    }

    /// Pages currently resident across all leases.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// High-water mark of resident bytes, sampled after each operation's
    /// eviction pass. Under a limited budget this never exceeds capacity
    /// plus one page unless pinned bytes alone force it higher.
    pub fn peak_resident_bytes(&self) -> usize {
        self.inner.lock().peak_resident_bytes
    }

    /// Bytes currently pinned across all leases.
    pub fn pinned_bytes(&self) -> usize {
        self.inner.lock().pinned_bytes
    }

    /// Number of active leases (live [`Pager`] handles on this pool).
    pub fn lease_count(&self) -> usize {
        self.inner.lock().leases.len()
    }

    /// Number of spill files currently on disk (at most one per lease;
    /// deleted when their lease drops).
    pub fn spill_file_count(&self) -> usize {
        self.inner
            .lock()
            .leases
            .values()
            .filter(|l| l.spill.is_some())
            .count()
    }

    /// Paths of all live spill files (tests assert these disappear when the
    /// owning lease drops).
    pub fn spill_paths(&self) -> Vec<PathBuf> {
        self.inner
            .lock()
            .leases
            .values()
            .filter_map(|l| l.spill.as_ref().map(|s| s.path.clone()))
            .collect()
    }

    fn register_lease(&self) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.next_lease;
        inner.next_lease += 1;
        inner.leases.insert(id, LeaseState::default());
        id
    }

    /// Releases everything a lease owns: resident frames, disk slots and
    /// the spill file (deleted on drop of its handle).
    fn drop_lease(&self, lease: u64) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let owned: Vec<u64> = inner
            .frames
            .iter()
            .filter(|(_, f)| f.owner == lease)
            .map(|(&id, _)| id)
            .collect();
        for id in owned {
            let frame = inner.frames.remove(&id).expect("listed above");
            inner.resident_bytes -= frame.bytes;
            if frame.pins > 0 {
                // Unreachable in safe use (pins hold the lease alive), but
                // keep the global account consistent regardless.
                inner.pinned_bytes = inner.pinned_bytes.saturating_sub(frame.bytes);
            }
        }
        inner.disk.retain(|_, slot| slot.owner != lease);
        let frames = &inner.frames;
        inner.clock.retain(|id| frames.contains_key(id));
        inner.hand = 0;
        inner.leases.remove(&lease);
    }

    fn append_page(&self, lease: u64, batch: RecordBatch, notify: Notify<'_>) -> Result<PageId> {
        let mut inner = self.inner.lock();
        let id = inner.next_page;
        inner.next_page += 1;
        let bytes = batch.approx_size_bytes().max(1);
        inner.frames.insert(
            id,
            Frame {
                batch: Arc::new(batch),
                bytes,
                owner: lease,
                dirty: true,
                pins: 0,
                referenced: true,
            },
        );
        inner.clock.push(id);
        inner.resident_bytes += bytes;
        let state = self.lease_mut(&mut inner, lease);
        state.resident_pages += 1;
        state.resident_bytes += bytes;
        if let Err(e) = self.evict_to_capacity(&mut inner, notify) {
            // The caller never learns the page's id: it goes with the error.
            self.release(&mut inner, PageId(id))?;
            return Err(e);
        }
        self.settle(&mut inner);
        Ok(PageId(id))
    }

    /// Pins a page for `lease`, waiting for pin admission when the pool's
    /// pinned bytes are at capacity (see the module docs for the
    /// oldest-lease-proceeds rule). `cancel` is polled while waiting.
    fn pin_blocking(
        &self,
        lease: u64,
        id: PageId,
        cancel: &CancelToken,
        notify: Notify<'_>,
    ) -> Result<Arc<RecordBatch>> {
        loop {
            {
                let mut inner = self.inner.lock();
                // Bytes this pin would add to the pinned total: nothing if
                // the frame is already pinned, its resident size if loaded,
                // its encoded size as the best estimate if spilled.
                let incoming = if let Some(frame) = inner.frames.get(&id.0) {
                    if frame.pins > 0 {
                        0
                    } else {
                        frame.bytes
                    }
                } else if let Some(slot) = inner.disk.get(&id.0) {
                    slot.len.max(1)
                } else {
                    return Err(StorageError::Invalid {
                        detail: format!("unknown page {id:?}"),
                    });
                };
                if self.may_pin(&inner, lease, incoming) {
                    self.lease_mut(&mut inner, lease).waiting_for_pin = false;
                    self.fault_in(&mut inner, id, notify)?;
                    let frame = inner.frames.get_mut(&id.0).expect("faulted in above");
                    if frame.pins == 0 {
                        let bytes = frame.bytes;
                        let owner = frame.owner;
                        inner.pinned_bytes += bytes;
                        self.lease_mut(&mut inner, owner).pinned_bytes += bytes;
                    }
                    let frame = inner.frames.get_mut(&id.0).expect("faulted in above");
                    frame.pins += 1;
                    frame.referenced = true;
                    let batch = Arc::clone(&frame.batch);
                    // Evict only after taking the pin, so a fault under
                    // pressure can never throw its own page back out.
                    self.evict_to_capacity(&mut inner, notify)?;
                    self.settle(&mut inner);
                    return Ok(batch);
                }
                self.lease_mut(&mut inner, lease).waiting_for_pin = true;
            }
            cancel.check()?;
            std::thread::sleep(ADMISSION_POLL);
        }
    }

    /// Whether `lease` may take a pin adding `incoming` pinned bytes now.
    fn may_pin(&self, inner: &PoolInner, lease: u64, incoming: usize) -> bool {
        let Some(capacity) = self.capacity else {
            return true;
        };
        if inner.pinned_bytes + incoming <= capacity {
            return true;
        }
        // Over the pinned-byte budget. Waiting is pointless if nobody else
        // holds pins (soft bound — preserves the single-query behaviour
        // where one query's k-way merge may pin past capacity).
        if !inner
            .leases
            .iter()
            .any(|(&id, l)| id != lease && l.pinned_bytes > 0)
        {
            return true;
        }
        // The oldest active lease may overshoot, but only while the pinned
        // total is still within capacity — one grant at a time, so
        // concurrent pinners can never jointly exceed budget + one page.
        let oldest = inner.leases.keys().min().copied();
        if oldest != Some(lease) {
            return false;
        }
        if inner.pinned_bytes <= capacity {
            return true;
        }
        // Deadlock backstop: every other pin-holding lease is itself parked
        // in pin admission, so no release is coming — the oldest proceeds
        // rather than wedging the pool.
        inner
            .leases
            .iter()
            .all(|(&id, l)| id == lease || l.pinned_bytes == 0 || l.waiting_for_pin)
    }

    fn read_page(&self, id: PageId, notify: Notify<'_>) -> Result<Arc<RecordBatch>> {
        let mut inner = self.inner.lock();
        self.fault_in(&mut inner, id, notify)?;
        let frame = inner.frames.get_mut(&id.0).expect("faulted in above");
        frame.referenced = true;
        let batch = Arc::clone(&frame.batch);
        self.evict_to_capacity(&mut inner, notify)?;
        self.settle(&mut inner);
        Ok(batch)
    }

    fn free_page(&self, id: PageId) -> Result<()> {
        self.release(&mut self.inner.lock(), id)
    }

    /// Drops page `id` from memory and from its spill file's index; fails
    /// on a pinned page.
    fn release(&self, inner: &mut PoolInner, id: PageId) -> Result<()> {
        if let Some(frame) = inner.frames.get(&id.0) {
            if frame.pins > 0 {
                return Err(StorageError::Invalid {
                    detail: format!("cannot free pinned page {:?}", id),
                });
            }
            let bytes = frame.bytes;
            let owner = frame.owner;
            inner.frames.remove(&id.0);
            inner.resident_bytes -= bytes;
            let state = self.lease_mut(inner, owner);
            state.resident_pages -= 1;
            state.resident_bytes -= bytes;
            if let Some(pos) = inner.clock.iter().position(|&p| p == id.0) {
                inner.clock.remove(pos);
                if inner.hand > pos {
                    inner.hand -= 1;
                }
            }
        }
        inner.disk.remove(&id.0);
        Ok(())
    }

    fn unpin(&self, id: PageId, notify: Notify<'_>) {
        let mut inner = self.inner.lock();
        if let Some(frame) = inner.frames.get_mut(&id.0) {
            frame.pins = frame.pins.saturating_sub(1);
            if frame.pins == 0 {
                let bytes = frame.bytes;
                let owner = frame.owner;
                inner.pinned_bytes = inner.pinned_bytes.saturating_sub(bytes);
                let lease = self.lease_mut(&mut inner, owner);
                lease.pinned_bytes = lease.pinned_bytes.saturating_sub(bytes);
            }
        }
        // Unpinning may finally allow an overdue eviction; a failure here
        // only delays it until the next append/pin. Blocked pinners notice
        // the freed headroom on their next admission poll.
        let _ = self.evict_to_capacity(&mut inner, notify);
    }

    fn lease_stats(&self, lease: u64) -> PagerStats {
        self.inner
            .lock()
            .leases
            .get(&lease)
            .map(|l| l.stats)
            .unwrap_or_default()
    }

    fn lease_spill_path(&self, lease: u64) -> Option<PathBuf> {
        self.inner
            .lock()
            .leases
            .get(&lease)
            .and_then(|l| l.spill.as_ref().map(|s| s.path.clone()))
    }

    fn lease_resident_pages(&self, lease: u64) -> usize {
        self.inner
            .lock()
            .leases
            .get(&lease)
            .map(|l| l.resident_pages)
            .unwrap_or(0)
    }

    fn lease_mut<'a>(&self, inner: &'a mut PoolInner, lease: u64) -> &'a mut LeaseState {
        inner.leases.entry(lease).or_default()
    }

    /// Ensures `id` is resident, reading and decoding it from its owner's
    /// spill file if necessary (and possibly evicting something else to
    /// make room).
    fn fault_in(&self, inner: &mut PoolInner, id: PageId, notify: Notify<'_>) -> Result<()> {
        if inner.frames.contains_key(&id.0) {
            return Ok(());
        }
        let slot = *inner.disk.get(&id.0).ok_or_else(|| StorageError::Invalid {
            detail: format!("unknown page {id:?}"),
        })?;
        let lease = self.lease_mut(inner, slot.owner);
        let spill = lease.spill.as_mut().ok_or_else(|| StorageError::Invalid {
            detail: "page is on disk but no spill file exists".into(),
        })?;
        let bytes = spill.read(slot)?;
        lease.stats.spill_bytes_read += slot.len;
        if let Some(observer) = notify {
            observer(PagerEvent::SpillRead { bytes: slot.len });
        }
        let batch = codec::decode_batch(&bytes)?;
        let size = batch.approx_size_bytes().max(1);
        inner.frames.insert(
            id.0,
            Frame {
                batch: Arc::new(batch),
                bytes: size,
                owner: slot.owner,
                // Already safely on disk; evicting it again costs no write.
                dirty: false,
                pins: 0,
                referenced: true,
            },
        );
        inner.clock.push(id.0);
        inner.resident_bytes += size;
        let state = self.lease_mut(inner, slot.owner);
        state.resident_pages += 1;
        state.resident_bytes += size;
        Ok(())
    }

    /// Clock sweep: while the pool is over capacity or any lease is over
    /// its quota, evict the first eligible unpinned page whose reference
    /// bit is clear, clearing set bits along the way. When only a quota is
    /// exceeded (the pool itself has room), eligibility is restricted to
    /// the over-quota leases' own pages, so one query's small budget share
    /// never evicts a neighbour's working set. Dirty victims are encoded
    /// and appended to their owner's spill file first. Gives up (leaving
    /// the bound soft) when every resident page is pinned.
    fn evict_to_capacity(&self, inner: &mut PoolInner, notify: Notify<'_>) -> Result<()> {
        if self.capacity.is_none() && inner.leases.values().all(|l| l.quota.is_none()) {
            return Ok(());
        }
        let mut scanned_since_evict = 0;
        loop {
            let global_over = self
                .capacity
                .is_some_and(|capacity| inner.resident_bytes > capacity);
            let quota_over = inner.leases.values().any(LeaseState::over_quota);
            if (!global_over && !quota_over) || inner.clock.is_empty() {
                return Ok(());
            }
            if scanned_since_evict > 2 * inner.clock.len() {
                // Every page is pinned (or freshly referenced by a pinner):
                // nothing can go. The budget is a soft bound.
                return Ok(());
            }
            if inner.hand >= inner.clock.len() {
                inner.hand = 0;
            }
            let id = inner.clock[inner.hand];
            let frame = inner.frames.get_mut(&id).expect("clock tracks frames");
            if frame.pins > 0 {
                inner.hand += 1;
                scanned_since_evict += 1;
                continue;
            }
            if !global_over
                && !inner
                    .leases
                    .get(&frame.owner)
                    .is_some_and(LeaseState::over_quota)
            {
                // Quota-only pressure, and this page's owner is within its
                // share: not a candidate. Skip without touching its
                // reference bit, so capacity eviction order is unaffected.
                inner.hand += 1;
                scanned_since_evict += 1;
                continue;
            }
            let frame = inner.frames.get_mut(&id).expect("clock tracks frames");
            if frame.referenced {
                frame.referenced = false;
                inner.hand += 1;
                scanned_since_evict += 1;
                continue;
            }
            // Victim found.
            if frame.dirty {
                let encoded = codec::encode_batch(&frame.batch);
                let owner = frame.owner;
                let lease = self.lease_mut(inner, owner);
                if lease.spill.is_none() {
                    #[cfg(any(test, feature = "test-hooks"))]
                    let spill = match lease.fault {
                        Some(fault) => SpillFile::create_faulty(&self.spill_dir, fault)?,
                        None => SpillFile::create(&self.spill_dir)?,
                    };
                    #[cfg(not(any(test, feature = "test-hooks")))]
                    let spill = SpillFile::create(&self.spill_dir)?;
                    lease.spill = Some(spill);
                }
                let spill = lease.spill.as_mut().expect("created above");
                let slot_raw = spill.append(&encoded)?;
                let slot = DiskSlot {
                    owner,
                    offset: slot_raw.0,
                    len: slot_raw.1,
                };
                lease.stats.pages_spilled += 1;
                lease.stats.spill_bytes_written += slot.len;
                inner.disk.insert(id, slot);
                if let Some(observer) = notify {
                    observer(PagerEvent::SpillWrite { bytes: slot.len });
                }
            }
            let frame = inner.frames.remove(&id).expect("still resident");
            inner.resident_bytes -= frame.bytes;
            inner.clock.remove(inner.hand);
            let lease = self.lease_mut(inner, frame.owner);
            lease.resident_pages -= 1;
            lease.resident_bytes -= frame.bytes;
            lease.stats.pages_evicted += 1;
            if let Some(observer) = notify {
                observer(PagerEvent::Evict);
            }
            scanned_since_evict = 0;
        }
    }

    /// Samples high-water marks once an operation's eviction pass has
    /// settled.
    fn settle(&self, inner: &mut PoolInner) {
        inner.peak_resident_bytes = inner.peak_resident_bytes.max(inner.resident_bytes);
        for lease in inner.leases.values_mut() {
            lease.stats.peak_resident_pages =
                lease.stats.peak_resident_pages.max(lease.resident_pages);
        }
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident_pages", &inner.frames.len())
            .field("resident_bytes", &inner.resident_bytes)
            .field("pinned_bytes", &inner.pinned_bytes)
            .field("leases", &inner.leases.len())
            .field("spilled_pages", &inner.disk.len())
            .finish()
    }
}

/// A query's lease on a [`BufferPool`]: the interface operators use to
/// append, pin, read and free intermediate pages.
///
/// All methods take `&self`; the pager is shared across a query's worker
/// threads behind an `Arc`. Dropping the last handle releases every page
/// and spill file the lease owns — cancellation and error paths clean up
/// for free.
pub struct Pager {
    pool: Arc<BufferPool>,
    lease: u64,
    /// Polled in blocking admission waits and at append/pin entry, so a
    /// cancelled query stops spilling and pinning promptly.
    cancel: RwLock<CancelToken>,
    /// Event hooks (kept outside the pool lock so installing one never
    /// contends with pool operations). Every installed observer receives
    /// every event caused by *this* lease's operations, in installation
    /// order — tracing and metrics hooks compose instead of replacing each
    /// other.
    observer: RwLock<Vec<PagerObserver>>,
}

impl Pager {
    /// Creates a pager with its own private pool bounded by `budget` — the
    /// standalone single-query configuration. No file is created until the
    /// first eviction of a dirty page.
    pub fn new(budget: &MemoryBudget) -> Self {
        Pager::shared(&Arc::new(BufferPool::new(budget)))
    }

    /// Creates a new lease on an existing (typically global, shared) pool.
    pub fn shared(pool: &Arc<BufferPool>) -> Self {
        let lease = pool.register_lease();
        Pager {
            pool: Arc::clone(pool),
            lease,
            cancel: RwLock::new(CancelToken::new()),
            observer: RwLock::new(Vec::new()),
        }
    }

    /// The pool this lease draws from.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Installs the cancellation token polled by this lease's blocking and
    /// spill-adjacent operations. Replaces the default (never-cancelled)
    /// token.
    pub fn set_cancel_token(&self, token: CancelToken) {
        *self.cancel.write() = token;
    }

    /// Makes this lease's spill file inject `fault`. It takes effect when
    /// the file is created, at the lease's first spill.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn inject_spill_fault(&self, fault: SpillFault) {
        let mut inner = self.pool.inner.lock();
        self.pool.lease_mut(&mut inner, self.lease).fault = Some(fault);
    }

    /// Appends an observer to the set without disturbing the ones already
    /// installed — the composition point that lets the engine's tracing
    /// hook and the serving layer's metrics hook watch the same lease.
    /// Observers fire in installation order. Each callback fires
    /// synchronously at every spill write, spill read and eviction caused by
    /// this lease's operations; it runs under the pool lock, so it must be
    /// cheap and must not re-enter the pager.
    pub fn add_observer(&self, observer: PagerObserver) {
        self.observer.write().push(observer);
    }

    /// Snapshots the observer set and hands the borrowed fan-out callback
    /// the pool internals expect to `f`. Zero observers pass `None` (no
    /// per-event cost), one passes it directly, several fan out in
    /// installation order.
    fn with_observers<R>(&self, f: impl FnOnce(Notify<'_>) -> R) -> R {
        let observers = self.observer.read().clone();
        match observers.as_slice() {
            [] => f(None),
            [only] => f(Some(only.as_ref())),
            many => {
                let fan = |event: PagerEvent| {
                    for observer in many {
                        observer(event);
                    }
                };
                f(Some(&fan))
            }
        }
    }

    /// Admits a new page owned by this lease, evicting older unpinned pages
    /// if the pool is over budget. The page starts dirty (it exists nowhere
    /// but the pool).
    pub fn append_page(&self, batch: RecordBatch) -> Result<PageId> {
        self.cancel.read().check()?;
        self.with_observers(|notify| self.pool.append_page(self.lease, batch, notify))
    }

    /// Pins a page, faulting it back in from the spill file if it was
    /// evicted, and returns a guard that unpins on drop. Pinned pages are
    /// never evicted; when the pool's pinned bytes are at capacity the pin
    /// waits for admission (see the [module docs](super)).
    pub fn pin(self: &Arc<Self>, id: PageId) -> Result<PinnedPage> {
        let cancel = self.cancel.read().clone();
        cancel.check()?;
        let batch =
            self.with_observers(|notify| self.pool.pin_blocking(self.lease, id, &cancel, notify))?;
        Ok(PinnedPage {
            pager: Arc::clone(self),
            id,
            batch,
        })
    }

    /// Reads a page without holding a pin: the returned `Arc` keeps the data
    /// alive even if the frame is evicted afterwards, but the pool may
    /// reclaim the frame's budget immediately.
    pub fn read_page(&self, id: PageId) -> Result<Arc<RecordBatch>> {
        self.with_observers(|notify| self.pool.read_page(id, notify))
    }

    /// Drops a page from the pool and forgets its spill slot (the slot's
    /// bytes are reclaimed when the lease's spill file is deleted).
    ///
    /// Freeing a pinned page is an invariant violation and errors.
    pub fn free_page(&self, id: PageId) -> Result<()> {
        self.pool.free_page(id)
    }

    /// Bounds this lease's resident bytes to `quota` (the query's budget
    /// *share* of a larger shared pool): past it, the lease's own unpinned
    /// pages are evicted — and spilled if dirty — even while the pool as a
    /// whole has room. `None` removes the bound. The bound takes effect at
    /// the lease's next pool operation.
    pub fn set_quota(&self, quota: Option<usize>) {
        let mut inner = self.pool.inner.lock();
        self.pool.lease_mut(&mut inner, self.lease).quota = quota;
    }

    /// A snapshot of this lease's spill/eviction counters.
    pub fn stats(&self) -> PagerStats {
        self.pool.lease_stats(self.lease)
    }

    /// Bytes of decoded pages currently resident in the pool (all leases).
    pub fn resident_bytes(&self) -> usize {
        self.pool.resident_bytes()
    }

    /// Pages owned by this lease currently resident in the pool.
    pub fn resident_pages(&self) -> usize {
        self.pool.lease_resident_pages(self.lease)
    }

    /// The lease's spill file path, if one has been created.
    pub fn spill_path(&self) -> Option<PathBuf> {
        self.pool.lease_spill_path(self.lease)
    }

    fn unpin(&self, id: PageId) {
        self.with_observers(|notify| self.pool.unpin(id, notify));
    }
}

impl Drop for Pager {
    fn drop(&mut self) {
        self.pool.drop_lease(self.lease);
    }
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("lease", &self.lease)
            .field("resident_pages", &self.resident_pages())
            .field("pool", &self.pool)
            .finish()
    }
}

/// A pinned page: dereferences to the batch; unpins on drop.
pub struct PinnedPage {
    pager: Arc<Pager>,
    id: PageId,
    batch: Arc<RecordBatch>,
}

impl PinnedPage {
    /// The pinned page's id.
    pub fn id(&self) -> PageId {
        self.id
    }
}

impl std::ops::Deref for PinnedPage {
    type Target = RecordBatch;

    fn deref(&self) -> &RecordBatch {
        &self.batch
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        self.pager.unpin(self.id);
    }
}

/// Serialises spill-file naming across the process.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The storage under a spill file: append and read-at, nothing else. A
/// lease's spill file runs on a [`File`], or, in test builds, on a
/// [`FaultyDevice`] over one.
trait SpillDevice: Send {
    /// Writes all of `bytes` after the device's last byte and returns the
    /// offset they start at.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<u64>;

    /// Fills `buf` with the bytes starting at `offset`.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()>;
}

impl SpillDevice for File {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<u64> {
        let offset = self.seek(SeekFrom::End(0))?;
        self.write_all(bytes)?;
        Ok(offset)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.seek(SeekFrom::Start(offset))?;
        self.read_exact(buf)
    }
}

/// A fault a lease's spill device injects ([`Pager::inject_spill_fault`]).
#[cfg(any(test, feature = "test-hooks"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillFault {
    /// Every append writes the first half of its bytes, then fails.
    ShortWrite,
    /// Every append fails with "no space left on device", writing nothing.
    NoSpace,
    /// Appends succeed; every read fails.
    ReadError,
}

/// A spill file's [`File`] with a [`SpillFault`] in front of it.
#[cfg(any(test, feature = "test-hooks"))]
struct FaultyDevice {
    file: File,
    fault: SpillFault,
}

#[cfg(any(test, feature = "test-hooks"))]
impl SpillDevice for FaultyDevice {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<u64> {
        use std::io::{Error, ErrorKind};
        match self.fault {
            SpillFault::ShortWrite => {
                self.file.append(&bytes[..bytes.len() / 2])?;
                Err(Error::new(ErrorKind::WriteZero, "short write (injected)"))
            }
            SpillFault::NoSpace => Err(Error::new(
                ErrorKind::StorageFull,
                "no space left on device (injected)",
            )),
            SpillFault::ReadError => self.file.append(bytes),
        }
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        match self.fault {
            SpillFault::ReadError => Err(std::io::Error::other("read failed (injected)")),
            _ => self.file.read_at(offset, buf),
        }
    }
}

/// An append-only spill file, deleted from disk when dropped (drop also runs
/// while unwinding, so error and cancellation paths clean up too).
struct SpillFile {
    device: Box<dyn SpillDevice>,
    path: PathBuf,
}

impl SpillFile {
    fn create(dir: &std::path::Path) -> Result<Self> {
        let (file, path) = SpillFile::open(dir)?;
        Ok(SpillFile {
            device: Box::new(file),
            path,
        })
    }

    /// A spill file whose device injects `fault`.
    #[cfg(any(test, feature = "test-hooks"))]
    fn create_faulty(dir: &std::path::Path, fault: SpillFault) -> Result<Self> {
        let (file, path) = SpillFile::open(dir)?;
        Ok(SpillFile {
            device: Box::new(FaultyDevice { file, fault }),
            path,
        })
    }

    /// A new, empty file in `dir`, named uniquely in the process.
    fn open(dir: &std::path::Path) -> Result<(File, PathBuf)> {
        let name = format!(
            "sdb-spill-{}-{}.pages",
            std::process::id(),
            SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let path = dir.join(name);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| StorageError::Persistence {
                detail: format!("cannot create spill file {}: {e}", path.display()),
            })?;
        Ok((file, path))
    }

    /// Appends `bytes`, returning `(offset, len)`.
    fn append(&mut self, bytes: &[u8]) -> Result<(u64, usize)> {
        let offset = (self.device.append(bytes)).map_err(|e| StorageError::Persistence {
            detail: format!("spill write failed: {e}"),
        })?;
        Ok((offset, bytes.len()))
    }

    fn read(&mut self, slot: DiskSlot) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; slot.len];
        (self.device.read_at(slot.offset, &mut buf)).map_err(|e| StorageError::Persistence {
            detail: format!("spill read failed: {e}"),
        })?;
        Ok(buf)
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnDef, DataType, Schema, Value};

    fn batch(tag: i64, rows: usize) -> RecordBatch {
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::public("s", DataType::Varchar),
        ]);
        RecordBatch::from_rows(
            schema,
            (0..rows)
                .map(|i| {
                    vec![
                        Value::Int(tag * 1000 + i as i64),
                        Value::Str(format!("row-{tag}-{i}")),
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn unlimited_pager_never_spills() {
        let pager = Arc::new(Pager::new(&MemoryBudget::unlimited()));
        let ids: Vec<_> = (0..20)
            .map(|i| pager.append_page(batch(i, 50)).unwrap())
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(pager.read_page(*id).unwrap().as_ref(), &batch(i as i64, 50));
        }
        assert_eq!(pager.stats().pages_spilled, 0);
        assert!(pager.spill_path().is_none());
    }

    #[test]
    fn tiny_budget_spills_and_pages_fault_back_identical() {
        let one_page = batch(0, 50).approx_size_bytes();
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(one_page * 2)));
        let ids: Vec<_> = (0..10)
            .map(|i| pager.append_page(batch(i, 50)).unwrap())
            .collect();
        let stats = pager.stats();
        assert!(stats.pages_spilled > 0, "must have spilled: {stats:?}");
        assert!(stats.spill_bytes_written > 0);
        assert!(pager.resident_bytes() <= one_page * 2 + one_page);
        assert!(pager.spill_path().unwrap().exists());

        // Every page reads back byte-identical, in any order.
        for (i, id) in ids.iter().enumerate().rev() {
            assert_eq!(pager.read_page(*id).unwrap().as_ref(), &batch(i as i64, 50));
        }
        assert!(pager.stats().spill_bytes_read > 0);
        assert!(pager.stats().peak_resident_pages >= 2);
    }

    /// A page whose admission fails to spill the pool's victim goes with
    /// the error, so every page left resident is one the caller holds an
    /// id of; freeing those empties the lease, and the file goes with it.
    #[test]
    fn a_failed_spill_keeps_no_page_the_caller_cannot_free() {
        let one_page = batch(0, 50).approx_size_bytes();
        for fault in [SpillFault::ShortWrite, SpillFault::NoSpace] {
            let pager = Pager::new(&MemoryBudget::bytes(one_page * 2));
            pager.inject_spill_fault(fault);
            let mut ids = Vec::new();
            let failed = loop {
                match pager.append_page(batch(ids.len() as i64, 50)) {
                    Ok(id) => ids.push(id),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(failed, StorageError::Persistence { .. }),
                "{fault:?}: {failed:?}"
            );
            assert_eq!(pager.resident_pages(), ids.len(), "{fault:?}");
            for id in ids {
                pager.free_page(id).unwrap();
            }
            assert_eq!(pager.resident_pages(), 0);
            let path = pager.spill_path().expect("the spill file was created");
            drop(pager);
            assert!(!path.exists());
        }
    }

    #[test]
    fn lease_quota_bounds_residency_inside_a_roomy_pool() {
        let one_page = batch(0, 50).approx_size_bytes();
        // The pool itself has room for everything; only the quota binds.
        let pool = Arc::new(BufferPool::new(&MemoryBudget::bytes(one_page * 100)));
        let bounded = Arc::new(Pager::shared(&pool));
        bounded.set_quota(Some(one_page * 2));
        let free = Arc::new(Pager::shared(&pool));

        let free_ids: Vec<_> = (0..6)
            .map(|i| free.append_page(batch(100 + i, 50)).unwrap())
            .collect();
        let bounded_ids: Vec<_> = (0..6)
            .map(|i| bounded.append_page(batch(i, 50)).unwrap())
            .collect();

        // The bounded lease spilled its overflow even though the pool has
        // room; the unbounded neighbour's pages were left alone.
        let stats = bounded.stats();
        assert!(
            stats.pages_spilled > 0,
            "quota must force spilling: {stats:?}"
        );
        assert!(bounded.resident_pages() <= 3);
        assert_eq!(free.resident_pages(), 6);
        assert_eq!(free.stats().pages_evicted, 0);

        // Everything still reads back byte-identical.
        for (i, id) in bounded_ids.iter().enumerate() {
            assert_eq!(
                bounded.read_page(*id).unwrap().as_ref(),
                &batch(i as i64, 50)
            );
        }
        for (i, id) in free_ids.iter().enumerate() {
            assert_eq!(
                free.read_page(*id).unwrap().as_ref(),
                &batch(100 + i as i64, 50)
            );
        }
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let one_page = batch(0, 50).approx_size_bytes();
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(one_page)));
        let first = pager.append_page(batch(0, 50)).unwrap();
        let pinned = pager.pin(first).unwrap();
        // Push the pool far over budget; the pinned page must stay put.
        for i in 1..6 {
            pager.append_page(batch(i, 50)).unwrap();
        }
        assert_eq!(&*pinned, &batch(0, 50));
        assert_eq!(pinned.id(), first);
        drop(pinned);
        // Now it can be evicted; freeing it while pinned would have errored.
        for i in 6..10 {
            pager.append_page(batch(i, 50)).unwrap();
        }
        assert_eq!(pager.read_page(first).unwrap().as_ref(), &batch(0, 50));
    }

    #[test]
    fn free_rejects_pinned_and_forgets_pages() {
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(64)));
        let id = pager.append_page(batch(0, 10)).unwrap();
        let pin = pager.pin(id).unwrap();
        assert!(pager.free_page(id).is_err(), "pinned pages cannot be freed");
        drop(pin);
        pager.free_page(id).unwrap();
        assert!(pager.read_page(id).is_err(), "freed pages are gone");
        // Freeing twice is a no-op.
        pager.free_page(id).unwrap();
    }

    #[test]
    fn spill_file_removed_on_drop() {
        let dir = std::env::temp_dir();
        let path = {
            let pager = Arc::new(Pager::new(&MemoryBudget::bytes(32).with_spill_dir(&dir)));
            for i in 0..8 {
                pager.append_page(batch(i, 20)).unwrap();
            }
            let path = pager.spill_path().expect("tiny budget must spill");
            assert!(path.exists());
            path
        };
        assert!(!path.exists(), "drop must delete the spill file");
    }

    #[test]
    fn observer_sees_spill_writes_reads_and_evictions() {
        let one_page = batch(0, 50).approx_size_bytes();
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(one_page * 2)));
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        pager.add_observer(Arc::new(move |e| sink.lock().push(e)));

        let ids: Vec<_> = (0..6)
            .map(|i| pager.append_page(batch(i, 50)).unwrap())
            .collect();
        pager.read_page(ids[0]).unwrap();

        let seen = events.lock().clone();
        let stats = pager.stats();
        let writes = seen
            .iter()
            .filter(|e| matches!(e, PagerEvent::SpillWrite { .. }))
            .count();
        let reads = seen
            .iter()
            .filter(|e| matches!(e, PagerEvent::SpillRead { .. }))
            .count();
        let evicts = seen
            .iter()
            .filter(|e| matches!(e, PagerEvent::Evict))
            .count();
        assert_eq!(writes, stats.pages_spilled, "one event per spill write");
        assert!(reads > 0, "faulting page 0 back must emit a read");
        assert_eq!(evicts, stats.pages_evicted);
        assert!(seen.iter().all(|e| match e {
            PagerEvent::SpillWrite { bytes } | PagerEvent::SpillRead { bytes } => *bytes > 0,
            PagerEvent::Evict => true,
        }));
    }

    #[test]
    fn added_observers_compose_instead_of_replacing() {
        let one_page = batch(0, 50).approx_size_bytes();
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(one_page * 2)));
        let first = Arc::new(Mutex::new(Vec::new()));
        let second = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&first);
        pager.add_observer(Arc::new(move |e| sink.lock().push(e)));
        let sink = Arc::clone(&second);
        pager.add_observer(Arc::new(move |e| sink.lock().push(e)));

        for i in 0..6 {
            pager.append_page(batch(i, 50)).unwrap();
        }
        let seen_first = first.lock().clone();
        let seen_second = second.lock().clone();
        assert!(!seen_first.is_empty(), "tiny budget must emit events");
        assert_eq!(
            seen_first, seen_second,
            "every observer receives every event in the same order"
        );

        // A third observer joins the set: all three receive what follows.
        let third = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&third);
        pager.add_observer(Arc::new(move |e| sink.lock().push(e)));
        let (before_first, before_second) = (first.lock().len(), second.lock().len());
        for i in 6..9 {
            pager.append_page(batch(i, 50)).unwrap();
        }
        let late = third.lock().clone();
        assert!(!late.is_empty());
        assert_eq!(first.lock()[before_first..], late[..]);
        assert_eq!(second.lock()[before_second..], late[..]);
    }

    #[test]
    fn eviction_prefers_unreferenced_pages() {
        let one_page = batch(0, 50).approx_size_bytes();
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(one_page * 3)));
        let hot = pager.append_page(batch(0, 50)).unwrap();
        let cold = pager.append_page(batch(1, 50)).unwrap();
        // Keep touching the hot page while admitting new ones.
        for i in 2..8 {
            pager.read_page(hot).unwrap();
            pager.append_page(batch(i, 50)).unwrap();
        }
        // Both still readable regardless of which frame was chosen.
        assert_eq!(pager.read_page(hot).unwrap().as_ref(), &batch(0, 50));
        assert_eq!(pager.read_page(cold).unwrap().as_ref(), &batch(1, 50));
        assert!(pager.stats().pages_evicted > 0);
    }

    #[test]
    fn shared_leases_have_separate_spill_files_and_stats() {
        let one_page = batch(0, 50).approx_size_bytes();
        let dir = std::env::temp_dir();
        let pool = Arc::new(BufferPool::new(
            &MemoryBudget::bytes(one_page * 2).with_spill_dir(&dir),
        ));
        let a = Arc::new(Pager::shared(&pool));
        let b = Arc::new(Pager::shared(&pool));

        let a_ids: Vec<_> = (0..6)
            .map(|i| a.append_page(batch(i, 50)).unwrap())
            .collect();
        let b_ids: Vec<_> = (0..6)
            .map(|i| b.append_page(batch(100 + i, 50)).unwrap())
            .collect();

        assert!(a.stats().pages_spilled > 0);
        assert!(b.stats().pages_spilled > 0);
        let a_path = a.spill_path().unwrap();
        let b_path = b.spill_path().unwrap();
        assert_ne!(a_path, b_path, "one spill file per lease");
        assert_eq!(pool.spill_file_count(), 2);

        // Both leases read all their pages back byte-identical.
        for (i, id) in a_ids.iter().enumerate() {
            assert_eq!(a.read_page(*id).unwrap().as_ref(), &batch(i as i64, 50));
        }
        for (i, id) in b_ids.iter().enumerate() {
            assert_eq!(
                b.read_page(*id).unwrap().as_ref(),
                &batch(100 + i as i64, 50)
            );
        }

        // Dropping lease A releases its frames and deletes only its file.
        drop(a);
        assert!(!a_path.exists(), "lease drop must delete its spill file");
        assert!(b_path.exists(), "other lease's file must survive");
        assert_eq!(pool.lease_count(), 1);
        // B's pages are untouched.
        assert_eq!(b.read_page(b_ids[0]).unwrap().as_ref(), &batch(100, 50));
        drop(b);
        assert!(!b_path.exists());
        assert_eq!(pool.resident_pages(), 0);
        assert_eq!(pool.resident_bytes(), 0);
    }

    #[test]
    fn concurrent_pinners_cannot_jointly_exceed_budget_plus_one_page() {
        // Seeds are offset so every page renders the same value widths:
        // `one_page` is then exactly the size of ANY page, and the
        // budget-plus-one-page bound is tight.
        let one_page = batch(100, 50).approx_size_bytes();
        assert_eq!(one_page, batch(205, 50).approx_size_bytes());
        let capacity = one_page * 4;
        let pool = Arc::new(BufferPool::new(&MemoryBudget::bytes(capacity)));

        let mut handles = Vec::new();
        for t in 0..2i64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let pager = Arc::new(Pager::shared(&pool));
                let ids: Vec<_> = (0..6)
                    .map(|i| pager.append_page(batch(100 + t * 100 + i, 50)).unwrap())
                    .collect();
                for _ in 0..10 {
                    // Hold three pins at once — two threads naively would
                    // pin 6 pages into a 4-page budget.
                    let pins: Vec<_> = ids[..3].iter().map(|id| pager.pin(*id).unwrap()).collect();
                    for (i, pin) in pins.iter().enumerate() {
                        assert_eq!(&**pin, &batch(100 + t * 100 + i as i64, 50));
                    }
                    drop(pins);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            pool.peak_resident_bytes() <= capacity + one_page,
            "peak {} must stay within budget {} + one page {}",
            pool.peak_resident_bytes(),
            capacity,
            one_page
        );
        assert_eq!(pool.resident_pages(), 0, "all leases dropped");
    }

    #[test]
    fn cancelled_token_stops_append_and_pin() {
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(1024)));
        let id = pager.append_page(batch(0, 10)).unwrap();
        let token = CancelToken::new();
        pager.set_cancel_token(token.clone());
        token.cancel();
        assert_eq!(
            pager.append_page(batch(1, 10)),
            Err(StorageError::Cancelled)
        );
        assert!(matches!(pager.pin(id), Err(StorageError::Cancelled)));
        // Reads still work: cancellation stops new work, not cleanup paths
        // that may need to inspect state.
        assert!(pager.read_page(id).is_ok());
    }

    #[test]
    fn single_lease_never_blocks_on_admission() {
        // A lone query may pin past capacity (soft bound) — this must not
        // deadlock or wait.
        let one_page = batch(0, 50).approx_size_bytes();
        let pager = Arc::new(Pager::new(&MemoryBudget::bytes(one_page)));
        let ids: Vec<_> = (0..4)
            .map(|i| pager.append_page(batch(i, 50)).unwrap())
            .collect();
        let pins: Vec<_> = ids.iter().map(|id| pager.pin(*id).unwrap()).collect();
        assert_eq!(pins.len(), 4);
    }
}
