//! Per-query budget admission.
//!
//! The server divides its global memory budget into per-query shares. A query
//! asks the [`AdmissionController`] for a slot before executing; when the pool
//! is hot (all slots taken) the submission either *queues* — strict FIFO by
//! ticket number, so a starved session is always next in line and livelock is
//! impossible — or *degrades*: it runs immediately on a deliberately small
//! budget share, on which its blocking operators spill through the pager
//! instead of holding working sets in memory.
//!
//! Waiting is a cancel-aware sleep-poll loop (the workspace's `parking_lot`
//! shim has no condvar), so a queued query can still be cancelled promptly.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

use sdb_storage::{CancelToken, MemoryBudget};

use crate::error::{Result, ServerError};

/// How often a queued submission re-checks for a free slot.
const ADMISSION_POLL: Duration = Duration::from_micros(200);

/// Smallest budget share ever handed to a query, so `MemoryBudget::bytes`
/// stays valid and a degraded plan can still pin one page at a time.
const MIN_SHARE: usize = 4096;

/// What a pool-hot submission does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Wait in FIFO order for a slot to free up.
    Queue,
    /// Run immediately on a reduced budget share (spilling plans).
    Degrade,
}

#[derive(Debug, Default)]
struct Inner {
    /// Queries currently holding a slot (or running degraded).
    running: usize,
    /// Next ticket number to hand out.
    next_ticket: u64,
    /// Lowest ticket allowed to take a slot (FIFO front).
    next_admit: u64,
    /// Tickets whose waiter was cancelled before admission; the FIFO front
    /// steps over them instead of waiting forever.
    abandoned: std::collections::HashSet<u64>,
    /// Submissions currently waiting in the queue.
    waiting: usize,
    /// Tickets in the order they were actually admitted.
    admitted: Vec<u64>,
    /// Submissions that waited at least one poll before admission.
    total_queued: usize,
    /// Submissions admitted on a degraded share.
    total_degraded: usize,
}

impl Inner {
    /// Advances the FIFO front past tickets whose waiters gave up.
    fn skip_abandoned(&mut self) {
        while self.abandoned.remove(&self.next_admit) {
            self.next_admit += 1;
        }
    }
}

/// FIFO slot-based admission over a global memory budget.
#[derive(Debug)]
pub struct AdmissionController {
    max_concurrent: usize,
    mode: AdmissionMode,
    budget: MemoryBudget,
    inner: Mutex<Inner>,
}

impl AdmissionController {
    /// Creates a controller with `max_concurrent` slots over `budget`.
    ///
    /// `max_concurrent` is clamped to at least one slot.
    pub fn new(max_concurrent: usize, mode: AdmissionMode, budget: MemoryBudget) -> Self {
        AdmissionController {
            max_concurrent: max_concurrent.max(1),
            mode,
            budget,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Admits one query, blocking (cancellably) while the pool is hot in
    /// [`AdmissionMode::Queue`]. Returns the grant carrying this query's
    /// budget share; dropping the grant frees the slot.
    pub fn admit(&self, cancel: &CancelToken) -> Result<AdmissionGrant<'_>> {
        let submitted = Instant::now();
        let ticket = {
            let mut inner = self.inner.lock();
            let ticket = inner.next_ticket;
            inner.next_ticket += 1;
            ticket
        };
        let mut queued = false;
        loop {
            {
                let mut inner = self.inner.lock();
                inner.skip_abandoned();
                if ticket == inner.next_admit {
                    let slot_free = inner.running < self.max_concurrent;
                    if slot_free || self.mode == AdmissionMode::Degrade {
                        let degraded = !slot_free;
                        inner.running += 1;
                        inner.next_admit += 1;
                        inner.admitted.push(ticket);
                        if queued {
                            inner.waiting -= 1;
                            inner.total_queued += 1;
                        }
                        if degraded {
                            inner.total_degraded += 1;
                        }
                        return Ok(AdmissionGrant {
                            controller: self,
                            budget: self.share(degraded),
                            queued,
                            degraded,
                            wait: submitted.elapsed(),
                        });
                    }
                }
                if !queued {
                    queued = true;
                    inner.waiting += 1;
                }
            }
            if cancel.check().is_err() {
                let mut inner = self.inner.lock();
                if queued {
                    inner.waiting -= 1;
                }
                // A cancelled waiter must not wedge the FIFO front: mark its
                // ticket abandoned so the queue steps over it.
                inner.abandoned.insert(ticket);
                inner.skip_abandoned();
                return Err(ServerError::Cancelled);
            }
            std::thread::sleep(ADMISSION_POLL);
        }
    }

    /// This query's budget share: the global limit divided across slots
    /// (quartered again when `degraded`), floored at a page. An unlimited
    /// global budget yields unlimited shares.
    fn share(&self, degraded: bool) -> MemoryBudget {
        match self.budget.limit() {
            None => MemoryBudget::unlimited(),
            Some(limit) => {
                let per = (limit / self.max_concurrent).max(MIN_SHARE);
                let per = if degraded {
                    (per / 4).max(MIN_SHARE)
                } else {
                    per
                };
                MemoryBudget::bytes(per).with_spill_dir(self.budget.spill_dir())
            }
        }
    }

    /// Number of admission slots.
    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// The pool-hot policy.
    pub fn mode(&self) -> AdmissionMode {
        self.mode
    }

    /// Queries currently holding a slot.
    pub fn running(&self) -> usize {
        self.inner.lock().running
    }

    /// Submissions currently queued.
    pub fn waiting(&self) -> usize {
        self.inner.lock().waiting
    }

    /// Tickets in admission order (tickets are handed out in submission
    /// order, so in [`AdmissionMode::Queue`] this sequence is monotonic —
    /// the FIFO guarantee the tests assert).
    pub fn admitted_order(&self) -> Vec<u64> {
        self.inner.lock().admitted.clone()
    }

    /// Submissions that waited in the queue before running.
    pub fn total_queued(&self) -> usize {
        self.inner.lock().total_queued
    }

    /// Submissions that ran on a degraded share.
    pub fn total_degraded(&self) -> usize {
        self.inner.lock().total_degraded
    }
}

/// A granted admission slot. Holds the query's budget share; dropping the
/// grant releases the slot to the next queued submission.
#[derive(Debug)]
pub struct AdmissionGrant<'a> {
    controller: &'a AdmissionController,
    budget: MemoryBudget,
    queued: bool,
    degraded: bool,
    wait: Duration,
}

impl AdmissionGrant<'_> {
    /// The budget share this query should plan under.
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Whether this submission waited in the queue.
    pub fn queued(&self) -> bool {
        self.queued
    }

    /// Whether this submission runs on a degraded (spilling) share.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// How long the submission waited between asking for a slot and being
    /// admitted — measured by the controller itself, so the metrics
    /// registry's wait histogram sees the true queueing delay.
    pub fn wait(&self) -> Duration {
        self.wait
    }
}

impl Drop for AdmissionGrant<'_> {
    fn drop(&mut self) {
        self.controller.inner.lock().running -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_share_of_global_budget() {
        let ctl = AdmissionController::new(4, AdmissionMode::Queue, MemoryBudget::bytes(1 << 20));
        let cancel = CancelToken::new();
        let grant = ctl.admit(&cancel).unwrap();
        assert_eq!(grant.budget().limit(), Some((1 << 20) / 4));
        assert!(!grant.queued());
        assert!(!grant.degraded());
        assert_eq!(ctl.running(), 1);
        drop(grant);
        assert_eq!(ctl.running(), 0);
    }

    #[test]
    fn degrade_mode_admits_past_capacity_on_reduced_share() {
        let ctl = AdmissionController::new(1, AdmissionMode::Degrade, MemoryBudget::bytes(1 << 20));
        let cancel = CancelToken::new();
        let first = ctl.admit(&cancel).unwrap();
        let second = ctl.admit(&cancel).unwrap();
        assert!(!first.degraded());
        assert!(second.degraded());
        assert_eq!(second.budget().limit(), Some((1 << 20) / 4));
        assert_eq!(ctl.total_degraded(), 1);
        assert_eq!(ctl.running(), 2);
    }

    #[test]
    fn queue_mode_is_fifo() {
        let ctl = std::sync::Arc::new(AdmissionController::new(
            1,
            AdmissionMode::Queue,
            MemoryBudget::unlimited(),
        ));
        let cancel = CancelToken::new();
        let first = ctl.admit(&cancel).unwrap();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let worker = std::sync::Arc::clone(&ctl);
                let waiters_before = ctl.waiting();
                let handle = std::thread::spawn(move || {
                    let grant = worker.admit(&CancelToken::new()).unwrap();
                    assert!(grant.queued());
                });
                // Serialise ticket issue: wait until this waiter is queued
                // before spawning the next, so submission order is known.
                while ctl.waiting() <= waiters_before {
                    std::thread::sleep(Duration::from_micros(50));
                }
                handle
            })
            .collect();
        drop(first);
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(ctl.admitted_order(), vec![0, 1, 2, 3]);
        assert_eq!(ctl.total_queued(), 3);
    }

    #[test]
    fn cancelled_waiter_does_not_wedge_the_queue() {
        let ctl = std::sync::Arc::new(AdmissionController::new(
            1,
            AdmissionMode::Queue,
            MemoryBudget::unlimited(),
        ));
        let first = ctl.admit(&CancelToken::new()).unwrap();
        let cancel = CancelToken::new();
        let waiter = {
            let ctl = std::sync::Arc::clone(&ctl);
            let cancel = cancel.clone();
            std::thread::spawn(move || ctl.admit(&cancel).map(|_| ()))
        };
        while ctl.waiting() == 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        cancel.cancel();
        assert!(matches!(
            waiter.join().unwrap(),
            Err(ServerError::Cancelled)
        ));
        // The slot the cancelled waiter never got still flows to the next.
        drop(first);
        let grant = ctl.admit(&CancelToken::new()).unwrap();
        assert!(!grant.degraded());
    }
}
