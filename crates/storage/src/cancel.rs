//! Cooperative query cancellation.
//!
//! A [`CancelToken`] is a cheap, cloneable flag shared between a running
//! query and whoever may need to stop it (a serving session's `cancel()`
//! call, an admission timeout, a shutdown path). Execution code *polls* the
//! token at its natural yield points — operator `next_batch` loops, oracle
//! flushes, pager admissions and spill writes — via [`CancelToken::check`],
//! which returns [`StorageError::Cancelled`] once the token is tripped.
//! Cancellation is therefore cooperative and prompt but never preemptive:
//! a cancelled query unwinds through its normal error path, so RAII cleanup
//! (pager leases, spill files, pinned frames) runs exactly as it would on
//! any other error.
//!
//! For deterministic tests the token can also be armed to trip itself after
//! a fixed number of polls ([`CancelToken::cancel_after_checks`]): because a
//! serial query polls in a reproducible order, "cancel mid-scan" or "cancel
//! mid-spill" become exact, replayable program points instead of timing
//! races.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::{Result, StorageError};

/// Poll count that disables the self-trip fuse.
const FUSE_DISARMED: u64 = u64::MAX;

#[derive(Debug)]
struct TokenState {
    cancelled: AtomicBool,
    /// Number of [`CancelToken::check`] calls observed so far.
    checks: AtomicU64,
    /// Trip the token when `checks` reaches this value (tests);
    /// [`FUSE_DISARMED`] means never.
    fuse: AtomicU64,
}

impl Default for TokenState {
    fn default() -> Self {
        TokenState {
            cancelled: AtomicBool::new(false),
            checks: AtomicU64::new(0),
            fuse: AtomicU64::new(FUSE_DISARMED),
        }
    }
}

/// A cloneable cancellation flag polled cooperatively by running queries.
///
/// All clones share one underlying flag: cancelling any clone cancels them
/// all. The default token is never cancelled until someone calls
/// [`CancelToken::cancel`].
///
/// ```
/// use sdb_storage::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(token.check().is_ok());
/// token.cancel();
/// assert!(token.check().is_err());
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<TokenState>,
}

impl CancelToken {
    /// Creates an untripped token (the same as [`CancelToken::default`]).
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Creates a token that trips itself on the `n`-th [`check`] call
    /// (1-based): the first `n - 1` checks pass, the `n`-th and all later
    /// ones fail. Serial queries poll in a deterministic order, so this pins
    /// "cancel exactly mid-scan / mid-spill / mid-flush" without timing
    /// races (tests).
    ///
    /// [`check`]: CancelToken::check
    pub fn cancel_after_checks(n: u64) -> Self {
        let token = CancelToken::new();
        token.state.fuse.store(n, Ordering::Relaxed);
        token
    }

    /// Trips the token. Idempotent; all clones observe the cancellation.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped (without counting as a poll).
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::Acquire)
    }

    /// Number of [`CancelToken::check`] polls observed so far (tests use
    /// this to calibrate [`CancelToken::cancel_after_checks`] fuses).
    pub fn checks(&self) -> u64 {
        self.state.checks.load(Ordering::Relaxed)
    }

    /// Polls the token: returns [`StorageError::Cancelled`] if it has been
    /// tripped (or trips now, when armed with
    /// [`CancelToken::cancel_after_checks`]), `Ok(())` otherwise.
    pub fn check(&self) -> Result<()> {
        let polls = self.state.checks.fetch_add(1, Ordering::Relaxed) + 1;
        if polls >= self.state.fuse.load(Ordering::Relaxed) {
            self.cancel();
        }
        if self.is_cancelled() {
            Err(StorageError::Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_trips_on_its_own() {
        for token in [CancelToken::new(), CancelToken::default()] {
            for _ in 0..1000 {
                token.check().unwrap();
            }
            assert_eq!(token.checks(), 1000);
            assert!(!token.is_cancelled());
        }
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.check(), Err(StorageError::Cancelled));
    }

    #[test]
    fn fuse_trips_on_the_exact_poll() {
        let token = CancelToken::cancel_after_checks(3);
        token.check().unwrap();
        token.check().unwrap();
        assert!(token.check().is_err(), "third poll must trip");
        assert!(token.check().is_err(), "and it stays tripped");
        assert!(token.is_cancelled());
    }

    #[test]
    fn is_cancelled_does_not_count_as_a_poll() {
        let token = CancelToken::cancel_after_checks(1);
        assert!(!token.is_cancelled());
        assert!(!token.is_cancelled());
        assert!(token.check().is_err());
    }
}
