//! Per-query session state shared between the rewriter, the oracle and the
//! decryptor.
//!
//! During rewriting the proxy mints opaque *handles* — short identifiers the SP can
//! mention in UDF calls without learning anything — and records which column key
//! (and fixed-point decoding) each handle stands for. While the SP executes the
//! rewritten query it calls back through the oracle; the oracle resolves handles
//! against this session, and records the tag → value / rank → value mappings that
//! the decryptor later uses to turn opaque surrogates back into plaintext values.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use num_bigint::BigUint;
use parking_lot::Mutex;

use sdb_crypto::{ColumnKey, ItemKeyCounts};
use sdb_storage::Value;

use crate::meta::PlainType;
use crate::{ProxyError, Result};

/// What a handle refers to.
#[derive(Debug, Clone, PartialEq)]
pub enum HandleKey {
    /// A row-keyed column key: item keys are derived from the row id.
    RowKeyed {
        /// The column key of the (possibly rewritten) encrypted expression.
        key: ColumnKey,
        /// How decrypted integers decode back into values.
        decode: PlainType,
    },
    /// A row-independent key (`x = 0`): the item key is a constant.
    RowIndependent {
        /// The constant item key `m`.
        item_key: BigUint,
        /// How decrypted integers decode back into values.
        decode: PlainType,
    },
}

/// Per-query session state.
///
/// The serving layer shares one session between the rewriter (ahead of
/// execution) and the oracle (during execution, possibly from worker threads),
/// so all interior state is behind [`Mutex`]es / atomics and the type is
/// `Send + Sync` by construction — asserted at compile time in the tests.
#[derive(Debug, Default)]
pub struct QuerySession {
    handles: Mutex<HashMap<String, HandleKey>>,
    tag_values: Mutex<HashMap<u64, Value>>,
    rank_values: Mutex<HashMap<u64, Value>>,
    next_handle: AtomicUsize,
    next_rank_base: AtomicUsize,
    oracle_requests: AtomicUsize,
    oracle_rows: AtomicUsize,
    item_keys_derived: AtomicUsize,
    item_key_memo_hits: AtomicUsize,
}

impl QuerySession {
    /// Creates an empty session.
    pub fn new() -> Self {
        QuerySession::default()
    }

    /// Mints a fresh handle for the given key material.
    pub fn register_handle(&self, key: HandleKey) -> String {
        let id = self.next_handle.fetch_add(1, Ordering::Relaxed);
        let handle = format!("h{id}");
        self.handles.lock().insert(handle.clone(), key);
        handle
    }

    /// Looks up a handle.
    pub fn handle(&self, handle: &str) -> Result<HandleKey> {
        self.handles
            .lock()
            .get(handle)
            .cloned()
            .ok_or_else(|| ProxyError::Protocol {
                detail: format!("unknown key handle {handle}"),
            })
    }

    /// Number of handles issued.
    pub fn handle_count(&self) -> usize {
        self.handles.lock().len()
    }

    /// Records that a tag surrogate corresponds to a plaintext value.
    pub fn record_tag(&self, tag: u64, value: Value) {
        self.tag_values.lock().insert(tag, value);
    }

    /// Looks up the plaintext behind a tag surrogate.
    pub fn tag_value(&self, tag: u64) -> Option<Value> {
        self.tag_values.lock().get(&tag).cloned()
    }

    /// Reserves a contiguous block of `count` rank surrogate identifiers, so that
    /// ranks issued for different oracle requests never collide. The surrogates
    /// themselves carry no information beyond relative order *within one request*
    /// — the SP cannot invert them back to plaintext values.
    pub fn allocate_rank_base(&self, count: usize) -> u64 {
        (self
            .next_rank_base
            .fetch_add(count.max(1), Ordering::Relaxed) as u64)
            + 1
    }

    /// Records that a rank surrogate corresponds to a plaintext value.
    pub fn record_rank(&self, rank: u64, value: Value) {
        self.rank_values.lock().insert(rank, value);
    }

    /// Looks up the plaintext behind a rank surrogate.
    pub fn rank_value(&self, rank: u64) -> Option<Value> {
        self.rank_values.lock().get(&rank).cloned()
    }

    /// Counts one oracle round trip of `rows` rows (client-cost accounting).
    pub fn count_oracle_request(&self, rows: usize) {
        self.oracle_requests.fetch_add(1, Ordering::Relaxed);
        self.oracle_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Number of oracle requests served so far.
    pub fn oracle_requests(&self) -> usize {
        self.oracle_requests.load(Ordering::Relaxed)
    }

    /// Number of oracle rows resolved so far.
    pub fn oracle_rows(&self) -> usize {
        self.oracle_rows.load(Ordering::Relaxed)
    }

    /// Counts how one batch of row-keyed item keys was obtained (oracle
    /// requests and result decryption alike).
    pub fn count_item_keys(&self, counts: ItemKeyCounts) {
        (self.item_keys_derived).fetch_add(counts.derived, Ordering::Relaxed);
        (self.item_key_memo_hits).fetch_add(counts.hits, Ordering::Relaxed);
    }

    /// Row-keyed item keys derived by exponentiation so far.
    pub fn item_keys_derived(&self) -> usize {
        self.item_keys_derived.load(Ordering::Relaxed)
    }

    /// Row-keyed item keys served from the proxy's memo so far.
    pub fn item_key_memo_hits(&self) -> usize {
        self.item_key_memo_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_and_proxy_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuerySession>();
        assert_send_sync::<crate::SdbProxy>();
    }

    #[test]
    fn handles_are_unique_and_resolvable() {
        let session = QuerySession::new();
        let h1 = session.register_handle(HandleKey::RowIndependent {
            item_key: BigUint::from(5u32),
            decode: PlainType::Int,
        });
        let h2 = session.register_handle(HandleKey::RowIndependent {
            item_key: BigUint::from(6u32),
            decode: PlainType::Int,
        });
        assert_ne!(h1, h2);
        assert_eq!(session.handle_count(), 2);
        match session.handle(&h1).unwrap() {
            HandleKey::RowIndependent { item_key, .. } => assert_eq!(item_key, BigUint::from(5u32)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(session.handle("h999").is_err());
    }

    #[test]
    fn surrogate_maps_roundtrip() {
        let session = QuerySession::new();
        session.record_tag(42, Value::Str("grp".into()));
        session.record_rank(7, Value::Int(-3));
        assert_eq!(session.tag_value(42), Some(Value::Str("grp".into())));
        assert_eq!(session.rank_value(7), Some(Value::Int(-3)));
        assert_eq!(session.tag_value(1), None);
    }

    #[test]
    fn oracle_accounting() {
        let session = QuerySession::new();
        session.count_oracle_request(10);
        session.count_oracle_request(5);
        assert_eq!(session.oracle_requests(), 2);
        assert_eq!(session.oracle_rows(), 15);
        session.count_item_keys(ItemKeyCounts {
            derived: 3,
            hits: 4,
        });
        session.count_item_keys(ItemKeyCounts {
            derived: 0,
            hits: 2,
        });
        assert_eq!(session.item_keys_derived(), 3);
        assert_eq!(session.item_key_memo_hits(), 6);
    }
}
