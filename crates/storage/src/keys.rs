//! The one key path: the engine's keyed operators — hash joins (in-memory
//! and Grace), grouping (in-memory, parallel merge and spilling),
//! `DISTINCT`, `COUNT(DISTINCT)` and both spill partitioners — and the
//! catalog's hash indexes over public columns ([`crate::index`]).
//!
//! A key is the values themselves. Per batch each key expression is a
//! [`Column`] and [`BatchKeys`] adds one `u64` per row; row-major holders
//! (group states, spilled rows, index probes) hash their values with
//! [`hash_key`], which agrees. Hashes only route: a [`ChainIndex`] hands back
//! the entries whose hash matches and the caller confirms each — with
//! [`key_eq`], or, for an index, with the query's own predicate — so a
//! collision costs a comparison and never a wrong match.
//!
//! **The equality.** `INT`, `DECIMAL`, `DATE` and `BOOL` are one class and
//! compare as [`Value::as_scaled_i128`] at scale 4 — `1`, `1.0`, `1.00`,
//! `TRUE` and day 1 agree, digits past the fourth decimal are truncated
//! (`1.00001` = `1.00002`). Strings, tags, shares and encrypted row ids each
//! compare within their own class only; classes never match each other. NULL
//! equals NULL, which is what grouping and `DISTINCT` want (NULLs form one
//! group); joins skip rows flagged in [`BatchKeys::nulls`] instead, so a NULL
//! component matches nothing.
//!
//! **The hasher** is deterministic — no per-process seed — because
//! [`partition_of`] must send a key to the same spill partition every time it
//! is re-read at a level. That gives up `HashMap`'s protection against
//! crafted collisions. An operator's table lives as long as the operator, but
//! a catalog index outlives every query: it is kept for as long as its table.
//! Both stay acceptable. An index covers only public plaintext columns — the
//! tenant's own values, which only the tenant can insert — and in either
//! kind of table a collision degrades a probe to a walk of its chain (plus,
//! for an index, the predicate on each candidate row), never to a wrong row.

use crate::{Column, Value};

/// What separates the classes (and NULL) in the hash.
const CLASS_NULL: u64 = 0;
const CLASS_NUMERIC: u64 = 1;
const CLASS_STR: u64 = 2;
const CLASS_TAG: u64 = 3;
const CLASS_ENCRYPTED: u64 = 4;
const CLASS_ROW_ID: u64 = 5;

/// The state every row's hash starts from.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

#[cfg(any(test, feature = "test-hooks"))]
thread_local! {
    /// Test hook: every hash computed on this thread is 0, so equality alone
    /// decides every match. Compiled only into test builds (the `test-hooks`
    /// feature, which the engine's tests turn on).
    pub static FORCE_COLLISIONS: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// Folds one word into a running hash state.
#[inline]
fn mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Folds a byte string (length first, so component boundaries cannot alias).
#[inline]
fn mix_bytes(state: u64, bytes: &[u8]) -> u64 {
    let mut state = mix(state, bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        state = mix(
            state,
            u64::from_le_bytes(chunk.try_into().expect("8 bytes")),
        );
    }
    let mut tail = [0u8; 8];
    let rest = chunks.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    mix(state, u64::from_le_bytes(tail))
}

/// Spreads a folded state over all 64 bits (the index masks the low ones).
#[inline]
fn finish(state: u64) -> u64 {
    #[cfg(any(test, feature = "test-hooks"))]
    if FORCE_COLLISIONS.with(std::cell::Cell::get) {
        return 0;
    }
    let mut h = state;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The numeric class's common representation: units at scale 4.
#[inline]
fn scaled4(v: &Value) -> Option<i128> {
    match v {
        Value::Int(x) => Some(i128::from(*x) * 10_000),
        Value::Date(d) => Some(i128::from(*d) * 10_000),
        Value::Bool(b) => Some(i128::from(*b) * 10_000),
        Value::Decimal { .. } => v.as_scaled_i128(4).ok(),
        _ => None,
    }
}

/// Folds one key component into a row's hash state, agreeing with [`key_eq`].
#[inline]
fn mix_value(state: u64, v: &Value) -> u64 {
    match v {
        Value::Null => mix(state, CLASS_NULL),
        Value::Str(s) => mix_bytes(mix(state, CLASS_STR), s.as_bytes()),
        Value::Tag(t) => mix(mix(state, CLASS_TAG), *t),
        Value::Encrypted(e) => {
            let digits = e.iter_u64_digits();
            let state = mix(mix(state, CLASS_ENCRYPTED), digits.len() as u64);
            digits.fold(state, mix)
        }
        Value::EncryptedRowId(r) => {
            let state = mix(mix(mix(state, CLASS_ROW_ID), r.0.nonce), r.0.tag);
            mix_bytes(state, &r.0.body)
        }
        numeric => {
            let units = scaled4(numeric).expect("every other variant is numeric");
            mix(
                mix(mix(state, CLASS_NUMERIC), units as u64),
                (units >> 64) as u64,
            )
        }
    }
}

/// Whether two key components are the same key (see the [module docs](self)
/// for the relation). Total: NULL equals NULL.
#[inline]
pub fn key_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Date(x), Value::Date(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Tag(x), Value::Tag(y)) => x == y,
        (Value::Encrypted(x), Value::Encrypted(y)) => x == y,
        (Value::EncryptedRowId(x), Value::EncryptedRowId(y)) => x == y,
        (Value::Null, Value::Null) => true,
        _ => matches!((scaled4(a), scaled4(b)), (Some(x), Some(y)) if x == y),
    }
}

/// [`key_eq`] over every component of two keys of the same arity.
#[inline]
pub fn keys_eq<'a, 'b>(
    a: impl IntoIterator<Item = &'a Value>,
    b: impl IntoIterator<Item = &'b Value>,
) -> bool {
    a.into_iter().zip(b).all(|(x, y)| key_eq(x, y))
}

/// The hash of one row-major key: what [`BatchKeys`] computes for the same
/// components held in columns.
pub fn hash_key<'v>(components: impl IntoIterator<Item = &'v Value>) -> u64 {
    finish(components.into_iter().fold(SEED, mix_value))
}

/// The spill partition (of `fanout`) a key goes to at a recursion level: the
/// same hash lands in the same partition at a given level, and a different
/// level reshuffles the keys that collided in the level above.
pub fn partition_of(hash: u64, level: u32, fanout: usize) -> usize {
    (finish(mix(hash, u64::from(level))) % fanout as u64) as usize
}

/// The keys of one batch: a column per key expression, one hash per row and
/// which rows have a NULL component.
pub struct BatchKeys {
    /// One column per key expression, each as long as the batch.
    pub columns: Vec<Column>,
    /// One hash per row over all of its components.
    pub hashes: Vec<u64>,
    /// Rows with a NULL component: in a join they match nothing.
    pub nulls: Vec<bool>,
}

impl BatchKeys {
    /// Hashes `rows` rows of key columns, one pass per column.
    pub fn new(columns: Vec<Column>, rows: usize) -> BatchKeys {
        let mut hashes = vec![SEED; rows];
        let mut nulls = vec![false; rows];
        for column in &columns {
            let cells = hashes.iter_mut().zip(&mut nulls).zip(column.values());
            for ((hash, null), value) in cells {
                *hash = mix_value(*hash, value);
                *null |= value.is_null();
            }
        }
        for hash in &mut hashes {
            *hash = finish(*hash);
        }
        BatchKeys {
            columns,
            hashes,
            nulls,
        }
    }

    /// The components of one row's key.
    pub fn row(&self, row: usize) -> impl Iterator<Item = &Value> + Clone {
        self.columns.iter().map(move |column| column.get(row))
    }
}

/// End of a chain.
const NIL: u32 = u32::MAX;

/// A chained hash index over entries numbered `0, 1, 2, …`: `head[bucket]` is
/// the first entry of a bucket, `next[entry]` the one after it. No allocation
/// per key, and an entry's stored hash screens candidates before the caller
/// compares values.
#[derive(Default)]
pub struct ChainIndex {
    head: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
}

impl ChainIndex {
    /// Indexes entries `0..hashes.len()` at once, leaving out those flagged
    /// in `skip`. Every chain ascends, so [`Self::matches`] yields entries in
    /// ascending order: a join's build rows in row order.
    pub fn build(hashes: Vec<u64>, skip: &[bool]) -> ChainIndex {
        let mut index = ChainIndex {
            head: vec![NIL; buckets_for(hashes.len())],
            next: vec![NIL; hashes.len()],
            hashes,
        };
        // Last entry first, each pushed at its chain's head.
        for entry in (0..index.hashes.len()).rev() {
            if !skip[entry] {
                index.link(entry);
            }
        }
        index
    }

    fn link(&mut self, entry: usize) {
        let bucket = self.hashes[entry] as usize & (self.head.len() - 1);
        self.next[entry] = self.head[bucket];
        self.head[bucket] = u32::try_from(entry).expect("fewer than 2^32 keyed entries");
    }

    /// Appends the next entry under `hash` and returns its number. Entries
    /// added this way are found by [`Self::matches`] in no particular order:
    /// for sets, where at most one entry can equal a key, and for indexes,
    /// which sort what they find.
    pub fn insert(&mut self, hash: u64) -> usize {
        let entry = self.hashes.len();
        self.hashes.push(hash);
        self.next.push(NIL);
        if self.hashes.len() > self.head.len() {
            self.head = vec![NIL; buckets_for(self.hashes.len() * 2)];
            for earlier in 0..entry {
                self.link(earlier);
            }
        }
        self.link(entry);
        entry
    }

    /// How many entries are indexed: the next [`Self::insert`] gets this
    /// number.
    pub fn entries(&self) -> usize {
        self.hashes.len()
    }

    /// The entries stored under exactly `hash`: the candidates the caller
    /// confirms with [`key_eq`].
    pub fn matches(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let first = match self.head.len() {
            0 => NIL,
            buckets => self.head[hash as usize & (buckets - 1)],
        };
        std::iter::successors((first != NIL).then_some(first as usize), |&entry| {
            let next = self.next[entry];
            (next != NIL).then_some(next as usize)
        })
        .filter(move |&entry| self.hashes[entry] == hash)
    }
}

/// A power-of-two bucket count holding `entries` at a load factor ≤ 1.
fn buckets_for(entries: usize) -> usize {
    entries.max(8).next_power_of_two()
}
