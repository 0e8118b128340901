//! The key path of every keyed operator: hash joins (in-memory and Grace),
//! grouping (in-memory, parallel merge and spilling), `DISTINCT`,
//! `COUNT(DISTINCT)` and both spill partitioners.
//!
//! A key is the values themselves. Per batch each key expression is a
//! [`Column`] (see `operators::expr::evaluate_exprs`) and [`BatchKeys`] adds
//! one `u64` per row; row-major holders (group states, spilled rows) hash
//! their values with [`hash_key`], which agrees. Hashes only route: a
//! [`ChainIndex`] hands back the entries whose hash matches and the caller
//! confirms each with [`key_eq`], so a collision costs a comparison and never
//! a wrong match.
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
//! crafted collisions, which is acceptable here: every table is built for
//! one query over the tenant's own data, lives as long as the operator, and a
//! collision degrades a probe to a scan of its chain, never to a wrong row.

use sdb_storage::{Column, Value};

/// What separates the classes (and NULL) in the hash.
const CLASS_NULL: u64 = 0;
const CLASS_NUMERIC: u64 = 1;
const CLASS_STR: u64 = 2;
const CLASS_TAG: u64 = 3;
const CLASS_ENCRYPTED: u64 = 4;
const CLASS_ROW_ID: u64 = 5;

/// The state every row's hash starts from.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

#[cfg(test)]
thread_local! {
    /// Test hook: every hash computed on this thread is 0, so equality alone
    /// decides every match.
    pub(crate) static FORCE_COLLISIONS: std::cell::Cell<bool> =
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
    #[cfg(test)]
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
    /// for sets, where at most one entry can equal a key.
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

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::BigUint;
    use proptest::prelude::*;
    use sdb_crypto::sies::SiesCiphertext;
    use sdb_crypto::EncryptedRowId;

    /// The string rendering this module replaced, kept as the reference the
    /// typed relation is checked against: two components were the same key
    /// exactly when they rendered the same.
    fn join_key_component(v: &Value) -> String {
        match v {
            Value::Null => "\u{0}NULL".to_string(),
            Value::Int(_) | Value::Decimal { .. } | Value::Date(_) | Value::Bool(_) => v
                .as_scaled_i128(4)
                .map(|x| format!("n{x}"))
                .unwrap_or_else(|_| v.render()),
            Value::Str(s) => format!("s{s}"),
            Value::Tag(t) => format!("t{t}"),
            Value::Encrypted(e) => format!("e{e}"),
            Value::EncryptedRowId(_) => format!("r{:?}", v),
        }
    }

    /// A value of any variant from two random words, drawn from small pools
    /// so that pairs collide often, plus the extremes.
    fn value_from(kind: u64, r: u64) -> Value {
        let units = match r % 7 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -((r >> 8) as i64 % 3),
            _ => (r >> 8) as i64 % 3,
        };
        match kind % 10 {
            0 => Value::Null,
            1 => Value::Int(units),
            // Scales 0–6: below, at and above the scale-4 cut.
            2 | 3 => Value::Decimal {
                units: match r % 5 {
                    0 => units,
                    _ => {
                        ((r >> 8) as i64 % 3) * 10i64.pow((r >> 16) as u32 % 7)
                            + (r >> 24) as i64 % 3
                    }
                },
                scale: ((r >> 16) % 7) as u8,
            },
            4 => Value::Date((r >> 8) as i32 % 3),
            5 => Value::Bool(r & 1 == 1),
            6 => {
                Value::Str(["", "a", "ab", "b", "bc", "c", "é", "n10000"][(r % 8) as usize].into())
            }
            7 => Value::Tag(r % 3),
            // One, two and three limbs, equal low limbs included.
            8 => Value::Encrypted(
                (BigUint::from(r % 2) << (64 * ((r >> 4) % 3) as u32))
                    + BigUint::from((r >> 8) % 2),
            ),
            _ => Value::EncryptedRowId(EncryptedRowId(SiesCiphertext {
                nonce: r % 2,
                body: vec![(r >> 4) as u8 % 2; (r >> 8) as usize % 3],
                tag: (r >> 12) % 2,
            })),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// The typed relation is the rendered one, and the hash respects it.
        #[test]
        fn key_eq_is_the_rendered_equality_and_hashes_agree(
            words in proptest::collection::vec(any::<u64>(), 4)
        ) {
            let (a, b) = (value_from(words[0], words[1]), value_from(words[2], words[3]));
            let rendered = join_key_component(&a) == join_key_component(&b);
            prop_assert_eq!(key_eq(&a, &b), rendered, "{:?} vs {:?}", a, b);
            prop_assert!(key_eq(&a, &a));
            if rendered {
                prop_assert_eq!(hash_key([&a]), hash_key([&b]), "{:?} vs {:?}", a, b);
            }
        }

        /// The same over two-component keys, where the rendering joined the
        /// components with a separator; columns and rows hash alike.
        #[test]
        fn multi_component_keys_match_the_rendered_equality(
            words in proptest::collection::vec(any::<u64>(), 8)
        ) {
            let a = [value_from(words[0], words[1]), value_from(words[2], words[3])];
            let b = [value_from(words[4], words[5]), value_from(words[6], words[7])];
            let render = |key: &[Value; 2]| {
                key.iter().map(join_key_component).collect::<Vec<_>>().join("\u{1f}")
            };
            let rendered = render(&a) == render(&b);
            prop_assert_eq!(keys_eq(&a, &b), rendered, "{:?} vs {:?}", a, b);
            if rendered {
                prop_assert_eq!(hash_key(&a), hash_key(&b));
            }
            let columns: Vec<Column> = (0..2)
                .map(|c| {
                    let cells = vec![a[c].clone(), b[c].clone()];
                    Column::from_values_unchecked(sdb_storage::DataType::Int, cells)
                })
                .collect();
            let keys = BatchKeys::new(columns, 2);
            prop_assert_eq!(&keys.hashes, &vec![hash_key(&a), hash_key(&b)]);
            prop_assert_eq!(keys.nulls[0], a.iter().any(Value::is_null));
            prop_assert!(keys_eq(keys.row(1), &b));
        }
    }

    #[test]
    fn the_scale_four_rule_and_the_class_walls() {
        let dec = |units, scale| Value::Decimal { units, scale };
        for (a, b) in [
            (Value::Int(1), dec(10, 1)),
            (Value::Int(1), dec(100, 2)),
            (Value::Int(1), Value::Bool(true)),
            (Value::Int(1), Value::Date(1)),
            (dec(100_001, 5), dec(100_002, 5)),
            (Value::Int(i64::MIN), dec(i64::MIN, 0)),
        ] {
            assert!(key_eq(&a, &b), "{a:?} = {b:?}");
            assert_eq!(hash_key([&a]), hash_key([&b]), "{a:?} / {b:?}");
        }
        for (a, b) in [
            (Value::Int(1), dec(10_001, 4)),
            (Value::Int(10_000), Value::Str("n10000".into())),
            (Value::Tag(7), Value::Int(7)),
            (Value::Tag(7), Value::Encrypted(BigUint::from(7u8))),
            (Value::Null, Value::Int(0)),
            (Value::Null, Value::Str(String::new())),
        ] {
            assert!(!key_eq(&a, &b), "{a:?} ≠ {b:?}");
        }
    }

    #[test]
    fn component_boundaries_do_not_alias() {
        let s = |text: &str| Value::Str(text.into());
        let (left, right) = ([s("ab"), s("c")], [s("a"), s("bc")]);
        assert!(!keys_eq(&left, &right));
        assert_ne!(hash_key(&left), hash_key(&right));
        assert_ne!(hash_key(&[s(""), s("a")]), hash_key(&[s("a"), s("")]));
    }

    #[test]
    fn built_chains_ascend_and_skip_flagged_entries() {
        // Five entries under two hashes that share a bucket, one skipped.
        let hashes = vec![8, 16, 8, 8, 16];
        let index = ChainIndex::build(hashes, &[false, false, true, false, false]);
        assert_eq!(index.matches(8).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(index.matches(16).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(index.matches(24).count(), 0);
        assert_eq!(ChainIndex::build(Vec::new(), &[]).matches(8).count(), 0);
    }

    #[test]
    fn inserted_entries_survive_growth() {
        let mut index = ChainIndex::default();
        assert_eq!(index.matches(1).count(), 0);
        for entry in 0..100u64 {
            assert_eq!(index.insert(finish(entry)), entry as usize);
        }
        for entry in 0..100u64 {
            let found: Vec<usize> = index.matches(finish(entry)).collect();
            assert_eq!(found, vec![entry as usize]);
        }
    }

    #[test]
    fn partitions_are_stable_per_level_and_reshuffle_across_levels() {
        let hashes: Vec<u64> = (0..64u64)
            .map(|i| hash_key([&Value::Int(i as i64)]))
            .collect();
        let at =
            |level| -> Vec<usize> { hashes.iter().map(|&h| partition_of(h, level, 8)).collect() };
        assert_eq!(at(0), at(0));
        assert_ne!(at(0), at(1));
        assert!(at(0).iter().all(|&p| p < 8));
        // Keys that shared partition 0 at level 0 spread out at level 1.
        let collided: Vec<u64> = hashes
            .iter()
            .copied()
            .filter(|&h| partition_of(h, 0, 8) == 0)
            .collect();
        let spread: std::collections::BTreeSet<usize> =
            collided.iter().map(|&h| partition_of(h, 1, 8)).collect();
        assert!(spread.len() > 1, "{collided:?}");
    }
}
