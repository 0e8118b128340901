//! The data owner's item-key memo: per admitted column-key exponent `x`, the
//! power `G = g^(r·x mod φ(n)) mod n` of every row id `r` it has derived, so
//! that the item key `m·G mod n` of a row it has seen costs one
//! multiplication instead of a fixed-base exponentiation.
//!
//! The DO re-derives item keys for the rows the SP sends back — in every
//! oracle request and for every row-keyed result column — and those rows are
//! the same table rows query after query. Tables are keyed by `x` alone, not
//! by the whole column key: a rescaled or negated key `⟨c·m, x⟩` shares its
//! source's entries.
//!
//! * **Admission.** Only an `x` the owner [`admits`](ItemKeyMemo::admit) gets
//!   a table — the proxy admits the `x` of every key its key store holds.
//!   Any other `x` (a fresh target drawn for one query) is derived as
//!   [`crate::gen_item_keys`] would, and nothing is stored.
//! * **Bound.** The owner [`grows`](ItemKeyMemo::grow) the bound by every
//!   encrypted cell it produces, so entries never exceed the cells on the SP
//!   whose keys the memo can hold. A batch that would pass it first empties
//!   the least recently used other `x` whole; what still does not fit is
//!   derived but not stored.
//! * **Secrecy.** `G` is item-key material. The memo is not serialisable and
//!   its `Debug` output shows counts only.
//!
//! Every item key it returns is exactly what [`crate::gen_item_keys`] returns
//! for the same key and row ids: both multiply `m` into the same Montgomery
//! power of the fixed-base table.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use num_bigint::BigUint;
use num_traits::Zero;

use crate::keys::{ColumnKey, SystemKey};

/// The memo of one [`SystemKey`]'s item-key powers.
#[derive(Default)]
pub struct ItemKeyMemo {
    /// Admitted `x` → the powers of the rows derived under it.
    tables: RwLock<HashMap<BigUint, Arc<XTable>>>,
    /// Entries the memo may hold across all tables.
    bound: AtomicUsize,
    /// Entries held or reserved across all tables; only [`Self::make_room`]
    /// raises it, and never past `bound`.
    entries: AtomicUsize,
    /// Serialises [`Self::make_room`].
    evicting: Mutex<()>,
    /// Source of the least-recently-used order.
    clock: AtomicU64,
    stored: AtomicU64,
    evictions: AtomicU64,
}

/// The rows of one admitted `x`.
#[derive(Default)]
struct XTable {
    last_used: AtomicU64,
    rows: RwLock<Rows>,
}

#[derive(Default)]
struct Rows {
    /// Row id, as `k` limbs → its slot.
    slots: HashMap<Box<[u64]>, u32>,
    /// Slot `i` holds `G` in Montgomery form at `i·k .. (i+1)·k`.
    powers: Vec<u64>,
}

/// How the item keys of one batch were obtained.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ItemKeyCounts {
    /// Item keys derived by exponentiation.
    pub derived: usize,
    /// Item keys served from the memo (one multiplication each).
    pub hits: usize,
}

/// A snapshot of an [`ItemKeyMemo`]'s counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ItemKeyMemoStats {
    /// Admitted exponents `x`.
    pub tables: usize,
    /// Rows held across all tables.
    pub entries: usize,
    /// Entries the memo may hold.
    pub bound: usize,
    /// Rows stored so far (a row stored again after an eviction counts again).
    pub stored: u64,
    /// Tables emptied to make room.
    pub evictions: u64,
}

impl ItemKeyMemo {
    /// Gives `x` a table. Admitting an `x` twice, or `x = 0`, does nothing.
    pub fn admit(&self, x: &BigUint) {
        if x.is_zero() {
            return;
        }
        let mut tables = write(&self.tables);
        tables.entry(x.clone()).or_default();
    }

    /// Raises the bound by `cells` entries.
    pub fn grow(&self, cells: usize) {
        self.bound.fetch_add(cells, Ordering::Relaxed);
    }

    /// The item key `m·g^(r·x mod φ(n)) mod n` of every row id `r` of
    /// `row_ids` under `ck = ⟨m, x⟩`, in order — exactly
    /// [`crate::gen_item_keys`]'s output. Rows the memo holds cost one
    /// multiplication; the others are derived in one batch and, when `x` is
    /// admitted, stored.
    pub fn item_keys(
        &self,
        key: &SystemKey,
        ck: &ColumnKey,
        row_ids: &[BigUint],
    ) -> (Vec<BigUint>, ItemKeyCounts) {
        let (powers, counts) = self.powers(key, ck, row_ids);
        let modulus = key.modulus();
        let keys = modulus.times_mont(ck.m(), powers.chunks_exact(modulus.limb_count()));
        (keys, counts)
    }

    /// [`Self::item_keys`] in Montgomery form, `v_k·R mod n`, as a lane
    /// (`limbs(n)` limbs a row): its product with a lane of shares
    /// ([`crate::Modulus::mul_lanes`]) is their decryption. Same counts, one
    /// multiplication a row.
    pub fn item_key_lanes(
        &self,
        key: &SystemKey,
        ck: &ColumnKey,
        row_ids: &[BigUint],
    ) -> (Vec<u64>, ItemKeyCounts) {
        let (powers, counts) = self.powers(key, ck, row_ids);
        let modulus = key.modulus();
        let mut keys = vec![0; powers.len()];
        // (G·R)·(m·R)·R⁻¹ = m·G·R.
        modulus.mul_lanes_by(&powers, &modulus.mont_row(ck.m()), &mut keys);
        (keys, counts)
    }

    /// `G = g^(r·x mod φ(n))` in Montgomery form for every row id `r`, as a
    /// lane: held rows copied from the memo, the others derived in one batch
    /// ([`SystemKey::g_item_powers`]: `r` and `x` reduced per prime of `n`)
    /// and, when `x` is admitted, stored.
    fn powers(
        &self,
        key: &SystemKey,
        ck: &ColumnKey,
        row_ids: &[BigUint],
    ) -> (Vec<u64>, ItemKeyCounts) {
        let k = key.modulus().limb_count();
        let table = read(&self.tables).get(ck.x()).cloned();
        let n = key.n();
        let Some(table) = table.filter(|_| row_ids.iter().all(|r| r < n)) else {
            let mut powers = Vec::with_capacity(row_ids.len() * k);
            key.g_item_powers(ck.x(), row_ids.iter(), &mut powers);
            let derived = row_ids.len();
            return (powers, ItemKeyCounts { derived, hits: 0 });
        };
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        table.last_used.store(tick, Ordering::Relaxed);

        let mut limbs = vec![0u64; row_ids.len() * k];
        for (row, r) in limbs.chunks_exact_mut(k).zip(row_ids) {
            for (limb, digit) in row.iter_mut().zip(r.iter_u64_digits()) {
                *limb = digit;
            }
        }
        let row = |i: usize| &limbs[i * k..(i + 1) * k];

        // Hits under one read lock; the rows it lacks are the misses.
        let mut out = vec![0u64; row_ids.len() * k];
        let mut misses = Vec::new();
        {
            let rows = read(&table.rows);
            for (i, out) in out.chunks_exact_mut(k).enumerate() {
                match rows.slots.get(row(i)) {
                    Some(&slot) => out.copy_from_slice(&rows.powers[slot as usize * k..][..k]),
                    None => misses.push(i),
                }
            }
        }
        let counts = ItemKeyCounts {
            derived: misses.len(),
            hits: row_ids.len() - misses.len(),
        };
        if misses.is_empty() {
            return (out, counts);
        }

        let mut powers = Vec::with_capacity(misses.len() * k);
        let missed = misses.iter().map(|&i| &row_ids[i]);
        key.g_item_powers(ck.x(), missed, &mut powers);
        for (&i, power) in misses.iter().zip(powers.chunks_exact(k)) {
            out[i * k..(i + 1) * k].copy_from_slice(power);
        }

        // The misses, under one write lock.
        let room = self.make_room(&table, misses.len());
        let mut stored = 0;
        {
            let mut rows = write(&table.rows);
            for (&i, power) in misses.iter().zip(powers.chunks_exact(k)) {
                if stored == room {
                    break;
                }
                if rows.slots.contains_key(row(i)) {
                    continue;
                }
                let slot = u32::try_from(rows.slots.len()).expect("fewer than 2³² rows per x");
                rows.slots.insert(row(i).into(), slot);
                rows.powers.extend_from_slice(power);
                stored += 1;
            }
        }
        self.entries.fetch_sub(room - stored, Ordering::Relaxed);
        self.stored.fetch_add(stored as u64, Ordering::Relaxed);
        (out, counts)
    }

    /// Reserves room for up to `needed` entries of `table`, first emptying
    /// the least recently used other tables while the memo would pass its
    /// bound. Returns how many entries were reserved.
    fn make_room(&self, table: &Arc<XTable>, needed: usize) -> usize {
        let _evicting = self.evicting.lock().unwrap_or_else(PoisonError::into_inner);
        let bound = self.bound.load(Ordering::Relaxed);
        while self.entries.load(Ordering::Relaxed) + needed > bound {
            let victim = (read(&self.tables).values())
                .filter(|other| !Arc::ptr_eq(other, table) && !read(&other.rows).slots.is_empty())
                .min_by_key(|other| other.last_used.load(Ordering::Relaxed))
                .cloned();
            let Some(victim) = victim else {
                break;
            };
            let emptied = std::mem::take(&mut *write(&victim.rows));
            self.entries
                .fetch_sub(emptied.slots.len(), Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let room = needed.min(bound.saturating_sub(self.entries.load(Ordering::Relaxed)));
        self.entries.fetch_add(room, Ordering::Relaxed);
        room
    }

    /// The memo's counters.
    pub fn stats(&self) -> ItemKeyMemoStats {
        let tables = read(&self.tables);
        ItemKeyMemoStats {
            tables: tables.len(),
            entries: tables.values().map(|t| read(&t.rows).slots.len()).sum(),
            bound: self.bound.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for ItemKeyMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("ItemKeyMemo")
            .field("tables", &stats.tables)
            .field("entries", &stats.entries)
            .field("bound", &stats.bound)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen_item_keys;
    use crate::keys::KeyConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        key: SystemKey,
        ck: ColumnKey,
        rows: Vec<BigUint>,
    }

    fn fixture(config: KeyConfig, rows: usize) -> Fixture {
        let mut rng = StdRng::seed_from_u64(28);
        let key = SystemKey::generate(&mut rng, config).unwrap();
        let ck = key.gen_column_key(&mut rng);
        let rows = (0..rows).map(|_| key.gen_row_id(&mut rng)).collect();
        Fixture { key, ck, rows }
    }

    fn memo(admit: &[&BigUint], bound: usize) -> ItemKeyMemo {
        let memo = ItemKeyMemo::default();
        for x in admit {
            memo.admit(x);
        }
        memo.grow(bound);
        memo
    }

    #[test]
    fn hits_and_misses_equal_the_batched_derivation() {
        for config in [KeyConfig::TEST, KeyConfig::BALANCED] {
            let f = fixture(config, 9);
            let memo = memo(&[f.ck.x()], 100);
            let expected = gen_item_keys(&f.key, &f.ck, &f.rows);
            // Cold half, then the whole batch (half hits), then all hits,
            // then a batch that repeats a row.
            let (keys, counts) = memo.item_keys(&f.key, &f.ck, &f.rows[..4]);
            assert_eq!(keys, expected[..4]);
            assert_eq!(
                counts,
                ItemKeyCounts {
                    derived: 4,
                    hits: 0
                }
            );
            let (keys, counts) = memo.item_keys(&f.key, &f.ck, &f.rows);
            assert_eq!(keys, expected);
            assert_eq!(
                counts,
                ItemKeyCounts {
                    derived: 5,
                    hits: 4
                }
            );
            let (keys, counts) = memo.item_keys(&f.key, &f.ck, &f.rows);
            assert_eq!(keys, expected);
            assert_eq!(
                counts,
                ItemKeyCounts {
                    derived: 0,
                    hits: 9
                }
            );
            // A rescaled key shares the entries of its `x`.
            let scaled = ColumnKey::new(
                f.key.modulus().mul(f.ck.m(), &3u32.into()),
                f.ck.x().clone(),
            );
            let (keys, counts) = memo.item_keys(&f.key, &scaled, &f.rows);
            assert_eq!(keys, gen_item_keys(&f.key, &scaled, &f.rows));
            assert_eq!(counts.hits, 9);
            let twice = vec![f.rows[0].clone(), f.rows[0].clone()];
            assert_eq!(
                memo.item_keys(&f.key, &f.ck, &twice).0,
                gen_item_keys(&f.key, &f.ck, &twice)
            );
            assert_eq!(memo.stats().entries, 9);
            assert_eq!(memo.stats().stored, 9);
            // In Montgomery form, held and derived alike: `v_k·R mod n`.
            let (lanes, counts) = memo.item_key_lanes(&f.key, &f.ck, &f.rows);
            assert_eq!(counts.hits, 9);
            let fresh = ItemKeyMemo::default()
                .item_key_lanes(&f.key, &f.ck, &f.rows)
                .0;
            assert_eq!(lanes, fresh);
            let modulus = f.key.modulus();
            let rows: Vec<u64> = (expected.iter())
                .flat_map(|ik| modulus.mont_row(ik))
                .collect();
            assert_eq!(lanes, rows);
        }
    }

    /// A miss's powers, with `r` and `x` reduced per prime of `n`, equal
    /// `g^(r·x mod φ(n))` raised from the exponent formed modulo `φ(n)`, at
    /// 256 and 512 bits and, optimised, 2048: cold, as misses beside hits,
    /// and for the edge rows `φ(n)` (exponent 0), 1 and `n − 1`.
    #[test]
    fn powers_equal_the_exponent_formed_modulo_phi() {
        let mut configs = vec![KeyConfig::TEST, KeyConfig::BALANCED];
        if !cfg!(debug_assertions) {
            configs.push(KeyConfig::PAPER);
        }
        for config in configs {
            let mut f = fixture(config, 6);
            let one = BigUint::from(1u32);
            f.rows
                .extend([f.key.phi().clone(), one.clone(), f.key.n() - &one]);
            let exponents: Vec<BigUint> = (f.rows.iter())
                .map(|r| r * f.ck.x() % f.key.phi())
                .collect();
            let mut expected = Vec::new();
            f.key.g_powers(&exponents, &mut expected);
            let memo = memo(&[f.ck.x()], 100);
            let k = f.key.modulus().limb_count();
            let (cold, _) = ItemKeyMemo::default().powers(&f.key, &f.ck, &f.rows);
            assert_eq!(
                cold,
                expected,
                "{} bits, never admitted",
                config.prime_bits * 2
            );
            memo.powers(&f.key, &f.ck, &f.rows[..3]);
            let (mixed, counts) = memo.powers(&f.key, &f.ck, &f.rows);
            assert_eq!(counts.hits, 3);
            assert_eq!(
                mixed,
                expected,
                "{} bits, misses beside hits",
                config.prime_bits * 2
            );
            assert_eq!(mixed.len(), f.rows.len() * k);
        }
    }

    #[test]
    fn an_unadmitted_x_is_derived_and_never_stored() {
        let f = fixture(KeyConfig::TEST, 5);
        let memo = memo(&[], 100);
        for _ in 0..2 {
            let (keys, counts) = memo.item_keys(&f.key, &f.ck, &f.rows);
            assert_eq!(keys, gen_item_keys(&f.key, &f.ck, &f.rows));
            assert_eq!(
                counts,
                ItemKeyCounts {
                    derived: 5,
                    hits: 0
                }
            );
        }
        assert_eq!(
            memo.stats(),
            ItemKeyMemoStats {
                bound: 100,
                ..Default::default()
            }
        );
    }

    #[test]
    fn the_bound_empties_the_least_recently_used_x_whole() {
        let f = fixture(KeyConfig::TEST, 6);
        let mut rng = StdRng::seed_from_u64(5);
        let (a, b, c) = (
            f.key.gen_column_key(&mut rng),
            f.key.gen_column_key(&mut rng),
            f.key.gen_column_key(&mut rng),
        );
        let memo = memo(&[a.x(), b.x(), c.x()], 10);
        memo.item_keys(&f.key, &a, &f.rows[..4]);
        memo.item_keys(&f.key, &b, &f.rows[..4]);
        memo.item_keys(&f.key, &a, &f.rows[..1]); // b is now the least recent
        let (keys, _) = memo.item_keys(&f.key, &c, &f.rows[..4]);
        assert_eq!(keys, gen_item_keys(&f.key, &c, &f.rows[..4]));
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.evictions), (8, 1));
        assert_eq!(memo.item_keys(&f.key, &a, &f.rows[..4]).1.hits, 4);
        assert_eq!(memo.item_keys(&f.key, &b, &f.rows[..4]).1.hits, 0);
        // A batch larger than the bound stores what fits and nothing more.
        let small = memo_with_bound(&f, 3);
        let (keys, counts) = small.item_keys(&f.key, &f.ck, &f.rows);
        assert_eq!(keys, gen_item_keys(&f.key, &f.ck, &f.rows));
        assert_eq!(counts.derived, 6);
        assert_eq!(small.stats().entries, 3);
        assert!(memo_with_bound(&f, 0).item_keys(&f.key, &f.ck, &f.rows).0 == keys);
    }

    fn memo_with_bound(f: &Fixture, bound: usize) -> ItemKeyMemo {
        memo(&[f.ck.x()], bound)
    }

    #[test]
    fn two_threads_filling_one_x_store_each_row_once() {
        let f = fixture(KeyConfig::TEST, 64);
        let memo = memo_with_bound(&f, 1000);
        let expected = gen_item_keys(&f.key, &f.ck, &f.rows);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for chunk in f.rows.chunks(8) {
                        memo.item_keys(&f.key, &f.ck, chunk);
                    }
                    assert_eq!(memo.item_keys(&f.key, &f.ck, &f.rows).0, expected);
                });
            }
        });
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.stored), (64, 64));
    }

    #[test]
    fn debug_shows_counts_only() {
        let f = fixture(KeyConfig::TEST, 2);
        let memo = memo_with_bound(&f, 4);
        memo.item_keys(&f.key, &f.ck, &f.rows);
        assert_eq!(
            format!("{memo:?}"),
            "ItemKeyMemo { tables: 1, entries: 2, bound: 4, evictions: 0 }"
        );
    }
}
