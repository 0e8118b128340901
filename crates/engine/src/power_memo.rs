//! The key-update power memo: `S_e^p mod n` kept across the queries of one
//! engine.
//!
//! A key update's exponent `p = (x_T − x_A)·x_S⁻¹` depends only on column keys
//! whenever its target is fixed — the row-independent target of a pushed
//! `SUM`, the auxiliary target of an EP add/sub or a sensitive comparison — so
//! a query raises the same shares to the same `p` every time it runs. A
//! [`PowerMemo`] keeps one table per admitted `(n, p)` from an auxiliary
//! share's *value* to its power, and the key-update sets
//! ([`crate::udf::KeyUpdateSets`]) read it before they raise a row
//! (ARCHITECTURE.md, "Key-update sets").
//!
//! * **Never stale.** An entry is found by comparing the full share, so the
//!   shares an `INSERT` brings simply miss, and rows reached through an index,
//!   a join or a spill read-back hit as scanned rows do.
//! * **Admission.** An exponent gets a table the second time a query plans
//!   it, a query other than the one that planned it first; a FIFO of
//!   [`SEEN_ONCE`] fingerprints remembers the exponents seen once. Exponents
//!   drawn fresh per query never get a table.
//! * **Bound.** The residue bytes held never exceed
//!   [`Catalog::approx_size_bytes`], re-read whenever a store would pass the
//!   figure read last: the powers are never larger than the data they derive
//!   from. Past it, the least recently planned exponent is dropped whole.
//!   (Each entry also keeps its share, for the comparison.)
//! * **Locking.** One lock per exponent table: a reader takes its read lock
//!   once per window of rows, a writer its write lock once per batch of
//!   misses, under the memo's own lock, which admission and the bound use.
//!
//! The memo belongs to one [`crate::SpEngine`]: its queries, and their
//! subqueries, share it. Everything it holds — `n`, `p`, stored shares and
//! their powers — is what the SP computes from what it is sent in the clear.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use num_bigint::BigUint;
use parking_lot::{Mutex, RwLock};
use sdb_crypto::{BoundKeyUpdateSet, KeyUpdateParams};
use sdb_storage::Catalog;

/// How many exponents planned once the admission FIFO remembers.
pub const SEEN_ONCE: usize = 256;

/// The powers `S_e^p mod n` an engine's queries raised, per admitted
/// `(n, p)` (see the module documentation).
pub struct PowerMemo {
    catalog: Arc<Catalog>,
    state: Mutex<MemoState>,
    /// Serials handed to queries, so a query's own second sighting of an
    /// exponent does not admit it.
    queries: AtomicU64,
}

#[derive(Default)]
struct MemoState {
    /// Fingerprints of exponents planned once, with the planning query's
    /// serial; oldest first.
    seen_once: VecDeque<(u64, u64)>,
    /// The admitted exponents, by fingerprint.
    tables: HashMap<u64, Admitted>,
    /// Residue bytes held across the tables.
    bytes: usize,
    /// The catalog's size when it was read last.
    bound: usize,
    /// Ticks once per planned group: the recency of an exponent.
    clock: u64,
}

struct Admitted {
    table: Arc<PowerTable>,
    last_planned: u64,
    bytes: usize,
}

/// The powers of one admitted exponent `p` modulo one `n`, by share.
pub(crate) struct PowerTable {
    n: BigUint,
    p: BigUint,
    fingerprint: u64,
    /// Limbs of a residue modulo `n`.
    limbs: usize,
    entries: RwLock<Entries>,
}

/// No further entry in a chain.
const END: u32 = u32::MAX;

/// Entries of a table: per entry, the share's limbs padded to the residue
/// width, then its power in Montgomery form, chained by the share's low limb.
#[derive(Default)]
struct Entries {
    first: HashMap<u64, u32>,
    next: Vec<u32>,
    limbs: Vec<u64>,
}

/// What admission decided for one query: the memo and the query's serial.
#[derive(Clone)]
pub(crate) struct QueryMemo {
    memo: Arc<PowerMemo>,
    query: u64,
}

impl QueryMemo {
    /// A new query's view of `memo`.
    pub(crate) fn new(memo: &Arc<PowerMemo>) -> QueryMemo {
        QueryMemo {
            memo: Arc::clone(memo),
            query: memo.queries.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The tables of `exponents` modulo `n` (`None` where an exponent is not
    /// admitted), counting this query's sighting of each.
    pub(crate) fn admit(&self, n: &BigUint, exponents: &[BigUint]) -> Vec<Option<Arc<PowerTable>>> {
        self.memo.admit(n, exponents, self.query)
    }

    /// The memo itself.
    pub(crate) fn memo(&self) -> &PowerMemo {
        &self.memo
    }
}

fn fingerprint(n: &BigUint, p: &BigUint) -> u64 {
    let mut hasher = DefaultHasher::new();
    (n, p).hash(&mut hasher);
    hasher.finish()
}

/// The low limb of a share — little-endian limbs, zero high limbs allowed —
/// if it fits `limbs` limbs.
fn low_limb(share: &[u64], limbs: usize) -> Option<u64> {
    let fits = share.iter().skip(limbs).all(|&limb| limb == 0);
    fits.then(|| share.first().copied().unwrap_or(0))
}

impl Entries {
    fn len(&self) -> usize {
        self.next.len()
    }

    fn find(&self, share: &[u64], k: usize) -> Option<usize> {
        let mut at = *self.first.get(&low_limb(share, k)?)?;
        while at != END {
            let entry = at as usize;
            let stored = &self.limbs[2 * k * entry..][..k];
            let digit = |j: usize| share.get(j).copied().unwrap_or(0);
            if stored.iter().enumerate().all(|(j, &limb)| limb == digit(j)) {
                return Some(entry);
            }
            at = self.next[entry];
        }
        None
    }

    fn power(&self, entry: usize, k: usize) -> &[u64] {
        &self.limbs[2 * k * entry + k..][..k]
    }

    /// Adds `share`'s power unless it is held already or the share is
    /// wider than a residue; whether it was added.
    fn insert(&mut self, share: &[u64], power: &[u64], k: usize) -> bool {
        let Some(low) = low_limb(share, k) else {
            return false;
        };
        if self.find(share, k).is_some() {
            return false;
        }
        let entry = self.next.len() as u32;
        self.next.push(self.first.insert(low, entry).unwrap_or(END));
        let start = self.limbs.len();
        self.limbs.extend_from_slice(&share[..share.len().min(k)]);
        self.limbs.resize(start + k, 0);
        self.limbs.extend_from_slice(power);
        true
    }
}

impl PowerTable {
    fn new(n: &BigUint, p: &BigUint, fingerprint: u64) -> PowerTable {
        PowerTable {
            n: n.clone(),
            p: p.clone(),
            fingerprint,
            limbs: n.iter_u64_digits().len(),
            entries: RwLock::default(),
        }
    }

    /// Bytes of an entry's power: what the bound counts.
    fn residue_bytes(&self) -> usize {
        self.limbs * std::mem::size_of::<u64>()
    }

    /// Copies the power of every share of `shares` (little-endian limbs)
    /// still marked in `served` into its row of `rows` (`row_limbs` limbs a
    /// row, this table's residue at `offset`), and clears the mark of every
    /// share the table lacks.
    pub(crate) fn read(
        &self,
        shares: &[&[u64]],
        served: &mut [bool],
        rows: &mut [u64],
        row_limbs: usize,
        offset: usize,
    ) {
        let k = self.limbs;
        let entries = self.entries.read();
        for (i, share) in shares.iter().enumerate() {
            if !served[i] {
                continue;
            }
            match entries.find(share, k) {
                Some(entry) => {
                    rows[i * row_limbs + offset..][..k].copy_from_slice(entries.power(entry, k))
                }
                None => served[i] = false,
            }
        }
    }
}

impl PowerMemo {
    /// An empty memo bounded by `catalog`'s size.
    pub(crate) fn new(catalog: Arc<Catalog>) -> PowerMemo {
        PowerMemo {
            catalog,
            state: Mutex::default(),
            queries: AtomicU64::new(0),
        }
    }

    /// Residue bytes held: what the bound counts.
    pub fn bytes(&self) -> usize {
        self.state.lock().bytes
    }

    /// Exponents admitted and not evicted.
    pub fn exponents(&self) -> usize {
        self.state.lock().tables.len()
    }

    /// Every power held, as the canonical residue it stands for: with the
    /// stored shares and the exponents, which the SP holds anyway, this is
    /// all the memo keeps, and what the leakage audit scans.
    pub fn residues(&self) -> Vec<BigUint> {
        let tables: Vec<Arc<PowerTable>> = (self.state.lock().tables.values())
            .map(|admitted| Arc::clone(&admitted.table))
            .collect();
        let mut residues = Vec::new();
        for table in tables {
            let update = KeyUpdateParams {
                p: table.p.clone(),
                q: BigUint::from(1u32),
            };
            let Some(set) = BoundKeyUpdateSet::bind(&table.n, &[update]) else {
                continue;
            };
            let entries = table.entries.read();
            for entry in 0..entries.len() {
                residues.extend(set.powers(entries.power(entry, table.limbs)));
            }
        }
        residues
    }

    fn admit(
        &self,
        n: &BigUint,
        exponents: &[BigUint],
        query: u64,
    ) -> Vec<Option<Arc<PowerTable>>> {
        let mut state = self.state.lock();
        state.clock += 1;
        let now = state.clock;
        let mut tables = Vec::with_capacity(exponents.len());
        for p in exponents {
            let fingerprint = fingerprint(n, p);
            if let Some(admitted) = state.tables.get_mut(&fingerprint) {
                // A fingerprint shared by two exponents serves only the first.
                let same = admitted.table.n == *n && admitted.table.p == *p;
                if same {
                    admitted.last_planned = now;
                }
                tables.push(same.then(|| Arc::clone(&admitted.table)));
                continue;
            }
            let seen = state
                .seen_once
                .iter()
                .position(|&(seen, _)| seen == fingerprint);
            match seen {
                Some(at) if state.seen_once[at].1 != query => {
                    state.seen_once.remove(at);
                    let table = Arc::new(PowerTable::new(n, p, fingerprint));
                    let admitted = Admitted {
                        table: Arc::clone(&table),
                        last_planned: now,
                        bytes: 0,
                    };
                    state.tables.insert(fingerprint, admitted);
                    tables.push(Some(table));
                }
                Some(_) => tables.push(None),
                None => {
                    if state.seen_once.len() == SEEN_ONCE {
                        state.seen_once.pop_front();
                    }
                    state.seen_once.push_back((fingerprint, query));
                    tables.push(None);
                }
            }
        }
        tables
    }

    /// Stores the powers of `raised` — shares (little-endian limbs) with
    /// their residue in `table`'s exponent — unless the table was evicted;
    /// those that would pass the bound after every other exponent is gone
    /// are dropped.
    pub(crate) fn store(&self, table: &Arc<PowerTable>, raised: &[(&[u64], &[u64])]) {
        let mut state = self.state.lock();
        let current = state.tables.get(&table.fingerprint);
        if !current.is_some_and(|admitted| Arc::ptr_eq(&admitted.table, table)) {
            return;
        }
        let k = table.limbs;
        let mut entries = table.entries.write();
        let fresh = raised
            .iter()
            .filter(|(share, _)| entries.find(share, k).is_none())
            .count();
        let wanted = fresh * table.residue_bytes();
        if fresh == 0 || !self.make_room(&mut state, table.fingerprint, wanted) {
            return;
        }
        let mut added = 0;
        for (share, power) in raised {
            added += usize::from(entries.insert(share, power, k));
        }
        let added = added * table.residue_bytes();
        state.bytes += added;
        if let Some(admitted) = state.tables.get_mut(&table.fingerprint) {
            admitted.bytes += added;
        }
    }

    /// Makes room for `wanted` more bytes within the catalog's size by
    /// dropping the least recently planned exponents other than `keep`;
    /// `false` when even that is not enough.
    fn make_room(&self, state: &mut MemoState, keep: u64, wanted: usize) -> bool {
        if state.bytes + wanted <= state.bound {
            return true;
        }
        state.bound = self.catalog.approx_size_bytes();
        while state.bytes + wanted > state.bound {
            let victim = (state.tables.iter())
                .filter(|(fingerprint, _)| **fingerprint != keep)
                .min_by_key(|(_, admitted)| admitted.last_planned)
                .map(|(fingerprint, _)| *fingerprint);
            let Some(victim) = victim else {
                return false;
            };
            let evicted = state.tables.remove(&victim).expect("found above");
            state.bytes -= evicted.bytes;
        }
        true
    }
}

impl std::fmt::Debug for PowerMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("PowerMemo")
            .field("exponents", &state.tables.len())
            .field("bytes", &state.bytes)
            .finish()
    }
}
