//! Montgomery arithmetic for one fixed odd modulus.
//!
//! Every share operation of the scheme is a multiplication or an exponentiation
//! modulo the deployment's `n`, and `n` never changes. A [`Modulus`] holds what
//! depends on `n` alone (`−n⁻¹ mod 2⁶⁴`, `R mod n`, `R² mod n` for `R = 2^(64·k)`,
//! `k` the limb count) so that a product costs one interleaved
//! multiply-and-reduce pass (CIOS) instead of a schoolbook product followed by a
//! Knuth division, and an exponentiation runs over sliding windows. Several
//! exponents of one base are planned together (an `ExponentSet`): neighbours
//! are derived from each other and the rest share one squaring ladder.
//!
//! One row's exponentiation is a single chain of dependent products, so it is
//! bound by the latency of a product, not by the multiplier's throughput. The
//! exponentiation kernels therefore take several bases at once and run them in
//! lockstep — every squaring or multiplication step is applied to all rows
//! before the next step starts — so the rows' independent carry chains overlap
//! in the pipeline. One row is the same code with one base.
//!
//! Residues enter and leave every public method as canonical [`BigUint`]s in
//! `[0, n)`; an operand `≥ n` is reduced on entry. Montgomery form exists only
//! between the two ends of one call (and inside the precomputed tables), so
//! stored shares, wire bytes and results are exactly what the textbook formulas
//! give.
//!
//! The kernels are monomorphised over fixed `[u64; N]` limb arrays for the three
//! shipped key profiles and their primes (`N` = 4, 8, 32: 256-, 512- and
//! 2048-bit `n`; `N` = 2, 4, 16: the 128-, 256- and 1024-bit primes the data
//! owner's CRT halves run at, see `modulus/crt.rs`); any other width runs the
//! same code over `Vec<u64>`.
//!
//! A [`Modulus`] is derived from the public `n` and may live on either side of
//! the trust boundary. A `FixedBase` table is derived from a *secret* base
//! (the generator `g`) over a *secret* modulus (a prime of `n`) and is a
//! data-owner secret: it is never serialised and its `Debug` output is
//! redacted.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use num_bigint::BigUint;

/// Limb storage of one residue: a fixed array for the shipped widths, a `Vec`
/// for every other.
pub(crate) trait Limbs: Clone + AsRef<[u64]> + AsMut<[u64]> {
    /// Storage of twice the width: a full square before its reduction.
    type Wide: AsMut<[u64]>;
    fn zeroed(k: usize) -> Self;
    fn wide(k: usize) -> Self::Wide;
    /// The upper half of a wide value.
    fn high_half(wide: Self::Wide) -> Self;
}

macro_rules! fixed_limbs {
    ($($n:literal),*) => {$(
        impl Limbs for [u64; $n] {
            type Wide = [u64; 2 * $n];
            fn zeroed(_: usize) -> Self {
                [0; $n]
            }
            fn wide(_: usize) -> Self::Wide {
                [0; 2 * $n]
            }
            fn high_half(wide: Self::Wide) -> Self {
                let mut high = [0; $n];
                high.copy_from_slice(&wide[$n..]);
                high
            }
        }
    )*};
}
fixed_limbs!(2, 4, 8, 16, 32);

impl Limbs for Vec<u64> {
    type Wide = Vec<u64>;
    fn zeroed(k: usize) -> Self {
        vec![0; k]
    }
    fn wide(k: usize) -> Self::Wide {
        vec![0; 2 * k]
    }
    fn high_half(mut wide: Self::Wide) -> Self {
        wide.drain(..wide.len() / 2);
        wide
    }
}

/// Evaluates `$body` with `$L` naming the limb storage of `$k` limbs.
macro_rules! by_limbs {
    ($k:expr, $L:ident => $body:expr) => {
        match $k {
            2 => {
                type $L = [u64; 2];
                $body
            }
            4 => {
                type $L = [u64; 4];
                $body
            }
            8 => {
                type $L = [u64; 8];
                $body
            }
            16 => {
                type $L = [u64; 16];
                $body
            }
            32 => {
                type $L = [u64; 32];
                $body
            }
            _ => {
                type $L = Vec<u64>;
                $body
            }
        }
    };
}
pub(crate) use by_limbs;

/// Runs a width-generic method on the limb storage matching this modulus.
macro_rules! by_width {
    ($modulus:expr, $method:ident($($arg:expr),*)) => {
        by_limbs!($modulus.limbs.len(), L => $modulus.$method::<L>($($arg),*))
    };
}

pub(crate) mod crt;
mod lanes;

fn ge(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().zip(b).rev() {
        if x != y {
            return x > y;
        }
    }
    true
}

/// `a −= b` modulo `2^(64·len)`; returns the borrow out of the top limb.
pub(crate) fn sub_assign(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (x, y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(*y);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *x = d;
        borrow = b1 | b2;
    }
    borrow
}

/// `x⁻¹ mod 2⁶⁴` for an odd `x`, by Newton iteration: each round doubles the
/// number of correct low bits.
pub(crate) fn word_inverse(x: u64) -> u64 {
    debug_assert!(x & 1 == 1, "only odd words are invertible modulo 2⁶⁴");
    let mut inverse = 1u64;
    for _ in 0..6 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inverse)));
    }
    inverse
}

/// The `k` limbs of an `x` below `2^(64·k)`.
pub(crate) fn limbs_of<L: Limbs>(x: &BigUint, k: usize) -> L {
    let mut out = L::zeroed(k);
    for (limb, digit) in out.as_mut().iter_mut().zip(x.iter_u64_digits()) {
        *limb = digit;
    }
    out
}

/// CIOS Montgomery product `a·b·R⁻¹ mod n` of two residues below `n`.
fn mont_mul<L: Limbs>(a: &[u64], b: &[u64], n: &[u64], n0: u64) -> L {
    let mut out = L::zeroed(n.len());
    let t = out.as_mut();
    // Every slice gets the length of the output, which is a constant in the
    // fixed-array instantiations: the loops unroll and the bounds checks go.
    let k = t.len();
    let (a, b, n) = (&a[..k], &b[..k], &n[..k]);
    let mut hi = 0u64;
    for &bi in b {
        let mut carry = 0u64;
        for j in 0..k {
            let s = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + u128::from(carry);
            t[j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = u128::from(hi) + u128::from(carry);
        let (top, over) = (s as u64, (s >> 64) as u64);

        let m = t[0].wrapping_mul(n0);
        let mut carry = ((u128::from(t[0]) + u128::from(m) * u128::from(n[0])) >> 64) as u64;
        for j in 1..k {
            let s = u128::from(t[j]) + u128::from(m) * u128::from(n[j]) + u128::from(carry);
            t[j - 1] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = u128::from(top) + u128::from(carry);
        t[k - 1] = s as u64;
        hi = over + (s >> 64) as u64;
    }
    if hi != 0 || ge(t, n) {
        sub_assign(t, n);
    }
    out
}

/// Montgomery square `a²·R⁻¹ mod n`: the cross products `a[i]·a[j]` are computed
/// once and doubled, then the full square is reduced.
fn mont_sqr<L: Limbs>(a: &[u64], n: &[u64], n0: u64) -> L {
    let mut wide = L::wide(n.len());
    let w = wide.as_mut();
    let k = w.len() / 2;
    let (a, n) = (&a[..k], &n[..k]);
    for i in 0..k {
        let mut carry = 0u64;
        for j in i + 1..k {
            let s = u128::from(w[i + j]) + u128::from(a[i]) * u128::from(a[j]) + u128::from(carry);
            w[i + j] = s as u64;
            carry = (s >> 64) as u64;
        }
        w[i + k] = carry;
    }
    let mut top = 0u64;
    for limb in w.iter_mut() {
        let next = *limb >> 63;
        *limb = (*limb << 1) | top;
        top = next;
    }
    let mut carry = 0u64;
    for i in 0..k {
        let s = u128::from(w[2 * i]) + u128::from(a[i]) * u128::from(a[i]) + u128::from(carry);
        w[2 * i] = s as u64;
        let s = u128::from(w[2 * i + 1]) + (s >> 64);
        w[2 * i + 1] = s as u64;
        carry = (s >> 64) as u64;
    }
    let mut over = 0u64;
    for i in 0..k {
        let m = w[i].wrapping_mul(n0);
        let mut carry = 0u64;
        for j in 0..k {
            let s = u128::from(w[i + j]) + u128::from(m) * u128::from(n[j]) + u128::from(carry);
            w[i + j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = u128::from(w[i + k]) + u128::from(carry) + u128::from(over);
        w[i + k] = s as u64;
        over = (s >> 64) as u64;
    }
    let mut out = L::high_half(wide);
    let t = out.as_mut();
    if over != 0 || ge(t, n) {
        sub_assign(t, n);
    }
    out
}

/// Builds the canonical [`BigUint`] of a little-endian limb slice.
pub(crate) fn store(limbs: &[u64]) -> BigUint {
    const STACK_LIMBS: usize = 32;
    let mut stack = [0u8; 8 * STACK_LIMBS];
    let mut heap = Vec::new();
    let bytes = if limbs.len() <= STACK_LIMBS {
        &mut stack[..8 * limbs.len()]
    } else {
        heap.resize(8 * limbs.len(), 0);
        &mut heap[..]
    };
    for (chunk, limb) in bytes.chunks_exact_mut(8).zip(limbs) {
        chunk.copy_from_slice(&limb.to_le_bytes());
    }
    BigUint::from_bytes_le(bytes)
}

/// A residue in Montgomery form (`x·R mod n`), as precomputed constants keep it.
pub(crate) struct Mont(Vec<u64>);

/// An exponent recoded into sliding windows, most significant first: each step
/// squares `squarings` times, then multiplies by `base^odd` (`odd` = 0: no
/// multiplication, the exponent's trailing zero bits).
pub(crate) struct Windows {
    /// Window width in bits; the table of odd powers has `2^(width−1)` entries.
    width: u32,
    steps: Vec<(u32, u32)>,
}

impl Windows {
    pub(crate) fn new(exponent: &BigUint) -> Windows {
        let bits = exponent.bits();
        let width: u64 = match bits {
            0..=8 => 1,
            9..=23 => 2,
            24..=79 => 3,
            80..=239 => 4,
            240..=671 => 5,
            _ => 6,
        };
        let mut steps = Vec::new();
        let mut pending = 0u32;
        let mut i = bits;
        // `i` is one past the bit under the cursor.
        while i > 0 {
            if !exponent.bit(i - 1) {
                pending += 1;
                i -= 1;
                continue;
            }
            let mut low = i.saturating_sub(width);
            while !exponent.bit(low) {
                low += 1;
            }
            let mut odd = 0u32;
            for bit in (low..i).rev() {
                odd = (odd << 1) | u32::from(exponent.bit(bit));
            }
            steps.push((pending + (i - low) as u32, odd));
            pending = 0;
            i = low;
        }
        if pending > 0 {
            steps.push((pending, 0));
        }
        Windows {
            width: width as u32,
            steps,
        }
    }
}

/// Bits per digit of the digit-wise exponentiations: a [`FixedBase`] table
/// and the shared ladder of an [`ExponentSet`].
const DIGIT_BITS: usize = 4;
/// Non-zero values of one digit.
const DIGIT_VALUES: usize = (1 << DIGIT_BITS) - 1;

/// Exponents this close to an already planned one are derived from it.
const DERIVE_BELOW_BITS: u64 = 16;

/// How many rows an exponentiation at `k` limbs is best run with in lockstep
/// (`ablation_modulus`, group `key_update_rows`). Up to 8 limbs a product is
/// short enough that one row's chain leaves the multiplier idle, and four
/// rows fill it; a 16- or 32-limb product keeps it busy on its own, so more
/// rows only add working set.
pub(crate) fn lockstep_rows(k: usize) -> usize {
    match k {
        0..=8 => 4,
        _ => 1,
    }
}

/// How one exponent of an [`ExponentSet`] is obtained.
enum Slot {
    /// Raised directly: the head with this index.
    Head(usize),
    /// `S^e = S^(e − δ) · S^δ`: the power in slot `from` (an earlier one)
    /// times the small power with index `delta`.
    Derived { from: usize, delta: usize },
}

/// The exponents raised directly.
enum Heads {
    /// None or one: sliding windows, as a lone exponentiation.
    Windowed(Option<Windows>),
    /// Two or more, as little-endian 4-bit digit strings: they share one
    /// squaring ladder, so each costs only its digit products.
    Ladder(Vec<Vec<u8>>),
}

/// Several exponents planned for one base at a time. Equal exponents share a
/// slot; an exponent less than 2¹⁶ above the next smaller one is derived from
/// it with one multiplication by a small power of the base; the rest are
/// heads. Slots are in ascending order of exponent.
pub(crate) struct ExponentSet {
    slots: Vec<Slot>,
    heads: Heads,
    /// The distinct differences `δ` of the derived slots.
    deltas: Vec<u32>,
}

impl ExponentSet {
    /// Plans `exponents`; the second value maps each of them to its slot.
    pub(crate) fn plan(exponents: &[&BigUint]) -> (ExponentSet, Vec<usize>) {
        let mut distinct = exponents.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut slots = Vec::with_capacity(distinct.len());
        let mut heads = Vec::new();
        let mut deltas = Vec::new();
        for (i, &exponent) in distinct.iter().enumerate() {
            let gap = i.checked_sub(1).map(|below| exponent - distinct[below]);
            match gap.filter(|gap| gap.bits() <= DERIVE_BELOW_BITS) {
                Some(gap) => {
                    let gap = gap.to_u64().expect("at most 16 bits") as u32;
                    let delta = deltas.iter().position(|&d| d == gap).unwrap_or_else(|| {
                        deltas.push(gap);
                        deltas.len() - 1
                    });
                    slots.push(Slot::Derived { from: i - 1, delta });
                }
                None => {
                    slots.push(Slot::Head(heads.len()));
                    heads.push(exponent);
                }
            }
        }
        let heads = match heads[..] {
            [] => Heads::Windowed(None),
            [only] => Heads::Windowed(Some(Windows::new(only))),
            _ => Heads::Ladder(heads.iter().map(|head| digits_of(head)).collect()),
        };
        let slot_of = exponents
            .iter()
            .map(|exponent| distinct.binary_search(exponent).expect("planned above"))
            .collect();
        let set = ExponentSet {
            slots,
            heads,
            deltas,
        };
        (set, slot_of)
    }

    /// Number of distinct exponents: residues per base in a
    /// [`Modulus::pow_set`] row.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of exponents raised directly.
    pub(crate) fn heads(&self) -> usize {
        match &self.heads {
            Heads::Windowed(head) => head.iter().count(),
            Heads::Ladder(heads) => heads.len(),
        }
    }

    /// Number of exponents derived from a neighbour.
    pub(crate) fn derived(&self) -> usize {
        self.slots.len() - self.heads()
    }
}

/// The 4-bit digits of `exponent`, least significant first, without leading
/// zeros.
fn digits_of(exponent: &BigUint) -> Vec<u8> {
    let per_limb = 64 / DIGIT_BITS;
    let mut digits: Vec<u8> = exponent
        .iter_u64_digits()
        .flat_map(|limb| {
            (0..per_limb).map(move |j| (limb >> (j * DIGIT_BITS)) as u8 & DIGIT_VALUES as u8)
        })
        .collect();
    while digits.last() == Some(&0) {
        digits.pop();
    }
    digits
}

/// Precomputed Montgomery context of one odd modulus `n`.
///
/// Derived from `n` alone, so it holds nothing the service provider does not
/// already know.
pub struct Modulus {
    n: BigUint,
    /// `n` as `k` little-endian limbs.
    limbs: Vec<u64>,
    /// `−n⁻¹ mod 2⁶⁴`.
    n0: u64,
    /// `R mod n`: the Montgomery form of one.
    one: Vec<u64>,
    /// `R² mod n`: multiplying by it converts into Montgomery form.
    r2: Vec<u64>,
}

impl fmt::Debug for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Modulus").field("n", &self.n).finish()
    }
}

thread_local! {
    /// The context this thread used last (see [`Modulus::shared`]).
    static LAST_USED: RefCell<Option<Arc<Modulus>>> = const { RefCell::new(None) };
}

impl Modulus {
    /// Builds the context of `n`. `None` when `n` is zero or even: Montgomery
    /// reduction needs `n` invertible modulo 2⁶⁴.
    pub fn new(n: &BigUint) -> Option<Modulus> {
        if !n.bit(0) {
            return None;
        }
        let limbs: Vec<u64> = n.iter_u64_digits().collect();
        let padded = |x: BigUint| {
            let mut out: Vec<u64> = x.iter_u64_digits().collect();
            out.resize(limbs.len(), 0);
            out
        };
        let r = (BigUint::from(1u32) << (64 * limbs.len())) % n;
        let r2 = (&r * &r) % n;
        Some(Modulus {
            n: n.clone(),
            n0: word_inverse(limbs[0]).wrapping_neg(),
            one: padded(r),
            r2: padded(r2),
            limbs,
        })
    }

    /// The context of `n` for the free functions that are handed a bare
    /// modulus ([`crate::bigint::mod_mul`], [`crate::bigint::mod_pow`], …):
    /// each thread remembers the one it used last and rebuilds only when `n`
    /// differs. `None` when `n` is zero or even.
    pub fn shared(n: &BigUint) -> Option<Arc<Modulus>> {
        if !n.bit(0) {
            return None;
        }
        LAST_USED.with(|last| {
            let mut last = last.borrow_mut();
            if !matches!(last.as_ref(), Some(modulus) if modulus.n == *n) {
                *last = Some(Arc::new(Modulus::new(n)?));
            }
            last.clone()
        })
    }

    /// The modulus of the context [`Self::shared`] last gave this thread.
    #[cfg(test)]
    pub(crate) fn shared_on_this_thread() -> Option<BigUint> {
        LAST_USED.with(|last| (last.borrow().as_ref()).map(|modulus| modulus.n.clone()))
    }

    /// The modulus `n`.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// `a · b mod n`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        by_width!(self, mul_in(a, b))
    }

    /// [`Self::mul`] with `a` given as little-endian limbs (any number of
    /// them, zero high limbs allowed), as a column of shares holds it.
    pub fn mul_limbs(&self, a: &[u64], b: &BigUint) -> BigUint {
        by_width!(self, mul_limbs_in(a, b))
    }

    /// `base^exponent mod n` (`x⁰ = 1`, and everything is 0 modulo 1).
    pub fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        let (set, _) = ExponentSet::plan(&[exponent]);
        let mut power = vec![0; self.limbs.len()];
        self.pow_set(&set, &[base], &mut power);
        self.out_of_mont(&power)
    }

    /// `x·R mod n`.
    pub(crate) fn to_mont(&self, x: &BigUint) -> Mont {
        by_width!(self, to_mont_in(x))
    }

    /// Number of 64-bit limbs of a residue.
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// Raises every base of `bases` to every exponent of `set`, the bases in
    /// lockstep: `out` receives a row per base, in order, of `set.slots()`
    /// residues of `k` limbs each in Montgomery form, in slot order.
    pub(crate) fn pow_set(&self, set: &ExponentSet, bases: &[&BigUint], out: &mut [u64]) {
        by_width!(self, pow_set_in(set, bases, out))
    }

    /// The canonical value of a residue in Montgomery form (one slot of a
    /// [`Self::pow_set`] row).
    pub(crate) fn out_of_mont(&self, x: &[u64]) -> BigUint {
        by_width!(self, unload(x))
    }

    /// `a · power · factor mod n` for a `power` in Montgomery form (one slot
    /// of a [`Self::pow_set`] row): the two multiplications a key update
    /// costs once its `S_e^p` is known.
    pub(crate) fn mul_mont_mul(&self, a: &BigUint, power: &[u64], factor: &Mont) -> BigUint {
        by_width!(self, mul_mont_mul_in(a, power, factor))
    }

    /// `factor · power mod n` for every `power` in Montgomery form (a row of
    /// `SystemKey::g_powers`): one multiplication each.
    pub(crate) fn times_mont<'p>(
        &self,
        factor: &BigUint,
        powers: impl Iterator<Item = &'p [u64]>,
    ) -> Vec<BigUint> {
        by_width!(self, times_mont_in(factor, powers))
    }

    fn mont_mul<L: Limbs>(&self, a: &[u64], b: &[u64]) -> L {
        mont_mul(a, b, &self.limbs, self.n0)
    }

    fn mont_sqr<L: Limbs>(&self, a: &[u64]) -> L {
        mont_sqr(a, &self.limbs, self.n0)
    }

    /// The limbs of `x mod n`.
    fn load<L: Limbs>(&self, x: &BigUint) -> L {
        let reduced;
        let x = if *x < self.n {
            x
        } else {
            reduced = x % &self.n;
            &reduced
        };
        limbs_of(x, self.limbs.len())
    }

    /// The canonical value of a residue in Montgomery form.
    fn unload<L: Limbs>(&self, x: &[u64]) -> BigUint {
        let mut one = L::zeroed(self.limbs.len());
        one.as_mut()[0] = 1;
        store(self.mont_mul::<L>(x, one.as_ref()).as_ref())
    }

    fn mul_in<L: Limbs>(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (a, b) = (self.load::<L>(a), self.load::<L>(b));
        let product = self.mont_mul::<L>(a.as_ref(), b.as_ref());
        store(self.mont_mul::<L>(product.as_ref(), &self.r2).as_ref())
    }

    fn mul_limbs_in<L: Limbs>(&self, a: &[u64], b: &BigUint) -> BigUint {
        let a = match self.is_residue(a) {
            true => {
                let mut limbs = L::zeroed(self.limbs.len());
                let k = a.len().min(self.limbs.len());
                limbs.as_mut()[..k].copy_from_slice(&a[..k]);
                limbs
            }
            false => self.load::<L>(&store(a)),
        };
        let b = self.load::<L>(b);
        let product = self.mont_mul::<L>(a.as_ref(), b.as_ref());
        store(self.mont_mul::<L>(product.as_ref(), &self.r2).as_ref())
    }

    fn to_mont_in<L: Limbs>(&self, x: &BigUint) -> Mont {
        let x = self.load::<L>(x);
        Mont(self.mont_mul::<L>(x.as_ref(), &self.r2).as_ref().to_vec())
    }

    fn mul_mont_mul_in<L: Limbs>(&self, a: &BigUint, power: &[u64], factor: &Mont) -> BigUint {
        let a = self.load::<L>(a);
        // canonical × Montgomery = canonical: no conversion back is needed.
        let product = self.mont_mul::<L>(a.as_ref(), power);
        store(self.mont_mul::<L>(product.as_ref(), &factor.0).as_ref())
    }

    /// The Montgomery form of one.
    fn one<L: Limbs>(&self) -> L {
        let mut one = L::zeroed(self.limbs.len());
        one.as_mut().copy_from_slice(&self.one);
        one
    }

    /// `x ← x²` for every row's `x`. The rows' products do not depend on each
    /// other, so consecutive ones overlap in the pipeline; this and
    /// [`Self::mul_rows`] are the steps every lockstep kernel is made of.
    fn sqr_rows<L: Limbs>(&self, xs: &mut [L]) {
        for x in xs {
            *x = self.mont_sqr::<L>(x.as_ref());
        }
    }

    /// `x ← x·y` for every row's `x` and the same row's `y`.
    fn mul_rows<L: Limbs>(&self, xs: &mut [L], ys: &[L]) {
        for (x, y) in xs.iter_mut().zip(ys) {
            *x = self.mont_mul::<L>(x.as_ref(), y.as_ref());
        }
    }

    /// `acc ← acc·y` for every row, where an acc not yet `started` (the
    /// empty product) becomes a copy of `y`.
    fn mul_into<L: Limbs>(&self, acc: &mut [L], started: &mut bool, ys: &[L]) {
        if *started {
            self.mul_rows(acc, ys);
        } else {
            acc.clone_from_slice(ys);
            *started = true;
        }
    }

    // The lockstep kernels keep one residue per row of every intermediate
    // value side by side: value `v` of row `r` is at `[v * rows + r]`.

    fn pow_set_in<L: Limbs>(&self, set: &ExponentSet, bases: &[&BigUint], out: &mut [u64]) {
        let (k, rows) = (self.limbs.len(), bases.len());
        let row_limbs = set.slots() * k;
        assert_eq!(out.len(), rows * row_limbs, "one row of powers per base");
        let base: Vec<L> = (bases.iter())
            .map(|base| self.mont_mul::<L>(self.load::<L>(base).as_ref(), &self.r2))
            .collect();
        let heads: Vec<L> = match &set.heads {
            Heads::Windowed(None) => Vec::new(),
            Heads::Windowed(Some(exponent)) => self.pow_windows(&base, exponent),
            Heads::Ladder(digits) => self.pow_ladder(&base, digits),
        };
        let small: Vec<L> = (set.deltas.iter())
            .flat_map(|&delta| self.pow_small(&base, delta))
            .collect();
        for (i, slot) in set.slots.iter().enumerate() {
            for (row, out) in out.chunks_exact_mut(row_limbs).enumerate() {
                let (earlier, rest) = out.split_at_mut(i * k);
                let derived;
                let power = match *slot {
                    Slot::Head(head) => &heads[head * rows + row],
                    Slot::Derived { from, delta } => {
                        let source = &earlier[from * k..(from + 1) * k];
                        derived = self.mont_mul::<L>(source, small[delta * rows + row].as_ref());
                        &derived
                    }
                };
                rest[..k].copy_from_slice(power.as_ref());
            }
        }
    }

    /// `base^exponent` for every row's base by sliding windows over a table of
    /// the odd powers of the base; everything in Montgomery form.
    fn pow_windows<L: Limbs>(&self, base: &[L], exponent: &Windows) -> Vec<L> {
        let rows = base.len();
        let mut odd_powers = base.to_vec();
        if exponent.width > 1 {
            let mut square = base.to_vec();
            self.sqr_rows(&mut square);
            for i in 1..1usize << (exponent.width - 1) {
                odd_powers.extend_from_within((i - 1) * rows..);
                self.mul_rows(&mut odd_powers[i * rows..], &square);
            }
        }
        let mut acc = vec![self.one(); rows];
        let mut started = false;
        for &(squarings, odd) in &exponent.steps {
            // The leading window's squarings would square one.
            if started {
                for _ in 0..squarings {
                    self.sqr_rows(&mut acc);
                }
            }
            if odd != 0 {
                let odd = (odd >> 1) as usize;
                self.mul_into(
                    &mut acc,
                    &mut started,
                    &odd_powers[odd * rows..(odd + 1) * rows],
                );
            }
        }
        acc
    }

    /// `base^e` for every row's base and every digit string of `heads` over
    /// ONE squaring ladder `base^(16^i)` per row: each rung is multiplied into
    /// the bucket of the digit a head has there, and a head's buckets fold as
    /// `Π_d bucket_d^d` (Yao). Returns the powers head by head.
    fn pow_ladder<L: Limbs>(&self, base: &[L], heads: &[Vec<u8>]) -> Vec<L> {
        let rows = base.len();
        let mut buckets = vec![self.one::<L>(); heads.len() * DIGIT_VALUES * rows];
        // Which buckets fill depends on the digits alone, not on the row.
        let mut filled = vec![false; heads.len() * DIGIT_VALUES];
        let positions = heads.iter().map(Vec::len).max().unwrap_or(0);
        let mut rung = base.to_vec();
        for position in 0..positions {
            if position > 0 {
                for _ in 0..DIGIT_BITS {
                    self.sqr_rows(&mut rung);
                }
            }
            for (head, digits) in heads.iter().enumerate() {
                let digit = digits.get(position).copied().unwrap_or(0) as usize;
                if digit != 0 {
                    let bucket = head * DIGIT_VALUES + digit - 1;
                    let values = &mut buckets[bucket * rows..(bucket + 1) * rows];
                    self.mul_into(values, &mut filled[bucket], &rung);
                }
            }
        }
        let mut powers = vec![self.one::<L>(); heads.len() * rows];
        let mut running = vec![self.one::<L>(); rows];
        for (head, power) in powers.chunks_exact_mut(rows).enumerate() {
            // `running` is the product of the buckets from the top digit down;
            // multiplying it in once per digit value raises bucket `d` to `d`.
            let (mut running_started, mut power_started) = (false, false);
            for bucket in (head * DIGIT_VALUES..(head + 1) * DIGIT_VALUES).rev() {
                if filled[bucket] {
                    let values = &buckets[bucket * rows..(bucket + 1) * rows];
                    self.mul_into(&mut running, &mut running_started, values);
                }
                if running_started {
                    self.mul_into(power, &mut power_started, &running);
                }
            }
        }
        powers
    }

    /// `base^exponent` for every row's base and a small non-zero exponent, by
    /// square and multiply.
    fn pow_small<L: Limbs>(&self, base: &[L], exponent: u32) -> Vec<L> {
        let mut acc = base.to_vec();
        for bit in (0..exponent.ilog2()).rev() {
            self.sqr_rows(&mut acc);
            if exponent >> bit & 1 == 1 {
                self.mul_rows(&mut acc, base);
            }
        }
        acc
    }
}

/// Powers of one fixed base, tabulated so that `base^e` costs one
/// multiplication per non-zero 4-bit digit of `e` and no squarings:
/// entry `(i, d)` holds `base^(d·16^i)` for `d` in `1..=15`.
///
/// **Data-owner secret**: the data owner tabulates its generator `g` modulo
/// each prime of `n` ([`crt::Crt`]). The table is never serialised — whoever
/// owns the base rebuilds it — and `Debug` prints its shape only.
pub(crate) struct FixedBase {
    modulus: Modulus,
    /// Number of 4-bit digits the table covers.
    digits: usize,
    /// `digits × 15` residues in Montgomery form, `k` limbs each.
    table: Vec<u64>,
}

impl fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FixedBase")
            .field("digits", &self.digits)
            .field("table", &"<redacted>")
            .finish()
    }
}

impl FixedBase {
    /// Tabulates `base` modulo `modulus` for exponents below the modulus.
    pub(crate) fn new(modulus: Modulus, base: &BigUint) -> FixedBase {
        let digits = (modulus.n.bits() as usize).div_ceil(DIGIT_BITS);
        let table = by_width!(modulus, fixed_base_table(base, digits));
        FixedBase {
            modulus,
            digits,
            table,
        }
    }

    /// The modulus the table is taken modulo.
    pub(crate) fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// `start · base^e mod n` into `out` for every exponent `e` of
    /// `exponents`, `k` little-endian limbs a row and each below `n`;
    /// [`lockstep_rows`] rows at a time run in lockstep. `start` is a residue
    /// of `k` limbs, and the powers come out in its form: canonical for a
    /// canonical `start` (`1` gives `base^e`), Montgomery for a Montgomery one.
    pub(crate) fn pow_times(&self, start: &[u64], exponents: &[u64], out: &mut [u64]) {
        let k = self.modulus.limb_count();
        assert_eq!(exponents.len(), out.len(), "one power per exponent");
        let block = lockstep_rows(k) * k;
        for (exponents, out) in exponents.chunks(block).zip(out.chunks_mut(block)) {
            by_width!(self.modulus, fixed_base_powers(self, start, exponents, out));
        }
    }

    fn entry(&self, digit: usize, value: usize) -> &[u64] {
        let k = self.modulus.limbs.len();
        let start = (digit * DIGIT_VALUES + value - 1) * k;
        &self.table[start..start + k]
    }
}

impl Modulus {
    fn fixed_base_table<L: Limbs>(&self, base: &BigUint, digits: usize) -> Vec<u64> {
        let k = self.limbs.len();
        let mut table = Vec::with_capacity(digits * DIGIT_VALUES * k);
        let base = self.load::<L>(base);
        // `unit` is base^(16^i) for the digit position being filled.
        let mut unit = self.mont_mul::<L>(base.as_ref(), &self.r2);
        for _ in 0..digits {
            let mut power = unit.clone();
            for _ in 0..DIGIT_VALUES {
                table.extend_from_slice(power.as_ref());
                power = self.mont_mul::<L>(power.as_ref(), unit.as_ref());
            }
            unit = power;
        }
        table
    }

    /// `start · base^e` into `out` for every row's exponent `e`, the rows in
    /// lockstep digit by digit. A product of a residue and a table entry
    /// (Montgomery form) is in the residue's form, so `start` sets the form
    /// of every power.
    fn fixed_base_powers<L: Limbs>(
        &self,
        base: &FixedBase,
        start: &[u64],
        exponents: &[u64],
        out: &mut [u64],
    ) {
        let k = self.limbs.len();
        debug_assert!(
            exponents.chunks_exact(k).all(|e| !ge(e, &self.limbs)),
            "every exponent is below the modulus"
        );
        let mut first = L::zeroed(k);
        first.as_mut().copy_from_slice(&start[..k]);
        let mut acc = vec![first; exponents.len() / k];
        let digits_per_limb = 64 / DIGIT_BITS;
        for digit in 0..base.digits {
            let (limb, shift) = (
                digit / digits_per_limb,
                digit % digits_per_limb * DIGIT_BITS,
            );
            for (exponent, acc) in exponents.chunks_exact(k).zip(&mut acc) {
                let value = (exponent[limb] >> shift) as usize & DIGIT_VALUES;
                if value != 0 {
                    *acc = self.mont_mul(acc.as_ref(), base.entry(digit, value));
                }
            }
        }
        for (power, out) in acc.iter().zip(out.chunks_exact_mut(k)) {
            out.copy_from_slice(power.as_ref());
        }
    }

    /// `factor · power mod n` for every `power` in Montgomery form.
    fn times_mont_in<'p, L: Limbs>(
        &self,
        factor: &BigUint,
        powers: impl Iterator<Item = &'p [u64]>,
    ) -> Vec<BigUint> {
        let factor = self.load::<L>(factor);
        // canonical × Montgomery = canonical.
        (powers.map(|power| store(self.mont_mul::<L>(factor.as_ref(), power).as_ref()))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::RandBigInt;
    use num_traits::{One, Zero};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The limb counts under test: the three monomorphised widths, their
    /// neighbours on the slice path, and the smallest ones.
    const LIMB_COUNTS: [u64; 7] = [1, 2, 4, 8, 9, 32, 33];

    fn odd_modulus(rng: &mut StdRng, limbs: u64) -> BigUint {
        let mut n = rng.gen_biguint(64 * limbs);
        n.set_bit(64 * limbs - 1, true);
        n.set_bit(0, true);
        n
    }

    /// Operands on and around every boundary the kernels care about.
    fn operands(rng: &mut StdRng, n: &BigUint) -> Vec<BigUint> {
        let one = BigUint::one();
        vec![
            BigUint::zero(),
            one.clone(),
            n - &one,
            n.clone(),
            n + &one,
            n * n + &one,
            rng.gen_biguint_below(n),
            rng.gen_biguint_below(n),
            rng.gen_biguint(n.bits() + 70),
        ]
    }

    /// Whether the wide limb counts get the whole test matrix: the `BigUint`
    /// reference is slow unoptimised, so a debug build runs a boundary-heavy
    /// part of it there and a release build (`cargo test --release`) all of it.
    const FULL_SIZE: bool = !cfg!(debug_assertions);

    /// The operands an exponentiation test uses as bases: all of them at the
    /// narrow widths, a boundary-heavy few where the `BigUint` reference is
    /// slow (the kernels are the same code at every width).
    fn bases(rng: &mut StdRng, n: &BigUint, limbs: u64) -> Vec<BigUint> {
        let all = operands(rng, n);
        if limbs < 32 || FULL_SIZE {
            return all;
        }
        // n − 1, one below n and one far above it.
        [2, 6, 8].map(|i| all[i].clone()).to_vec()
    }

    /// How many of its operands a lockstep test starts a block at (a block
    /// takes the operands from there on, wrapping around): the first three,
    /// so that every block length sees each boundary operand at several
    /// positions, or only the first at the wide limb counts of a debug build.
    fn starts(limbs: u64) -> usize {
        if limbs < 32 || FULL_SIZE {
            3
        } else {
            1
        }
    }

    #[test]
    fn mul_matches_the_naive_product() {
        let mut rng = StdRng::seed_from_u64(0x4d0d);
        for limbs in LIMB_COUNTS {
            let n = odd_modulus(&mut rng, limbs);
            let modulus = Modulus::new(&n).expect("odd modulus");
            let values = operands(&mut rng, &n);
            for a in &values {
                for b in &values {
                    assert_eq!(modulus.mul(a, b), (a * b) % &n, "{limbs} limbs: {a} · {b}");
                }
            }
        }
    }

    #[test]
    fn pow_matches_binary_modpow() {
        let mut rng = StdRng::seed_from_u64(0x4d0e);
        for limbs in LIMB_COUNTS {
            let n = odd_modulus(&mut rng, limbs);
            let modulus = Modulus::new(&n).expect("odd modulus");
            let mut exponents = vec![
                BigUint::zero(),
                BigUint::one(),
                BigUint::from(2u32),
                BigUint::from(0x1_0000u32),
                &n - BigUint::one(),
            ];
            let bases = bases(&mut rng, &n, limbs);
            if limbs < 32 {
                exponents.push(rng.gen_biguint(64 * limbs + 17));
                // Every window width, and exponents with long runs of zeros
                // and ones (the recoding does not depend on the modulus, so
                // the narrow widths cover it).
                for bits in [5u64, 20, 70, 200, 600, 700] {
                    exponents.push(rng.gen_biguint(bits));
                    exponents.push(BigUint::one() << bits);
                    exponents.push((BigUint::one() << bits) - BigUint::one());
                }
            }
            for base in &bases {
                for exponent in &exponents {
                    assert_eq!(
                        modulus.pow(base, exponent),
                        base.modpow(exponent, &n),
                        "{limbs} limbs: {base} ^ {exponent}"
                    );
                }
            }
        }
    }

    /// `start · base^e` through a fixed-base table for a column of exponents,
    /// as canonical values.
    pub(super) fn fixed_base_pow(
        table: &FixedBase,
        start: &[u64],
        exponents: &[BigUint],
    ) -> Vec<BigUint> {
        let k = table.modulus().limb_count();
        let limbs: Vec<u64> = (exponents.iter())
            .flat_map(|e| limbs_of::<Vec<u64>>(e, k))
            .collect();
        let mut out = vec![0; limbs.len()];
        table.pow_times(start, &limbs, &mut out);
        out.chunks_exact(k).map(store).collect()
    }

    /// The multi-row fixed base gives, row by row, what one row at a time and
    /// `BigUint::modpow` give, in the form of its start: zero exponents,
    /// `n − 1`, and every block length up to one past [`lockstep_rows`]; a
    /// canonical start (one, or a factor) gives canonical powers, a start in
    /// Montgomery form powers in Montgomery form.
    #[test]
    fn fixed_base_pow_matches_binary_modpow() {
        let mut rng = StdRng::seed_from_u64(0x4d0f);
        for limbs in LIMB_COUNTS {
            let n = odd_modulus(&mut rng, limbs);
            for base in bases(&mut rng, &n, limbs) {
                let table = FixedBase::new(Modulus::new(&n).expect("odd modulus"), &base);
                let modulus = table.modulus();
                let exponents = [
                    BigUint::zero(),
                    BigUint::one(),
                    BigUint::from(16u32),
                    &n - BigUint::one(),
                    rng.gen_biguint_below(&n),
                    BigUint::zero(),
                    rng.gen_biguint_below(&n),
                ];
                let powers: Vec<BigUint> = exponents.iter().map(|e| base.modpow(e, &n)).collect();
                let factor = rng.gen_biguint_below(&n);
                let mut forms = vec![
                    (BigUint::one(), BigUint::one()),
                    (factor.clone(), factor.clone()),
                ];
                // A Montgomery-form start: the powers come out times R.
                let radix = modulus.radix();
                forms.push((store(&modulus.mont_row(&factor)), &factor * &radix % &n));
                for (start, times) in forms {
                    let start = limbs_of::<Vec<u64>>(&start, modulus.limb_count());
                    let expected: Vec<BigUint> =
                        (powers.iter()).map(|power| (&times * power) % &n).collect();
                    for (exponent, expected) in exponents.iter().zip(&expected) {
                        assert_eq!(
                            fixed_base_pow(&table, &start, std::slice::from_ref(exponent)),
                            std::slice::from_ref(expected),
                            "{limbs} limbs: {times} · {base} ^ {exponent}"
                        );
                    }
                    for rows in 1..=lockstep_rows(limbs as usize) + 1 {
                        for first in 0..starts(limbs) {
                            let picked: Vec<usize> =
                                (first..first + rows).map(|i| i % exponents.len()).collect();
                            let block: Vec<BigUint> =
                                picked.iter().map(|&i| exponents[i].clone()).collect();
                            let want: Vec<BigUint> =
                                picked.iter().map(|&i| expected[i].clone()).collect();
                            assert_eq!(
                                fixed_base_pow(&table, &start, &block),
                                want,
                                "{limbs} limbs"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every exponent of every set, raised through the set kernel, equals
    /// `BigUint::modpow` — whichever way the plan obtains it — and a key
    /// update finished from that power equals `a · base^e · q mod n`. Raised
    /// several bases at a time, every row equals the same base raised alone:
    /// every block length up to one past [`lockstep_rows`], bases 0, 1,
    /// `n − 1` and `≥ n` side by side, sets of one, two and seven heads with
    /// derived slots and duplicate exponents.
    #[test]
    fn pow_set_matches_binary_modpow_per_exponent() {
        let mut rng = StdRng::seed_from_u64(0x4d10);
        let big = |v: u64| BigUint::from(v);
        for limbs in LIMB_COUNTS {
            let n = odd_modulus(&mut rng, limbs);
            let modulus = Modulus::new(&n).expect("odd modulus");
            let p = rng.gen_biguint_below(&n) | (BigUint::one() << (64 * limbs - 2));
            let r = rng.gen_biguint_below(&n);
            let short = rng.gen_biguint(40);
            let mut sets = vec![
                // A lone exponent: the sliding-window path.
                vec![p.clone()],
                // A run, out of order, with a duplicate.
                vec![&p + big(2), p.clone(), &p + big(1), p.clone()],
                // Two heads on one ladder, mixed bit lengths, zero and one.
                vec![p.clone(), short.clone(), big(0), big(1)],
            ];
            if limbs < 32 || FULL_SIZE {
                sets.extend([
                    vec![big(0)],
                    vec![big(1), big(1)],
                    vec![big(0), r.clone()],
                    // Gaps on both sides of the derivation bound.
                    vec![
                        r.clone(),
                        &r + big(0xffff),
                        &r + big(0x1_fffe),
                        &r + big(0x2_fffe),
                    ],
                    // Eight members: three families and a far neighbour.
                    vec![
                        p.clone(),
                        &p - big(1),
                        &p - big(2),
                        r.clone(),
                        &r + big(1),
                        short.clone(),
                        &short + big(3),
                        &n - big(1),
                    ],
                    (0..7).map(|_| rng.gen_biguint_below(&n)).collect(),
                ]);
            }
            let bases = bases(&mut rng, &n, limbs);
            let q = rng.gen_biguint_below(&n);
            let q_mont = modulus.to_mont(&q);
            let k = modulus.limb_count();
            for exponents in &sets {
                let refs: Vec<&BigUint> = exponents.iter().collect();
                let (set, slot_of) = ExponentSet::plan(&refs);
                let row_limbs = set.slots() * k;
                let mut alone = Vec::new();
                // The bases double as first operands: 0, 1, n − 1 and ≥ n.
                for (base, a) in bases.iter().zip(bases.iter().rev()) {
                    let mut row = vec![0u64; row_limbs];
                    modulus.pow_set(&set, &[base], &mut row);
                    for (exponent, &slot) in exponents.iter().zip(&slot_of) {
                        let power = &row[slot * k..(slot + 1) * k];
                        let expected = base.modpow(exponent, &n);
                        assert_eq!(
                            modulus.out_of_mont(power),
                            expected,
                            "{limbs} limbs: {base} ^ {exponent} in {exponents:?}"
                        );
                        assert_eq!(
                            modulus.mul_mont_mul(a, power, &q_mont),
                            a * expected % &n * &q % &n,
                            "{limbs} limbs: {a} · {base} ^ {exponent} · {q}"
                        );
                    }
                    alone.push(row);
                }
                for rows in 1..=lockstep_rows(k) + 1 {
                    for start in 0..starts(limbs) {
                        let picked: Vec<usize> =
                            (start..start + rows).map(|i| i % bases.len()).collect();
                        let block: Vec<&BigUint> = picked.iter().map(|&i| &bases[i]).collect();
                        let mut lockstep = vec![0u64; rows * row_limbs];
                        modulus.pow_set(&set, &block, &mut lockstep);
                        let want: Vec<u64> =
                            picked.iter().flat_map(|&i| alone[i].clone()).collect();
                        assert_eq!(lockstep, want, "{limbs} limbs, {rows} rows from {start}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// At the widths of the data owner's CRT halves — 128-bit primes (2
        /// limbs, the test profile) and, in an optimised build, 1024-bit
        /// ones (16 limbs, the paper's) — a product, a power and a
        /// fixed-base column of powers equal `BigUint`'s.
        #[test]
        fn the_half_widths_match_biguint(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for limbs in [2u64, 16].into_iter().filter(|&l| l < 16 || FULL_SIZE) {
                let n = odd_modulus(&mut rng, limbs);
                let modulus = Modulus::new(&n).expect("odd modulus");
                let (a, b) = (rng.gen_biguint(n.bits() + 3), rng.gen_biguint_below(&n));
                proptest::prop_assert_eq!(modulus.mul(&a, &b), &a * &b % &n);
                let e = rng.gen_biguint(64 * limbs);
                proptest::prop_assert_eq!(modulus.pow(&a, &e), a.modpow(&e, &n));

                let table = FixedBase::new(modulus, &b);
                let exponents: Vec<BigUint> = (0..lockstep_rows(limbs as usize) + 1)
                    .map(|_| rng.gen_biguint_below(&n))
                    .chain([BigUint::zero(), &n - BigUint::one()])
                    .collect();
                let expected: Vec<BigUint> = exponents.iter().map(|e| b.modpow(e, &n)).collect();
                let one = limbs_of::<Vec<u64>>(&BigUint::one(), limbs as usize);
                proptest::prop_assert_eq!(fixed_base_pow(&table, &one, &exponents), expected);
            }
        }
    }

    /// A set of no exponents has no powers to write.
    #[test]
    fn an_empty_exponent_set_writes_nothing() {
        let modulus = Modulus::new(&BigUint::from(1_000_003u32)).expect("odd");
        let (set, slot_of) = ExponentSet::plan(&[]);
        assert_eq!((set.slots(), set.heads(), set.derived()), (0, 0, 0));
        assert!(slot_of.is_empty());
        modulus.pow_set(&set, &[&BigUint::from(7u32)], &mut []);
        modulus.pow_set(&set, &[&BigUint::from(7u32), &BigUint::from(8u32)], &mut []);
    }

    /// The exponent set of rewritten TPC-H Q1: four families whose members
    /// differ by one or two (`a·(1±b)` shifts `p` by exactly one).
    #[test]
    fn the_q1_exponent_set_plans_as_four_heads_and_three_derived() {
        let mut rng = StdRng::seed_from_u64(0x4d11);
        let [quantity, price, discount, tax] = [(); 4].map(|()| rng.gen_biguint(500));
        let one = BigUint::one();
        let calls = [
            quantity.clone(),
            price.clone(),
            &discount + &one,
            &price - &one,
            &discount + &one,
            tax.clone(),
            &price - &one - &one,
            discount.clone(),
        ];
        let (set, slot_of) = ExponentSet::plan(&calls.iter().collect::<Vec<_>>());
        assert_eq!((set.slots(), set.heads(), set.derived()), (7, 4, 3));
        assert_eq!(slot_of[2], slot_of[4], "equal exponents share a slot");
    }

    #[test]
    fn tiny_moduli() {
        let one = Modulus::new(&BigUint::one()).expect("1 is odd");
        assert_eq!(one.mul(&5u32.into(), &7u32.into()), BigUint::zero());
        assert_eq!(one.pow(&5u32.into(), &BigUint::zero()), BigUint::zero());
        let three = Modulus::new(&BigUint::from(3u32)).expect("3 is odd");
        for a in 0u32..7 {
            for b in 0u32..7 {
                assert_eq!(three.mul(&a.into(), &b.into()), BigUint::from(a * b % 3));
                assert_eq!(
                    three.pow(&a.into(), &b.into()),
                    BigUint::from(a.pow(b) % 3),
                    "{a}^{b}"
                );
            }
        }
    }

    #[test]
    fn even_and_zero_moduli_are_rejected() {
        for n in [0u32, 2, 24, 1 << 20] {
            assert!(Modulus::new(&n.into()).is_none(), "{n}");
            assert!(Modulus::shared(&n.into()).is_none(), "{n}");
        }
    }

    #[test]
    fn shared_context_follows_the_modulus() {
        let (a, b) = (BigUint::from(35u32), BigUint::from(33u32));
        let first = Modulus::shared(&a).expect("odd");
        assert!(Arc::ptr_eq(&first, &Modulus::shared(&a).expect("odd")));
        // An even modulus in between leaves the remembered context alone.
        assert!(Modulus::shared(&BigUint::from(24u32)).is_none());
        assert!(Arc::ptr_eq(&first, &Modulus::shared(&a).expect("odd")));
        let second = Modulus::shared(&b).expect("odd");
        assert_eq!(second.n(), &b);
        assert_eq!(second.mul(&17u32.into(), &2u32.into()), BigUint::one());
        assert_eq!(Modulus::shared(&a).expect("odd").n(), &a);
    }

    #[test]
    fn secrets_stay_out_of_debug_output() {
        let n = BigUint::from(1_000_003u32);
        let modulus = Arc::new(Modulus::new(&n).expect("odd"));
        let base = BigUint::from(271_828u32);
        let table = FixedBase::new(Modulus::new(&n).expect("odd"), &base);
        let rendered = format!("{table:?}");
        assert!(rendered.contains("redacted"), "{rendered}");
        assert!(!rendered.contains("271828"), "{rendered}");
        assert_eq!(format!("{modulus:?}"), "Modulus { n: 1000003 }");
    }
}
