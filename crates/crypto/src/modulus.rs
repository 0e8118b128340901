//! Montgomery arithmetic for one fixed odd modulus.
//!
//! Every share operation of the scheme is a multiplication or an exponentiation
//! modulo the deployment's `n`, and `n` never changes. A [`Modulus`] holds what
//! depends on `n` alone (`−n⁻¹ mod 2⁶⁴`, `R mod n`, `R² mod n` for `R = 2^(64·k)`,
//! `k` the limb count) so that a product costs one interleaved
//! multiply-and-reduce pass (CIOS) instead of a schoolbook product followed by a
//! Knuth division, and an exponentiation runs over sliding windows.
//!
//! Residues enter and leave every public method as canonical [`BigUint`]s in
//! `[0, n)`; an operand `≥ n` is reduced on entry. Montgomery form exists only
//! between the two ends of one call (and inside the precomputed tables), so
//! stored shares, wire bytes and results are exactly what the textbook formulas
//! give.
//!
//! The kernels are monomorphised over fixed `[u64; N]` limb arrays for the three
//! shipped key profiles (`N` = 4, 8, 32: 256-, 512- and 2048-bit `n`); any other
//! width runs the same code over `Vec<u64>`.
//!
//! A [`Modulus`] is derived from the public `n` and may live on either side of
//! the trust boundary. A `FixedBase` table is derived from a *secret* base
//! (the generator `g`) and is a data-owner secret: it is never serialised and
//! its `Debug` output is redacted.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use num_bigint::BigUint;

/// Limb storage of one residue: a fixed array for the shipped widths, a `Vec`
/// for every other.
trait Limbs: Clone + AsRef<[u64]> + AsMut<[u64]> {
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
fixed_limbs!(4, 8, 32);

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

/// Runs a width-generic method on the limb storage matching this modulus.
macro_rules! by_width {
    ($modulus:expr, $method:ident($($arg:expr),*)) => {
        match $modulus.limbs.len() {
            4 => $modulus.$method::<[u64; 4]>($($arg),*),
            8 => $modulus.$method::<[u64; 8]>($($arg),*),
            32 => $modulus.$method::<[u64; 32]>($($arg),*),
            _ => $modulus.$method::<Vec<u64>>($($arg),*),
        }
    };
}

fn ge(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().zip(b).rev() {
        if x != y {
            return x > y;
        }
    }
    true
}

fn sub_assign(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (x, y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(*y);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *x = d;
        borrow = b1 | b2;
    }
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
fn store(limbs: &[u64]) -> BigUint {
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
        // Newton iteration: each round doubles the number of correct low bits.
        let mut inverse = 1u64;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(limbs[0].wrapping_mul(inverse)));
        }
        let padded = |x: BigUint| {
            let mut out: Vec<u64> = x.iter_u64_digits().collect();
            out.resize(limbs.len(), 0);
            out
        };
        let r = (BigUint::from(1u32) << (64 * limbs.len())) % n;
        let r2 = (&r * &r) % n;
        Some(Modulus {
            n: n.clone(),
            n0: inverse.wrapping_neg(),
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

    /// The modulus `n`.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// `a · b mod n`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        by_width!(self, mul_in(a, b))
    }

    /// `base^exponent mod n` (`x⁰ = 1`, and everything is 0 modulo 1).
    pub fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        by_width!(self, pow_in(base, &Windows::new(exponent)))
    }

    /// `x·R mod n`.
    pub(crate) fn to_mont(&self, x: &BigUint) -> Mont {
        by_width!(self, to_mont_in(x))
    }

    /// `a · base^exponent · factor mod n`: the per-row arithmetic of a key
    /// update, with the exponent recoded and the factor converted once.
    pub(crate) fn mul_pow_mul(
        &self,
        a: &BigUint,
        base: &BigUint,
        exponent: &Windows,
        factor: &Mont,
    ) -> BigUint {
        by_width!(self, mul_pow_mul_in(a, base, exponent, factor))
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
        let mut out = L::zeroed(self.limbs.len());
        for (limb, digit) in out.as_mut().iter_mut().zip(x.iter_u64_digits()) {
            *limb = digit;
        }
        out
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

    fn to_mont_in<L: Limbs>(&self, x: &BigUint) -> Mont {
        let x = self.load::<L>(x);
        Mont(self.mont_mul::<L>(x.as_ref(), &self.r2).as_ref().to_vec())
    }

    fn pow_in<L: Limbs>(&self, base: &BigUint, exponent: &Windows) -> BigUint {
        self.unload::<L>(self.pow_mont::<L>(base, exponent).as_ref())
    }

    fn mul_pow_mul_in<L: Limbs>(
        &self,
        a: &BigUint,
        base: &BigUint,
        exponent: &Windows,
        factor: &Mont,
    ) -> BigUint {
        let power = self.pow_mont::<L>(base, exponent);
        let a = self.load::<L>(a);
        // canonical × Montgomery = canonical: no conversion back is needed.
        let product = self.mont_mul::<L>(a.as_ref(), power.as_ref());
        store(self.mont_mul::<L>(product.as_ref(), &factor.0).as_ref())
    }

    /// `base^exponent` in Montgomery form, by sliding windows over a table of
    /// the odd powers of `base`.
    fn pow_mont<L: Limbs>(&self, base: &BigUint, exponent: &Windows) -> L {
        let base = self.load::<L>(base);
        let base = self.mont_mul::<L>(base.as_ref(), &self.r2);
        let mut odd_powers = vec![base];
        if exponent.width > 1 {
            let square = self.mont_sqr::<L>(odd_powers[0].as_ref());
            for i in 1..1usize << (exponent.width - 1) {
                let next = self.mont_mul::<L>(odd_powers[i - 1].as_ref(), square.as_ref());
                odd_powers.push(next);
            }
        }
        let mut acc: Option<L> = None;
        for &(squarings, odd) in &exponent.steps {
            acc = Some(match acc {
                // The leading window: its squarings would square one.
                None => odd_powers[(odd >> 1) as usize].clone(),
                Some(mut acc) => {
                    for _ in 0..squarings {
                        acc = self.mont_sqr::<L>(acc.as_ref());
                    }
                    if odd != 0 {
                        acc = self.mont_mul(acc.as_ref(), odd_powers[(odd >> 1) as usize].as_ref());
                    }
                    acc
                }
            });
        }
        acc.unwrap_or_else(|| {
            let mut one = L::zeroed(self.limbs.len());
            one.as_mut().copy_from_slice(&self.one);
            one
        })
    }
}

/// Bits per digit of a [`FixedBase`] table.
const FIXED_BASE_DIGIT_BITS: usize = 4;
/// Non-zero values of one digit.
const FIXED_BASE_DIGIT_VALUES: usize = (1 << FIXED_BASE_DIGIT_BITS) - 1;

/// Powers of one fixed base, tabulated so that `base^e` costs one
/// multiplication per non-zero 4-bit digit of `e` and no squarings:
/// entry `(i, d)` holds `base^(d·16^i)` for `d` in `1..=15`.
///
/// **Data-owner secret** when the base is (the generator `g`): the table is
/// never serialised — whoever owns the base rebuilds it — and `Debug` prints
/// its shape only.
pub(crate) struct FixedBase {
    modulus: Arc<Modulus>,
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
    /// Tabulates `base` for exponents as long as the modulus (the scheme's are
    /// reduced modulo `φ(n) < n`); longer ones take the general path.
    pub(crate) fn new(modulus: Arc<Modulus>, base: &BigUint) -> FixedBase {
        let digits = (modulus.n.bits() as usize).div_ceil(FIXED_BASE_DIGIT_BITS);
        let table = by_width!(modulus, fixed_base_table(base, digits));
        FixedBase {
            modulus,
            digits,
            table,
        }
    }

    /// `factor · base^exponent mod n`.
    pub(crate) fn pow_times(&self, exponent: &BigUint, factor: &BigUint) -> BigUint {
        if exponent.bits() as usize > self.digits * FIXED_BASE_DIGIT_BITS {
            // Wider than the table: recover the base and take the general path.
            let base = by_width!(self.modulus, unload(self.entry(0, 1)));
            return self.modulus.mul(factor, &self.modulus.pow(&base, exponent));
        }
        by_width!(self.modulus, fixed_base_pow_times(self, exponent, factor))
    }

    fn entry(&self, digit: usize, value: usize) -> &[u64] {
        let k = self.modulus.limbs.len();
        let start = (digit * FIXED_BASE_DIGIT_VALUES + value - 1) * k;
        &self.table[start..start + k]
    }
}

impl Modulus {
    fn fixed_base_table<L: Limbs>(&self, base: &BigUint, digits: usize) -> Vec<u64> {
        let k = self.limbs.len();
        let mut table = Vec::with_capacity(digits * FIXED_BASE_DIGIT_VALUES * k);
        let base = self.load::<L>(base);
        // `unit` is base^(16^i) for the digit position being filled.
        let mut unit = self.mont_mul::<L>(base.as_ref(), &self.r2);
        for _ in 0..digits {
            let mut power = unit.clone();
            for _ in 0..FIXED_BASE_DIGIT_VALUES {
                table.extend_from_slice(power.as_ref());
                power = self.mont_mul::<L>(power.as_ref(), unit.as_ref());
            }
            unit = power;
        }
        table
    }

    fn fixed_base_pow_times<L: Limbs>(
        &self,
        base: &FixedBase,
        exponent: &BigUint,
        factor: &BigUint,
    ) -> BigUint {
        let mut acc: Option<L> = None;
        let digits_per_limb = 64 / FIXED_BASE_DIGIT_BITS;
        for (i, limb) in exponent.iter_u64_digits().enumerate() {
            for j in 0..digits_per_limb {
                let value =
                    (limb >> (j * FIXED_BASE_DIGIT_BITS)) as usize & FIXED_BASE_DIGIT_VALUES;
                if value == 0 {
                    continue;
                }
                let entry = base.entry(i * digits_per_limb + j, value);
                acc = Some(match acc {
                    None => {
                        let mut first = L::zeroed(self.limbs.len());
                        first.as_mut().copy_from_slice(entry);
                        first
                    }
                    Some(acc) => self.mont_mul(acc.as_ref(), entry),
                });
            }
        }
        let factor = self.load::<L>(factor);
        let power = acc.as_ref().map_or(&self.one[..], |acc| acc.as_ref());
        // canonical × Montgomery = canonical.
        store(self.mont_mul::<L>(factor.as_ref(), power).as_ref())
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

    /// The operands an exponentiation test uses as bases: all of them at the
    /// narrow widths, a boundary-heavy few where the `BigUint` reference is
    /// slow (the kernels are the same code at every width).
    fn bases(rng: &mut StdRng, n: &BigUint, limbs: u64) -> Vec<BigUint> {
        let all = operands(rng, n);
        if limbs < 32 {
            return all;
        }
        // n − 1, one below n and one far above it.
        [2, 6, 8].map(|i| all[i].clone()).to_vec()
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

    #[test]
    fn fixed_base_pow_matches_binary_modpow() {
        let mut rng = StdRng::seed_from_u64(0x4d0f);
        for limbs in LIMB_COUNTS {
            let n = odd_modulus(&mut rng, limbs);
            let modulus = Arc::new(Modulus::new(&n).expect("odd modulus"));
            for base in bases(&mut rng, &n, limbs) {
                let table = FixedBase::new(Arc::clone(&modulus), &base);
                let exponents = [
                    BigUint::zero(),
                    BigUint::one(),
                    BigUint::from(16u32),
                    &n - BigUint::one(),
                    rng.gen_biguint_below(&n),
                    // Wider than the table: served by the general path.
                    rng.gen_biguint(n.bits() + 9) | (BigUint::one() << (n.bits() + 8)),
                ];
                for exponent in &exponents {
                    let power = base.modpow(exponent, &n);
                    for factor in [
                        BigUint::one(),
                        rng.gen_biguint_below(&n),
                        &n + BigUint::from(5u32),
                    ] {
                        assert_eq!(
                            table.pow_times(exponent, &factor),
                            (&factor * &power) % &n,
                            "{limbs} limbs: {factor} · {base} ^ {exponent}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mul_pow_mul_matches_the_key_update_formula() {
        let mut rng = StdRng::seed_from_u64(0x4d10);
        for limbs in LIMB_COUNTS {
            let n = odd_modulus(&mut rng, limbs);
            let modulus = Modulus::new(&n).expect("odd modulus");
            let values = bases(&mut rng, &n, limbs);
            let p = rng.gen_biguint_below(&n);
            let q = rng.gen_biguint_below(&n);
            let (windows, factor) = (Windows::new(&p), modulus.to_mont(&q));
            for a in &values {
                for s in &values {
                    assert_eq!(
                        modulus.mul_pow_mul(a, s, &windows, &factor),
                        (a * s.modpow(&p, &n) % &n) * &q % &n,
                        "{limbs} limbs"
                    );
                }
            }
        }
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
        let table = FixedBase::new(Arc::clone(&modulus), &base);
        let rendered = format!("{table:?}");
        assert!(rendered.contains("redacted"), "{rendered}");
        assert!(!rendered.contains("271828"), "{rendered}");
        assert_eq!(format!("{modulus:?}"), "Modulus { n: 1000003 }");
    }
}
