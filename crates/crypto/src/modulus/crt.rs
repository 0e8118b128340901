//! Powers of the generator by the Chinese remainder theorem: the data owner's
//! item keys at half width.
//!
//! The data owner knows the primes `p < q` of `n = p·q`. Since `g` is
//! co-prime with `n`, Fermat gives `g^e ≡ g^(e mod (p−1)) (mod p)`, and
//! likewise modulo `q`: a power of `g` modulo `n` is a pair of powers at half
//! the width, with exponents of half the length, over fixed-base tables of
//! `g mod p` and `g mod q`. Garner's step recombines a pair `(a_p, a_q)` as
//! `x = a_p + p·((a_q − a_p)·p⁻¹ mod q)`, which lands in `[0, n)` without a
//! reduction modulo `n` (`a_p < p < q`, so `a_p` is a residue modulo `q` as
//! well).
//!
//! Every power is taken as `c·g^e` for a constant `c` given by its residues
//! modulo `p` and `q` ([`CrtConstant`]): the half products start from those
//! residues instead of one. An item key's factor `m`, the radix `R` that puts
//! a power in Montgomery form modulo `n`, and encryption's `m⁻¹·R` are folded
//! in that way, so no multiplication modulo `n` is spent on them.
//!
//! Exponents arrive either reduced modulo `φ(n)` or as a row id `r` and a
//! column's `x`; the latter are reduced modulo `p − 1` and `q − 1` once each
//! ([`Crt::reduce`]), and a cell's exponent is their product modulo the half
//! order ([`Crt::cell_exponents`]). Encryption raises the complement
//! `(ρ − 1) − e` so that it multiplies by `g^(−e)` and never inverts an item
//! key.
//!
//! Everything here is derived from `p`, `q` and `g` and is a data-owner
//! secret: never serialised, and no `Debug` output.

use num_bigint::BigUint;
use num_traits::One;

use super::{ge, mont_mul, store, sub_assign, FixedBase, Limbs, Modulus};

/// Order limb counts up to this use the Barrett reduction on the stack;
/// wider ones (primes above 2048 bits) divide.
const BARRETT_LIMBS: usize = 32;
/// Stack words of one Barrett intermediate: a `(k+1)`-limb by `(k+2)`-limb
/// product.
const BARRETT_WORDS: usize = 2 * BARRETT_LIMBS + 3;

/// The data owner's half-width arithmetic of `g`.
pub(crate) struct Crt {
    /// The half modulo `p`, then the half modulo `q`.
    halves: [Half; 2],
    /// `p` as little-endian limbs.
    p: Vec<u64>,
    /// `p⁻¹·R_q mod q` (Montgomery form modulo `q`): Garner's constant.
    garner: Vec<u64>,
    /// Limb count of `n`.
    k: usize,
    /// `R mod n` (`R = 2^(64·k)`) as residues: the start of a power wanted in
    /// Montgomery form modulo `n`.
    radix: CrtConstant,
}

/// One prime's half: the fixed-base table of `g` modulo the prime, and the
/// order its exponents are reduced by.
struct Half {
    g: FixedBase,
    order: Order,
}

/// A constant `c` as its canonical residues modulo `p` and `q`.
#[derive(Clone)]
pub(crate) struct CrtConstant([Vec<u64>; 2]);

/// Exponent rows for both halves: row `i` of half `h` is
/// `rows[h][i·k_h..(i+1)·k_h]`, each below that half's order.
pub(crate) type HalfExponents = [Vec<u64>; 2];

impl Crt {
    /// The halves of `n = ρ₁·ρ₂` for the generator `g`. `None` unless the two
    /// primes are distinct and odd and `g` is a unit modulo both.
    pub(crate) fn new(rho1: &BigUint, rho2: &BigUint, g: &BigUint, n: &Modulus) -> Option<Crt> {
        let (p, q) = match rho1.cmp(rho2) {
            std::cmp::Ordering::Less => (rho1, rho2),
            std::cmp::Ordering::Greater => (rho2, rho1),
            std::cmp::Ordering::Equal => return None,
        };
        let half = |prime: &BigUint| {
            let modulus = Modulus::new(prime)?;
            let base = g % prime;
            if base.bits() == 0 || prime.bits() < 2 {
                return None;
            }
            Some(Half {
                order: Order::new(prime - BigUint::one()),
                g: FixedBase::new(modulus, &base),
            })
        };
        let halves = [half(p)?, half(q)?];
        // p⁻¹ = p^(q−2) mod q by Fermat, through q's own context.
        let q_modulus = halves[1].g.modulus();
        let p_inverse = q_modulus.pow(p, &(q - BigUint::from(2u32)));
        let radix = n.radix();
        Some(Crt {
            p: p.iter_u64_digits().collect(),
            garner: q_modulus.to_mont(&p_inverse).0,
            k: n.limb_count(),
            radix: CrtConstant(halves.each_ref().map(|half| residue(half, &radix))),
            halves,
        })
    }

    /// Limb count of each half's residues.
    fn half_limbs(&self) -> [usize; 2] {
        self.halves
            .each_ref()
            .map(|half| half.g.modulus().limb_count())
    }

    /// `c` as its residues modulo `p` and `q`.
    pub(crate) fn constant(&self, c: &BigUint) -> CrtConstant {
        CrtConstant(self.halves.each_ref().map(|half| residue(half, c)))
    }

    /// `m⁻¹·R mod n` as residues, each inverse by Fermat through its prime's
    /// own context; `None` when `m` is not a unit modulo `n`.
    pub(crate) fn inverse_times_radix(&self, m: &BigUint) -> Option<CrtConstant> {
        let mut residues = self.radix.clone();
        for (half, radix) in self.halves.iter().zip(&mut residues.0) {
            let modulus = half.g.modulus();
            let prime = modulus.n();
            let m = m % prime;
            if m.bits() == 0 {
                return None;
            }
            let inverse = modulus.pow(&m, &(prime - BigUint::from(2u32)));
            *radix = residue(half, &modulus.mul(&inverse, &store(radix)));
        }
        Some(residues)
    }

    /// Every value of `values` reduced modulo `p − 1` and modulo `q − 1`, a
    /// row each: a row id once for all its cells, a column's `x` once for
    /// all its rows, or an exponent reduced modulo `φ(n)`.
    pub(crate) fn reduce<'v>(
        &self,
        values: impl ExactSizeIterator<Item = &'v BigUint>,
    ) -> HalfExponents {
        let widths = self.half_limbs();
        let rows = values.len();
        let mut out = widths.map(|kh| vec![0; rows * kh]);
        let mut limbs = Vec::new();
        for (i, value) in values.enumerate() {
            limbs.clear();
            limbs.extend(value.iter_u64_digits());
            for (h, half) in self.halves.iter().enumerate() {
                let kh = widths[h];
                half.order.reduce(&limbs, &mut out[h][i * kh..(i + 1) * kh]);
            }
        }
        out
    }

    /// The exponent `r·x mod (ρ − 1)` in each half for every row `r` of
    /// `rows` (reduced rows, [`Self::reduce`]) picked by `picked`, under a
    /// column whose reduced `x` is `x`; with `negate`, its complement
    /// `(ρ − 1) − e` (zero for zero), which raises `g^(−e)`.
    pub(crate) fn cell_exponents(
        &self,
        x: &HalfExponents,
        rows: &HalfExponents,
        picked: impl ExactSizeIterator<Item = usize> + Clone,
        negate: bool,
    ) -> HalfExponents {
        let widths = self.half_limbs();
        let cells = picked.len();
        let mut out = widths.map(|kh| vec![0; cells * kh]);
        for (h, half) in self.halves.iter().enumerate() {
            let kh = widths[h];
            let x = &x[h][..kh];
            let (mut product, mut complement) = (vec![0; 2 * kh], vec![0; kh]);
            for (cell, row) in picked.clone().enumerate() {
                product.fill(0);
                mul_add_into(&rows[h][row * kh..(row + 1) * kh], x, &mut product);
                let e = &mut out[h][cell * kh..(cell + 1) * kh];
                half.order.reduce(&product, e);
                if negate && e.iter().any(|&limb| limb != 0) {
                    complement.copy_from_slice(&half.order.m);
                    sub_assign(&mut complement, e);
                    e.copy_from_slice(&complement);
                }
            }
        }
        out
    }

    /// `c·g^e mod n`, canonical, `k` limbs a row, appended to `out` for every
    /// row of `exponents`: `c·g^(e_p)` modulo `p` and `c·g^(e_q)` modulo `q`,
    /// recombined. With `c` = [`Self::radix`] the rows are `g^e` in
    /// Montgomery form modulo `n`.
    pub(crate) fn pow_times(&self, c: &CrtConstant, exponents: &HalfExponents, out: &mut Vec<u64>) {
        let [kp, kq] = self.half_limbs();
        let rows = exponents[0].len() / kp;
        let powers: [Vec<u64>; 2] = std::array::from_fn(|h| {
            let mut powers = vec![0; exponents[h].len()];
            self.halves[h]
                .g
                .pow_times(&c.0[h], &exponents[h], &mut powers);
            powers
        });
        let start = out.len();
        out.resize(start + rows * self.k, 0);
        let q = self.halves[1].g.modulus();
        by_limbs!(kq, L => self.garner::<L>(q, &powers, &mut out[start..]));
    }

    /// The `c` whose powers come out in Montgomery form modulo `n`.
    pub(crate) fn radix(&self) -> &CrtConstant {
        &self.radix
    }

    /// Garner's step for every row: `x = a_p + p·((a_q − a_p)·p⁻¹ mod q)`.
    fn garner<L: Limbs>(&self, q: &Modulus, powers: &[Vec<u64>; 2], out: &mut [u64]) {
        let [kp, kq] = self.half_limbs();
        let k = self.k;
        let mut wide = vec![0u64; kp + kq + 1];
        let rows = powers[0].chunks_exact(kp).zip(powers[1].chunks_exact(kq));
        for ((a_p, a_q), x) in rows.zip(out.chunks_exact_mut(k)) {
            // d = a_q − a_p mod q; a_p < p < q.
            let mut d = L::zeroed(kq);
            let limbs = d.as_mut();
            limbs.copy_from_slice(a_q);
            let mut a_p_wide = L::zeroed(kq);
            a_p_wide.as_mut()[..kp].copy_from_slice(a_p);
            if sub_assign(limbs, a_p_wide.as_ref()) {
                add_assign(limbs, &q.limbs);
            }
            let h = mont_mul::<L>(d.as_ref(), &self.garner, &q.limbs, q.n0);
            wide.fill(0);
            wide[..kp].copy_from_slice(a_p);
            mul_add_into(&self.p, h.as_ref(), &mut wide);
            debug_assert!(wide[k..].iter().all(|&limb| limb == 0), "x < n");
            x.copy_from_slice(&wide[..k]);
        }
    }
}

/// The limbs of `c mod ρ` for a half's prime `ρ`.
fn residue(half: &Half, c: &BigUint) -> Vec<u64> {
    let modulus = half.g.modulus();
    let mut limbs = vec![0; modulus.limb_count()];
    modulus.load_lane(&(c % modulus.n()), &mut limbs);
    limbs
}

/// `acc += a·b`, `acc` wide enough for the sum.
fn mul_add_into(a: &[u64], b: &[u64], acc: &mut [u64]) {
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u64;
        for (j, &bj) in b.iter().enumerate() {
            let s = u128::from(acc[i + j]) + u128::from(ai) * u128::from(bj) + u128::from(carry);
            acc[i + j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let mut at = i + b.len();
        while carry != 0 && at < acc.len() {
            let (s, over) = acc[at].overflowing_add(carry);
            acc[at] = s;
            carry = u64::from(over);
            at += 1;
        }
    }
}

/// `a += b` modulo `2^(64·len)`.
fn add_assign(a: &mut [u64], b: &[u64]) {
    let mut carry = false;
    for (x, y) in a.iter_mut().zip(b) {
        let (s, c1) = x.overflowing_add(*y);
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *x = s;
        carry = c1 | c2;
    }
}

/// An even modulus `m = ρ − 1` with its Barrett constant
/// `μ = ⌊2^(128·k) / m⌋`, `k` the limb count of `m`.
struct Order {
    m: Vec<u64>,
    mu: Vec<u64>,
    value: BigUint,
}

impl Order {
    fn new(value: BigUint) -> Order {
        let m: Vec<u64> = value.iter_u64_digits().collect();
        let mu = ((BigUint::one() << (128 * m.len())) / &value)
            .iter_u64_digits()
            .collect();
        Order { m, mu, value }
    }

    /// `x mod m` into `out` (`k` limbs), for `x` given as little-endian limbs
    /// of any length: Barrett's reduction (Menezes et al., 14.42) when `x`
    /// has at most `2k` significant limbs, a division otherwise.
    fn reduce(&self, x: &[u64], out: &mut [u64]) {
        let k = self.m.len();
        let len = x
            .iter()
            .rposition(|&limb| limb != 0)
            .map_or(0, |top| top + 1);
        let x = &x[..len];
        if len > 2 * k || k > BARRETT_LIMBS {
            out.fill(0);
            for (limb, digit) in out
                .iter_mut()
                .zip((store(x) % &self.value).iter_u64_digits())
            {
                *limb = digit;
            }
            return;
        }
        if len <= k && !ge(&pad::<BARRETT_WORDS>(x, k), &self.m) {
            out.fill(0);
            out[..len].copy_from_slice(x);
            return;
        }
        // q̂ = ⌊⌊x / b^(k−1)⌋ · μ / b^(k+1)⌋ undershoots ⌊x / m⌋ by at most 2.
        let high = if len >= k { &x[k - 1..] } else { &[][..] };
        let mut q = [0u64; BARRETT_WORDS];
        mul_add_into(high, &self.mu, &mut q[..high.len() + self.mu.len()]);
        let q = &q[k + 1..(high.len() + self.mu.len()).max(k + 1)];
        // r = x − q̂·m modulo b^(k+1), then at most two subtractions of m.
        let mut r = pad::<BARRETT_WORDS>(x, k + 1);
        let mut qm = [0u64; BARRETT_WORDS];
        mul_low(q, &self.m, &mut qm[..k + 1]);
        sub_assign(&mut r[..k + 1], &qm[..k + 1]);
        let m = pad::<BARRETT_WORDS>(&self.m, k + 1);
        while ge(&r[..k + 1], &m[..k + 1]) {
            sub_assign(&mut r[..k + 1], &m[..k + 1]);
        }
        out.copy_from_slice(&r[..k]);
    }
}

/// The limbs of `x` zero-extended to `len` (at least `x.len()`), on the stack.
fn pad<const N: usize>(x: &[u64], len: usize) -> [u64; N] {
    let mut out = [0; N];
    out[..x.len()].copy_from_slice(x);
    debug_assert!(len <= N);
    out
}

/// `out = a·b mod 2^(64·out.len())` for a zeroed `out`.
fn mul_low(a: &[u64], b: &[u64], out: &mut [u64]) {
    let len = out.len();
    for (i, &ai) in a.iter().enumerate().take(len) {
        let mut carry = 0u64;
        for (j, &bj) in b.iter().enumerate().take(len - i) {
            let s = u128::from(out[i + j]) + u128::from(ai) * u128::from(bj) + u128::from(carry);
            out[i + j] = s as u64;
            carry = (s >> 64) as u64;
        }
        if i + b.len() < len {
            out[i + b.len()] = carry;
        }
    }
}
