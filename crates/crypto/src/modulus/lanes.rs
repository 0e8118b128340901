//! Share arithmetic over a column of rows at a time.
//!
//! A *lane* holds one residue below `n` per row, `k` limbs each, row after
//! row: row `r` is `lane[r·k..(r+1)·k]`. A column of shares is loaded into a
//! lane once, every product and sum of the rows runs over whole lanes (the
//! rows' products are independent, so consecutive ones overlap in the
//! pipeline), and the result is stored back as one [`BigUint`] per row.
//!
//! Products are Montgomery products, `a·b·R⁻¹ mod n` ([`Modulus::radix`] is
//! `R mod n`): one pass of multiply-and-reduce, no conversion in or out. A
//! caller that keeps track of the constant factor each lane is off by —
//! a loaded share is exact, a product of lanes off by `f` and `g` is off by
//! `f·g·R` — multiplies it in once, at the end or where two lanes are added,
//! by a product with a constant row.

use num_bigint::BigUint;

use super::{ge, limbs_of, store, sub_assign, Limbs, Modulus, Mont};

impl Modulus {
    /// Limbs of one residue: a row of a lane.
    pub fn lane_limbs(&self) -> usize {
        self.limbs.len()
    }

    /// Writes the limbs of `x` into `lane` (one row); `false`, with `lane`
    /// untouched, when `x ≥ n`.
    pub fn load_lane(&self, x: &BigUint, lane: &mut [u64]) -> bool {
        if *x >= self.n {
            return false;
        }
        lane.fill(0);
        for (limb, digit) in lane.iter_mut().zip(x.iter_u64_digits()) {
            *limb = digit;
        }
        true
    }

    /// Writes the residue whose little-endian limbs are `x` (any number of
    /// them, zero high limbs allowed) into `lane` (one row); `false`, with
    /// `lane` untouched, when `x ≥ n`.
    pub fn load_lane_limbs(&self, x: &[u64], lane: &mut [u64]) -> bool {
        if !self.is_residue(x) {
            return false;
        }
        let k = x.len().min(lane.len());
        lane[..k].copy_from_slice(&x[..k]);
        lane[k..].fill(0);
        true
    }

    /// Whether the little-endian limbs `x` (any number of them) are a value
    /// below `n`.
    pub fn is_residue(&self, x: &[u64]) -> bool {
        let k = self.limbs.len();
        if x.iter().skip(k).any(|&limb| limb != 0) {
            return false;
        }
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let digit = x.get(i).copied().unwrap_or(0);
            if digit != limb {
                return digit < limb;
            }
        }
        false
    }

    /// Writes `units mod n` into `lane` (one row), a negative `units`
    /// wrapping to `n − (|units| mod n)` and reduced once more, so that the
    /// row is canonical.
    pub fn load_signed_lane(&self, units: i128, lane: &mut [u64]) {
        let magnitude = BigUint::from(units.unsigned_abs()) % &self.n;
        let value = if units < 0 && magnitude.bits() > 0 {
            &self.n - magnitude
        } else {
            magnitude
        };
        self.load_lane(&value, lane);
    }

    /// The value of one row of a lane.
    pub fn store_lane(&self, lane: &[u64]) -> BigUint {
        store(lane)
    }

    /// `x mod n` as one row.
    pub fn lane_constant(&self, x: &BigUint) -> Vec<u64> {
        limbs_of::<Vec<u64>>(&(x % &self.n), self.limbs.len())
    }

    /// `R mod n`, the factor a Montgomery product divides by.
    pub fn radix(&self) -> BigUint {
        store(&self.one)
    }

    /// `out[r] = a[r]·b[r]·R⁻¹ mod n` for every row.
    pub fn mul_lanes(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        by_width!(self, mul_lanes_in(a, b, 1, out))
    }

    /// `out[r] = a[r]·c·R⁻¹ mod n` for every row, `c` one row.
    pub fn mul_lanes_by(&self, a: &[u64], c: &[u64], out: &mut [u64]) {
        by_width!(self, mul_lanes_in(a, c, 0, out))
    }

    /// The `rows` rows of `words`, `width` little-endian limbs each (any
    /// width, any value), as a lane: each row reduced modulo `n`.
    pub fn lane_of(&self, rows: usize, width: usize, words: &[u64]) -> Vec<u64> {
        let k = self.limbs.len();
        let mut lane = vec![0; rows * k];
        for (r, out) in lane.chunks_exact_mut(k).enumerate() {
            let row = &words[r * width..(r + 1) * width];
            if !self.load_lane_limbs(row, out) {
                self.load_lane(&(store(row) % &self.n), out);
            }
        }
        lane
    }

    /// `x·R mod n` as one row: the constant whose product with a lane
    /// ([`Self::mul_lanes_by`]) multiplies every row by `x` exactly.
    pub fn mont_row(&self, x: &BigUint) -> Vec<u64> {
        self.to_mont(x).0
    }

    /// `out[r] = a[r]·words[r] mod n` for every row, exactly: a row times a
    /// single word (a blinding factor), two products a row.
    pub fn mul_lanes_by_words(&self, a: &[u64], words: &[u64], out: &mut [u64]) {
        by_width!(self, mul_lanes_by_words_in(a, words, out))
    }

    /// `out[r] = a[r] + b[r] mod n` for every row.
    pub fn add_lanes(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let k = self.limbs.len();
        let rows = a.chunks_exact(k).zip(b.chunks_exact(k));
        for ((a, b), out) in rows.zip(out.chunks_exact_mut(k)) {
            let mut carry = false;
            for ((x, y), o) in a.iter().zip(b).zip(out.iter_mut()) {
                let (s, c1) = x.overflowing_add(*y);
                let (s, c2) = s.overflowing_add(u64::from(carry));
                *o = s;
                carry = c1 | c2;
            }
            if carry || ge(out, &self.limbs) {
                sub_assign(out, &self.limbs);
            }
        }
    }

    /// `out[r] = a[r]·power[r] mod n` for every row, `power[r]` the residue
    /// at `offset` of row `r` of `powers` (`row_limbs` limbs a row) in
    /// Montgomery form — so the product is exact: one product a row.
    pub(crate) fn times_power_lanes(
        &self,
        a: &[u64],
        powers: &[u64],
        (row_limbs, offset): (usize, usize),
        out: &mut [u64],
    ) {
        by_width!(
            self,
            times_power_lanes_in(a, powers, row_limbs, offset, out)
        )
    }

    /// The canonical value of a residue in Montgomery form.
    pub(crate) fn value_of(&self, x: &Mont) -> BigUint {
        self.out_of_mont(&x.0)
    }

    /// Rows of `b` advance by `b_step` rows per row of `a`: 1 for a lane, 0
    /// for a constant.
    fn mul_lanes_in<L: Limbs>(&self, a: &[u64], b: &[u64], b_step: usize, out: &mut [u64]) {
        let k = self.limbs.len();
        for (row, (a, out)) in a.chunks_exact(k).zip(out.chunks_exact_mut(k)).enumerate() {
            let b = &b[row * b_step * k..][..k];
            out.copy_from_slice(self.mont_mul::<L>(a, b).as_ref());
        }
    }

    fn mul_lanes_by_words_in<L: Limbs>(&self, a: &[u64], words: &[u64], out: &mut [u64]) {
        let k = self.limbs.len();
        let mut word = L::zeroed(k);
        let rows = a.chunks_exact(k).zip(words).zip(out.chunks_exact_mut(k));
        for ((a, &w), out) in rows {
            // Only a one-limb `n` can be at or below a word.
            word.as_mut()[0] = if k == 1 { w % self.limbs[0] } else { w };
            let product = self.mont_mul::<L>(a, word.as_ref());
            out.copy_from_slice(self.mont_mul::<L>(product.as_ref(), &self.r2).as_ref());
        }
    }

    fn times_power_lanes_in<L: Limbs>(
        &self,
        a: &[u64],
        powers: &[u64],
        row_limbs: usize,
        offset: usize,
        out: &mut [u64],
    ) {
        let k = self.limbs.len();
        let rows = a.chunks_exact(k).zip(powers.chunks_exact(row_limbs));
        for ((a, powers), out) in rows.zip(out.chunks_exact_mut(k)) {
            out.copy_from_slice(self.mont_mul::<L>(a, &powers[offset..offset + k]).as_ref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::RandBigInt;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Loads `values` into a lane.
    fn lane(modulus: &Modulus, values: &[BigUint]) -> Vec<u64> {
        let k = modulus.lane_limbs();
        let mut out = vec![0; values.len() * k];
        for (value, row) in values.iter().zip(out.chunks_exact_mut(k)) {
            assert!(modulus.load_lane(value, row));
        }
        out
    }

    fn rows(modulus: &Modulus, lane: &[u64]) -> Vec<BigUint> {
        (lane.chunks_exact(modulus.lane_limbs()))
            .map(|row| modulus.store_lane(row))
            .collect()
    }

    /// A row given as limbs — narrower than a lane, or padded with zero
    /// limbs past it — loads and multiplies as its `BigUint` does, and one
    /// at or above `n` is refused (and reduced by `mul_limbs`).
    #[test]
    fn limbs_load_and_multiply_as_their_values() {
        let mut rng = StdRng::seed_from_u64(0x11b5);
        for limbs in [1u64, 4, 8, 9] {
            let mut n = rng.gen_biguint(64 * limbs);
            n.set_bit(64 * limbs - 1, true);
            n.set_bit(0, true);
            let modulus = Modulus::new(&n).unwrap();
            let k = modulus.lane_limbs();
            let b = rng.gen_biguint_below(&n);
            let values = [
                rng.gen_biguint_below(&n),
                BigUint::from(7u32),
                BigUint::from(0u32),
                &n - BigUint::from(1u32),
                n.clone(),
                &n + BigUint::from(5u32),
                &n << 70u32,
            ];
            for x in &values {
                let digits: Vec<u64> = x.iter_u64_digits().collect();
                for padded in [digits.clone(), [digits.clone(), vec![0; 3]].concat()] {
                    assert_eq!(modulus.is_residue(&padded), *x < n, "{x}");
                    let (mut row, mut expected) = (vec![u64::MAX; k], vec![u64::MAX; k]);
                    assert_eq!(
                        modulus.load_lane_limbs(&padded, &mut row),
                        modulus.load_lane(x, &mut expected)
                    );
                    assert_eq!(row, expected);
                    assert_eq!(modulus.mul_limbs(&padded, &b), modulus.mul(x, &b));
                }
            }
        }
    }

    /// Products, sums and exponent moves over lanes equal the `BigUint`
    /// formulas at every width the kernels are monomorphised for and two
    /// they are not.
    #[test]
    fn lanes_match_the_biguint_formulas() {
        let mut rng = StdRng::seed_from_u64(0x1a4e);
        for limbs in [1u64, 2, 4, 5, 8, 32] {
            let mut n = rng.gen_biguint(64 * limbs);
            n.set_bit(64 * limbs - 1, true);
            n.set_bit(0, true);
            let modulus = Modulus::new(&n).unwrap();
            let k = modulus.lane_limbs();
            let mut a: Vec<BigUint> = (0..5).map(|_| rng.gen_biguint_below(&n)).collect();
            a.push(&n - BigUint::from(1u32));
            a.push(BigUint::from(0u32));
            let b: Vec<BigUint> = (0..a.len()).map(|_| rng.gen_biguint_below(&n)).collect();
            let (la, lb) = (lane(&modulus, &a), lane(&modulus, &b));
            let mut out = vec![0; la.len()];

            modulus.add_lanes(&la, &lb, &mut out);
            let sums: Vec<BigUint> = a.iter().zip(&b).map(|(x, y)| (x + y) % &n).collect();
            assert_eq!(rows(&modulus, &out), sums);

            // The product of two lanes is off by R⁻¹; a product with the
            // constant R² makes it exact.
            let r = modulus.radix();
            assert_eq!(r, (BigUint::from(1u32) << (64 * k)) % &n);
            let mut product = vec![0; la.len()];
            modulus.mul_lanes(&la, &lb, &mut product);
            modulus.mul_lanes_by(&product, &modulus.lane_constant(&(&r * &r)), &mut out);
            let products: Vec<BigUint> = a.iter().zip(&b).map(|(x, y)| x * y % &n).collect();
            assert_eq!(rows(&modulus, &out), products);

            // A constant times R multiplies a lane exactly, in one product.
            let c = rng.gen_biguint_below(&n);
            modulus.mul_lanes_by(&la, &modulus.lane_constant(&(&c * &r)), &mut out);
            let scaled: Vec<BigUint> = a.iter().map(|x| x * &c % &n).collect();
            assert_eq!(rows(&modulus, &out), scaled);
            assert_eq!(out.len(), a.len() * k);
            assert_eq!(modulus.mont_row(&c), modulus.lane_constant(&(&c * &r)));

            // A word a row, exactly — a word above a one-limb `n` included.
            let words: Vec<u64> = (0..a.len())
                .map(|i| [1, (1 << 30) - 1, u64::MAX, i as u64 + 2][i % 4])
                .collect();
            modulus.mul_lanes_by_words(&la, &words, &mut out);
            let blinded: Vec<BigUint> = a
                .iter()
                .zip(&words)
                .map(|(x, &w)| x * BigUint::from(w) % &n)
                .collect();
            assert_eq!(rows(&modulus, &out), blinded);
        }
    }

    #[test]
    fn loads_refuse_values_at_or_above_n_and_wrap_signed_units() {
        let n = BigUint::from(1_000_003u32);
        let modulus = Modulus::new(&n).unwrap();
        let mut row = [7u64];
        assert!(!modulus.load_lane(&n, &mut row));
        assert_eq!(row, [7], "a refused value leaves the row untouched");
        for (units, expected) in [
            (5i128, 5u32),
            (-5, 999_998),
            (-1_000_003, 0),
            (2_000_009, 3),
            (-2_000_009, 1_000_000),
        ] {
            modulus.load_signed_lane(units, &mut row);
            assert_eq!(modulus.store_lane(&row), BigUint::from(expected), "{units}");
        }
    }
}
