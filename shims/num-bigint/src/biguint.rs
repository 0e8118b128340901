//! The arbitrary-precision unsigned integer.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::{Product, Sum};
use std::ops::{
    Add, AddAssign, BitAnd, BitOr, Mul, MulAssign, Rem, RemAssign, Shl, ShlAssign, Shr, ShrAssign,
    Sub, SubAssign,
};

use num_integer::Integer;
use num_traits::{One, Zero};

use crate::division;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs).
///
/// The limb vector is always normalised: no trailing zero limbs, and zero is
/// the empty vector.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// Creates a value from raw little-endian limbs (normalising trailing zeros).
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// The value zero. Crate-internal: external callers reach this through the
    /// `num_traits::Zero` impl, exactly as with the real crate.
    pub(crate) fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one (external callers use `num_traits::One`).
    pub(crate) fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` if `self` is zero (external callers use `num_traits::Zero`).
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if `self` is one (external callers use `num_traits::One`).
    pub(crate) fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Parses an integer written in `radix` (supported: 2..=16) from ASCII bytes.
    ///
    /// Returns `None` for an empty string or any invalid digit, matching the
    /// real crate's behaviour.
    pub fn parse_bytes(bytes: &[u8], radix: u32) -> Option<Self> {
        assert!((2..=16).contains(&radix), "radix out of supported range");
        if bytes.is_empty() {
            return None;
        }
        let mut value = BigUint::zero();
        for &b in bytes {
            let digit = (b as char).to_digit(radix)?;
            value.mul_small(radix as u64);
            value.add_small(digit as u64);
        }
        Some(value)
    }

    /// Builds a value from little-endian bytes.
    pub fn from_bytes_le(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            limbs.push(u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut limb = [0u8; 8];
            limb[..rest.len()].copy_from_slice(rest);
            limbs.push(u64::from_le_bytes(limb));
        }
        BigUint::from_limbs(limbs)
    }

    /// Builds a value from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let reversed: Vec<u8> = bytes.iter().rev().copied().collect();
        BigUint::from_bytes_le(&reversed)
    }

    /// Returns the little-endian byte representation (at least one byte).
    pub fn to_bytes_le(&self) -> Vec<u8> {
        if self.is_zero() {
            return vec![0];
        }
        let mut bytes: Vec<u8> = self.limbs.iter().flat_map(|l| l.to_le_bytes()).collect();
        while bytes.len() > 1 && bytes.last() == Some(&0) {
            bytes.pop();
        }
        bytes
    }

    /// Returns the big-endian byte representation (at least one byte).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut bytes = self.to_bytes_le();
        bytes.reverse();
        bytes
    }

    /// Number of bits in the value (zero has zero bits).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() as u64 * 64 - u64::from(top.leading_zeros()),
        }
    }

    /// Returns bit `index` (zero-based from the least significant bit).
    pub fn bit(&self, index: u64) -> bool {
        let limb = (index / 64) as usize;
        match self.limbs.get(limb) {
            Some(&l) => (l >> (index % 64)) & 1 == 1,
            None => false,
        }
    }

    /// Sets bit `index` to `value`, growing the representation as needed.
    pub fn set_bit(&mut self, index: u64, value: bool) {
        let limb = (index / 64) as usize;
        let mask = 1u64 << (index % 64);
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= mask;
        } else if let Some(l) = self.limbs.get_mut(limb) {
            *l &= !mask;
            while self.limbs.last() == Some(&0) {
                self.limbs.pop();
            }
        }
    }

    /// Number of trailing zero bits; `None` for zero.
    pub fn trailing_zeros(&self) -> Option<u64> {
        let limb = self.limbs.iter().position(|&l| l != 0)?;
        Some(limb as u64 * 64 + u64::from(self.limbs[limb].trailing_zeros()))
    }

    /// The value's base-2⁶⁴ digits, least significant first (none for zero).
    pub fn iter_u64_digits(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.limbs.iter().copied()
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u128::from(self.limbs[0])),
            2 => Some(u128::from(self.limbs[0]) | (u128::from(self.limbs[1]) << 64)),
            _ => None,
        }
    }

    /// Raises `self` to the power `exponent`.
    pub fn pow(&self, exponent: u32) -> BigUint {
        let mut result = BigUint::one();
        let mut base = self.clone();
        let mut exp = exponent;
        while exp > 0 {
            if exp & 1 == 1 {
                result = &result * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        result
    }

    /// Computes `self^exponent mod modulus` with right-to-left binary
    /// exponentiation.
    ///
    /// Panics if `modulus` is zero; `x^0 mod 1` is zero, as in the real crate.
    pub fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self % modulus;
        let total_bits = exponent.bits();
        for i in 0..total_bits {
            if exponent.bit(i) {
                result = &result * &base % modulus;
            }
            if i + 1 < total_bits {
                base = &base * &base % modulus;
            }
        }
        result
    }

    /// Returns `(self / other, self % other)`.
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigUint) -> (BigUint, BigUint) {
        division::div_rem(self, other)
    }

    /// Returns the integer square root (largest `s` with `s*s <= self`).
    pub fn sqrt(&self) -> BigUint {
        if self.limbs.len() <= 1 {
            return BigUint::from((self.to_u64().unwrap_or(0) as f64).sqrt() as u64);
        }
        // Newton's method on a high initial estimate.
        let mut x = BigUint::one() << (self.bits() / 2 + 1);
        loop {
            let y = (&x + self / &x) >> 1u32;
            if y >= x {
                return x;
            }
            x = y;
        }
    }

    /// In-place `self = self * small`.
    pub(crate) fn mul_small(&mut self, small: u64) {
        let mut carry: u128 = 0;
        for limb in self.limbs.iter_mut() {
            let product = u128::from(*limb) * u128::from(small) + carry;
            *limb = product as u64;
            carry = product >> 64;
        }
        if carry > 0 {
            self.limbs.push(carry as u64);
        }
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// In-place `self = self + small`.
    pub(crate) fn add_small(&mut self, small: u64) {
        let mut carry = small;
        for limb in self.limbs.iter_mut() {
            let (sum, overflow) = limb.overflowing_add(carry);
            *limb = sum;
            carry = u64::from(overflow);
            if carry == 0 {
                return;
            }
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

macro_rules! impl_from_small_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for BigUint {
            fn from(value: $t) -> Self {
                BigUint::from_limbs(vec![u64::from(value)])
            }
        }
    )*};
}
impl_from_small_uint!(u8, u16, u32);

impl From<u64> for BigUint {
    fn from(value: u64) -> Self {
        BigUint::from_limbs(vec![value])
    }
}

impl From<usize> for BigUint {
    fn from(value: usize) -> Self {
        BigUint::from_limbs(vec![value as u64])
    }
}

impl From<u128> for BigUint {
    fn from(value: u128) -> Self {
        BigUint::from_limbs(vec![value as u64, (value >> 64) as u64])
    }
}

/// Error for conversions of out-of-range big integers into primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TryFromBigIntError;

impl fmt::Display for TryFromBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "big integer out of range for target type")
    }
}

impl std::error::Error for TryFromBigIntError {}

macro_rules! impl_try_from_biguint {
    ($($t:ty => $via:ident),*) => {$(
        impl TryFrom<&BigUint> for $t {
            type Error = TryFromBigIntError;
            fn try_from(value: &BigUint) -> Result<Self, TryFromBigIntError> {
                let wide = value.$via().ok_or(TryFromBigIntError)?;
                <$t>::try_from(wide).map_err(|_| TryFromBigIntError)
            }
        }
        impl TryFrom<BigUint> for $t {
            type Error = TryFromBigIntError;
            fn try_from(value: BigUint) -> Result<Self, TryFromBigIntError> {
                <$t>::try_from(&value)
            }
        }
    )*};
}

impl_try_from_biguint!(
    u8 => to_u64, u16 => to_u64, u32 => to_u64, u64 => to_u64, usize => to_u64,
    i8 => to_u64, i16 => to_u64, i32 => to_u64, i64 => to_u64, isize => to_u64,
    u128 => to_u128, i128 => to_u128
);

// ---------------------------------------------------------------------------
// Comparison / hashing
// ---------------------------------------------------------------------------

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => self.limbs.iter().rev().cmp(other.limbs.iter().rev()),
            unequal => unequal,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for BigUint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.limbs.hash(state);
    }
}

// ---------------------------------------------------------------------------
// Arithmetic cores (reference op reference)
// ---------------------------------------------------------------------------

fn add_core(a: &BigUint, b: &BigUint) -> BigUint {
    let (longer, shorter) = if a.limbs.len() >= b.limbs.len() { (a, b) } else { (b, a) };
    let mut limbs = Vec::with_capacity(longer.limbs.len() + 1);
    let mut carry = 0u64;
    for i in 0..longer.limbs.len() {
        let x = longer.limbs[i];
        let y = shorter.limbs.get(i).copied().unwrap_or(0);
        let (sum1, c1) = x.overflowing_add(y);
        let (sum2, c2) = sum1.overflowing_add(carry);
        limbs.push(sum2);
        carry = u64::from(c1) + u64::from(c2);
    }
    if carry > 0 {
        limbs.push(carry);
    }
    BigUint::from_limbs(limbs)
}

fn sub_core(a: &BigUint, b: &BigUint) -> BigUint {
    assert!(a >= b, "attempt to subtract with overflow (BigUint cannot go negative)");
    let mut limbs = Vec::with_capacity(a.limbs.len());
    let mut borrow = 0u64;
    for i in 0..a.limbs.len() {
        let x = a.limbs[i];
        let y = b.limbs.get(i).copied().unwrap_or(0);
        let (diff1, b1) = x.overflowing_sub(y);
        let (diff2, b2) = diff1.overflowing_sub(borrow);
        limbs.push(diff2);
        borrow = u64::from(b1) + u64::from(b2);
    }
    debug_assert_eq!(borrow, 0);
    BigUint::from_limbs(limbs)
}

fn mul_core(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    let mut limbs = vec![0u64; a.limbs.len() + b.limbs.len()];
    for (i, &x) in a.limbs.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry: u128 = 0;
        for (j, &y) in b.limbs.iter().enumerate() {
            let product = u128::from(x) * u128::from(y) + u128::from(limbs[i + j]) + carry;
            limbs[i + j] = product as u64;
            carry = product >> 64;
        }
        let mut k = i + b.limbs.len();
        while carry > 0 {
            let sum = u128::from(limbs[k]) + carry;
            limbs[k] = sum as u64;
            carry = sum >> 64;
            k += 1;
        }
    }
    BigUint::from_limbs(limbs)
}

fn shl_core(a: &BigUint, shift: u64) -> BigUint {
    if a.is_zero() {
        return BigUint::zero();
    }
    let limb_shift = (shift / 64) as usize;
    let bit_shift = (shift % 64) as u32;
    let mut limbs = vec![0u64; limb_shift];
    if bit_shift == 0 {
        limbs.extend_from_slice(&a.limbs);
    } else {
        let mut carry = 0u64;
        for &l in &a.limbs {
            limbs.push((l << bit_shift) | carry);
            carry = l >> (64 - bit_shift);
        }
        if carry > 0 {
            limbs.push(carry);
        }
    }
    BigUint::from_limbs(limbs)
}

fn shr_core(a: &BigUint, shift: u64) -> BigUint {
    let limb_shift = (shift / 64) as usize;
    if limb_shift >= a.limbs.len() {
        return BigUint::zero();
    }
    let bit_shift = (shift % 64) as u32;
    let mut limbs: Vec<u64> = a.limbs[limb_shift..].to_vec();
    if bit_shift > 0 {
        let len = limbs.len();
        for i in 0..len {
            let high = if i + 1 < len { limbs[i + 1] << (64 - bit_shift) } else { 0 };
            limbs[i] = (limbs[i] >> bit_shift) | high;
        }
    }
    BigUint::from_limbs(limbs)
}

fn bitand_core(a: &BigUint, b: &BigUint) -> BigUint {
    let limbs = a
        .limbs
        .iter()
        .zip(b.limbs.iter())
        .map(|(x, y)| x & y)
        .collect();
    BigUint::from_limbs(limbs)
}

fn bitor_core(a: &BigUint, b: &BigUint) -> BigUint {
    let (longer, shorter) = if a.limbs.len() >= b.limbs.len() { (a, b) } else { (b, a) };
    let mut limbs = longer.limbs.clone();
    for (i, y) in shorter.limbs.iter().enumerate() {
        limbs[i] |= y;
    }
    BigUint::from_limbs(limbs)
}

// ---------------------------------------------------------------------------
// Operator impls: all four value/reference combinations forward to the cores.
// ---------------------------------------------------------------------------

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $core:path) => {
        impl $trait<&BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                $core(self, rhs)
            }
        }
        impl $trait<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                $core(self, &rhs)
            }
        }
        impl $trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                $core(&self, rhs)
            }
        }
        impl $trait<BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                $core(&self, &rhs)
            }
        }
    };
}

fn div_core(a: &BigUint, b: &BigUint) -> BigUint {
    division::div_rem(a, b).0
}

fn rem_core(a: &BigUint, b: &BigUint) -> BigUint {
    division::div_rem(a, b).1
}

forward_binop!(Add, add, add_core);
forward_binop!(Sub, sub, sub_core);
forward_binop!(Mul, mul, mul_core);
forward_binop!(BitAnd, bitand, bitand_core);
forward_binop!(BitOr, bitor, bitor_core);

impl std::ops::Div<&BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        div_core(self, rhs)
    }
}
impl std::ops::Div<BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        div_core(self, &rhs)
    }
}
impl std::ops::Div<&BigUint> for BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        div_core(&self, rhs)
    }
}
impl std::ops::Div<BigUint> for BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        div_core(&self, &rhs)
    }
}

impl Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        rem_core(self, rhs)
    }
}
impl Rem<BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        rem_core(self, &rhs)
    }
}
impl Rem<&BigUint> for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        rem_core(&self, rhs)
    }
}
impl Rem<BigUint> for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        rem_core(&self, &rhs)
    }
}

macro_rules! forward_shift {
    ($($t:ty),*) => {$(
        impl Shl<$t> for BigUint {
            type Output = BigUint;
            fn shl(self, shift: $t) -> BigUint {
                shl_core(&self, shift as u64)
            }
        }
        impl Shl<$t> for &BigUint {
            type Output = BigUint;
            fn shl(self, shift: $t) -> BigUint {
                shl_core(self, shift as u64)
            }
        }
        impl Shr<$t> for BigUint {
            type Output = BigUint;
            fn shr(self, shift: $t) -> BigUint {
                shr_core(&self, shift as u64)
            }
        }
        impl Shr<$t> for &BigUint {
            type Output = BigUint;
            fn shr(self, shift: $t) -> BigUint {
                shr_core(self, shift as u64)
            }
        }
        impl ShlAssign<$t> for BigUint {
            fn shl_assign(&mut self, shift: $t) {
                *self = shl_core(self, shift as u64);
            }
        }
        impl ShrAssign<$t> for BigUint {
            fn shr_assign(&mut self, shift: $t) {
                *self = shr_core(self, shift as u64);
            }
        }
    )*};
}
forward_shift!(u8, u16, u32, u64, usize, i32);

macro_rules! forward_assign {
    ($trait:ident, $method:ident, $core:path) => {
        impl $trait<&BigUint> for BigUint {
            fn $method(&mut self, rhs: &BigUint) {
                *self = $core(self, rhs);
            }
        }
        impl $trait<BigUint> for BigUint {
            fn $method(&mut self, rhs: BigUint) {
                *self = $core(self, &rhs);
            }
        }
    };
}
impl AddAssign<&BigUint> for BigUint {
    /// Adds in place: a running sum reuses its limbs instead of allocating
    /// a new value per term.
    fn add_assign(&mut self, rhs: &BigUint) {
        if self.limbs.len() < rhs.limbs.len() {
            self.limbs.resize(rhs.limbs.len(), 0);
        }
        let mut carry = false;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let y = match rhs.limbs.get(i) {
                Some(&y) => y,
                None if !carry => return,
                None => 0,
            };
            let (sum, c1) = limb.overflowing_add(y);
            let (sum, c2) = sum.overflowing_add(u64::from(carry));
            *limb = sum;
            carry = c1 | c2;
        }
        if carry {
            self.limbs.push(1);
        }
    }
}
impl AddAssign<BigUint> for BigUint {
    fn add_assign(&mut self, rhs: BigUint) {
        *self += &rhs;
    }
}
forward_assign!(SubAssign, sub_assign, sub_core);
forward_assign!(MulAssign, mul_assign, mul_core);
forward_assign!(RemAssign, rem_assign, rem_core);

impl Sum for BigUint {
    fn sum<I: Iterator<Item = BigUint>>(iter: I) -> Self {
        iter.fold(BigUint::zero(), |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a BigUint> for BigUint {
    fn sum<I: Iterator<Item = &'a BigUint>>(iter: I) -> Self {
        iter.fold(BigUint::zero(), |acc, x| acc + x)
    }
}

impl Product for BigUint {
    fn product<I: Iterator<Item = BigUint>>(iter: I) -> Self {
        iter.fold(BigUint::one(), |acc, x| acc * x)
    }
}

// ---------------------------------------------------------------------------
// num-traits / num-integer
// ---------------------------------------------------------------------------

impl Zero for BigUint {
    fn zero() -> Self {
        BigUint::zero()
    }
    fn is_zero(&self) -> bool {
        BigUint::is_zero(self)
    }
}

impl One for BigUint {
    fn one() -> Self {
        BigUint::one()
    }
    fn is_one(&self) -> bool {
        BigUint::is_one(self)
    }
}

impl Integer for BigUint {
    fn gcd(&self, other: &Self) -> Self {
        let (mut a, mut b) = (self.clone(), other.clone());
        while !b.is_zero() {
            let r = &a % &b;
            a = b;
            b = r;
        }
        a
    }
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

impl BigUint {
    /// The decimal digits of `self`.
    ///
    /// One copy of the limbs is divided in place by 10^19 (the largest power
    /// of ten in a `u64`) until it is zero; each remainder is written as 19
    /// digits, back to front, into one buffer sized for the longest possible
    /// result, whose leading zeros are then dropped.
    fn to_decimal(&self) -> String {
        const CHUNK: u128 = 10_000_000_000_000_000_000;
        const CHUNK_DIGITS: usize = 19;
        if self.limbs.len() <= 1 {
            return self.limbs.first().copied().unwrap_or(0).to_string();
        }
        let mut limbs = self.limbs.to_vec();
        // n limbs hold fewer than 19.27·n + 1 digits: at most n + n/64 + 2 chunks.
        let chunks = limbs.len() + limbs.len() / 64 + 2;
        let mut digits = vec![b'0'; chunks * CHUNK_DIGITS];
        let mut end = digits.len();
        while !limbs.is_empty() {
            let mut remainder = 0u128;
            for limb in limbs.iter_mut().rev() {
                let acc = (remainder << 64) | u128::from(*limb);
                let quotient = acc / CHUNK;
                *limb = quotient as u64;
                remainder = acc - quotient * CHUNK;
            }
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            let mut chunk = remainder as u64;
            for digit in digits[end - CHUNK_DIGITS..end].iter_mut().rev() {
                *digit = b'0' + (chunk % 10) as u8;
                chunk /= 10;
            }
            end -= CHUNK_DIGITS;
        }
        let leading_zeros = digits[end..].iter().take_while(|&&d| d == b'0').count();
        digits.drain(..end + leading_zeros);
        String::from_utf8(digits).expect("decimal digits are ASCII")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "", &self.to_decimal())
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0x", "0");
        }
        let mut text = format!("{:x}", self.limbs.last().expect("non-zero"));
        for limb in self.limbs.iter().rev().skip(1) {
            text.push_str(&format!("{limb:016x}"));
        }
        f.pad_integral(true, "0x", &text)
    }
}

impl std::str::FromStr for BigUint {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BigUint::parse_bytes(s.as_bytes(), 10).ok_or(ParseBigIntError)
    }
}

/// Error returned when parsing a big integer fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError;

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid big integer")
    }
}

impl std::error::Error for ParseBigIntError {}

// ---------------------------------------------------------------------------
// Serde (always available in this shim; decimal-string representation)
// ---------------------------------------------------------------------------

impl serde::Serialize for BigUint {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_decimal())
    }
}

impl<'de> serde::Deserialize<'de> for BigUint {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let text = String::deserialize(deserializer)?;
        BigUint::parse_bytes(text.as_bytes(), 10)
            .ok_or_else(|| serde::de::Error::custom("invalid BigUint decimal string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(text: &str) -> BigUint {
        BigUint::parse_bytes(text.as_bytes(), 10).unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for text in [
            "0",
            "1",
            "42",
            "18446744073709551615",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
            "123456789012345678901234567890123456789012345678901234567890",
        ] {
            assert_eq!(big(text).to_string(), text);
        }
        assert!(BigUint::parse_bytes(b"", 10).is_none());
        assert!(BigUint::parse_bytes(b"12a", 10).is_none());
        assert_eq!(BigUint::parse_bytes(b"ff", 16).unwrap(), BigUint::from(255u32));
    }

    /// `Display` as it was before it divided in place: a clone of the value,
    /// one `div_rem_small` (a fresh quotient) and one `format!` per chunk.
    fn reference_decimal(value: &BigUint) -> String {
        if value.is_zero() {
            return "0".to_string();
        }
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut chunks = Vec::new();
        let mut value = value.clone();
        while !value.is_zero() {
            let (quotient, remainder) = division::div_rem_small(&value, CHUNK);
            chunks.push(remainder);
            value = quotient;
        }
        let mut text = chunks.last().expect("non-zero value").to_string();
        for chunk in chunks.iter().rev().skip(1) {
            text.push_str(&format!("{chunk:019}"));
        }
        text
    }

    #[test]
    fn display_matches_the_clone_and_divide_reference() {
        use crate::RandBigInt;
        use rand::Rng;
        let ten_19 = BigUint::from(10u32).pow(19);
        let ten_38 = BigUint::from(10u32).pow(38);
        let mut values = vec![
            BigUint::zero(),
            BigUint::one(),
            &ten_19 - BigUint::one(),
            ten_19.clone(),
            &ten_19 + BigUint::one(),
            ten_38.clone(),
            // All-zero middle chunks.
            &ten_38 + BigUint::from(5u32),
            BigUint::from(10u32).pow(95) + BigUint::from(7u32),
            BigUint::from(u64::MAX),
            BigUint::one() << 64u32,
            (BigUint::one() << 128u32) - BigUint::one(),
            (BigUint::one() << 2048u32) - BigUint::one(),
        ];
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..400 {
            let bits = rng.gen_range(64..=2048);
            values.push(rng.gen_biguint(bits));
        }
        for value in &values {
            let text = reference_decimal(value);
            assert_eq!(value.to_string(), text);
            assert_eq!(format!("{value:?}"), text);
            // Width, fill and sign still go through `pad_integral`.
            assert_eq!(format!("{value:>90}"), format!("{text:>90}"));
            assert_eq!(format!("{value:<90}"), format!("{text:<90}"));
            assert_eq!(format!("{value:090}"), format!("{text:0>90}"));
            assert_eq!(format!("{value:+}"), format!("+{text}"));
            assert_eq!(BigUint::parse_bytes(text.as_bytes(), 10).as_ref(), Some(value));
        }
    }

    #[test]
    fn add_sub_mul_small_and_large() {
        let a = big("340282366920938463463374607431768211455"); // 2^128 - 1
        let b = BigUint::one();
        assert_eq!((&a + &b).to_string(), "340282366920938463463374607431768211456");
        assert_eq!(&(&a + &b) - &b, a);
        let sq = &a * &a;
        assert_eq!(
            sq.to_string(),
            "115792089237316195423570985008687907852589419931798687112530834793049593217025"
        );
    }

    /// In-place addition against the allocating `add_core`, across carries
    /// into a new limb, shorter and longer right operands and zero.
    #[test]
    fn add_assign_matches_the_allocating_sum() {
        let max = BigUint::from(u64::MAX);
        let values = [
            BigUint::zero(),
            BigUint::one(),
            max.clone(),
            &max * &max,
            big("340282366920938463463374607431768211455"),
            big("123456789012345678901234567890123456789012345678901234567890"),
        ];
        for a in &values {
            for b in &values {
                let mut sum = a.clone();
                sum += b;
                assert_eq!(sum, add_core(a, b), "{a} + {b}");
                assert_ne!(sum.limbs.last(), Some(&0), "normalised");
                let mut owned = a.clone();
                owned += b.clone();
                assert_eq!(owned, sum);
            }
        }
    }

    #[test]
    #[should_panic(expected = "subtract with overflow")]
    fn subtraction_underflow_panics() {
        let _ = BigUint::from(1u32) - BigUint::from(2u32);
    }

    #[test]
    fn division_matches_multiplication() {
        let mut rng = StdRng::seed_from_u64(42);
        use crate::RandBigInt;
        for _ in 0..500 {
            let a = rng.gen_biguint(300);
            let b = rng.gen_biguint(140) + BigUint::one();
            let (q, r) = a.div_rem(&b);
            assert!(r < b);
            assert_eq!(&q * &b + &r, a);
        }
    }

    #[test]
    fn division_edge_cases() {
        let a = big("123456789012345678901234567890");
        assert_eq!(a.div_rem(&a), (BigUint::one(), BigUint::zero()));
        assert_eq!(a.div_rem(&(&a + BigUint::one())), (BigUint::zero(), a.clone()));
        assert_eq!(a.div_rem(&BigUint::one()), (a.clone(), BigUint::zero()));
        // A case that exercises the add-back branch of Knuth D: u = b^2 * 3 / 4.
        let b_to_2 = BigUint::one() << 128u32;
        let u = &b_to_2 * BigUint::from(3u32) >> 2u32;
        let v = (BigUint::one() << 64u32) * BigUint::from(3u32) >> 1u32;
        let (q, r) = u.div_rem(&v);
        assert_eq!(&q * &v + &r, u);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = BigUint::from(5u32) / BigUint::zero();
    }

    #[test]
    fn modpow_against_known_values() {
        // 2^10 mod 1000 = 24
        assert_eq!(
            BigUint::from(2u32).modpow(&BigUint::from(10u32), &BigUint::from(1000u32)),
            BigUint::from(24u32)
        );
        // Fermat: a^(p-1) mod p = 1 for prime p.
        let p = big("1000000007");
        let a = big("123456789");
        assert_eq!(a.modpow(&(&p - BigUint::one()), &p), BigUint::one());
        // x^0 = 1 (mod m > 1), and mod 1 is always 0.
        assert_eq!(a.modpow(&BigUint::zero(), &p), BigUint::one());
        assert_eq!(a.modpow(&BigUint::from(5u32), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn shifts_and_bits() {
        let one = BigUint::one();
        let x = &one << 127u32;
        assert_eq!(x.bits(), 128);
        assert!(x.bit(127));
        assert!(!x.bit(126));
        assert_eq!(&x >> 127u32, one);
        assert_eq!(x.trailing_zeros(), Some(127));
        assert_eq!(BigUint::zero().trailing_zeros(), None);

        let mut y = BigUint::zero();
        y.set_bit(200, true);
        assert_eq!(y.bits(), 201);
        y.set_bit(200, false);
        assert!(y.is_zero());
    }

    #[test]
    fn byte_roundtrips() {
        let x = big("1208925819614629174706189"); // > 2^64
        assert_eq!(BigUint::from_bytes_le(&x.to_bytes_le()), x);
        assert_eq!(BigUint::from_bytes_be(&x.to_bytes_be()), x);
        assert_eq!(BigUint::zero().to_bytes_le(), vec![0]);
    }

    #[test]
    fn pow_and_sqrt() {
        assert_eq!(BigUint::from(10u32).pow(30).to_string(), "1".to_owned() + &"0".repeat(30));
        let x = big("123456789123456789");
        let s = (&x * &x).sqrt();
        assert_eq!(s, x);
        assert_eq!((&x * &x + BigUint::one()).sqrt(), x);
    }

    #[test]
    fn ordering() {
        assert!(big("999999999999999999999") > big("999999999999999999998"));
        assert!(BigUint::zero() < BigUint::one());
        assert!(big("18446744073709551616") > big("18446744073709551615"));
    }

    #[test]
    fn conversions() {
        assert_eq!(BigUint::from(u128::MAX).to_u128(), Some(u128::MAX));
        assert_eq!(BigUint::from(7u8), BigUint::from(7u64));
        assert_eq!(BigUint::from(u64::MAX).to_u64(), Some(u64::MAX));
        assert_eq!((BigUint::from(u64::MAX) + BigUint::one()).to_u64(), None);
    }
}
