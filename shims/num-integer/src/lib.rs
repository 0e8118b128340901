//! Offline shim for the `num-integer` crate.
//!
//! Provides the [`Integer`] trait with the `gcd` operation this workspace
//! uses. `num-bigint` (the sibling shim) implements it for `BigUint`, the one
//! type the workspace calls it on.

/// Integer operations beyond the primitive arithmetic operators.
pub trait Integer: Sized {
    /// Greatest common divisor.
    fn gcd(&self, other: &Self) -> Self;
}
