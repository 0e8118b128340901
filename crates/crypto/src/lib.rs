//! # sdb-crypto
//!
//! Cryptographic core of the SDB reproduction: the multiplicative secret-sharing
//! scheme of *"SDB: A Secure Query Processing System with Data Interoperability"*
//! (He et al., PVLDB 8(12), 2015), plus the supporting primitives the system needs
//! (prime generation, modular arithmetic helpers, a row-id cipher standing in for
//! SIES, and a keyed PRF used for equality tags).
//!
//! ## The scheme in one paragraph
//!
//! The data owner (DO) holds an RSA-style modulus `n = ρ₁·ρ₂` (public), the secret
//! `φ(n) = (ρ₁−1)(ρ₂−1)`, and a secret generator `g` co-prime with `n`. Every
//! sensitive column `A` has a random **column key** `ck_A = ⟨m, x⟩`; every row has a
//! random secret **row id** `r`. A sensitive value `v` in row `r` is split into two
//! shares: the **item key** `v_k = m·g^{r·x mod φ(n)} mod n` (never stored — the DO
//! re-derives it on demand from the column key and the row id) and the **encrypted
//! value** `v_e = v·v_k⁻¹ mod n` stored at the service provider (SP). Decryption is
//! `v = v_e·v_k mod n`. Because *all* secure operators consume and produce values in
//! this one encrypted space, their outputs feed directly into other operators — the
//! data-interoperability property the paper is named after.
//!
//! ## Module map
//!
//! * [`keys`] — [`KeyConfig`], [`SystemKey`], [`ColumnKey`], key generation.
//! * [`share`] — item-key generation, [`encrypt_value`]/[`decrypt_value`], the
//!   column-key algebra for multiplication / constant scaling, and the
//!   [`KeyUpdateParams`] computation behind the `sdb_key_update` UDF.
//! * [`signed`] — encoding of signed 64-bit application values into `Z_n`.
//! * [`prime`] — Miller–Rabin primality testing and random prime generation.
//! * [`item_memo`] — the DO's memo of item-key powers per row and column-key
//!   exponent.
//! * [`modulus`] — the Montgomery context of one fixed odd modulus: multiply,
//!   windowed exponentiation, and the fixed-base table behind item keys.
//! * [`bigint`] — modular inverse and co-primality (a fixed-width binary
//!   extended GCD), random residues, small helpers.
//! * [`prf`] — a SipHash-2-4 based keyed PRF (equality tags, key derivation).
//! * [`sies`] — the row-id cipher (stand-in for SIES \[Papadopoulos et al., ICDE'11\]).
//! * [`rowid`] — row-id generation and the encrypted row-id type.
//! * [`wire`] — the base64 encoding of shares and row-id ciphertexts inside
//!   the DO ↔ SP wire's JSON.
//!
//! ## Quick example (Figure 1 of the paper)
//!
//! ```
//! use sdb_crypto::{SystemKey, ColumnKey, gen_item_key, encrypt_value, decrypt_value};
//! use num_bigint::BigUint;
//!
//! // Toy parameters from Figure 1: g = 2, n = 35 (ρ₁ = 5, ρ₂ = 7), ck_A = ⟨2, 2⟩.
//! let key = SystemKey::from_parts(5u32.into(), 7u32.into(), 2u32.into());
//! let ck = ColumnKey::new(BigUint::from(2u32), BigUint::from(2u32));
//!
//! // Row id 1, value 2  →  item key 8, encrypted value 9.
//! let ik = gen_item_key(&key, &ck, &BigUint::from(1u32));
//! assert_eq!(ik, BigUint::from(8u32));
//! let ve = encrypt_value(&key, &BigUint::from(2u32), &ik);
//! assert_eq!(ve, BigUint::from(9u32));
//! assert_eq!(decrypt_value(&key, &ve, &ik), BigUint::from(2u32));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bigint;
pub mod drbg;
pub mod error;
mod inverse;
pub mod item_memo;
pub mod keys;
pub mod modulus;
pub mod prf;
pub mod prime;
pub mod rowid;
pub mod share;
pub mod sies;
pub mod signed;
pub mod wire;

pub use batch::{blind_limbs, encrypt_column, gen_item_keys, mod_inverse_batch};
pub use drbg::Drbg;
pub use error::CryptoError;
pub use item_memo::{ItemKeyCounts, ItemKeyMemo, ItemKeyMemoStats};
pub use keys::{ColumnCipher, ColumnKey, KeyConfig, RowExponents, SystemKey};
pub use modulus::Modulus;
pub use prf::{EqualityTagger, Prf};
pub use rowid::{EncryptedRowId, RowId, RowIdGenerator};
pub use share::{
    decrypt_lanes, decrypt_value, encrypt_value, gen_item_key, BoundKeyUpdate, BoundKeyUpdateSet,
    ColumnKeyAlgebra, KeyUpdateMemo, KeyUpdateParams,
};
pub use sies::SiesCipher;
pub use signed::SignedCodec;

/// Library result alias.
pub type Result<T> = std::result::Result<T, CryptoError>;
