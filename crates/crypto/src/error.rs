//! Error type for the crypto crate.

use std::fmt;

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A value that must be invertible modulo `n` (or `φ(n)`) was not.
    NotInvertible {
        /// Human readable description of which quantity failed.
        what: &'static str,
    },
    /// A plaintext fell outside the signed domain the codec supports.
    DomainOverflow {
        /// Description of the offending value.
        detail: String,
    },
    /// Prime generation failed to find a prime within the attempt budget.
    PrimeGenerationFailed {
        /// Requested bit length.
        bits: u64,
    },
    /// Key material was inconsistent (e.g. mismatched modulus sizes).
    InvalidKey {
        /// Description of the inconsistency.
        detail: String,
    },
    /// A ciphertext could not be decrypted (e.g. truncated row-id ciphertext).
    MalformedCiphertext {
        /// Description of the problem.
        detail: String,
    },
    /// The operating system's entropy source could not be read.
    Entropy {
        /// What failed.
        detail: String,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::NotInvertible { what } => {
                write!(f, "value is not invertible: {what}")
            }
            CryptoError::DomainOverflow { detail } => {
                write!(f, "plaintext outside supported signed domain: {detail}")
            }
            CryptoError::PrimeGenerationFailed { bits } => {
                write!(f, "failed to generate a {bits}-bit prime")
            }
            CryptoError::InvalidKey { detail } => write!(f, "invalid key material: {detail}"),
            CryptoError::MalformedCiphertext { detail } => {
                write!(f, "malformed ciphertext: {detail}")
            }
            CryptoError::Entropy { detail } => write!(f, "no entropy from the OS: {detail}"),
        }
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CryptoError::NotInvertible { what: "item key" };
        assert!(e.to_string().contains("item key"));
        let e = CryptoError::DomainOverflow {
            detail: "value 2^70".into(),
        };
        assert!(e.to_string().contains("2^70"));
        let e = CryptoError::PrimeGenerationFailed { bits: 512 };
        assert!(e.to_string().contains("512"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
