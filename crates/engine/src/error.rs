//! Error type for the execution engine.

use std::fmt;

/// Errors produced during query execution at the SP.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Error bubbled up from the storage layer.
    Storage(sdb_storage::StorageError),
    /// Error bubbled up from the SQL front end.
    Sql(sdb_sql::SqlError),
    /// Error bubbled up from the crypto layer (UDF-internal arithmetic).
    Crypto(sdb_crypto::CryptoError),
    /// An expression could not be evaluated.
    Expression {
        /// Description of the problem.
        detail: String,
    },
    /// A UDF was called incorrectly (wrong arity / argument types).
    UdfInvocation {
        /// UDF name.
        name: String,
        /// Description of the problem.
        detail: String,
    },
    /// An unknown function was referenced.
    UnknownFunction {
        /// The function name as written.
        name: String,
    },
    /// A secure operation needed the DO-side oracle but none is connected.
    OracleUnavailable {
        /// The operation that needed it.
        operation: String,
    },
    /// The oracle returned an inconsistent response.
    OracleProtocol {
        /// Description of the inconsistency.
        detail: String,
    },
    /// Any other invariant violation.
    Unsupported {
        /// Description of the unsupported operation.
        detail: String,
    },
    /// A statement named a shape this engine does not hold (it never saw the
    /// shape's text, or has dropped it since); the sender resends the text.
    UnknownShape {
        /// The shape id the statement carried.
        shape: u64,
    },
    /// A lifted value of a shaped statement is not exactly one literal of
    /// its slot's class (see [`crate::ServerStatement::lifted`]).
    InvalidLiteral {
        /// The slot at fault.
        slot: usize,
        /// What the value was found to be.
        detail: String,
    },
    /// A query's settings cannot run: a zero worker count or batch size.
    InvalidConfig {
        /// The setting at fault.
        detail: String,
    },
    /// The statement panicked (a bug, or a panicking UDF). The engine caught
    /// the panic at the statement boundary and dropped the query's state, its
    /// pager lease included; the engine itself keeps serving.
    Panicked {
        /// The panic's message.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Sql(e) => write!(f, "SQL error: {e}"),
            EngineError::Crypto(e) => write!(f, "crypto error: {e}"),
            EngineError::Expression { detail } => write!(f, "expression error: {detail}"),
            EngineError::UdfInvocation { name, detail } => {
                write!(f, "invalid call to {name}: {detail}")
            }
            EngineError::UnknownFunction { name } => write!(f, "unknown function {name}"),
            EngineError::OracleUnavailable { operation } => {
                write!(
                    f,
                    "operation {operation} requires the DO oracle but none is connected"
                )
            }
            EngineError::OracleProtocol { detail } => write!(f, "oracle protocol error: {detail}"),
            EngineError::Unsupported { detail } => write!(f, "unsupported: {detail}"),
            EngineError::UnknownShape { shape } => {
                write!(f, "unknown statement shape {shape:016x}")
            }
            EngineError::InvalidLiteral { slot, detail } => {
                write!(f, "invalid literal in slot ${slot}: {detail}")
            }
            EngineError::InvalidConfig { detail } => write!(f, "invalid settings: {detail}"),
            EngineError::Panicked { detail } => write!(f, "statement panicked: {detail}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<sdb_storage::StorageError> for EngineError {
    fn from(e: sdb_storage::StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<sdb_sql::SqlError> for EngineError {
    fn from(e: sdb_sql::SqlError) -> Self {
        EngineError::Sql(e)
    }
}

impl From<sdb_crypto::CryptoError> for EngineError {
    fn from(e: sdb_crypto::CryptoError) -> Self {
        EngineError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = sdb_storage::StorageError::TableNotFound { name: "t".into() }.into();
        assert!(e.to_string().contains("t"));

        let e: EngineError = sdb_sql::SqlError::Parse {
            detail: "boom".into(),
        }
        .into();
        assert!(e.to_string().contains("boom"));

        let e = EngineError::OracleUnavailable {
            operation: "SDB_CMP_GT".into(),
        };
        assert!(e.to_string().contains("SDB_CMP_GT"));
    }
}
