//! Error types for the storage engine.

use std::fmt;

/// Errors produced by the storage engine.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// A column name was not found in a schema.
    UnknownColumn {
        /// The requested column name.
        column: String,
        /// The table whose schema was consulted.
        table: String,
    },
    /// Columns did not match a schema (wrong count, type or length).
    SchemaMismatch {
        /// Human-readable description.
        reason: String,
    },
    /// An operation received an invalid argument (e.g. zero partitions).
    InvalidArgument {
        /// Human-readable description.
        reason: String,
    },
}

impl StorageError {
    /// Convenience constructor for [`StorageError::SchemaMismatch`].
    pub fn schema(reason: impl Into<String>) -> Self {
        StorageError::SchemaMismatch {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`StorageError::InvalidArgument`].
    pub fn invalid(reason: impl Into<String>) -> Self {
        StorageError::InvalidArgument {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownColumn { column, table } => {
                write!(f, "unknown column {column:?} in table {table:?}")
            }
            StorageError::SchemaMismatch { reason } => write!(f, "schema mismatch: {reason}"),
            StorageError::InvalidArgument { reason } => write!(f, "invalid argument: {reason}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::UnknownColumn {
            column: "L_FOO".into(),
            table: "LINEITEM".into(),
        };
        assert!(e.to_string().contains("L_FOO"));
        assert!(StorageError::schema("arity").to_string().contains("arity"));
        assert!(StorageError::invalid("zero").to_string().contains("zero"));
    }
}
