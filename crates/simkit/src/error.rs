//! Error types for the simulation substrate.

use std::fmt;

/// Errors produced by the simulation substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A model was asked to evaluate an input outside its valid domain
    /// (for example, a negative CPU utilization or a zero-duration phase).
    InvalidInput {
        /// Human-readable description of what was invalid.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// Convenience constructor for [`SimError::InvalidInput`].
    pub fn invalid(reason: impl Into<String>) -> Self {
        SimError::InvalidInput {
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = SimError::invalid("negative utilization");
        assert!(e.to_string().contains("negative utilization"));
        assert!(e.to_string().starts_with("invalid input"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(SimError::invalid("x"), SimError::invalid("x"));
        assert_ne!(SimError::invalid("x"), SimError::invalid("y"));
    }
}
