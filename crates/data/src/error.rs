//! Error type for the `lhnn-data` crate.

use std::error::Error as StdError;
use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;

/// Errors produced by dataset assembly and experiment harnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A pipeline stage failed for one design.
    Pipeline {
        /// Stage name (`generate`, `place`, `route`, `lh-graph`, …).
        stage: &'static str,
        /// Underlying error rendered to text.
        message: String,
    },
    /// An experiment configuration was invalid.
    InvalidConfig(String),
    /// Result file I/O failed.
    Io(String),
}

impl DataError {
    /// Wraps a stage failure.
    pub(crate) fn pipeline(stage: &'static str, err: &dyn fmt::Display) -> Self {
        DataError::Pipeline { stage, message: err.to_string() }
    }
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Pipeline { stage, message } => {
                write!(f, "pipeline stage `{stage}` failed: {message}")
            }
            DataError::InvalidConfig(m) => write!(f, "invalid experiment configuration: {m}"),
            DataError::Io(m) => write!(f, "result i/o failed: {m}"),
        }
    }
}

impl StdError for DataError {}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DataError::pipeline("route", &"overflow");
        assert!(e.to_string().contains("route") && e.to_string().contains("overflow"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
    }
}
