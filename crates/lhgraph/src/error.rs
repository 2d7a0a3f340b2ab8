//! Error type for the `lh-graph` crate.

use std::error::Error as StdError;
use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LhGraphError>;

/// Errors produced while building LH-graphs or feature sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LhGraphError {
    /// The construction produced no usable nodes.
    EmptyGraph(String),
    /// Feature/label dimensions disagree with the graph.
    DimensionMismatch(String),
    /// A graph built on one G-cell grid was used with another: reports
    /// both `nx × ny` products instead of a bare dimension panic.
    GridShape {
        /// `(nx, ny)` the graph was built on.
        expected: (usize, usize),
        /// `(nx, ny)` of the grid it was used with.
        actual: (usize, usize),
    },
    /// A placement delta names a cell outside the circuit or moves a cell
    /// to a non-finite position; it was refused before anything applied.
    InvalidDelta(String),
}

impl LhGraphError {
    /// Builds the grid-shape mismatch error from the two grids' extents.
    pub(crate) fn grid_shape(expected: (usize, usize), actual: (usize, usize)) -> Self {
        LhGraphError::GridShape { expected, actual }
    }
}

impl fmt::Display for LhGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LhGraphError::EmptyGraph(m) => write!(f, "empty lh-graph: {m}"),
            LhGraphError::DimensionMismatch(m) => write!(f, "dimension mismatch: {m}"),
            LhGraphError::GridShape { expected: (enx, eny), actual: (anx, any) } => write!(
                f,
                "grid shape mismatch: graph was built on {enx}x{eny} = {} g-cells, \
                 but was used with a {anx}x{any} = {} g-cell grid",
                enx * eny,
                anx * any
            ),
            LhGraphError::InvalidDelta(m) => write!(f, "invalid placement delta: {m}"),
        }
    }
}

impl StdError for LhGraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(LhGraphError::EmptyGraph("no cells".into()).to_string().contains("no cells"));
        assert!(LhGraphError::DimensionMismatch("x".into()).to_string().contains("x"));
        assert!(LhGraphError::InvalidDelta("cell 9".into()).to_string().contains("cell 9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LhGraphError>();
    }
}
