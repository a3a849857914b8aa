//! A minimal columnar dataframe — the "Python with Pandas" execution style.
//!
//! The paper benchmarks a Pandas implementation alongside plain Python: same
//! kernels, but expressed as whole-column operations on a columnar store
//! instead of per-row loops. To reproduce that execution style honestly, the
//! `dataframe` pipeline backend runs on this crate rather than on the tuned
//! native code paths: edges live in named [`Series`] columns inside a
//! [`Frame`], and the kernels are written as `sort_by` / `group_by_count` /
//! `take` / `filter` calls.
//!
//! The feature set is deliberately the minimum the benchmark needs —
//! typed u64/f64 columns, TSV scan/write, argsort-based multi-column sort,
//! group-by count, masked filter and gather — implemented with the classic
//! columnar idioms (argsort + gather, one dense pass per operation).
//!
//! # Example
//!
//! ```
//! use ppbench_frame::{Frame, Series};
//!
//! let f = Frame::new(vec![
//!     ("u".into(), Series::U64(vec![2, 0, 1])),
//!     ("v".into(), Series::U64(vec![20, 10, 30])),
//! ]).unwrap();
//! let sorted = f.sort_by(&["u"]).unwrap();
//! assert_eq!(sorted.column("v").unwrap().as_u64().unwrap(), &[10, 30, 20]);
//! ```

#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod frame;
mod series;
mod tsv;

pub use frame::Frame;
pub use series::Series;
pub use tsv::{frame_from_edges, frame_to_edges, read_edge_tsv, read_plain_tsv, write_edge_tsv};

/// Errors from dataframe operations.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Referenced a column that does not exist.
    NoSuchColumn(String),
    /// Two columns (or a column and a mask) had different lengths.
    LengthMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        actual: usize,
    },
    /// A column had the wrong dtype for the operation.
    TypeMismatch(String),
    /// A column name was used twice.
    DuplicateColumn(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NoSuchColumn(name) => write!(f, "no such column: {name:?}"),
            FrameError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            FrameError::TypeMismatch(msg) => write!(f, "type mismatch: {msg}"),
            FrameError::DuplicateColumn(name) => write!(f, "duplicate column: {name:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Result alias for dataframe operations.
pub type Result<T> = std::result::Result<T, FrameError>;
