//! Diagnostics: what a rule reports and how it renders.

use std::fmt;
use std::path::PathBuf;

/// One finding, anchored to a source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (`lock-order`, `condvar-wait`, …).
    pub rule: &'static str,
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation, including the remedy.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.path.display(),
            self.line,
            self.col,
            self.rule,
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_file_line_col_rule() {
        let d = Diagnostic {
            rule: "lock-order",
            path: PathBuf::from("crates/x/src/lib.rs"),
            line: 3,
            col: 7,
            message: "no".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/x/src/lib.rs:3:7: error[lock-order]: no"
        );
    }
}
