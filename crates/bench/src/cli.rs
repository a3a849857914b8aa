//! The one command-line driver of the five sweep binaries.
//!
//! A binary hands [`main`] its name and its flag table; the driver adds
//! `--out PATH` and `--check PATH`, prints the usage text generated from
//! the table, and runs the shared steps:
//!
//! * `--check PATH`: read the file and [`table::check`] it, no
//!   measurement (the gate CI runs on the committed trajectories);
//! * otherwise: build every sweep point's config, measure, print the
//!   [`table::text_table`], and write the [`table::render`]ed document.
//!
//! Exit codes: 2 for a usage error (unknown flag, malformed value, a
//! config the pipeline's codec rejects), 1 for a failed check, sweep or
//! write, 0 otherwise.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::table::{self, Sweep};

/// One sweep-specific flag.
pub struct Flag<S> {
    /// The flag as typed, e.g. `--scales`.
    name: &'static str,
    /// Placeholder for its value in the usage text; `None` for a switch.
    value: Option<&'static str>,
    /// Applies the value (`""` for a switch) to the sweep config; `None`
    /// when the value is malformed.
    set: fn(&mut S, &str) -> Option<()>,
}

impl<S> Flag<S> {
    /// A flag that takes a value, shown as `placeholder` in the usage.
    pub const fn value(
        name: &'static str,
        placeholder: &'static str,
        set: fn(&mut S, &str) -> Option<()>,
    ) -> Self {
        Flag {
            name,
            value: Some(placeholder),
            set,
        }
    }

    /// A switch, which takes no value (`set` receives `""`).
    pub const fn switch(name: &'static str, set: fn(&mut S, &str) -> Option<()>) -> Self {
        Flag {
            name,
            value: None,
            set,
        }
    }
}

/// The usage text: the two command forms, then one line per flag of the
/// table.
fn usage<S: Sweep>(bin: &str, flags: &[Flag<S>]) -> String {
    let mut text = format!(
        "usage: {bin} [FLAG]... [--out PATH]\n       {bin} --check PATH   \
         (validate an existing {})\nflags:",
        S::FILE
    );
    for flag in flags {
        let value = flag.value.map(|v| format!(" {v}")).unwrap_or_default();
        text.push_str(&format!("\n  {}{value}", flag.name));
    }
    text
}

/// Runs a sweep binary: parses `std::env::args` against `flags`, then
/// checks or measures as the module docs describe.
pub fn main<S: Sweep>(bin: &str, flags: &[Flag<S>]) -> ExitCode {
    match drive(bin, flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, message)) => {
            eprintln!("{message}");
            ExitCode::from(code)
        }
    }
}

/// [`main`]'s steps; an error is the exit code and its message.
fn drive<S: Sweep>(bin: &str, flags: &[Flag<S>]) -> Result<(), (u8, String)> {
    let mut sweep = S::default();
    let mut out = PathBuf::from(S::FILE);
    let mut check: Option<PathBuf> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(name) = argv.next() {
        match name.as_str() {
            "--out" => argv.next().map(|v| out = PathBuf::from(v)),
            "--check" => argv.next().map(|v| check = Some(PathBuf::from(v))),
            _ => flags
                .iter()
                .find(|f| f.name == name)
                .and_then(|f| match f.value {
                    Some(_) => argv.next().and_then(|v| (f.set)(&mut sweep, &v)),
                    None => (f.set)(&mut sweep, ""),
                }),
        }
        .ok_or_else(|| (2, usage(bin, flags)))?;
    }

    if let Some(path) = check {
        let failed = |e: String| (1, format!("{}: {e}", path.display()));
        let text =
            std::fs::read_to_string(&path).map_err(|e| failed(format!("cannot read: {e}")))?;
        table::check::<S>(&text).map_err(|e| failed(format!("schema drift: {e}")))?;
        println!("{}: schema ok ({})", path.display(), S::VERSION);
        return Ok(());
    }
    let points = table::points(&sweep).map_err(|e| (2, format!("{bin}: {e}")))?;
    let rows = sweep
        .run(&points)
        .map_err(|e| (1, format!("sweep failed: {e}")))?;
    print!("{}", table::text_table::<S>(&rows));
    let json = table::render(&sweep, &rows);
    std::fs::write(&out, format!("{json}\n"))
        .map_err(|e| (1, format!("failed to write {}: {e}", out.display())))?;
    println!("wrote {}", out.display());
    Ok(())
}
