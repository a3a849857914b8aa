//! CLI for `ppbench-analyze`.
//!
//! ```text
//! ppbench-analyze [--workspace] [--root DIR] [--format text|sarif]
//!                 [--out FILE] [--list-rules] [PATH]...
//! ```
//!
//! Exit codes: 0 clean, 1 violations, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use ppbench_analyze::rules::RULES;
use ppbench_analyze::{engine, sarif, walk};

struct Options {
    workspace: bool,
    root: Option<PathBuf>,
    list_rules: bool,
    format: Format,
    out: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Sarif,
}

fn usage(to_stderr: bool) {
    let text = "usage: ppbench-analyze [--workspace] [--root DIR] [--format text|sarif]\n\
                \x20                      [--out FILE] [--list-rules] [PATH]...\n\
                \n\
                --workspace       scan the whole workspace (default when no PATH given)\n\
                --root DIR        workspace root (default: discovered from the cwd)\n\
                --format FMT      output format: text (default) or sarif\n\
                --out FILE        write the report to FILE instead of stdout\n\
                --list-rules      print the rule catalogue and exit\n";
    if to_stderr {
        eprint!("{text}");
    } else {
        print!("{text}");
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        root: None,
        list_rules: false,
        format: Format::Text,
        out: None,
        paths: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--root" => {
                let v = argv.next().ok_or("--root needs a directory")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--format" => {
                let v = argv.next().ok_or("--format needs `text` or `sarif`")?;
                opts.format = match v.as_str() {
                    "text" => Format::Text,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--out" => {
                let v = argv.next().ok_or("--out needs a file path")?;
                opts.out = Some(PathBuf::from(v));
            }
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => {
                usage(false);
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if !opts.workspace && opts.paths.is_empty() {
        opts.workspace = true;
    }
    Ok(opts)
}

fn emit(opts: &Options, report: &str) -> Result<(), String> {
    match &opts.out {
        Some(path) => {
            std::fs::write(path, report).map_err(|e| format!("writing {}: {e}", path.display()))
        }
        None => {
            print!("{report}");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("ppbench-analyze: {msg}");
            usage(true);
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for (rule, desc) in RULES {
            println!("{rule:<18} {desc}");
        }
        return ExitCode::SUCCESS;
    }

    let mut files = Vec::new();
    if opts.workspace {
        let root = match opts.root.clone().map(Ok).unwrap_or_else(|| {
            std::env::current_dir().and_then(|cwd| walk::find_workspace_root(&cwd))
        }) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ppbench-analyze: locating workspace: {e}");
                return ExitCode::from(2);
            }
        };
        match walk::load_workspace(&root) {
            Ok(fs) => files.extend(fs),
            Err(e) => {
                eprintln!("ppbench-analyze: reading workspace: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if !opts.paths.is_empty() {
        match walk::load_paths(&opts.paths) {
            Ok(fs) => files.extend(fs),
            Err(e) => {
                eprintln!("ppbench-analyze: reading paths: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let diags = engine::analyze(&files);
    let mut text: String = diags.iter().map(|d| format!("{d}\n")).collect();
    text.push_str(&format!(
        "ppbench-analyze: {} file(s) scanned, {} error(s)\n",
        files.len(),
        diags.len()
    ));
    let (report, summary) = match opts.format {
        Format::Text => (text, None),
        // SARIF goes to --out/stdout; the human summary goes to stderr.
        Format::Sarif => (sarif::render(&diags), Some(text)),
    };
    if let Err(e) = emit(&opts, &report) {
        eprintln!("ppbench-analyze: {e}");
        return ExitCode::from(2);
    }
    if let Some(summary) = summary {
        eprint!("{summary}");
    }

    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
