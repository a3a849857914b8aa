//! `pprank` as a process: out-of-range config flags are usage errors that
//! name the offending field, never a panic.

use std::process::Command;

fn pprank(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pprank"))
        .args(args)
        .output()
        .expect("pprank runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn out_of_range_flags_exit_2_naming_the_field() {
    for (args, field) in [
        (&["--scale", "60"][..], "scale"),
        (&["--files", "0"], "num_files"),
        (&["--scale", "4", "--files", "1099511627776"], "num_files"),
        (&["--damping", "1.5"], "damping"),
        (&["--iterations", "0"], "iterations"),
        (&["--scale", "57", "--edge-factor", "1024"], "edge_factor"),
        (&["--converge", "-1"], "convergence_tolerance"),
        (&["--validate", "full"], "validation"),
    ] {
        let (code, stderr) = pprank(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(field),
            "{args:?} must name {field}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn validate_accepts_the_eigenvector_alias() {
    let (code, stderr) = pprank(&["--scale", "6", "--validate", "eigenvector", "--json"]);
    assert_eq!(code, Some(0), "{stderr}");
}
