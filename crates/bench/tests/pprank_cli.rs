//! `pprank` and the sweep binaries as processes: out-of-range config
//! flags and unknown flags are usage errors (exit 2), never a panic.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn out_of_range_flags_exit_2_naming_the_field() {
    let pprank = env!("CARGO_BIN_EXE_pprank");
    let k3 = env!("CARGO_BIN_EXE_k3bench");
    let k01 = env!("CARGO_BIN_EXE_k01bench");
    let pipe = env!("CARGO_BIN_EXE_pipebench");
    let algo = env!("CARGO_BIN_EXE_algobench");
    let serve = env!("CARGO_BIN_EXE_servebench");
    // A sweep that wrongly ran must not write into the source tree.
    let out = std::env::temp_dir().join(format!("ppbench-cli-{}.json", std::process::id()));
    let out = out.to_str().expect("temp path is UTF-8");
    for (bin, args, field) in [
        (pprank, "--scale 60", "scale"),
        (pprank, "--files 0", "num_files"),
        (pprank, "--scale 4 --files 1099511627776", "num_files"),
        (pprank, "--damping 1.5", "damping"),
        (pprank, "--iterations 0", "iterations"),
        (pprank, "--scale 57 --edge-factor 1024", "edge_factor"),
        (pprank, "--converge -1", "convergence_tolerance"),
        (pprank, "--validate full", "validation"),
        (k3, "--scales 6:6 --edge-factor 0 --out", "edge_factor"),
        (
            k3,
            "--scales 6:6 --threads 1 --damping 1.5 --out",
            "damping",
        ),
        (k01, "--scales 6:6 --edge-factor 0 --out", "edge_factor"),
        (pipe, "--scales 6:6 --edge-factor 0 --out", "edge_factor"),
        (
            pipe,
            "--scales 4:4 --threads 1 --num-files 1000 --out",
            "num_files",
        ),
        (algo, "--scales 6:6 --edge-factor 0 --out", "edge_factor"),
        (serve, "--scale 6 --edge-factor 0 --out", "edge_factor"),
    ] {
        let args: Vec<&str> = args
            .split(' ')
            .chain(args.ends_with("--out").then_some(out))
            .collect();
        let (code, stderr) = run(bin, &args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(field),
            "{bin} {args:?} must name {field}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a rejected sweep wrote {out}"
    );
}

#[test]
fn unknown_flags_print_the_usage_generated_from_the_flag_table() {
    for (bin, line) in [
        (env!("CARGO_BIN_EXE_k3bench"), "\n  --damping C\n"),
        (env!("CARGO_BIN_EXE_k01bench"), "\n  --k1-max-scale S"),
        (env!("CARGO_BIN_EXE_pipebench"), "\n  --num-files N\n"),
        (
            env!("CARGO_BIN_EXE_algobench"),
            "\n  --scales LO:HI,N,...\n",
        ),
        (env!("CARGO_BIN_EXE_servebench"), "\n  --spawn"),
    ] {
        let (code, stderr) = run(bin, &["--bogus"]);
        assert_eq!(code, Some(2), "{bin}: {stderr}");
        assert!(stderr.contains(line), "{bin}: {stderr}");
        assert!(stderr.contains(" --check PATH "), "{bin}: {stderr}");
    }
}

#[test]
fn validate_accepts_the_eigenvector_alias() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_pprank"),
        &["--scale", "6", "--validate", "eigenvector", "--json"],
    );
    assert_eq!(code, Some(0), "{stderr}");
}
