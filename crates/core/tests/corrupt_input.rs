//! Corrupt-input coverage for the kernel-1 and kernel-2 read paths.
//!
//! Kernels 1 and 2 consume on-disk state they did not produce in the same
//! process, so every class of corruption — hostile counts, truncated
//! files, missing files, count/content mismatches, out-of-bound vertices —
//! must surface as a clean `Err` through `EdgeReader::read_dir_all`,
//! `kernel1::sort_file_set` and every backend's kernels 1 and 2, never a
//! panic, abort, or silently wrong output.

use std::path::Path;

use ppbench_core::kernel1::sort_file_set;
use ppbench_core::{PipelineConfig, Variant};
use ppbench_io::{Edge, EdgeReader, Manifest, SortState};
use ppbench_sort::{Algorithm, SortKey};

fn scrambled(n: u64) -> Vec<Edge> {
    (0..n)
        .map(|i| Edge::new((i * 7 + 3) % 32, (i * 5) % 32))
        .collect()
}

fn write_input(dir: &Path, edges: &[Edge]) -> Manifest {
    ppbench_io::write_edges(
        dir,
        "edges",
        2,
        edges,
        Some(5),
        Some(32),
        SortState::Unsorted,
    )
    .unwrap()
}

/// Both consumers of a corrupt directory must fail cleanly; returns the two
/// error strings for message assertions. Runs `sort_file_set` with no
/// budget (in-memory path) and with a tiny byte budget (spill path) so both
/// kernel-1 code paths see the corruption.
fn assert_both_paths_reject(dir: &Path, out_root: &Path) -> Vec<String> {
    let mut messages = Vec::new();
    let read_err = EdgeReader::read_dir_all(dir).unwrap_err();
    messages.push(read_err.to_string());
    for (label, budget) in [("inmem", None), ("spill", Some(64))] {
        let err = sort_file_set(
            dir,
            &out_root.join(label),
            1,
            SortKey::Start,
            Algorithm::Radix,
            budget,
        )
        .unwrap_err();
        messages.push(err.to_string());
    }
    messages
}

#[test]
fn hostile_edge_count_rejected_without_allocating() {
    // `edges: u64::MAX` with internally consistent per-file counts and
    // digest: only the bytes-on-disk bound can catch it, and it must do so
    // before `Vec::with_capacity` turns the lie into an abort.
    let td = ppbench_io::tempdir::TempDir::new("corrupt-k1").unwrap();
    write_input(&td.join("in"), &scrambled(20));
    let mut m = Manifest::load(&td.join("in")).unwrap();
    m.edges = u64::MAX;
    m.digest.count = u64::MAX;
    m.files[0].edges = u64::MAX - m.files[1].edges;
    m.save(&td.join("in")).unwrap();
    for msg in assert_both_paths_reject(&td.join("in"), &td.join("out")) {
        assert!(msg.contains("at most"), "{msg}");
    }
}

#[test]
fn manifest_count_disagreeing_with_contents_rejected() {
    // The manifest claims fewer edges than the files contain (an append
    // behind the manifest's back). The stream digest is what catches it.
    let td = ppbench_io::tempdir::TempDir::new("corrupt-k1").unwrap();
    let m = write_input(&td.join("in"), &scrambled(50));
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(td.join("in").join(&m.files[1].name))
        .unwrap();
    writeln!(f, "3\t9").unwrap();
    drop(f);
    for msg in assert_both_paths_reject(&td.join("in"), &td.join("out")) {
        assert!(msg.contains("digest"), "{msg}");
    }
}

#[test]
fn truncated_final_line_rejected() {
    // Chop the file mid-record (a torn write): the partial final line must
    // parse-fail or digest-fail, never be silently dropped.
    let td = ppbench_io::tempdir::TempDir::new("corrupt-k1").unwrap();
    let m = write_input(&td.join("in"), &scrambled(50));
    let path = td.join("in").join(&m.files[1].name);
    let data = std::fs::read(&path).unwrap();
    let keep = data.len() - 3;
    std::fs::write(&path, &data[..keep]).unwrap();
    let messages = assert_both_paths_reject(&td.join("in"), &td.join("out"));
    assert!(!messages.is_empty());
}

#[test]
fn manifest_naming_missing_file_rejected() {
    let td = ppbench_io::tempdir::TempDir::new("corrupt-k1").unwrap();
    let m = write_input(&td.join("in"), &scrambled(30));
    std::fs::remove_file(td.join("in").join(&m.files[0].name)).unwrap();
    let messages = assert_both_paths_reject(&td.join("in"), &td.join("out"));
    assert!(!messages.is_empty());
}

#[test]
fn corruption_leaves_no_committed_output_manifest() {
    // A failed kernel 1 must not publish a manifest for its partial
    // output — the manifest is the commit point.
    let td = ppbench_io::tempdir::TempDir::new("corrupt-k1").unwrap();
    let m = write_input(&td.join("in"), &scrambled(40));
    let path = td.join("in").join(&m.files[0].name);
    let data = std::fs::read(&path).unwrap();
    std::fs::write(&path, &data[..data.len() - 5]).unwrap();
    for (label, budget) in [("inmem", None), ("spill", Some(64u64))] {
        let out = td.join(label);
        assert!(sort_file_set(
            &td.join("in"),
            &out,
            1,
            SortKey::Start,
            Algorithm::Radix,
            budget,
        )
        .is_err());
        assert!(
            !out.join(ppbench_io::MANIFEST_NAME).exists(),
            "{label}: failed sort must not commit a manifest"
        );
    }
}

/// A scale-4 (16-vertex) file set sorted by start vertex, as kernel 1
/// leaves it, with a correct manifest and digest for whatever edges it is
/// given.
fn write_sorted_input(dir: &Path, edges: &[Edge]) -> Manifest {
    ppbench_io::write_edges(
        dir,
        "edges",
        2,
        edges,
        Some(4),
        Some(16),
        SortState::ByStart,
    )
    .unwrap()
}

fn sorted_edges() -> Vec<Edge> {
    let mut edges: Vec<Edge> = (0..64)
        .map(|i| Edge::new((i * 7 + 3) % 16, (i * 5) % 16))
        .collect();
    edges.sort_by_key(|e| e.u);
    edges
}

/// Runs kernels 1 and 2 of every backend on `dir` and returns the
/// `(variant, kernel)` pairs that did not fail cleanly.
fn accepted_by(dir: &Path, out_root: &Path) -> Vec<String> {
    let cfg = PipelineConfig::builder()
        .scale(4)
        .edge_factor(4)
        .num_files(1)
        .build();
    let mut accepted = Vec::new();
    for v in Variant::ALL {
        let backend = v.backend();
        if backend.kernel1(&cfg, dir, &out_root.join(v.name())).is_ok() {
            accepted.push(format!("{} k1", v.name()));
        }
        if backend.kernel2(&cfg, dir).is_ok() {
            accepted.push(format!("{} k2", v.name()));
        }
    }
    accepted
}

#[test]
fn every_backend_rejects_an_out_of_bound_vertex() {
    let td = ppbench_io::tempdir::TempDir::new("corrupt-k12").unwrap();
    let mut edges = sorted_edges();
    let at = edges.iter().position(|e| e.u == 1).unwrap();
    edges[at] = Edge::new(1, 40);
    write_sorted_input(&td.join("in"), &edges);
    assert_eq!(
        accepted_by(&td.join("in"), &td.join("out")),
        Vec::<String>::new()
    );
}

#[test]
fn every_backend_rejects_a_hostile_edge_count() {
    let td = ppbench_io::tempdir::TempDir::new("corrupt-k12").unwrap();
    write_sorted_input(&td.join("in"), &sorted_edges());
    let mut m = Manifest::load(&td.join("in")).unwrap();
    m.edges = 1 << 45;
    m.digest.count = 1 << 45;
    m.files[0].edges = (1 << 45) - m.files[1].edges;
    m.save(&td.join("in")).unwrap();
    assert_eq!(
        accepted_by(&td.join("in"), &td.join("out")),
        Vec::<String>::new()
    );
}

#[test]
fn every_backend_rejects_a_tampered_last_edge() {
    // Rewrite the final edge in place: counts and sort order still hold,
    // only the digest can tell.
    let td = ppbench_io::tempdir::TempDir::new("corrupt-k12").unwrap();
    let edges = sorted_edges();
    let m = write_sorted_input(&td.join("in"), &edges);
    let last = edges[edges.len() - 1];
    let path = td.join("in").join(&m.files[1].name);
    let text = std::fs::read_to_string(&path).unwrap();
    let line = format!("{}\t{}\n", last.u, last.v);
    assert!(text.ends_with(&line));
    let forged = format!("{}\t{}\n", last.u, (last.v + 1) % 16);
    let kept = &text[..text.len() - line.len()];
    std::fs::write(&path, format!("{kept}{forged}")).unwrap();
    assert_eq!(
        accepted_by(&td.join("in"), &td.join("out")),
        Vec::<String>::new()
    );
}
