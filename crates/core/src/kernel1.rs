//! Kernel 1 — Sort: shared machinery.
//!
//! "Kernel 1 reads in the files generated in kernel 0, sorts the edges by
//! start vertex and writes the sorted edges to files on non-volatile
//! storage using the same format." The in-memory/out-of-core decision the
//! paper discusses is made here: when a memory budget is configured and the
//! input's in-memory footprint (16 bytes per edge) exceeds it, the
//! pipelined external sorter runs — parsing, run sorting, and output
//! writing on separate threads; otherwise the whole list is sorted in RAM
//! with the backend's algorithm of choice.
//!
//! Both paths treat the input manifest as untrusted on-disk data: its edge
//! count is bounded against the actual file bytes before any allocation,
//! every edge is checked against its vertex bound, and the stream read back
//! is digest-verified against the manifest before the sorted output is
//! committed.

use std::path::Path;

use ppbench_io::{checksum::EdgeDigest, EdgeReader, EdgeWriter, Manifest, BYTES_PER_EDGE};
use ppbench_sort::{pipelined_sort, Algorithm, SortKey};

use crate::backend::within_manifest_bound;
use crate::error::{Error, Result};

/// Sorts the edge file set at `in_dir` into a new file set at `out_dir`.
///
/// * `algorithm` — in-memory algorithm (ignored on the out-of-core path,
///   which always uses stable radix runs).
/// * `budget_bytes` — maximum bytes of edges held in memory (at
///   [`BYTES_PER_EDGE`] per edge); `None` means unbounded.
///
/// Returns the output manifest.
pub fn sort_file_set(
    in_dir: &Path,
    out_dir: &Path,
    num_files: usize,
    key: SortKey,
    algorithm: Algorithm,
    budget_bytes: Option<u64>,
) -> Result<Manifest> {
    let (in_manifest, iter) = EdgeReader::open_dir(in_dir)?;
    // The manifest's edge count is untrusted: a corrupt or hostile value
    // (`edges: u64::MAX`) must drive neither an allocation nor a spill
    // decision. Bound it by what the files' bytes could possibly encode.
    let disk_cap = in_manifest.max_edges_on_disk(in_dir);
    if in_manifest.edges > disk_cap {
        return Err(Error::Contract(format!(
            "{}: manifest claims {} edges but its files hold at most {disk_cap}",
            in_dir.display(),
            in_manifest.edges
        )));
    }
    let iter = iter.map(|e| e.and_then(|e| within_manifest_bound(e, &in_manifest, in_dir)));
    let in_bytes = in_manifest.edges.saturating_mul(BYTES_PER_EDGE as u64);
    // `Some` only when the input exceeds the in-memory budget.
    let spill_budget = budget_bytes.filter(|&b| in_bytes > b);

    let mut writer = EdgeWriter::create(out_dir, "edges", num_files, in_manifest.edges)?;
    if let Some(bytes) = spill_budget {
        let budget_edges = usize::try_from(bytes / BYTES_PER_EDGE as u64)
            .unwrap_or(usize::MAX)
            .max(1);
        let scratch = out_dir.join("sort-scratch");
        let stats = pipelined_sort(&scratch, budget_edges, key, iter, |e| writer.write(e))?;
        #[expect(
            clippy::let_underscore_untyped,
            reason = "best-effort scratch cleanup; the sorted output is already written and a leftover dir is harmless"
        )]
        let _ = std::fs::remove_dir_all(&scratch);
        if !stats.input_digest.same_stream(&in_manifest.digest) {
            return Err(Error::Contract(format!(
                "{}: edge stream does not match manifest digest \
                 (read {} edges, manifest says {})",
                in_dir.display(),
                stats.input_digest.count,
                in_manifest.edges
            )));
        }
    } else {
        let mut edges = Vec::with_capacity(in_manifest.edges as usize);
        let mut digest = EdgeDigest::new();
        for e in iter {
            let e = e?;
            digest.update(e);
            edges.push(e);
        }
        // Verify before sorting: bad input must never be laundered into a
        // plausible-looking sorted file set.
        if !digest.same_stream(&in_manifest.digest) {
            return Err(Error::Contract(format!(
                "{}: edge stream does not match manifest digest \
                 (read {} edges, manifest says {})",
                in_dir.display(),
                digest.count,
                in_manifest.edges
            )));
        }
        algorithm.sort(&mut edges, key, in_manifest.vertex_bound);
        writer.write_all(&edges)?;
    }
    let manifest = writer.finish(
        in_manifest.scale,
        in_manifest.vertex_bound,
        key.sort_state(),
    )?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppbench_io::tempdir::TempDir;
    use ppbench_io::{Edge, SortState};

    fn write_input(dir: &Path, edges: &[Edge]) {
        ppbench_io::write_edges(
            dir,
            "edges",
            2,
            edges,
            Some(4),
            Some(16),
            SortState::Unsorted,
        )
        .unwrap();
    }

    fn scrambled(n: u64) -> Vec<Edge> {
        (0..n)
            .map(|i| Edge::new((i * 7 + 3) % 16, (i * 5) % 16))
            .collect()
    }

    #[test]
    fn in_memory_path_sorts_and_preserves_multiset() {
        let td = TempDir::new("ppbench-k1").unwrap();
        let edges = scrambled(500);
        write_input(&td.join("in"), &edges);
        let m = sort_file_set(
            &td.join("in"),
            &td.join("out"),
            3,
            SortKey::Start,
            Algorithm::Radix,
            None,
        )
        .unwrap();
        assert_eq!(m.edges, 500);
        assert_eq!(m.files.len(), 3);
        assert!(m.sort_state.is_sorted_by_start());
        let (_, got) = EdgeReader::read_dir_all(&td.join("out")).unwrap();
        assert!(got.windows(2).all(|w| w[0].u <= w[1].u));
        // The input digest's multiset component must be preserved.
        let in_manifest = Manifest::load(&td.join("in")).unwrap();
        assert!(m.digest.same_multiset(&in_manifest.digest));
    }

    #[test]
    fn out_of_core_path_matches_in_memory() {
        let td = TempDir::new("ppbench-k1").unwrap();
        let edges = scrambled(400);
        write_input(&td.join("in"), &edges);
        let m_mem = sort_file_set(
            &td.join("in"),
            &td.join("mem"),
            1,
            SortKey::Start,
            Algorithm::Radix,
            None,
        )
        .unwrap();
        let m_ext = sort_file_set(
            &td.join("in"),
            &td.join("ext"),
            1,
            SortKey::Start,
            Algorithm::Radix,
            Some(32 * BYTES_PER_EDGE as u64),
        )
        .unwrap();
        // Stable radix in memory and stable external sort agree exactly.
        assert!(m_mem.digest.same_stream(&m_ext.digest));
        // Scratch space cleaned up.
        assert!(!td.join("ext").join("sort-scratch").exists());
    }

    #[test]
    fn budget_is_in_bytes_not_edges() {
        // 100 edges = 1600 bytes. A 1599-byte budget must spill; a
        // 1600-byte budget must not (footprint == budget is within it).
        let td = TempDir::new("ppbench-k1").unwrap();
        let edges = scrambled(100);
        write_input(&td.join("in"), &edges);
        sort_file_set(
            &td.join("in"),
            &td.join("tight"),
            1,
            SortKey::Start,
            Algorithm::Radix,
            Some(1599),
        )
        .unwrap();
        sort_file_set(
            &td.join("in"),
            &td.join("exact"),
            1,
            SortKey::Start,
            Algorithm::Radix,
            Some(1600),
        )
        .unwrap();
        let (_, a) = EdgeReader::read_dir_all(&td.join("tight")).unwrap();
        let (_, b) = EdgeReader::read_dir_all(&td.join("exact")).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn start_end_key_orders_ends_within_start() {
        let td = TempDir::new("ppbench-k1").unwrap();
        write_input(&td.join("in"), &scrambled(200));
        sort_file_set(
            &td.join("in"),
            &td.join("out"),
            1,
            SortKey::StartEnd,
            Algorithm::Std,
            None,
        )
        .unwrap();
        let (m, got) = EdgeReader::read_dir_all(&td.join("out")).unwrap();
        assert_eq!(m.sort_state, SortState::ByStartEnd);
        assert!(got.windows(2).all(|w| (w[0].u, w[0].v) <= (w[1].u, w[1].v)));
    }

    #[test]
    fn missing_input_is_an_error() {
        let td = TempDir::new("ppbench-k1").unwrap();
        let r = sort_file_set(
            &td.join("nothing"),
            &td.join("out"),
            1,
            SortKey::Start,
            Algorithm::Radix,
            None,
        );
        assert!(r.is_err());
    }

    #[test]
    fn hostile_manifest_edge_count_rejected_before_allocating() {
        // A manifest claiming u64::MAX edges used to drive
        // `Vec::with_capacity(u64::MAX)` — an immediate abort. It must now
        // surface as a contract error bounded by the bytes on disk.
        let td = TempDir::new("ppbench-k1").unwrap();
        write_input(&td.join("in"), &scrambled(10));
        // Forge an internally consistent manifest (per-file sums and digest
        // count agree with the claimed total) so only the bytes-on-disk
        // bound can catch it.
        let mut m = Manifest::load(&td.join("in")).unwrap();
        m.edges = u64::MAX;
        m.digest.count = u64::MAX;
        m.files[0].edges = u64::MAX - m.files[1].edges;
        m.save(&td.join("in")).unwrap();
        for budget in [None, Some(64)] {
            let err = sort_file_set(
                &td.join("in"),
                &td.join("out"),
                1,
                SortKey::Start,
                Algorithm::Radix,
                budget,
            )
            .unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("at most"), "{msg}");
        }
    }
}
