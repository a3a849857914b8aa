//! Edge sorting for kernel 1 of the PageRank Pipeline Benchmark.
//!
//! Kernel 1 "reads in the files generated in kernel 0, sorts the edges by
//! start vertex and writes the sorted edges to files". The paper notes that
//! the right algorithm depends on scale: "in the case where u and v fit into
//! the RAM of the system, an in-memory algorithm could be used. Likewise, if
//! u and v are too large to fit in memory, then an out-of-core algorithm
//! would be required." This crate provides both:
//!
//! In memory ([`Algorithm`]):
//! * [`radix_sort`] — LSD radix sort on the 64-bit start key (8-bit digits,
//!   trivial passes skipped), stable, O(M) — the `optimized` backend's choice;
//! * [`counting_sort`] — one-pass bucket sort exploiting the known vertex
//!   bound `N = 2^scale`, stable, O(M + N);
//! * [`std_sort`] — `slice::sort_unstable_by_key` (pdqsort), the baseline
//!   comparison sort;
//! * [`parallel_sort`] — rayon's parallel pdqsort (the paper's future-work
//!   parallel path).
//!
//! Out of core:
//! * [`ExternalSorter`] — classic run-generation + k-way merge with an
//!   explicit memory budget, spilling sorted runs as ordinary edge files via
//!   `ppbench-io` and merging them with a binary-heap [`kway`] merge;
//! * [`pipelined_sort`] — the same sorter with reading and run generation
//!   overlapped across threads through a bounded crossbeam channel.
//!
//! All sorts honor a [`SortKey`]: by start vertex only (the spec), or by
//! (start, end) — the paper's §V "should the end vertices also be sorted?"
//! option.

//!
//! # Example
//!
//! ```
//! use ppbench_io::Edge;
//! use ppbench_sort::{radix_sort, SortKey};
//!
//! let mut edges = vec![Edge::new(5, 0), Edge::new(1, 9), Edge::new(3, 2)];
//! radix_sort(&mut edges, SortKey::Start);
//! assert!(SortKey::Start.is_sorted(&edges));
//! ```

#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod external;
pub mod kway;
pub mod pipelined;
mod radix;

pub use external::{ExternalSorter, ExternalStats, MergeStream, RunSet, RunWriter};
pub use kway::{KWayMerge, TwoWayMerge};
pub use pipelined::pipelined_sort;
pub use radix::{radix_sort, radix_sort_by_u64_key, radix_sort_slice, radix_sort_slice_by_u64_key};

use ppbench_io::{Edge, SortState};

/// Which key kernel 1 sorts by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortKey {
    /// Start vertex only (the benchmark spec). Stable algorithms preserve
    /// the relative order of equal start vertices.
    #[default]
    Start,
    /// Lexicographic (start, end) — the §V variant.
    StartEnd,
}

impl SortKey {
    /// Both keys, spec key first.
    pub const ALL: [SortKey; 2] = [SortKey::Start, SortKey::StartEnd];

    /// Stable name used in canonical configs and the JSON config codec.
    pub fn name(self) -> &'static str {
        match self {
            SortKey::Start => "start",
            SortKey::StartEnd => "start-end",
        }
    }

    /// Parses a [`SortKey::name`]; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// True if `edges` is sorted under this key.
    pub fn is_sorted(self, edges: &[Edge]) -> bool {
        match self {
            SortKey::Start => edges.windows(2).all(|w| w[0].u <= w[1].u),
            SortKey::StartEnd => edges
                .windows(2)
                .all(|w| (w[0].u, w[0].v) <= (w[1].u, w[1].v)),
        }
    }

    /// Compares two edges under this key.
    #[inline]
    pub fn cmp(self, a: &Edge, b: &Edge) -> std::cmp::Ordering {
        match self {
            SortKey::Start => a.u.cmp(&b.u),
            SortKey::StartEnd => (a.u, a.v).cmp(&(b.u, b.v)),
        }
    }

    /// The manifest sort-state this key establishes.
    pub fn sort_state(self) -> SortState {
        match self {
            SortKey::Start => SortState::ByStart,
            SortKey::StartEnd => SortState::ByStartEnd,
        }
    }
}

/// Sorts with the standard library's unstable pattern-defeating quicksort.
pub fn std_sort(edges: &mut [Edge], key: SortKey) {
    match key {
        SortKey::Start => edges.sort_unstable_by_key(|e| e.u),
        SortKey::StartEnd => edges.sort_unstable_by_key(|e| (e.u, e.v)),
    }
}

/// Sorts with the standard library's stable merge sort (allocates).
pub fn std_stable_sort(edges: &mut [Edge], key: SortKey) {
    match key {
        SortKey::Start => edges.sort_by_key(|e| e.u),
        SortKey::StartEnd => edges.sort_by_key(|e| (e.u, e.v)),
    }
}

/// Sorts in parallel with rayon's parallel unstable sort.
pub fn parallel_sort(edges: &mut [Edge], key: SortKey) {
    use rayon::slice::ParallelSliceMut;
    match key {
        SortKey::Start => edges.par_sort_unstable_by_key(|e| e.u),
        SortKey::StartEnd => edges.par_sort_unstable_by_key(|e| (e.u, e.v)),
    }
}

/// Stable counting sort by start vertex, exploiting the known vertex bound.
///
/// O(M + N) time, O(M + N) extra space. Only supports [`SortKey::Start`]
/// (for (start, end) the bound on the composite key is too large to bucket).
///
/// # Panics
///
/// Panics if any start vertex is `>= num_vertices`.
pub fn counting_sort(edges: &mut Vec<Edge>, num_vertices: u64) {
    #[expect(
        clippy::expect_used,
        reason = "documented contract: counting_sort panics on out-of-range bounds, per the fn docs"
    )]
    let n = usize::try_from(num_vertices).expect("vertex bound fits usize");
    let mut counts = vec![0u64; n + 1];
    for e in edges.iter() {
        assert!(
            e.u < num_vertices,
            "edge start {} >= vertex bound {num_vertices}",
            e.u
        );
        counts[e.u as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let mut out = vec![Edge::new(0, 0); edges.len()];
    for e in edges.iter() {
        let slot = &mut counts[e.u as usize];
        out[*slot as usize] = *e;
        *slot += 1;
    }
    *edges = out;
}

/// In-memory sort algorithm selector, used by pipeline backends and the
/// ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// LSD radix sort (stable).
    #[default]
    Radix,
    /// Counting sort by start vertex (stable; needs the vertex bound,
    /// falls back to radix for [`SortKey::StartEnd`]).
    Counting,
    /// `sort_unstable_by_key` comparison sort.
    Std,
    /// Stable standard-library sort.
    StdStable,
    /// rayon parallel unstable sort.
    Parallel,
}

impl Algorithm {
    /// Sorts `edges` in memory. `vertex_bound` is required by
    /// [`Algorithm::Counting`] and ignored by the others.
    pub fn sort(self, edges: &mut Vec<Edge>, key: SortKey, vertex_bound: Option<u64>) {
        match self {
            Algorithm::Radix => radix_sort(edges, key),
            Algorithm::Counting => match (key, vertex_bound) {
                (SortKey::Start, Some(n)) => counting_sort(edges, n),
                _ => radix_sort(edges, key),
            },
            Algorithm::Std => std_sort(edges, key),
            Algorithm::StdStable => std_stable_sort(edges, key),
            Algorithm::Parallel => parallel_sort(edges, key),
        }
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Radix => "radix",
            Algorithm::Counting => "counting",
            Algorithm::Std => "std",
            Algorithm::StdStable => "std-stable",
            Algorithm::Parallel => "parallel",
        }
    }

    /// All algorithms, for sweeps and tests.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Radix,
        Algorithm::Counting,
        Algorithm::Std,
        Algorithm::StdStable,
        Algorithm::Parallel,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppbench_prng::{Rng64, SeedableRng64, Xoshiro256pp};

    fn random_edges(n: usize, vertex_bound: u64, seed: u64) -> Vec<Edge> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n)
            .map(|_| Edge::new(rng.next_below(vertex_bound), rng.next_below(vertex_bound)))
            .collect()
    }

    #[test]
    fn key_names_roundtrip() {
        for key in SortKey::ALL {
            assert_eq!(SortKey::parse(key.name()), Some(key));
        }
        assert_eq!(SortKey::Start.name(), "start");
        assert_eq!(SortKey::StartEnd.name(), "start-end");
        assert_eq!(SortKey::parse("end"), None);
    }

    #[test]
    fn all_algorithms_sort_by_start() {
        let original = random_edges(5000, 256, 1);
        for alg in Algorithm::ALL {
            let mut edges = original.clone();
            alg.sort(&mut edges, SortKey::Start, Some(256));
            assert!(SortKey::Start.is_sorted(&edges), "{}", alg.name());
            let mut a = edges.clone();
            let mut b = original.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{} lost edges", alg.name());
        }
    }

    #[test]
    fn all_algorithms_sort_by_start_end() {
        let original = random_edges(3000, 64, 2);
        for alg in Algorithm::ALL {
            let mut edges = original.clone();
            alg.sort(&mut edges, SortKey::StartEnd, Some(64));
            assert!(SortKey::StartEnd.is_sorted(&edges), "{}", alg.name());
        }
    }

    #[test]
    fn stable_algorithms_preserve_equal_key_order() {
        // Tag each edge's v with its original index; after a stable sort by
        // start, v must be increasing within each start-vertex group.
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let original: Vec<Edge> = (0..4000)
            .map(|i| Edge::new(rng.next_below(16), i))
            .collect();
        for alg in [Algorithm::Radix, Algorithm::Counting, Algorithm::StdStable] {
            let mut edges = original.clone();
            alg.sort(&mut edges, SortKey::Start, Some(16));
            for w in edges.windows(2) {
                if w[0].u == w[1].u {
                    assert!(w[0].v < w[1].v, "{} is not stable", alg.name());
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        for alg in Algorithm::ALL {
            let mut empty: Vec<Edge> = vec![];
            alg.sort(&mut empty, SortKey::Start, Some(4));
            assert!(empty.is_empty());
            let mut one = vec![Edge::new(3, 1)];
            alg.sort(&mut one, SortKey::Start, Some(4));
            assert_eq!(one, vec![Edge::new(3, 1)]);
        }
    }

    #[test]
    fn counting_sort_rejects_out_of_bound() {
        let mut edges = vec![Edge::new(10, 0)];
        let result = std::panic::catch_unwind(move || counting_sort(&mut edges, 10));
        assert!(result.is_err());
    }

    #[test]
    fn is_sorted_distinguishes_keys() {
        let by_start_only = vec![Edge::new(1, 9), Edge::new(1, 2), Edge::new(3, 0)];
        assert!(SortKey::Start.is_sorted(&by_start_only));
        assert!(!SortKey::StartEnd.is_sorted(&by_start_only));
    }

    #[test]
    fn sort_key_maps_to_sort_state() {
        assert_eq!(SortKey::Start.sort_state(), SortState::ByStart);
        assert_eq!(SortKey::StartEnd.sort_state(), SortState::ByStartEnd);
    }
}
