//! Graph generators for kernel 0 of the PageRank Pipeline Benchmark.
//!
//! The benchmark's kernel 0 generates "a list of edges from an approximately
//! power-law graph using the Graph500 graph generator". This crate ports
//! that generator and the two alternatives the paper names as candidates for
//! easier validation (§IV.A and §V):
//!
//! * [`Kronecker`] — the Graph500 kernel-0 stochastic Kronecker (R-MAT)
//!   generator with the official initiator probabilities A = 0.57, B = 0.19,
//!   C = 0.19, including vertex-label permutation and edge shuffling, plus a
//!   deterministic [rayon]-parallel path whose output is identical to the
//!   serial one for any thread count.
//! * [`PerfectPowerLaw`] — a deterministic-degree-sequence power-law
//!   generator in the spirit of Kepner's PPL graphs; degrees are an exact
//!   analytic function of the vertex rank, which makes downstream kernels
//!   easy to validate.
//! * [`ErdosRenyi`] — uniform random G(N, M) with replacement, useful as a
//!   no-hotspot control in tests and ablations.
//!
//! All generators implement [`EdgeGenerator`] and share a [`GraphSpec`]
//! (scale + edge factor) from which vertex counts, edge counts and the
//! paper's Table II memory estimates are derived.

//!
//! # Example
//!
//! ```
//! use ppbench_gen::{EdgeGenerator, GraphSpec, Kronecker};
//!
//! // Scale 8, 4 edges per vertex: 256 vertices, 1024 edges.
//! let gen = Kronecker::new(GraphSpec::new(8, 4), 42);
//! let edges = gen.edges();
//! assert_eq!(edges.len(), 1024);
//! // Deterministic: the same seed always yields the same graph.
//! assert_eq!(edges, Kronecker::new(GraphSpec::new(8, 4), 42).edges());
//! ```

#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod bter;
pub mod degree;
mod erdos;
mod feistel;
mod kronecker;
mod linear;
mod ppl;
mod spec;
pub mod validate;

pub use bter::Bter;
pub use erdos::ErdosRenyi;
pub use feistel::FeistelPermutation;
pub use kronecker::{Kronecker, KroneckerProbs};
pub use linear::{LinearKronecker, DEFAULT_BLOCK_BITS};
pub use ppl::PerfectPowerLaw;
pub use spec::{GraphSpec, DEFAULT_EDGE_FACTOR};

use ppbench_io::Edge;

/// Splits the half-open stream range `lo..hi` into consecutive `(lo, hi)`
/// chunks of at most `chunk` edges, in stream order. The shared chunking
/// vocabulary of every streaming consumer (kernel 0's writers,
/// [`EdgeGenerator::edges_parallel`]): identical chunk boundaries are what
/// keep their outputs bit-identical to a serial pass.
///
/// # Panics
///
/// Panics if `chunk == 0` or `lo > hi`.
pub fn chunk_ranges(lo: u64, hi: u64, chunk: u64) -> impl Iterator<Item = (u64, u64)> {
    assert!(chunk > 0, "chunk size must be positive");
    assert!(lo <= hi, "invalid range {lo}..{hi}");
    (lo..hi)
        .step_by(usize::try_from(chunk).unwrap_or(usize::MAX))
        .map(move |start| (start, start.saturating_add(chunk).min(hi)))
}

/// A deterministic edge-list generator.
///
/// Generators are pure functions of their configuration (including the
/// seed): `edges()` always returns the same list, and
/// `edges_chunk(lo, hi)` returns exactly `edges()[lo..hi]`, which is what
/// makes order-preserving parallel generation possible.
pub trait EdgeGenerator {
    /// The graph size specification.
    fn spec(&self) -> GraphSpec;

    /// Generates edges `lo..hi` of the stream (end-exclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > self.spec().num_edges()`.
    fn edges_chunk(&self, lo: u64, hi: u64) -> Vec<Edge>;

    /// Generates edges `lo..hi` into `out`, reusing its allocation.
    ///
    /// `out` is cleared first; afterwards it holds exactly
    /// `edges()[lo..hi]`. Streaming consumers (kernel 0's writers) call this
    /// once per chunk with one long-lived buffer instead of allocating a
    /// fresh `Vec` via [`EdgeGenerator::edges_chunk`] each time.
    ///
    /// The default implementation delegates to `edges_chunk`; generators
    /// with a hot path override it to write in place.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > self.spec().num_edges()`.
    fn edges_into(&self, out: &mut Vec<Edge>, lo: u64, hi: u64) {
        out.clear();
        out.append(&mut self.edges_chunk(lo, hi));
    }

    /// Generates the complete edge list serially.
    fn edges(&self) -> Vec<Edge> {
        self.edges_chunk(0, self.spec().num_edges())
    }

    /// Generates the complete edge list with rayon, chunked so the result
    /// is bit-identical to [`EdgeGenerator::edges`] regardless of thread
    /// count.
    fn edges_parallel(&self, chunk_size: u64) -> Vec<Edge>
    where
        Self: Sync,
    {
        use rayon::prelude::*;
        let m = self.spec().num_edges();
        let chunks: Vec<(u64, u64)> = chunk_ranges(0, m, chunk_size).collect();
        chunks
            .par_iter()
            .flat_map_iter(|&(lo, hi)| self.edges_chunk(lo, hi))
            .collect()
    }
}

impl<G: EdgeGenerator + ?Sized> EdgeGenerator for Box<G> {
    fn spec(&self) -> GraphSpec {
        (**self).spec()
    }

    fn edges_chunk(&self, lo: u64, hi: u64) -> Vec<Edge> {
        (**self).edges_chunk(lo, hi)
    }

    // Forward explicitly so a generator's native `edges_into` override is
    // not lost behind the box (the default impl would round-trip through
    // `edges_chunk` and re-allocate).
    fn edges_into(&self, out: &mut Vec<Edge>, lo: u64, hi: u64) {
        (**self).edges_into(out, lo, hi)
    }
}

/// Which generator kernel 0 should use; the paper's §V suggests more
/// deterministic generators "to facilitate validation of all kernels".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GeneratorKind {
    /// Graph500 stochastic Kronecker (the spec's default).
    #[default]
    Kronecker,
    /// Deterministic-degree power-law graph.
    PerfectPowerLaw,
    /// Uniform Erdős–Rényi control.
    ErdosRenyi,
    /// Block two-level Erdős–Rényi: power law + community structure.
    Bter,
}

impl GeneratorKind {
    /// Instantiates the chosen generator for `spec` and `seed`.
    pub fn build(self, spec: GraphSpec, seed: u64) -> Box<dyn EdgeGenerator + Send + Sync> {
        match self {
            GeneratorKind::Kronecker => Box::new(Kronecker::new(spec, seed)),
            GeneratorKind::PerfectPowerLaw => Box::new(PerfectPowerLaw::new(spec, seed)),
            GeneratorKind::ErdosRenyi => Box::new(ErdosRenyi::new(spec, seed)),
            GeneratorKind::Bter => Box::new(Bter::new(spec, seed)),
        }
    }

    /// Stable name used in CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            GeneratorKind::Kronecker => "kronecker",
            GeneratorKind::PerfectPowerLaw => "ppl",
            GeneratorKind::ErdosRenyi => "erdos-renyi",
            GeneratorKind::Bter => "bter",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "kronecker" => Some(Self::Kronecker),
            "ppl" => Some(Self::PerfectPowerLaw),
            "erdos-renyi" | "er" => Some(Self::ErdosRenyi),
            "bter" => Some(Self::Bter),
            _ => None,
        }
    }

    /// All kinds, for sweeps and tests.
    pub const ALL: [GeneratorKind; 4] = [
        GeneratorKind::Kronecker,
        GeneratorKind::PerfectPowerLaw,
        GeneratorKind::ErdosRenyi,
        GeneratorKind::Bter,
    ];
}

/// Which R-MAT sampling algorithm realizes the Kronecker generator.
///
/// Both are deterministic in the seed and draw from the same initiator
/// probabilities, but they consume their PRNG streams differently, so the
/// two variants emit *different* (equally distributed) edge streams for the
/// same seed. The choice is therefore part of a pipeline's canonical
/// configuration. It only affects [`GeneratorKind::Kronecker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RmatSampler {
    /// The faithful Graph500 port: `scale` coin-flip pairs per edge
    /// ([`Kronecker`]).
    #[default]
    Faithful,
    /// The linear-work block sampler: `ceil(scale/8)` table lookups per
    /// edge ([`LinearKronecker`]), after Hübschle-Schneider & Sanders.
    Linear,
}

impl RmatSampler {
    /// Stable name used in CLI flags, canonical configs and reports.
    pub fn name(self) -> &'static str {
        match self {
            RmatSampler::Faithful => "faithful",
            RmatSampler::Linear => "linear",
        }
    }

    /// Parses a CLI/config name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "faithful" => Some(Self::Faithful),
            "linear" => Some(Self::Linear),
            _ => None,
        }
    }

    /// All samplers, for sweeps and tests.
    pub const ALL: [RmatSampler; 2] = [RmatSampler::Faithful, RmatSampler::Linear];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_name_parse_roundtrip() {
        for k in GeneratorKind::ALL {
            assert_eq!(GeneratorKind::parse(k.name()), Some(k));
        }
        assert_eq!(GeneratorKind::parse("nope"), None);
    }

    #[test]
    fn build_produces_right_sizes() {
        let spec = GraphSpec::new(6, 4);
        for k in GeneratorKind::ALL {
            let g = k.build(spec, 7);
            let edges = g.edges();
            assert_eq!(edges.len() as u64, spec.num_edges(), "{}", k.name());
            assert!(
                edges
                    .iter()
                    .all(|e| e.u < spec.num_vertices() && e.v < spec.num_vertices()),
                "{} emitted out-of-range vertices",
                k.name()
            );
        }
    }

    #[test]
    fn parallel_equals_serial_for_all_kinds() {
        let spec = GraphSpec::new(7, 8);
        for k in GeneratorKind::ALL {
            let g = k.build(spec, 3);
            assert_eq!(g.edges(), g.edges_parallel(100), "{}", k.name());
        }
    }

    #[test]
    fn chunks_tile_the_stream() {
        let spec = GraphSpec::new(6, 4);
        for k in GeneratorKind::ALL {
            let g = k.build(spec, 11);
            let all = g.edges();
            let m = spec.num_edges();
            let mut tiled = Vec::new();
            let mut lo = 0;
            while lo < m {
                let hi = (lo + 37).min(m);
                tiled.extend(g.edges_chunk(lo, hi));
                lo = hi;
            }
            assert_eq!(tiled, all, "{}", k.name());
        }
    }

    #[test]
    fn chunk_ranges_tile_exactly() {
        for (lo, hi, chunk) in [(0, 10, 4), (0, 10, 10), (0, 10, 100), (3, 17, 5), (7, 7, 1)] {
            let ranges: Vec<(u64, u64)> = chunk_ranges(lo, hi, chunk).collect();
            // Consecutive, non-empty, exactly covering lo..hi.
            let mut at = lo;
            for &(a, b) in &ranges {
                assert_eq!(a, at, "{lo}..{hi} by {chunk}");
                assert!(b > a && b - a <= chunk, "{lo}..{hi} by {chunk}");
                at = b;
            }
            assert_eq!(at, hi.max(lo), "{lo}..{hi} by {chunk}");
            if lo == hi {
                assert!(ranges.is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn chunk_ranges_reject_zero_chunk() {
        let _ = chunk_ranges(0, 5, 0).count();
    }
}
