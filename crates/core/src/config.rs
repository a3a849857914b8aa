//! Pipeline configuration.
//!
//! Every knob the benchmark specification exposes — plus every option the
//! paper's §V "community feedback" list raises — lives here, so a single
//! config value describes a run completely and two runs with equal configs
//! are bit-identical (up to the floating-point reassociation of the
//! parallel backend).

use std::path::PathBuf;

use ppbench_gen::{GeneratorKind, GraphSpec, RmatSampler};
use ppbench_sort::SortKey;

use crate::backend::Variant;
use crate::json::Json;
use crate::kernel3::{DanglingStrategy, PageRankOptions};
use crate::workload::Workload;
use crate::{Error, Result, DAMPING, ITERATIONS};

/// The one canonical key [`PipelineConfig::from_json`] refuses. A config
/// decoded from outside input must not name a path on the host that runs
/// it — an HTTP client could use it to probe the server's filesystem — so
/// TSV ingestion stays a CLI and library feature: callers that may read
/// local files set `input_tsv` on the decoded config themselves.
pub const LOCAL_ONLY_FIELD: &str = "input_tsv";

/// How much checking the pipeline performs after the kernels finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationLevel {
    /// No validation (pure benchmark timing).
    None,
    /// Cheap invariants: digests between kernels, adjacency mass, row
    /// stochasticity, rank-vector sanity. The default.
    #[default]
    Invariants,
    /// Invariants plus the paper's eigenvector check: compare kernel 3's
    /// output against the dominant eigenvector of `c·Aᵀ + (1−c)/N·𝟙`
    /// computed by matrix-free power iteration.
    Eigenvector,
}

impl ValidationLevel {
    /// Every level, cheapest first.
    pub const ALL: [ValidationLevel; 3] = [
        ValidationLevel::None,
        ValidationLevel::Invariants,
        ValidationLevel::Eigenvector,
    ];

    /// Stable name used in canonical configs, the JSON config codec and
    /// `pprank --validate`.
    pub fn name(self) -> &'static str {
        match self {
            ValidationLevel::None => "none",
            ValidationLevel::Invariants => "invariants",
            ValidationLevel::Eigenvector => "eigen",
        }
    }

    /// Parses a [`ValidationLevel::name`], also accepting `eigenvector`
    /// for `eigen`; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "eigenvector" => Some(ValidationLevel::Eigenvector),
            _ => Self::ALL.into_iter().find(|l| l.name() == s),
        }
    }
}

/// Complete description of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Graph size: scale and edge factor.
    pub spec: GraphSpec,
    /// Master seed; all randomness (generation, permutations, PageRank
    /// init) derives from it deterministically.
    pub seed: u64,
    /// Number of files kernel 0 and kernel 1 write (the spec's free
    /// parameter).
    pub num_files: usize,
    /// Which generator kernel 0 uses (§V: "should a more deterministic
    /// generator be used?").
    pub generator: GeneratorKind,
    /// Which R-MAT sampling algorithm realizes the Kronecker generator:
    /// the faithful Graph500 coin-flip port or the linear-work block
    /// sampler. The two emit different (equally distributed) streams for
    /// the same seed, so the choice is canonical-hash-bearing. Ignored by
    /// non-Kronecker generators.
    pub gen: RmatSampler,
    /// Whether kernel 0 permutes vertex labels (Graph500's `randperm(N)`).
    pub permute_vertices: bool,
    /// Whether kernel 0 shuffles edge order (Graph500's `randperm(M)`).
    pub shuffle_edges: bool,
    /// Which implementation style runs the kernels.
    pub variant: Variant,
    /// Sort key for kernel 1 (§V: "should the end vertices also be
    /// sorted?").
    pub sort_key: SortKey,
    /// In-memory budget for kernel 1 in **bytes** (16 bytes per resident
    /// edge); when the input's footprint exceeds it the out-of-core
    /// pipelined external sorter is used instead. `None` = always in
    /// memory.
    pub sort_budget_bytes: Option<u64>,
    /// §V option: add a diagonal entry to empty rows/columns so the chain
    /// has no dangling states.
    pub add_diagonal_to_empty: bool,
    /// PageRank damping factor (`c`, 0.85 in the spec).
    pub damping: f64,
    /// Number of PageRank iterations (20 in the spec).
    pub iterations: u32,
    /// Dangling-row treatment in kernel 3 (the spec omits the correction;
    /// the appendix names the alternatives).
    pub dangling: DanglingStrategy,
    /// Optional convergence tolerance: stop kernel 3 early once the L1
    /// change per iteration drops below it (the "real application" mode
    /// §IV.D describes before fixing the iteration count).
    pub convergence_tolerance: Option<f64>,
    /// Post-run validation level.
    pub validation: ValidationLevel,
    /// What runs in the kernel-3 slot: the spec's PageRank (default) or
    /// one of the GAP-style analytics workloads.
    pub workload: Workload,
    /// Optional on-disk TSV edge list to ingest in place of the kernel-0
    /// generator; kernels 1–3 run unchanged on the ingested data.
    pub input_tsv: Option<PathBuf>,
    /// Fuse kernels 1 and 2: build the CSR directly from the sorted-run
    /// merge stream instead of materializing the sorted edge files. The
    /// resulting matrix and filter statistics are bit-identical to the
    /// staged path; only the data movement differs.
    pub fused: bool,
}

impl PipelineConfig {
    /// Starts a builder with the spec's defaults.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder::default()
    }

    /// The kernel-3 options implied by this configuration.
    pub fn pagerank_options(&self) -> PageRankOptions {
        PageRankOptions {
            damping: self.damping,
            max_iterations: self.iterations,
            dangling: self.dangling,
            tolerance: self.convergence_tolerance,
        }
    }

    /// Every field as a canonical `(key, value)` pair, sorted by key.
    ///
    /// This is the identity of a run for caching purposes: two configs
    /// with equal canonical fields produce bit-identical results (up to the
    /// floating-point reassociation of the parallel backend). Floats are
    /// rendered via their IEEE-754 bit patterns so the encoding is exact,
    /// and the fixed key sort makes the form independent of the order in
    /// which a caller (builder chain, JSON body, CLI flags) supplied the
    /// fields.
    pub fn canonical_fields(&self) -> Vec<(&'static str, String)> {
        let f64_bits = |v: f64| format!("f64:{:016x}", v.to_bits());
        let mut fields = vec![
            (
                "add_diagonal_to_empty",
                self.add_diagonal_to_empty.to_string(),
            ),
            (
                "convergence_tolerance",
                self.convergence_tolerance
                    .map_or_else(|| "none".to_string(), f64_bits),
            ),
            ("damping", f64_bits(self.damping)),
            ("dangling", self.dangling.name().to_string()),
            ("edge_factor", self.spec.edge_factor().to_string()),
            ("fused", self.fused.to_string()),
            ("gen", self.gen.name().to_string()),
            ("generator", self.generator.name().to_string()),
            ("iterations", self.iterations.to_string()),
            ("num_files", self.num_files.to_string()),
            ("permute_vertices", self.permute_vertices.to_string()),
            ("scale", self.spec.scale().to_string()),
            ("seed", self.seed.to_string()),
            ("shuffle_edges", self.shuffle_edges.to_string()),
            ("sort_key", self.sort_key.name().to_string()),
            (
                "sort_budget_bytes",
                self.sort_budget_bytes
                    .map_or_else(|| "none".to_string(), |b| b.to_string()),
            ),
            ("validation", self.validation.name().to_string()),
            ("variant", self.variant.name().to_string()),
            ("workload", self.workload.name().to_string()),
            (
                LOCAL_ONLY_FIELD,
                self.input_tsv
                    .as_ref()
                    .map_or_else(|| "none".to_string(), |p| p.display().to_string()),
            ),
        ];
        fields.sort_by_key(|(k, _)| *k);
        fields
    }

    /// Decodes a config from a JSON object keyed like
    /// [`canonical_fields`](Self::canonical_fields), minus
    /// [`LOCAL_ONLY_FIELD`], with the value names `canonical_fields`
    /// prints. Every key is optional; absent and `null` keys keep the
    /// builder defaults.
    ///
    /// This is the one checker for outside input (`POST /runs` bodies,
    /// `pprank` flags): unknown keys, wrong JSON types, unknown names, and
    /// every value the builder or the generator would panic on or that
    /// could never run are an [`Error::Config`], never a panic. An unknown
    /// key is rejected rather than ignored, since a typoed knob silently
    /// falling back to its default would corrupt a benchmark comparison.
    pub fn from_json(body: &Json) -> Result<PipelineConfig> {
        let bad = |msg: String| Error::Config(msg);
        let Json::Object(members) = body else {
            return Err(bad("config must be a JSON object".to_string()));
        };
        let accepted: Vec<&str> = Self::builder()
            .build()
            .canonical_fields()
            .into_iter()
            .map(|(key, _)| key)
            .filter(|&key| key != LOCAL_ONLY_FIELD)
            .collect();
        let unknown = |key: &str| {
            bad(format!(
                "unknown field {key:?}; accepted fields: {}",
                accepted.join(", ")
            ))
        };
        if let Some(key) = members.keys().find(|k| !accepted.contains(&k.as_str())) {
            return Err(unknown(key));
        }

        let mut b = Self::builder();
        for (key, v) in members.iter().filter(|(_, v)| **v != Json::Null) {
            let key = key.as_str();
            b = match key {
                "add_diagonal_to_empty" => b.add_diagonal_to_empty(bool_of(key, v)?),
                "convergence_tolerance" => match f64_of(key, v)? {
                    tol if tol > 0.0 => b.convergence_tolerance(tol),
                    _ => return Err(bad(format!("{key} must be positive"))),
                },
                "damping" => match f64_of(key, v)? {
                    c if c > 0.0 && c < 1.0 => b.damping(c),
                    _ => return Err(bad(format!("{key} must lie strictly between 0 and 1"))),
                },
                "dangling" => b.dangling(named(
                    key,
                    v,
                    &DanglingStrategy::ALL,
                    DanglingStrategy::name,
                    DanglingStrategy::parse,
                )?),
                "edge_factor" => match u64_of(key, v)? {
                    0 => return Err(bad(format!("{key} must be at least 1"))),
                    k => b.edge_factor(k),
                },
                "fused" => b.fused(bool_of(key, v)?),
                "gen" => b.gen(named(
                    key,
                    v,
                    &RmatSampler::ALL,
                    RmatSampler::name,
                    RmatSampler::parse,
                )?),
                "generator" => b.generator(named(
                    key,
                    v,
                    &GeneratorKind::ALL,
                    GeneratorKind::name,
                    GeneratorKind::parse,
                )?),
                "iterations" => match u32::try_from(u64_of(key, v)?) {
                    Ok(n) if n >= 1 => b.iterations(n),
                    _ => return Err(bad(format!("{key} must be between 1 and 2^32-1"))),
                },
                "num_files" => match u64_of(key, v)? {
                    0 => return Err(bad(format!("{key} must be at least 1"))),
                    n => b.num_files(usize::try_from(n).unwrap_or(usize::MAX)),
                },
                "permute_vertices" => b.permute_vertices(bool_of(key, v)?),
                // GraphSpec::new panics for scale >= 58 (generator index
                // arithmetic).
                "scale" => match u64_of(key, v)? {
                    s if s <= 57 => b.scale(s as u32),
                    _ => return Err(bad(format!("{key} must be at most 57"))),
                },
                "seed" => b.seed(u64_of(key, v)?),
                "shuffle_edges" => b.shuffle_edges(bool_of(key, v)?),
                "sort_budget_bytes" => b.sort_budget_bytes(u64_of(key, v)?),
                "sort_key" => {
                    b.sort_key(named(key, v, &SortKey::ALL, SortKey::name, SortKey::parse)?)
                }
                "validation" => b.validation(named(
                    key,
                    v,
                    &ValidationLevel::ALL,
                    ValidationLevel::name,
                    ValidationLevel::parse,
                )?),
                "variant" => {
                    b.variant(named(key, v, &Variant::ALL, Variant::name, Variant::parse)?)
                }
                "workload" => b.workload(named(
                    key,
                    v,
                    &Workload::ALL,
                    Workload::name,
                    Workload::parse,
                )?),
                _ => return Err(unknown(key)),
            };
        }

        // The combination must be representable too: GraphSpec::new
        // panics when 2^scale × edge_factor overflows u64.
        let Some(m) = (1u64 << b.scale).checked_mul(b.edge_factor) else {
            return Err(bad(format!(
                "2^{} vertices x edge_factor {} overflows the edge count",
                b.scale, b.edge_factor
            )));
        };
        // A file beyond the M-th could never hold an edge, and the edge
        // writer reserves a slot per file up front.
        if b.num_files as u64 > m {
            return Err(bad(format!(
                "num_files {} exceeds the graph's {m} edges",
                b.num_files
            )));
        }
        Ok(b.build())
    }

    /// Stable 64-bit hash of the canonical field list (FNV-1a over
    /// `key=value\n` lines). Equal configs hash equal regardless of how
    /// they were constructed; any changed field changes the hash.
    pub fn canonical_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for (key, value) in self.canonical_fields() {
            eat(key.as_bytes());
            eat(b"=");
            eat(value.as_bytes());
            eat(b"\n");
        }
        h
    }

    /// Human-readable one-line description.
    pub fn describe(&self) -> String {
        format!(
            "{} | seed {} | {} files | gen {} | backend {} | {} iter, c={}",
            self.spec,
            self.seed,
            self.num_files,
            self.generator.name(),
            self.variant.name(),
            self.iterations,
            self.damping,
        )
    }
}

fn u64_of(key: &str, v: &Json) -> Result<u64> {
    v.as_u64()
        .ok_or_else(|| Error::Config(format!("{key} must be a non-negative integer")))
}

fn f64_of(key: &str, v: &Json) -> Result<f64> {
    v.as_f64()
        .filter(|f| f.is_finite())
        .ok_or_else(|| Error::Config(format!("{key} must be a finite number")))
}

fn bool_of(key: &str, v: &Json) -> Result<bool> {
    v.as_bool()
        .ok_or_else(|| Error::Config(format!("{key} must be a boolean")))
}

/// Decodes an enum-valued field; an unknown name lists the accepted ones.
fn named<T: Copy>(
    key: &str,
    v: &Json,
    all: &[T],
    name: fn(T) -> &'static str,
    parse: fn(&str) -> Option<T>,
) -> Result<T> {
    let text = v
        .as_str()
        .ok_or_else(|| Error::Config(format!("{key} must be a string")))?;
    parse(text).ok_or_else(|| {
        let names: Vec<&str> = all.iter().map(|&t| name(t)).collect();
        Error::Config(format!("unknown {key} {text:?} ({})", names.join(", ")))
    })
}

/// Builder for [`PipelineConfig`]; every setter has a spec-conformant
/// default.
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    scale: u32,
    edge_factor: u64,
    seed: u64,
    num_files: usize,
    generator: GeneratorKind,
    gen: RmatSampler,
    permute_vertices: bool,
    shuffle_edges: bool,
    variant: Variant,
    sort_key: SortKey,
    sort_budget_bytes: Option<u64>,
    add_diagonal_to_empty: bool,
    damping: f64,
    iterations: u32,
    dangling: DanglingStrategy,
    convergence_tolerance: Option<f64>,
    validation: ValidationLevel,
    workload: Workload,
    input_tsv: Option<PathBuf>,
    fused: bool,
}

impl Default for PipelineConfigBuilder {
    fn default() -> Self {
        Self {
            scale: 16,
            edge_factor: ppbench_gen::DEFAULT_EDGE_FACTOR,
            seed: 1,
            num_files: 1,
            generator: GeneratorKind::Kronecker,
            gen: RmatSampler::Faithful,
            permute_vertices: true,
            shuffle_edges: false,
            variant: Variant::Optimized,
            sort_key: SortKey::Start,
            sort_budget_bytes: None,
            add_diagonal_to_empty: false,
            damping: DAMPING,
            iterations: ITERATIONS,
            dangling: DanglingStrategy::Omit,
            convergence_tolerance: None,
            validation: ValidationLevel::Invariants,
            workload: Workload::PageRank,
            input_tsv: None,
            fused: false,
        }
    }
}

impl PipelineConfigBuilder {
    /// Sets the Graph500 scale factor `S` (N = 2^S).
    pub fn scale(mut self, scale: u32) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the edges-per-vertex factor `k` (spec default 16).
    pub fn edge_factor(mut self, k: u64) -> Self {
        self.edge_factor = k;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how many files kernels 0 and 1 write.
    pub fn num_files(mut self, n: usize) -> Self {
        self.num_files = n;
        self
    }

    /// Selects the kernel-0 generator.
    pub fn generator(mut self, g: GeneratorKind) -> Self {
        self.generator = g;
        self
    }

    /// Selects the R-MAT sampling algorithm (faithful coin flips or the
    /// linear-work block sampler) for the Kronecker generator.
    pub fn gen(mut self, s: RmatSampler) -> Self {
        self.gen = s;
        self
    }

    /// Toggles the kernel-0 vertex-label permutation.
    pub fn permute_vertices(mut self, on: bool) -> Self {
        self.permute_vertices = on;
        self
    }

    /// Toggles the kernel-0 edge-order shuffle.
    pub fn shuffle_edges(mut self, on: bool) -> Self {
        self.shuffle_edges = on;
        self
    }

    /// Selects the implementation variant.
    pub fn variant(mut self, v: Variant) -> Self {
        self.variant = v;
        self
    }

    /// Selects the kernel-1 sort key.
    pub fn sort_key(mut self, k: SortKey) -> Self {
        self.sort_key = k;
        self
    }

    /// Caps kernel 1's in-memory buffer at `bytes` (16 bytes per resident
    /// edge), forcing the out-of-core path beyond it.
    pub fn sort_budget_bytes(mut self, bytes: u64) -> Self {
        self.sort_budget_bytes = Some(bytes);
        self
    }

    /// Enables the §V dangling-node diagonal repair in kernel 2.
    pub fn add_diagonal_to_empty(mut self, on: bool) -> Self {
        self.add_diagonal_to_empty = on;
        self
    }

    /// Overrides the damping factor.
    pub fn damping(mut self, c: f64) -> Self {
        self.damping = c;
        self
    }

    /// Overrides the PageRank iteration count.
    pub fn iterations(mut self, n: u32) -> Self {
        self.iterations = n;
        self
    }

    /// Selects the dangling-row strategy for kernel 3.
    pub fn dangling(mut self, d: DanglingStrategy) -> Self {
        self.dangling = d;
        self
    }

    /// Enables convergence-test stopping for kernel 3.
    pub fn convergence_tolerance(mut self, tol: f64) -> Self {
        self.convergence_tolerance = Some(tol);
        self
    }

    /// Sets the validation level.
    pub fn validation(mut self, v: ValidationLevel) -> Self {
        self.validation = v;
        self
    }

    /// Selects the kernel-3-slot workload (PageRank or a GAP analytic).
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload = w;
        self
    }

    /// Feeds kernels 1–3 from an on-disk TSV edge list instead of the
    /// kernel-0 generator.
    pub fn input_tsv(mut self, path: impl Into<PathBuf>) -> Self {
        self.input_tsv = Some(path.into());
        self
    }

    /// Fuses kernels 1 and 2 into a single streaming pass (CSR built
    /// straight from the sorted-run merge; bit-identical output).
    pub fn fused(mut self, on: bool) -> Self {
        self.fused = on;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical values (zero files, damping outside (0, 1),
    /// zero iterations) — these are programming errors, not runtime data.
    pub fn build(self) -> PipelineConfig {
        assert!(self.num_files >= 1, "num_files must be at least 1");
        assert!(
            self.damping > 0.0 && self.damping < 1.0,
            "damping must lie strictly between 0 and 1"
        );
        assert!(
            self.iterations >= 1,
            "at least one PageRank iteration required"
        );
        PipelineConfig {
            spec: GraphSpec::new(self.scale, self.edge_factor),
            seed: self.seed,
            num_files: self.num_files,
            generator: self.generator,
            gen: self.gen,
            permute_vertices: self.permute_vertices,
            shuffle_edges: self.shuffle_edges,
            variant: self.variant,
            sort_key: self.sort_key,
            sort_budget_bytes: self.sort_budget_bytes,
            add_diagonal_to_empty: self.add_diagonal_to_empty,
            damping: self.damping,
            iterations: self.iterations,
            dangling: self.dangling,
            convergence_tolerance: self.convergence_tolerance,
            validation: self.validation,
            workload: self.workload,
            input_tsv: self.input_tsv,
            fused: self.fused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_spec() {
        let cfg = PipelineConfig::builder().build();
        assert_eq!(cfg.spec.scale(), 16);
        assert_eq!(cfg.spec.edge_factor(), 16);
        assert_eq!(cfg.damping, 0.85);
        assert_eq!(cfg.iterations, 20);
        assert_eq!(cfg.sort_key, SortKey::Start);
        assert!(cfg.permute_vertices);
        assert!(!cfg.shuffle_edges);
        assert!(!cfg.add_diagonal_to_empty);
        assert_eq!(cfg.workload, Workload::PageRank);
        assert_eq!(cfg.gen, RmatSampler::Faithful);
        assert!(cfg.input_tsv.is_none());
        assert!(!cfg.fused);
    }

    #[test]
    fn workloads_never_share_a_cache_identity() {
        // The serve cache keys on canonical_hash; a BFS run and a PageRank
        // run over the same graph config must never collide.
        let hashes: Vec<u64> = Workload::ALL
            .iter()
            .map(|&w| {
                PipelineConfig::builder()
                    .scale(9)
                    .seed(7)
                    .workload(w)
                    .build()
                    .canonical_hash()
            })
            .collect();
        let unique: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(unique.len(), Workload::ALL.len());
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = PipelineConfig::builder()
            .scale(8)
            .edge_factor(4)
            .seed(99)
            .num_files(3)
            .variant(Variant::Naive)
            .sort_key(SortKey::StartEnd)
            .sort_budget_bytes(1000)
            .add_diagonal_to_empty(true)
            .damping(0.9)
            .iterations(5)
            .validation(ValidationLevel::Eigenvector)
            .build();
        assert_eq!(cfg.spec.num_vertices(), 256);
        assert_eq!(cfg.spec.num_edges(), 1024);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.num_files, 3);
        assert_eq!(cfg.variant, Variant::Naive);
        assert_eq!(cfg.sort_key, SortKey::StartEnd);
        assert_eq!(cfg.sort_budget_bytes, Some(1000));
        assert!(cfg.add_diagonal_to_empty);
        assert_eq!(cfg.damping, 0.9);
        assert_eq!(cfg.iterations, 5);
        assert_eq!(cfg.validation, ValidationLevel::Eigenvector);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn damping_must_be_in_unit_interval() {
        let _ = PipelineConfig::builder().damping(1.0).build();
    }

    #[test]
    #[should_panic(expected = "num_files")]
    fn zero_files_rejected() {
        let _ = PipelineConfig::builder().num_files(0).build();
    }

    #[test]
    fn canonical_hash_is_setter_order_independent() {
        let a = PipelineConfig::builder().scale(9).seed(7).build();
        let b = PipelineConfig::builder().seed(7).scale(9).build();
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        assert_eq!(a.canonical_fields(), b.canonical_fields());
    }

    #[test]
    fn canonical_fields_are_sorted_and_complete() {
        let fields = PipelineConfig::builder().build().canonical_fields();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "keys must come out sorted");
        assert_eq!(keys.len(), 20, "one entry per PipelineConfig field");
    }

    #[test]
    fn canonical_hash_distinguishes_every_axis() {
        let base = || PipelineConfig::builder().scale(9).seed(7);
        let reference = base().build().canonical_hash();
        let variations = [
            base().scale(10).build(),
            base().seed(8).build(),
            base().edge_factor(4).build(),
            base().num_files(2).build(),
            base().variant(Variant::Naive).build(),
            base().generator(GeneratorKind::PerfectPowerLaw).build(),
            base().gen(RmatSampler::Linear).build(),
            base().sort_key(SortKey::StartEnd).build(),
            base().sort_budget_bytes(100).build(),
            base().add_diagonal_to_empty(true).build(),
            base().damping(0.9).build(),
            base().iterations(10).build(),
            base().dangling(DanglingStrategy::Sink).build(),
            base().convergence_tolerance(1e-9).build(),
            base().permute_vertices(false).build(),
            base().shuffle_edges(true).build(),
            base().validation(ValidationLevel::None).build(),
            base().workload(Workload::Bfs).build(),
            base().input_tsv("/tmp/edges.tsv").build(),
            base().fused(true).build(),
        ];
        let mut hashes: Vec<u64> = variations.iter().map(|c| c.canonical_hash()).collect();
        hashes.push(reference);
        let unique: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(
            unique.len(),
            hashes.len(),
            "every axis must change the hash"
        );
    }

    #[test]
    fn describe_mentions_key_facts() {
        let d = PipelineConfig::builder().scale(5).build().describe();
        assert!(d.contains("scale 5"), "{d}");
        assert!(d.contains("optimized"), "{d}");
    }

    fn parse(body: &str) -> std::result::Result<PipelineConfig, String> {
        PipelineConfig::from_json(&Json::parse(body).expect("test body is valid JSON"))
            .map_err(|e| e.to_string())
    }

    /// Every key of [`PipelineConfig::from_json`] set away from its default.
    const ALL_FIELDS_BODY: &str = r#"{
        "scale": 10, "edge_factor": 8, "seed": 42, "num_files": 2,
        "generator": "ppl", "permute_vertices": false,
        "shuffle_edges": true, "variant": "naive",
        "sort_key": "start-end", "sort_budget_bytes": 5000,
        "add_diagonal_to_empty": true, "damping": 0.9,
        "iterations": 5, "dangling": "sink",
        "convergence_tolerance": 1e-9, "validation": "eigen",
        "fused": true, "gen": "linear"
    }"#;

    #[test]
    fn canonical_hashes_are_pinned() {
        // Serve's disk tier names result files by this hash, so moving a
        // value name or a key must never change it.
        let hex = |c: &PipelineConfig| format!("{:016x}", c.canonical_hash());
        assert_eq!(hex(&PipelineConfig::builder().build()), "7c91e96499d470e6");
        let all_axes = PipelineConfig::builder()
            .scale(10)
            .edge_factor(8)
            .seed(42)
            .num_files(2)
            .generator(GeneratorKind::PerfectPowerLaw)
            .permute_vertices(false)
            .shuffle_edges(true)
            .variant(Variant::Naive)
            .sort_key(SortKey::StartEnd)
            .sort_budget_bytes(5000)
            .add_diagonal_to_empty(true)
            .damping(0.9)
            .iterations(5)
            .dangling(DanglingStrategy::Sink)
            .convergence_tolerance(1e-9)
            .validation(ValidationLevel::Eigenvector)
            .fused(true)
            .gen(RmatSampler::Linear)
            .workload(Workload::Bfs)
            .build();
        assert_eq!(hex(&all_axes), "ff9bf3531b3eb8d8");
        let decoded = parse(&ALL_FIELDS_BODY.replace('}', r#", "workload": "bfs"}"#)).unwrap();
        assert_eq!(decoded.canonical_fields(), all_axes.canonical_fields());
    }

    /// One non-default JSON value per key `from_json` decodes.
    const NON_DEFAULT: [(&str, &str); 19] = [
        ("add_diagonal_to_empty", "true"),
        ("convergence_tolerance", "1e-9"),
        ("damping", "0.9"),
        ("dangling", r#""sink""#),
        ("edge_factor", "8"),
        ("fused", "true"),
        ("gen", r#""linear""#),
        ("generator", r#""ppl""#),
        ("iterations", "5"),
        ("num_files", "2"),
        ("permute_vertices", "false"),
        ("scale", "10"),
        ("seed", "42"),
        ("shuffle_edges", "true"),
        ("sort_budget_bytes", "5000"),
        ("sort_key", r#""start-end""#),
        ("validation", r#""eigen""#),
        ("variant", r#""naive""#),
        ("workload", r#""bfs""#),
    ];

    #[test]
    fn every_decodable_key_changes_exactly_its_canonical_field() {
        // The codec and the cache identity share one key set: each
        // canonical key but LOCAL_ONLY_FIELD decodes, and moves only the
        // canonical field of the same name.
        let default = PipelineConfig::builder().build();
        let defaults = default.canonical_fields();
        for (key, _) in defaults.iter().filter(|(k, _)| *k != LOCAL_ONLY_FIELD) {
            let (_, value) = NON_DEFAULT
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no non-default value for canonical key {key:?}"));
            let cfg = parse(&format!("{{{key:?}: {value}}}"))
                .unwrap_or_else(|e| panic!("{key} = {value} must decode: {e}"));
            let fields = cfg.canonical_fields();
            let changed: Vec<&str> = defaults
                .iter()
                .zip(&fields)
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a.0)
                .collect();
            assert_eq!(changed, [*key], "{key} = {value}");
            assert_ne!(cfg.canonical_hash(), default.canonical_hash(), "{key}");
        }
        assert_eq!(NON_DEFAULT.len(), defaults.len() - 1, "stale table entry");
    }

    #[test]
    fn value_names_match_the_canonical_strings() {
        for level in ValidationLevel::ALL {
            assert_eq!(ValidationLevel::parse(level.name()), Some(level));
        }
        assert_eq!(
            ValidationLevel::parse("eigenvector"),
            Some(ValidationLevel::Eigenvector)
        );
        let cfg = parse(r#"{"validation": "eigenvector"}"#).unwrap();
        let eigen = parse(r#"{"validation": "eigen"}"#).unwrap();
        assert_eq!(cfg.canonical_hash(), eigen.canonical_hash());
    }

    #[test]
    fn empty_object_gives_spec_defaults() {
        let cfg = parse("{}").unwrap();
        assert_eq!(cfg.spec.scale(), 16);
        assert_eq!(cfg.damping, 0.85);
        assert_eq!(cfg.iterations, 20);
    }

    #[test]
    fn all_fields_apply() {
        let cfg = parse(ALL_FIELDS_BODY).unwrap();
        assert_eq!(cfg.spec.scale(), 10);
        assert_eq!(cfg.spec.edge_factor(), 8);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.num_files, 2);
        assert_eq!(cfg.generator, GeneratorKind::PerfectPowerLaw);
        assert!(!cfg.permute_vertices);
        assert!(cfg.shuffle_edges);
        assert_eq!(cfg.variant, Variant::Naive);
        assert_eq!(cfg.sort_key, SortKey::StartEnd);
        assert_eq!(cfg.sort_budget_bytes, Some(5000));
        assert!(cfg.add_diagonal_to_empty);
        assert_eq!(cfg.damping, 0.9);
        assert_eq!(cfg.iterations, 5);
        assert_eq!(cfg.dangling, DanglingStrategy::Sink);
        assert_eq!(cfg.convergence_tolerance, Some(1e-9));
        assert_eq!(cfg.validation, ValidationLevel::Eigenvector);
        assert!(cfg.fused);
        assert_eq!(cfg.gen, RmatSampler::Linear);
    }

    #[test]
    fn gen_changes_the_cache_identity() {
        // The two samplers emit different streams for one seed, so a
        // linear run must never be served from a faithful run's cache slot.
        let linear = parse(r#"{"scale": 9, "gen": "linear"}"#).unwrap();
        let faithful = parse(r#"{"scale": 9, "gen": "faithful"}"#).unwrap();
        let default = parse(r#"{"scale": 9}"#).unwrap();
        assert_ne!(linear.canonical_hash(), faithful.canonical_hash());
        assert_eq!(
            faithful.canonical_hash(),
            default.canonical_hash(),
            "faithful is the default sampler"
        );
        let err = parse(r#"{"gen": "fast"}"#).unwrap_err();
        assert!(err.contains("faithful") && err.contains("linear"), "{err}");
        assert!(parse(r#"{"gen": 1}"#).is_err(), "must be a string");
    }

    #[test]
    fn fused_changes_the_cache_identity() {
        let fused = parse(r#"{"scale": 9, "fused": true}"#).unwrap();
        let staged = parse(r#"{"scale": 9}"#).unwrap();
        assert_ne!(
            fused.canonical_hash(),
            staged.canonical_hash(),
            "fused and staged runs report different timings and must not share a cache slot"
        );
        assert!(parse(r#"{"fused": "yes"}"#).is_err(), "must be a boolean");
    }

    #[test]
    fn unknown_field_is_rejected_with_the_field_list() {
        let err = parse(r#"{"scal": 10}"#).unwrap_err();
        assert!(err.contains("scal"), "{err}");
        assert!(err.contains("scale"), "{err}");
    }

    #[test]
    fn wrong_types_are_rejected() {
        assert!(parse(r#"{"scale": "big"}"#).is_err());
        assert!(parse(r#"{"scale": -1}"#).is_err());
        assert!(parse(r#"{"damping": "0.9"}"#).is_err());
        assert!(parse(r#"{"permute_vertices": 1}"#).is_err());
        assert!(parse("[1,2]").is_err());
    }

    #[test]
    fn builder_invariants_become_errors_not_panics() {
        assert!(parse(r#"{"damping": 1.0}"#)
            .unwrap_err()
            .contains("damping"));
        assert!(parse(r#"{"damping": 0.0}"#).is_err());
        assert!(parse(r#"{"iterations": 0}"#).is_err());
        assert!(parse(r#"{"num_files": 0}"#).is_err());
        assert!(parse(r#"{"edge_factor": 0}"#).is_err());
        assert!(parse(r#"{"convergence_tolerance": -1.0}"#).is_err());
    }

    #[test]
    fn generator_limits_become_errors_not_panics() {
        // GraphSpec::new panics for scale >= 58 and for edge counts that
        // overflow u64; both must surface as 400-able errors here.
        assert!(parse(r#"{"scale": 58}"#).unwrap_err().contains("57"));
        assert!(parse(r#"{"scale": 60}"#).is_err());
        assert!(parse(r#"{"scale": 64}"#).is_err());
        assert!(parse(r#"{"edge_factor": 1000000000000000000}"#)
            .unwrap_err()
            .contains("overflows"));
        // Each factor in range, product overflows: 2^57 * 1024 > 2^64.
        assert!(parse(r#"{"scale": 57, "edge_factor": 1024}"#)
            .unwrap_err()
            .contains("overflows"));
        // The documented maximum itself is accepted.
        let cfg = parse(r#"{"scale": 57, "edge_factor": 2}"#).unwrap();
        assert_eq!(cfg.spec.scale(), 57);
    }

    #[test]
    fn more_files_than_edges_is_an_error_not_an_allocation() {
        // The edge writer reserves a slot per file, so 2^40 files would
        // be a 32 TiB allocation; they must be refused before any run.
        let err = parse(r#"{"scale": 4, "num_files": 1099511627776}"#).unwrap_err();
        assert!(
            err.contains("num_files") && err.contains("256 edges"),
            "{err}"
        );
        // M = 2^4 x 1 = 16: one edge per file is the limit.
        let cfg = parse(r#"{"scale": 4, "edge_factor": 1, "num_files": 16}"#).unwrap();
        assert_eq!(cfg.num_files, 16);
        assert!(parse(r#"{"scale": 4, "edge_factor": 1, "num_files": 17}"#).is_err());
    }

    #[test]
    fn large_seeds_survive_json_parsing_exactly() {
        // 2^53 + 1 is not representable as f64; the parser must keep
        // integral values lossless so the run uses the exact seed.
        let cfg = parse(r#"{"scale": 10, "seed": 9007199254740993}"#).unwrap();
        assert_eq!(cfg.seed, 9_007_199_254_740_993);
        let cfg = parse(&format!("{{\"seed\": {}}}", u64::MAX)).unwrap();
        assert_eq!(cfg.seed, u64::MAX);
    }

    #[test]
    fn enum_names_match_the_cli() {
        assert!(parse(r#"{"variant": "fast"}"#)
            .unwrap_err()
            .contains("optimized"));
        assert!(parse(r#"{"generator": "r-mat"}"#).is_err());
        assert!(parse(r#"{"dangling": "drop"}"#).is_err());
        assert!(parse(r#"{"sort_key": "end"}"#).is_err());
        assert!(parse(r#"{"validation": "full"}"#).is_err());
    }

    #[test]
    fn workload_parses_and_unknown_names_get_a_diagnostic() {
        let cfg = parse(r#"{"scale": 9, "workload": "bfs"}"#).unwrap();
        assert_eq!(cfg.workload, Workload::Bfs);
        let cfg = parse("{}").unwrap();
        assert_eq!(cfg.workload, Workload::PageRank, "default stays PageRank");
        // An unknown workload must 400 with the accepted list, never
        // silently fall back to PageRank.
        let err = parse(r#"{"workload": "page-rank"}"#).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        for name in ["pagerank", "bfs", "cc", "sssp", "tc"] {
            assert!(err.contains(name), "{err} should list {name}");
        }
        assert!(parse(r#"{"workload": 3}"#).is_err(), "must be a string");
    }

    #[test]
    fn input_tsv_is_not_servable() {
        let err = parse(r#"{"input_tsv": "/etc/passwd"}"#).unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
        let (_, accepted) = err.split_once("accepted fields:").expect("lists the keys");
        assert!(!accepted.contains(LOCAL_ONLY_FIELD), "{err}");
    }

    #[test]
    fn workload_changes_the_cache_identity() {
        let bfs = parse(r#"{"scale": 9, "workload": "bfs"}"#).unwrap();
        let pr = parse(r#"{"scale": 9}"#).unwrap();
        assert_ne!(
            bfs.canonical_hash(),
            pr.canonical_hash(),
            "BFS and PageRank results for the same graph must never share a cache slot"
        );
    }

    #[test]
    fn field_order_does_not_change_the_config_hash() {
        let a = parse(r#"{"scale": 9, "seed": 7, "variant": "naive"}"#).unwrap();
        let b = parse(r#"{"variant": "naive", "seed": 7, "scale": 9}"#).unwrap();
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }
}
