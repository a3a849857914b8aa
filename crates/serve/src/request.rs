//! Translating a `POST /runs` JSON body into a [`PipelineConfig`].
//!
//! Unknown fields are rejected (a typoed knob silently falling back to its
//! default would corrupt a benchmark comparison), and builder invariants
//! are checked here with proper errors instead of letting the builder
//! panic inside a worker.

use ppbench_core::json::Json;
use ppbench_core::{DanglingStrategy, PipelineConfig, ValidationLevel, Variant, Workload};
use ppbench_gen::{GeneratorKind, RmatSampler};
use ppbench_sort::SortKey;

/// Fields `POST /runs` accepts, mirroring `PipelineConfig` one to one —
/// except `input_tsv`, which is deliberately not exposed: letting HTTP
/// clients name server-side paths would be a file-disclosure hazard, so
/// TSV ingestion stays a CLI/library feature.
pub const ACCEPTED_FIELDS: [&str; 19] = [
    "add_diagonal_to_empty",
    "convergence_tolerance",
    "damping",
    "dangling",
    "edge_factor",
    "fused",
    "gen",
    "generator",
    "iterations",
    "num_files",
    "permute_vertices",
    "scale",
    "seed",
    "shuffle_edges",
    "sort_budget_bytes",
    "sort_key",
    "validation",
    "variant",
    "workload",
];

/// Builds a [`PipelineConfig`] from a parsed JSON object. Every field is
/// optional; omitted fields keep the spec defaults. Returns a
/// human-readable message on the first problem found.
pub fn config_from_json(body: &Json) -> Result<PipelineConfig, String> {
    if !matches!(body, Json::Object(_)) {
        return Err("request body must be a JSON object".to_string());
    }
    for key in body.keys() {
        if !ACCEPTED_FIELDS.contains(&key) {
            return Err(format!(
                "unknown field {key:?}; accepted fields: {}",
                ACCEPTED_FIELDS.join(", ")
            ));
        }
    }

    let u64_field = |name: &str| -> Result<Option<u64>, String> {
        match body.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("{name} must be a non-negative integer")),
        }
    };
    let f64_field = |name: &str| -> Result<Option<f64>, String> {
        match body.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_f64()
                .filter(|f| f.is_finite())
                .map(Some)
                .ok_or_else(|| format!("{name} must be a finite number")),
        }
    };
    let bool_field = |name: &str| -> Result<Option<bool>, String> {
        match body.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_bool()
                .map(Some)
                .ok_or_else(|| format!("{name} must be a boolean")),
        }
    };
    let str_field = |name: &str| -> Result<Option<&str>, String> {
        match body.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| format!("{name} must be a string")),
        }
    };

    let mut b = PipelineConfig::builder();
    let scale = u64_field("scale")?;
    if let Some(scale) = scale {
        // GraphSpec::new panics for scale >= 58 (generator index
        // arithmetic); mirror its limit here as a proper error.
        if scale > 57 {
            return Err("scale must be at most 57".to_string());
        }
        b = b.scale(scale as u32);
    }
    let edge_factor = u64_field("edge_factor")?;
    if let Some(k) = edge_factor {
        if k == 0 {
            return Err("edge_factor must be at least 1".to_string());
        }
        b = b.edge_factor(k);
    }
    // The combination must also be representable: GraphSpec::new panics
    // when 2^scale * edge_factor overflows u64. Omitted fields take the
    // builder defaults (scale 16, edge factor 16).
    let eff_scale = scale.unwrap_or(16) as u32;
    let eff_factor = edge_factor.unwrap_or(ppbench_gen::DEFAULT_EDGE_FACTOR);
    if (1u64 << eff_scale).checked_mul(eff_factor).is_none() {
        return Err(format!(
            "2^{eff_scale} vertices x edge_factor {eff_factor} overflows the edge count"
        ));
    }
    if let Some(seed) = u64_field("seed")? {
        b = b.seed(seed);
    }
    if let Some(n) = u64_field("num_files")? {
        if n == 0 {
            return Err("num_files must be at least 1".to_string());
        }
        b = b.num_files(n as usize);
    }
    if let Some(name) = str_field("generator")? {
        let g = GeneratorKind::parse(name).ok_or_else(|| {
            format!("unknown generator {name:?} (kronecker, ppl, erdos-renyi, bter)")
        })?;
        b = b.generator(g);
    }
    if let Some(name) = str_field("gen")? {
        let g = RmatSampler::parse(name)
            .ok_or_else(|| format!("unknown gen {name:?} (faithful, linear)"))?;
        b = b.gen(g);
    }
    if let Some(on) = bool_field("permute_vertices")? {
        b = b.permute_vertices(on);
    }
    if let Some(on) = bool_field("shuffle_edges")? {
        b = b.shuffle_edges(on);
    }
    if let Some(name) = str_field("variant")? {
        let v = Variant::parse(name).ok_or_else(|| {
            format!(
                "unknown variant {name:?} ({})",
                Variant::ALL.map(|v| v.name()).join(", ")
            )
        })?;
        b = b.variant(v);
    }
    if let Some(name) = str_field("sort_key")? {
        b = b.sort_key(match name {
            "start" => SortKey::Start,
            "start-end" => SortKey::StartEnd,
            other => return Err(format!("unknown sort_key {other:?} (start, start-end)")),
        });
    }
    if let Some(budget) = u64_field("sort_budget_bytes")? {
        b = b.sort_budget_bytes(budget);
    }
    if let Some(on) = bool_field("add_diagonal_to_empty")? {
        b = b.add_diagonal_to_empty(on);
    }
    if let Some(on) = bool_field("fused")? {
        b = b.fused(on);
    }
    if let Some(c) = f64_field("damping")? {
        if !(c > 0.0 && c < 1.0) {
            return Err("damping must lie strictly between 0 and 1".to_string());
        }
        b = b.damping(c);
    }
    if let Some(n) = u64_field("iterations")? {
        if n == 0 || n > u32::MAX as u64 {
            return Err("iterations must be between 1 and 2^32-1".to_string());
        }
        b = b.iterations(n as u32);
    }
    if let Some(name) = str_field("dangling")? {
        let d = DanglingStrategy::parse(name).ok_or_else(|| {
            format!("unknown dangling strategy {name:?} (omit, redistribute, sink)")
        })?;
        b = b.dangling(d);
    }
    if let Some(tol) = f64_field("convergence_tolerance")? {
        if tol <= 0.0 {
            return Err("convergence_tolerance must be positive".to_string());
        }
        b = b.convergence_tolerance(tol);
    }
    if let Some(name) = str_field("workload")? {
        let w = Workload::parse(name).ok_or_else(|| {
            format!(
                "unknown workload {name:?} ({})",
                Workload::ALL.map(|w| w.name()).join(", ")
            )
        })?;
        b = b.workload(w);
    }
    if let Some(name) = str_field("validation")? {
        b = b.validation(match name {
            "none" => ValidationLevel::None,
            "invariants" => ValidationLevel::Invariants,
            "eigen" | "eigenvector" => ValidationLevel::Eigenvector,
            other => {
                return Err(format!(
                    "unknown validation level {other:?} (none, invariants, eigen)"
                ))
            }
        });
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Result<PipelineConfig, String> {
        config_from_json(&Json::parse(body).expect("test body is valid JSON"))
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
        let cfg = parse(
            r#"{
                "scale": 10, "edge_factor": 8, "seed": 42, "num_files": 2,
                "generator": "ppl", "permute_vertices": false,
                "shuffle_edges": true, "variant": "naive",
                "sort_key": "start-end", "sort_budget_bytes": 5000,
                "add_diagonal_to_empty": true, "damping": 0.9,
                "iterations": 5, "dangling": "sink",
                "convergence_tolerance": 1e-9, "validation": "eigen",
                "fused": true, "gen": "linear"
            }"#,
        )
        .unwrap();
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
