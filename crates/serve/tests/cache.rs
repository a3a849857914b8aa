//! Result-cache correctness: canonical hashing as the cache key, hit
//! semantics (bit-identical ranks), and LRU eviction under the byte
//! budget — the service-level contract on top of the unit tests in
//! `src/cache.rs`.

use std::sync::Arc;
use std::time::Duration;

use ppbench_core::json::Json;
use ppbench_core::{DanglingStrategy, PipelineConfig, ValidationLevel, Variant};
use ppbench_gen::GeneratorKind;
use ppbench_serve::{config_from_json, JobState, ResultCache, RunSummary, Service, ServiceConfig};
use ppbench_sort::SortKey;

fn parse(body: &str) -> PipelineConfig {
    config_from_json(&Json::parse(body).unwrap()).unwrap()
}

#[test]
fn identical_configs_hash_identically_regardless_of_construction() {
    // Builder chain order, JSON field order, and defaults spelled out
    // explicitly must all canonicalize to the same hash.
    let built = PipelineConfig::builder()
        .scale(9)
        .seed(3)
        .variant(Variant::Naive)
        .build();
    let reordered = PipelineConfig::builder()
        .variant(Variant::Naive)
        .seed(3)
        .scale(9)
        .build();
    let from_json = parse(r#"{"variant": "naive", "scale": 9, "seed": 3}"#);
    let explicit_defaults = parse(
        r#"{"scale": 9, "seed": 3, "variant": "naive",
            "edge_factor": 16, "num_files": 1, "generator": "kronecker",
            "permute_vertices": true, "shuffle_edges": false,
            "sort_key": "start", "add_diagonal_to_empty": false,
            "damping": 0.85, "iterations": 20, "dangling": "omit",
            "validation": "invariants"}"#,
    );
    let reference = built.canonical_hash();
    assert_eq!(reference, reordered.canonical_hash());
    assert_eq!(reference, from_json.canonical_hash());
    assert_eq!(reference, explicit_defaults.canonical_hash());
}

#[test]
fn every_changed_field_changes_the_hash() {
    let base = r#"{"scale": 9, "seed": 3}"#;
    let reference = parse(base).canonical_hash();
    let variations = [
        r#"{"scale": 10, "seed": 3}"#,
        r#"{"scale": 9, "seed": 4}"#,
        r#"{"scale": 9, "seed": 3, "edge_factor": 8}"#,
        r#"{"scale": 9, "seed": 3, "variant": "dataframe"}"#,
        r#"{"scale": 9, "seed": 3, "generator": "bter"}"#,
        r#"{"scale": 9, "seed": 3, "sort_key": "start-end"}"#,
        r#"{"scale": 9, "seed": 3, "dangling": "redistribute"}"#,
        r#"{"scale": 9, "seed": 3, "damping": 0.9}"#,
        r#"{"scale": 9, "seed": 3, "iterations": 19}"#,
        r#"{"scale": 9, "seed": 3, "num_files": 2}"#,
        r#"{"scale": 9, "seed": 3, "permute_vertices": false}"#,
        r#"{"scale": 9, "seed": 3, "shuffle_edges": true}"#,
        r#"{"scale": 9, "seed": 3, "add_diagonal_to_empty": true}"#,
        r#"{"scale": 9, "seed": 3, "sort_budget_bytes": 1000}"#,
        r#"{"scale": 9, "seed": 3, "convergence_tolerance": 1e-9}"#,
        r#"{"scale": 9, "seed": 3, "validation": "none"}"#,
    ];
    let mut hashes: Vec<u64> = variations
        .iter()
        .map(|v| parse(v).canonical_hash())
        .collect();
    hashes.push(reference);
    let unique: std::collections::HashSet<u64> = hashes.iter().copied().collect();
    assert_eq!(unique.len(), hashes.len(), "every field must feed the hash");
}

#[test]
fn enum_axes_all_feed_the_hash() {
    let base = PipelineConfig::builder().scale(9);
    let mut hashes = std::collections::HashSet::new();
    for variant in Variant::ALL {
        assert!(hashes.insert(base.clone().variant(variant).build().canonical_hash()));
    }
    for generator in GeneratorKind::ALL {
        hashes.insert(base.clone().generator(generator).build().canonical_hash());
    }
    for dangling in [
        DanglingStrategy::Omit,
        DanglingStrategy::Redistribute,
        DanglingStrategy::Sink,
    ] {
        hashes.insert(base.clone().dangling(dangling).build().canonical_hash());
    }
    for sort_key in [SortKey::Start, SortKey::StartEnd] {
        hashes.insert(base.clone().sort_key(sort_key).build().canonical_hash());
    }
    for validation in [
        ValidationLevel::None,
        ValidationLevel::Invariants,
        ValidationLevel::Eigenvector,
    ] {
        hashes.insert(base.clone().validation(validation).build().canonical_hash());
    }
    // 5 variants + 3 extra generators + 2 extra dangling + 1 extra sort key
    // + 2 extra validation levels (the defaults collapse into the variant
    // loop's entries).
    assert_eq!(hashes.len(), 13, "distinct settings must hash distinctly");
}

#[test]
fn cache_hit_returns_bit_identical_ranks_through_the_service() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 4,
        cache_bytes: 4 << 20,
        max_scale: 10,
        max_terminal_jobs: 64,
        work_root: std::env::temp_dir().join(format!("ppbench-cache-e2e-{}", std::process::id())),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let config = || {
        PipelineConfig::builder()
            .scale(7)
            .edge_factor(4)
            .seed(11)
            .build()
    };
    let first = service.submit(config()).unwrap();
    assert!(!first.cached);
    let first_job = service
        .wait(first.id, Duration::from_secs(60))
        .expect("run finishes");
    assert_eq!(first_job.state, JobState::Done);

    let second = service.submit(config()).unwrap();
    assert!(second.cached, "identical config must hit the cache");
    let second_job = service.job(second.id).unwrap();
    assert_eq!(
        second_job.state,
        JobState::Done,
        "cache hit is immediately done"
    );

    let a = first_job.summary.unwrap();
    let b = second_job.summary.unwrap();
    assert!(
        Arc::ptr_eq(&a, &b),
        "the cache returns the stored summary itself"
    );
    assert_eq!(a.ranks.len(), 128);
    assert!(
        a.ranks
            .iter()
            .zip(&b.ranks)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "cached ranks are bit-identical by construction"
    );
}

#[test]
fn lru_eviction_respects_byte_budget_under_churn() {
    fn summary(rank_count: usize) -> Arc<RunSummary> {
        Arc::new(RunSummary {
            record: ppbench_core::RunRecord {
                variant: "optimized".to_string(),
                workload: "pagerank".to_string(),
                scale: 10,
                edges: 1 << 13,
                kernels: [Some((0.1, 8192.0)); 4],
                validation_passed: Some(true),
                threads: None,
                checksum: None,
            },
            ranks: vec![0.125; rank_count],
            total_seconds: 0.5,
        })
    }
    let entry_bytes = summary(1024).approx_bytes();
    let mut cache = ResultCache::new(entry_bytes * 4);
    for hash in 0..100u64 {
        cache.insert(hash, summary(1024));
        assert!(
            cache.used_bytes() <= cache.budget_bytes(),
            "budget violated after insert {hash}: {} > {}",
            cache.used_bytes(),
            cache.budget_bytes()
        );
    }
    assert_eq!(cache.len(), 4, "exactly budget/entry_size entries survive");
    // The survivors are the most recently inserted.
    for hash in 96..100 {
        assert!(cache.contains(hash), "hash {hash} should have survived");
    }
    assert!(!cache.contains(0));

    // Touching an old entry protects it from the next eviction.
    assert!(cache.get(96).is_some());
    cache.insert(1000, summary(1024));
    assert!(cache.contains(96), "recently touched entry survives");
    assert!(!cache.contains(97), "the actual LRU entry was evicted");
}
