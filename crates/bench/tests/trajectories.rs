//! The five `BENCH_*.json` trajectories through the one table module:
//! the renderer reproduces the per-sweep emitters it replaced byte for
//! byte, the checker rejects drift in every sweep, the text table heads
//! its columns with the row keys, every sweep point's config is the
//! header's config fields, and the committed trajectories pass their
//! checks.

use std::path::Path;

use ppbench_bench::table::{self, Rate, Sweep};
use ppbench_bench::{algo, k01, k3, pipe, serve};
use ppbench_core::json::Json;
use ppbench_gen::RmatSampler;

/// One sweep rendered from a fixed config and row.
struct Case {
    file: &'static str,
    doc: String,
    no_rows: String,
    table: String,
    /// What the sweep's own emitter printed for the same config and row
    /// before the table module replaced it.
    golden: &'static str,
    check: fn(&str) -> Result<(), String>,
    rates: &'static [Rate],
}

fn case<S: Sweep>(sweep: S, row: S::Row, golden: &'static str) -> Case {
    Case {
        file: S::FILE,
        doc: table::render(&sweep, std::slice::from_ref(&row)),
        no_rows: table::render(&sweep, &[]),
        table: table::text_table::<S>(std::slice::from_ref(&row)),
        golden,
        check: table::check::<S>,
        rates: S::RATES,
    }
}

/// Every row below satisfies its sweep's rate identities exactly.
fn cases() -> Vec<Case> {
    vec![
        case(
            k3::SweepConfig {
                edge_factor: 8,
                seed: 7,
                iterations: 5,
                damping: 0.85,
                trials: 3,
                ..Default::default()
            },
            k3::SweepRow {
                variant: "balanced_fused_u32",
                scale: 10,
                threads: 2,
                vertices: 1024,
                nnz: 7000,
                seconds: 0.25,
                gflops: 0.00028,
                l1_vs_serial: 1.5e-16,
            },
            r#"{"benchmark":"ppbench-k3-v2","damping":0.85,"edge_factor":8,"iterations":5,"results":[{"gflops":0.00028,"l1_vs_serial":0.00000000000000015,"nnz":7000,"scale":10,"seconds":0.25,"threads":2,"variant":"balanced_fused_u32","vertices":1024}],"seed":7,"trials":3}"#,
        ),
        case(
            k01::SweepConfig {
                edge_factor: 16,
                seed: 3,
                num_files: 2,
                budget_divisor: 8,
                trials: 2,
                gens: vec![RmatSampler::Linear, RmatSampler::Faithful],
                faithful_max_scale: Some(20),
                k1_max_scale: None,
                ..Default::default()
            },
            k01::SweepRow {
                kernel: "k1",
                variant: "pipelined",
                gen: "linear",
                scale: 12,
                threads: 2,
                edges: 65536,
                mbytes: 1.25,
                seconds: 0.5,
                mb_per_s: 2.5,
                gb_per_s: 0.0025,
            },
            r#"{"benchmark":"ppbench-k01-v3","budget_divisor":8,"edge_factor":16,"faithful_max_scale":20,"gens":"linear,faithful","k1_max_scale":"none","num_files":2,"results":[{"edges":65536,"gb_per_s":0.0025,"gen":"linear","kernel":"k1","mb_per_s":2.5,"mbytes":1.25,"scale":12,"seconds":0.5,"threads":2,"variant":"pipelined"}],"seed":3,"trials":2}"#,
        ),
        case(
            pipe::SweepConfig {
                edge_factor: 8,
                seed: 7,
                num_files: 2,
                trials: 3,
                ..Default::default()
            },
            pipe::SweepRow {
                mode: "fused",
                scale: 11,
                threads: 2,
                edges: 16384,
                k1_seconds: 0.125,
                k2_seconds: 0.375,
                seconds: 0.5,
                edges_per_s: 32768.0,
            },
            r#"{"benchmark":"ppbench-pipeline-v1","edge_factor":8,"num_files":2,"results":[{"edges":16384,"edges_per_s":32768,"k1_seconds":0.125,"k2_seconds":0.375,"mode":"fused","scale":11,"seconds":0.5,"threads":2}],"seed":7,"trials":3}"#,
        ),
        case(
            algo::SweepConfig {
                edge_factor: 8,
                seed: 7,
                ..Default::default()
            },
            algo::SweepRow {
                workload: "bfs",
                impl_name: "optimized",
                scale: 9,
                threads: 2,
                vertices: 512,
                edges: 4096,
                seconds: 0.001,
                meps: 4.096,
                stat: 500,
                checksum: 0x0ead_beef_0123_4567,
                matches_serial: true,
            },
            r#"{"benchmark":"ppbench-algo-v1","edge_factor":8,"results":[{"checksum":"0eadbeef01234567","edges":4096,"impl":"optimized","matches_serial":true,"meps":4.096,"scale":9,"seconds":0.001,"stat":500,"threads":2,"vertices":512,"workload":"bfs"}],"seed":7}"#,
        ),
        case(
            serve::SweepConfig {
                scale: 9,
                edge_factor: 8,
                seed: 1,
                workers: 2,
                ..Default::default()
            },
            serve::SweepRow {
                mode: "open",
                offered_rps: 400.0,
                requests: 100,
                errors: 0,
                seconds: 0.25,
                achieved_rps: 400.0,
                p50_ms: 1.5,
                p99_ms: 2.75,
                max_concurrent: 10,
            },
            r#"{"benchmark":"ppbench-serve-v1","edge_factor":8,"results":[{"achieved_rps":400,"errors":0,"max_concurrent":10,"mode":"open","offered_rps":400,"p50_ms":1.5,"p99_ms":2.75,"requests":100,"seconds":0.25}],"scale":9,"seed":1,"workers":2}"#,
        ),
    ]
}

/// `doc` with the first `"key":` value replaced by `f` of the number
/// there.
fn doctor(doc: &str, key: &str, f: impl Fn(f64) -> String) -> String {
    let tag = format!("\"{key}\":");
    let start = doc.find(&tag).expect("key present") + tag.len();
    let end = start + doc[start..].find([',', '}']).expect("value ends");
    let value: f64 = doc[start..end].parse().expect("value is a number");
    format!("{}{}{}", &doc[..start], f(value), &doc[end..])
}

#[test]
fn renderer_reproduces_the_per_sweep_emitters_byte_for_byte() {
    for case in cases() {
        assert_eq!(case.doc, case.golden, "{}", case.file);
    }
}

#[test]
fn checker_rejects_drift_in_every_sweep() {
    for case in cases() {
        let (doc, check) = (&case.doc, |doc: &str| (case.check)(doc));
        check(doc).unwrap_or_else(|e| panic!("{}: {e}", case.file));
        let rate = case.rates.first().expect("every sweep declares a rate").key;
        // Within the 1% tolerance.
        check(&doctor(doc, rate, |v| (v * 1.004).to_string())).unwrap();
        let mut drifted = vec![
            // A missing row key, an extra top-level key, a wrong version tag.
            doc.replacen(&format!("\"{rate}\":"), "\"renamed\":", 1),
            doc.replacen("{\"benchmark\"", "{\"bonus\":1,\"benchmark\"", 1),
            doc.replacen("\"ppbench-", "\"ppbench-old-", 1),
            // Empty results, results not an array, a truncated document.
            case.no_rows.clone(),
            case.no_rows.replace("[]", "{}"),
            doc[..doc.len() - 1].to_string(),
            // A malformed number, a rate as text, zero seconds, a rate off by 2%.
            doctor(doc, rate, |_| "1.2.3".into()),
            doctor(doc, rate, |v| format!("\"{v}\"")),
            doctor(doc, "seconds", |_| "0".into()),
            doctor(doc, rate, |v| (v * 1.02).to_string()),
        ];
        // Every field of every rate identity, doctored on its own.
        for rate in case.rates {
            for key in std::iter::once(&rate.key).chain(rate.size) {
                drifted.push(doctor(doc, key, |v| (v * 10.0).to_string()));
            }
        }
        for bad in drifted {
            assert!(check(&bad).is_err(), "{}: accepted {bad}", case.file);
        }
    }
}

#[test]
fn text_table_heads_its_columns_with_the_row_keys() {
    for case in cases() {
        let doc = Json::parse(&case.doc).expect("rendered JSON");
        let Some(Json::Array(rows)) = doc.get("results") else {
            panic!("{}: no results", case.file);
        };
        let mut lines = case.table.lines();
        let mut header: Vec<&str> = lines.next().expect("header").split_whitespace().collect();
        header.sort_unstable();
        assert_eq!(header, rows[0].keys(), "{}", case.file);
        assert_eq!(lines.count(), 1, "{}: one line per row", case.file);
    }
}

#[test]
fn sweep_points_carry_exactly_the_header_config_fields() {
    let k3 = k3::SweepConfig {
        scales: vec![6, 7],
        edge_factor: 4,
        seed: 9,
        iterations: 3,
        damping: 0.5,
        ..Default::default()
    };
    let points = table::points(&k3).unwrap();
    assert_eq!(points.len(), 2);
    assert_eq!(points[1].spec.scale(), 7);
    assert_eq!(points[1].spec.edge_factor(), 4);
    assert_eq!((points[1].seed, points[1].iterations), (9, 3));
    assert_eq!(points[1].damping, 0.5);

    let k01 = k01::SweepConfig {
        scales: vec![6],
        num_files: 3,
        ..Default::default()
    };
    assert_eq!(table::points(&k01).unwrap()[0].num_files, 3);

    // servebench submits the point's object as its request body.
    let serve = serve::SweepConfig {
        scale: 7,
        edge_factor: 4,
        seed: 1,
        workers: 3,
        ..Default::default()
    };
    assert_eq!(
        table::point_json(&serve, serve.scale),
        r#"{"edge_factor":4,"scale":7,"seed":1}"#
    );
    assert_eq!(table::points(&serve).unwrap()[0].spec.scale(), 7);
}

#[test]
fn committed_trajectories_pass_their_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for case in cases() {
        let text = std::fs::read_to_string(root.join(case.file)).expect("committed file");
        (case.check)(&text).unwrap_or_else(|e| panic!("{}: {e}", case.file));
    }
}
