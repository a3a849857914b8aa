//! Scale × variant sweeps: the measurement loops behind Figures 4–7.

use std::path::Path;

use ppbench_core::{Pipeline, PipelineConfig, PipelineResult, ValidationLevel, Variant};
use ppbench_io::tempdir::TempDir;

/// One measured point: a variant at a scale, with the four kernel rates.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Backend that ran.
    pub variant: Variant,
    /// Scale factor.
    pub scale: u32,
    /// Edge count M (the x-axis of Figures 4–7).
    pub edges: u64,
    /// Edges/second for kernels 0–3 (kernel 3 already includes the ×20).
    pub rates: [f64; 4],
    /// Seconds for kernels 0–3.
    pub seconds: [f64; 4],
}

impl SweepPoint {
    fn from_result(variant: Variant, r: &PipelineResult) -> ppbench_core::Result<Self> {
        let (Some(k0), Some(k1), Some(k2), Some(k3)) = (
            r.kernel0.as_ref(),
            r.kernel1.as_ref(),
            r.kernel2.as_ref(),
            r.kernel3.as_ref(),
        ) else {
            return Err(ppbench_core::Error::Contract(
                "sweep requires a full pipeline run (kernels 0-3)".to_string(),
            ));
        };
        let (t0, t1, t2, t3) = (k0.timing, k1.timing, k2.timing, k3.timing);
        Ok(SweepPoint {
            variant,
            scale: r.scale,
            edges: r.edges,
            rates: [t0.rate(), t1.rate(), t2.rate(), t3.rate()],
            seconds: [t0.seconds, t1.seconds, t2.seconds, t3.seconds],
        })
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Scales to run (each gives one x-axis point).
    pub scales: Vec<u32>,
    /// Variants to run (each gives one series).
    pub variants: Vec<Variant>,
    /// Edges per vertex (16 in the paper).
    pub edge_factor: u64,
    /// Master seed.
    pub seed: u64,
    /// Files per kernel-0/1 output.
    pub num_files: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            scales: (16..=22).collect(),
            variants: Variant::ALL.to_vec(),
            edge_factor: 16,
            seed: 20160523, // the paper's publication era, for flavor
            num_files: 1,
        }
    }
}

/// Runs the sweep, calling `progress` after each completed point.
///
/// Validation is disabled during sweeps (the paper times the kernels, not
/// the checks); run the pipeline separately with validation for
/// correctness assurance.
pub fn run_sweep(
    cfg: &SweepConfig,
    work_root: &Path,
    mut progress: impl FnMut(&SweepPoint),
) -> ppbench_core::Result<Vec<SweepPoint>> {
    let mut points = Vec::new();
    for &scale in &cfg.scales {
        for &variant in &cfg.variants {
            let pipeline_cfg = PipelineConfig::builder()
                .scale(scale)
                .edge_factor(cfg.edge_factor)
                .seed(cfg.seed)
                .num_files(cfg.num_files)
                .variant(variant)
                .validation(ValidationLevel::None)
                .build();
            let dir = work_root.join(format!("s{scale}-{}", variant.name()));
            let result = Pipeline::new(pipeline_cfg, &dir).run()?;
            // Remove kernel files promptly: a full sweep writes each edge
            // list twice per variant.
            #[expect(
                clippy::let_underscore_untyped,
                reason = "best-effort scratch cleanup between points; the measurement is already taken"
            )]
            let _ = std::fs::remove_dir_all(&dir);
            let point = SweepPoint::from_result(variant, &result)?;
            progress(&point);
            points.push(point);
        }
    }
    Ok(points)
}

/// Convenience wrapper running in a scoped temp dir.
pub fn run_sweep_in_temp(
    cfg: &SweepConfig,
    progress: impl FnMut(&SweepPoint),
) -> ppbench_core::Result<Vec<SweepPoint>> {
    let td = TempDir::new("ppbench-sweep")
        .map_err(|e| ppbench_io::Error::io(std::env::temp_dir(), e))?;
    run_sweep(cfg, td.path(), progress)
}

/// Renders the sweep as CSV (one row per point, one rate column per
/// kernel).
pub fn to_csv(points: &[SweepPoint]) -> String {
    let mut out =
        String::from("variant,scale,edges,k0_eps,k1_eps,k2_eps,k3_eps,k0_s,k1_s,k2_s,k3_s\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{},{:.1},{:.1},{:.1},{:.1},{:.6},{:.6},{:.6},{:.6}\n",
            p.variant.name(),
            p.scale,
            p.edges,
            p.rates[0],
            p.rates[1],
            p.rates[2],
            p.rates[3],
            p.seconds[0],
            p.seconds[1],
            p.seconds[2],
            p.seconds[3],
        ));
    }
    out
}

/// Extracts one kernel's series per variant: `(label, [(edges, rate)…])`.
pub fn kernel_series(points: &[SweepPoint], kernel: usize) -> Vec<(String, Vec<(f64, f64)>)> {
    assert!(kernel < 4, "kernels are 0..=3");
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for p in points {
        let label = p.variant.name();
        let point = (p.edges as f64, p.rates[kernel]);
        match series.iter_mut().find(|(l, _)| l == label) {
            Some((_, s)) => s.push(point),
            None => series.push((label.to_string(), vec![point])),
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            scales: vec![5, 6],
            variants: vec![Variant::Optimized, Variant::Naive],
            edge_factor: 4,
            seed: 1,
            num_files: 1,
        }
    }

    #[test]
    fn sweep_produces_all_points() {
        let td = TempDir::new("ppbench-sweep-test").unwrap();
        let mut seen = 0;
        let points = run_sweep(&tiny_cfg(), td.path(), |_| seen += 1).unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(seen, 4);
        for p in &points {
            assert!(p.rates.iter().all(|&r| r > 0.0), "{p:?}");
            assert_eq!(p.edges, 4 << p.scale);
        }
        // Work dirs cleaned up.
        assert_eq!(std::fs::read_dir(td.path()).unwrap().count(), 0);
    }

    #[test]
    fn csv_has_header_plus_rows() {
        let td = TempDir::new("ppbench-sweep-test").unwrap();
        let points = run_sweep(&tiny_cfg(), td.path(), |_| {}).unwrap();
        let csv = to_csv(&points);
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("variant,scale"));
    }

    #[test]
    fn series_split_by_variant() {
        let td = TempDir::new("ppbench-sweep-test").unwrap();
        let points = run_sweep(&tiny_cfg(), td.path(), |_| {}).unwrap();
        let series = kernel_series(&points, 3);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1.len(), 2, "two scales per variant");
        // x values ascend with scale.
        assert!(series[0].1[0].0 < series[0].1[1].0);
    }
}
