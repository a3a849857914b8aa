//! Analytics-workload microbench: workload × implementation × thread
//! count × scale.
//!
//! The GAP Benchmark Suite's case is that one analytic measures one
//! data-access pattern; `ppbench-algo` adds four more, and this module
//! measures them the way [`crate::k3`] measures the SpMV variants. Every
//! point runs on the same normalized kernel-2 matrix the pipeline would
//! produce (built once per scale), each workload's serial oracle runs
//! first as the accuracy reference, and the optimized kernel is swept
//! over explicit thread counts. Because the algo kernels are
//! bit-deterministic, the comparison against serial is exact equality of
//! the output vectors, not a tolerance. Results land in
//! `BENCH_algo.json` through [`crate::table`], whose check also holds
//! every row's `meps` to its own `edges / seconds`.

use ppbench_core::json::Json;
use ppbench_core::workload::{self, Workload};
use ppbench_core::{PipelineConfig, Stopwatch, Variant};

use crate::size_pool;
use crate::table::{Cells, Rate, Sweep};

/// The analytics workloads under measurement (every workload except
/// PageRank, which `k3bench` covers on its own axis).
pub const ALGO_WORKLOADS: [Workload; 4] =
    [Workload::Bfs, Workload::Cc, Workload::Sssp, Workload::Tc];

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Graph scales (vertices = 2^scale).
    pub scales: Vec<u32>,
    /// Thread counts for the optimized implementations.
    pub threads: Vec<usize>,
    /// Edges per vertex.
    pub edge_factor: u64,
    /// Master seed for generation, weights, and source selection.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            scales: vec![12],
            threads: crate::host_threads(),
            edge_factor: 16,
            seed: 1,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Default)]
pub struct SweepRow {
    /// Workload name (see [`Workload::name`]).
    pub workload: &'static str,
    /// `"serial"` (the oracle) or `"optimized"`.
    pub impl_name: &'static str,
    /// Graph scale.
    pub scale: u32,
    /// Thread count the pool was sized to (1 for the serial oracle).
    pub threads: usize,
    /// Vertex count.
    pub vertices: u64,
    /// Directed edges in the adjacency pattern (the work-item count).
    pub edges: u64,
    /// Wall-clock seconds for the workload kernel alone.
    pub seconds: f64,
    /// Millions of edges per second — the paper's throughput unit.
    pub meps: f64,
    /// Headline statistic (reached / components / triangles).
    pub stat: u64,
    /// FNV-1a fingerprint of the output vector.
    pub checksum: u64,
    /// Whether the output vector equals the serial oracle's, bit for bit.
    pub matches_serial: bool,
}

impl Sweep for SweepConfig {
    type Row = SweepRow;
    const VERSION: &'static str = "ppbench-algo-v1";
    const FILE: &'static str = "BENCH_algo.json";
    const RATES: &'static [Rate] = &[Rate {
        key: "meps",
        size: &["edges"],
        factor: 1e-6,
    }];

    fn header(&self) -> Cells {
        vec![
            ("edge_factor", Json::Uint(self.edge_factor)),
            ("seed", Json::Uint(self.seed)),
        ]
    }

    fn cells(row: &SweepRow) -> Cells {
        vec![
            ("scale", Json::Uint(u64::from(row.scale))),
            ("workload", Json::String(row.workload.to_string())),
            ("impl", Json::String(row.impl_name.to_string())),
            ("threads", Json::Uint(row.threads as u64)),
            ("vertices", Json::Uint(row.vertices)),
            ("edges", Json::Uint(row.edges)),
            ("seconds", Json::Number(row.seconds)),
            ("meps", Json::Number(row.meps)),
            ("stat", Json::Uint(row.stat)),
            ("checksum", Json::String(format!("{:016x}", row.checksum))),
            ("matches_serial", Json::Bool(row.matches_serial)),
        ]
    }

    fn scales(&self) -> &[u32] {
        &self.scales
    }

    /// Runs the full sweep. Per scale, the kernel-2 matrix is built once;
    /// per workload, the serial oracle runs first (at one thread) as both a
    /// measurement and the equality reference, then the optimized kernel
    /// runs once per requested thread count. Row order is deterministic:
    /// scale-major, then [`ALGO_WORKLOADS`] order, serial before optimized,
    /// then thread order as given.
    fn run(&self, points: &[PipelineConfig]) -> Result<Vec<SweepRow>, String> {
        let mut rows = Vec::new();
        for point in points {
            let scale = point.spec.scale();
            let matrix = crate::k3::build_matrix(point);
            for w in ALGO_WORKLOADS {
                let pipeline_cfg = |variant: Variant| PipelineConfig {
                    workload: w,
                    variant,
                    ..point.clone()
                };
                size_pool(1)?;
                let serial_cfg = pipeline_cfg(Variant::Naive);
                let sw = Stopwatch::start();
                let serial = workload::run_algo(&serial_cfg, &matrix).map_err(|e| e.to_string())?;
                let serial_secs = sw.elapsed_secs();
                rows.push(SweepRow {
                    workload: w.name(),
                    impl_name: "serial",
                    scale,
                    threads: 1,
                    vertices: matrix.rows(),
                    edges: serial.work_items,
                    seconds: serial_secs,
                    meps: serial.work_items as f64 / serial_secs.max(1e-15) / 1e6,
                    stat: serial.stat,
                    checksum: serial.checksum,
                    matches_serial: true,
                });
                let opt_cfg = pipeline_cfg(Variant::Optimized);
                for &threads in &self.threads {
                    size_pool(threads)?;
                    let sw = Stopwatch::start();
                    let out = workload::run_algo(&opt_cfg, &matrix).map_err(|e| e.to_string())?;
                    let seconds = sw.elapsed_secs();
                    rows.push(SweepRow {
                        workload: w.name(),
                        impl_name: "optimized",
                        scale,
                        threads,
                        vertices: matrix.rows(),
                        edges: out.work_items,
                        seconds,
                        meps: out.work_items as f64 / seconds.max(1e-15) / 1e6,
                        stat: out.stat,
                        checksum: out.checksum,
                        matches_serial: out.values == serial.values,
                    });
                }
            }
            // Leave the pool unpinned for whatever runs next in this process.
            size_pool(0)?;
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            scales: vec![7],
            threads: vec![1, 2],
            edge_factor: 8,
            seed: 7,
        }
    }

    #[test]
    fn sweep_covers_every_workload_and_matches_serial() {
        let cfg = tiny_cfg();
        let rows = cfg.run(&crate::table::points(&cfg).unwrap()).unwrap();
        // Measured rows satisfy their own shape and rate checks.
        crate::table::check::<SweepConfig>(&crate::table::render(&cfg, &rows)).unwrap();
        // 4 workloads × (1 serial + 2 optimized thread counts).
        assert_eq!(rows.len(), 4 * 3);
        for w in ALGO_WORKLOADS {
            assert!(
                rows.iter().any(|r| r.workload == w.name()),
                "missing {}",
                w.name()
            );
        }
        for row in &rows {
            assert!(row.matches_serial, "{row:?} diverged from its oracle");
            assert!(row.meps > 0.0, "{row:?}");
            assert!(row.edges > 0, "{row:?}");
        }
        // Serial and optimized fingerprints agree per workload.
        for w in ALGO_WORKLOADS {
            let sums: Vec<u64> = rows
                .iter()
                .filter(|r| r.workload == w.name())
                .map(|r| r.checksum)
                .collect();
            assert!(
                sums.windows(2).all(|p| p[0] == p[1]),
                "{} checksums vary: {sums:?}",
                w.name()
            );
        }
    }
}
