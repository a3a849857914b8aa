//! Machine-readable run records.
//!
//! A benchmark is only useful if its numbers outlive the process. This
//! module persists a [`crate::PipelineResult`] as a canonical JSON record
//! — the one wire format of `pprank --json`, `pprank --report`, the
//! `ppbench-serve` HTTP API and its disk cache — and parses it back.

use std::path::Path;

use crate::json::Json;
use crate::results::PipelineResult;
use crate::{Error, Result};

/// A persisted (or reloaded) run record: the subset of a
/// [`PipelineResult`] that is meaningful across processes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Backend name.
    pub variant: String,
    /// Kernel-3-slot workload name (`"pagerank"`, `"bfs"`, …). Legacy
    /// records predate the field and parse as `"pagerank"`.
    pub workload: String,
    /// Scale factor.
    pub scale: u32,
    /// Edge count M.
    pub edges: u64,
    /// Per-kernel `(seconds, edges_per_second)`, index 0–3; `None` for
    /// kernels that did not run.
    pub kernels: [Option<(f64, f64)>; 4],
    /// Whether validation passed (`None` if validation did not run).
    pub validation_passed: Option<bool>,
    /// Worker-thread count the run was attributed to (`None` when the
    /// caller did not pin one — e.g. legacy records, or runs that never
    /// set `pprank --threads`).
    pub threads: Option<u64>,
    /// Output fingerprint of an analytics workload (`None` for PageRank
    /// runs and legacy records) — lets two archived runs be compared for
    /// bit-identical outputs, not just rates.
    pub checksum: Option<u64>,
}

impl RunRecord {
    /// Extracts the record from a completed result.
    pub fn from_result(result: &PipelineResult) -> Self {
        let timing = |t: Option<&crate::KernelTiming>| t.map(|t| (t.seconds, t.rate()));
        // The kernel-3 slot is PageRank or the analytics workload,
        // whichever ran; both report through kernels[3].
        let k3_slot = result
            .kernel3
            .as_ref()
            .map(|k| &k.timing)
            .or_else(|| result.algo.as_ref().map(|a| &a.timing));
        Self {
            variant: result.variant.to_string(),
            workload: result.workload.to_string(),
            scale: result.scale,
            edges: result.edges,
            kernels: [
                timing(result.kernel0.as_ref().map(|k| &k.timing)),
                timing(result.kernel1.as_ref().map(|k| &k.timing)),
                timing(result.kernel2.as_ref().map(|k| &k.timing)),
                timing(k3_slot),
            ],
            validation_passed: result.validation.as_ref().map(|v| v.passed()),
            threads: None,
            checksum: result.algo.as_ref().map(|a| a.checksum),
        }
    }

    /// Serializes the record as a canonical JSON object.
    ///
    /// The record is the wire format shared by `pprank --json`,
    /// `pprank --report` and the `ppbench-serve` HTTP API: a `record`
    /// version tag, the run identity, one entry per kernel
    /// that ran (with `seconds` and `edges_per_second`), and the validation
    /// outcome (`null` when validation did not run). Rendering goes
    /// through [`crate::json`], so keys are sorted and the same record is
    /// always the same byte string — records are diffed and content-hashed,
    /// and the report surface holds to the same determinism bar as the
    /// kernels.
    pub fn to_json(&self) -> String {
        let mut kernels = crate::json::JsonArray::new();
        for (k, slot) in self.kernels.iter().enumerate() {
            if let Some((secs, rate)) = slot {
                let mut entry = crate::json::JsonObject::new();
                entry
                    .set_u64("kernel", k as u64)
                    .set_f64("seconds", *secs)
                    .set_f64("edges_per_second", *rate);
                kernels.push_obj(&entry);
            }
        }
        let mut obj = crate::json::JsonObject::new();
        obj.set_str("record", "ppbench-run-v1")
            .set_str("variant", &self.variant)
            .set_str("workload", &self.workload)
            .set_u64("scale", u64::from(self.scale))
            .set_u64("edges", self.edges)
            .set_raw("kernels", kernels.render());
        match self.validation_passed {
            Some(passed) => obj.set_bool("validation_passed", passed),
            None => obj.set_null("validation_passed"),
        };
        match self.threads {
            Some(threads) => obj.set_u64("threads", threads),
            None => obj.set_null("threads"),
        };
        match self.checksum {
            Some(checksum) => obj.set_str("checksum", &format!("{checksum:016x}")),
            None => obj.set_null("checksum"),
        };
        obj.render()
    }

    /// Parses a record produced by [`RunRecord::to_json`]. Seconds and
    /// rates round-trip bit-exactly because `to_json` emits shortest
    /// round-trip decimals; malformed records are rejected, not defaulted.
    pub fn from_json(v: &Json) -> Result<Self> {
        let bad = |msg: &str| Error::Contract(format!("run record: {msg}"));
        if v.get("record").and_then(Json::as_str) != Some("ppbench-run-v1") {
            return Err(bad("not ppbench-run-v1"));
        }
        let str_field = |key: &str| -> Result<String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("missing {key}")))
        };
        let mut kernels: [Option<(f64, f64)>; 4] = [None; 4];
        let Some(Json::Array(entries)) = v.get("kernels") else {
            return Err(bad("missing kernels"));
        };
        for entry in entries {
            let k = entry
                .get("kernel")
                .and_then(Json::as_u64)
                .filter(|&k| k < 4)
                .ok_or_else(|| bad("bad kernel index"))?;
            let secs = entry
                .get("seconds")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("bad kernel seconds"))?;
            let rate = entry
                .get("edges_per_second")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("bad kernel rate"))?;
            if let Some(slot) = kernels.get_mut(k as usize) {
                *slot = Some((secs, rate));
            }
        }
        // Optional fields: absent and `null` both mean "not recorded".
        let opt = |key: &str| v.get(key).filter(|j| **j != Json::Null);
        let validation_passed = match opt("validation_passed") {
            None => None,
            Some(j) => Some(j.as_bool().ok_or_else(|| bad("bad validation_passed"))?),
        };
        let threads = match opt("threads") {
            None => None,
            Some(j) => Some(j.as_u64().ok_or_else(|| bad("bad threads"))?),
        };
        let checksum = match opt("checksum") {
            None => None,
            Some(j) => Some(
                j.as_str()
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| bad("bad checksum"))?,
            ),
        };
        Ok(RunRecord {
            variant: str_field("variant")?,
            workload: str_field("workload")?,
            scale: v
                .get("scale")
                .and_then(Json::as_u64)
                .and_then(|s| u32::try_from(s).ok())
                .ok_or_else(|| bad("bad scale"))?,
            edges: v
                .get("edges")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("bad edges"))?,
            kernels,
            validation_passed,
            threads,
            checksum,
        })
    }

    /// Writes the record to a file as canonical JSON.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.to_json())
            .map_err(|e| Error::Storage(ppbench_io::Error::io(path, e)))
    }

    /// Loads a record written by [`RunRecord::save`].
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Storage(ppbench_io::Error::io(path, e)))?;
        let json =
            Json::parse(&text).map_err(|e| Error::Contract(format!("{}: {e}", path.display())))?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineConfig};
    use ppbench_io::tempdir::TempDir;

    fn sample() -> RunRecord {
        let td = TempDir::new("report").unwrap();
        let cfg = PipelineConfig::builder()
            .scale(6)
            .edge_factor(4)
            .seed(2)
            .build();
        let result = Pipeline::new(cfg, td.path()).run().unwrap();
        RunRecord::from_result(&result)
    }

    fn reparse(record: &RunRecord) -> Result<RunRecord> {
        RunRecord::from_json(&Json::parse(&record.to_json()).unwrap())
    }

    #[test]
    fn roundtrip_through_json_is_exact() {
        let record = sample();
        assert_eq!(record.validation_passed, Some(true));
        assert!(record.kernels.iter().all(Option::is_some));
        assert_eq!(reparse(&record).unwrap(), record);
        // Optional fields as nulls.
        let mut bare = record.clone();
        bare.validation_passed = None;
        bare.threads = None;
        bare.checksum = None;
        assert_eq!(reparse(&bare).unwrap(), bare);
    }

    #[test]
    fn roundtrip_through_file() {
        let record = sample();
        let td = TempDir::new("report").unwrap();
        let path = td.join("run.json");
        record.save(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), record.to_json());
        assert_eq!(RunRecord::load(&path).unwrap(), record);
        std::fs::write(&path, "record\tppbench-run-v1\n").unwrap();
        assert!(RunRecord::load(&path).is_err(), "non-JSON file accepted");
    }

    #[test]
    fn json_mentions_all_fields() {
        let record = sample();
        let json = record.to_json();
        // Canonical form: keys sorted bytewise, so `checksum` leads.
        assert!(json.starts_with("{\"checksum\":"), "{json}");
        assert!(json.contains("\"record\":\"ppbench-run-v1\""), "{json}");
        assert!(json.contains("\"variant\":\"optimized\""), "{json}");
        assert!(json.contains("\"scale\":6"), "{json}");
        assert!(json.contains("\"kernel\":3"), "{json}");
        assert!(json.contains("\"edges_per_second\""), "{json}");
        assert!(json.contains("\"validation_passed\":true"), "{json}");
    }

    #[test]
    fn json_skips_kernels_that_did_not_run() {
        let mut record = sample();
        record.kernels[2] = None;
        record.validation_passed = None;
        let json = record.to_json();
        assert!(!json.contains("\"kernel\":2"), "{json}");
        assert!(json.contains("\"validation_passed\":null"), "{json}");
    }

    #[test]
    fn rejects_malformed_records() {
        let parse = |text: &str| RunRecord::from_json(&Json::parse(text).unwrap());
        let good = sample().to_json();
        assert!(parse(&good).is_ok());
        assert!(parse("{}").is_err(), "missing tag");
        assert!(parse(&good.replace("ppbench-run-v1", "ppbench-run-v9")).is_err());
        assert!(
            parse(&good.replace("\"kernel\":3", "\"kernel\":7")).is_err(),
            "kernel index out of range"
        );
        assert!(
            parse(&good.replace("\"variant\":", "\"flavour\":")).is_err(),
            "missing variant"
        );
        assert!(
            parse(&good.replace("\"threads\":null", "\"threads\":\"four\"")).is_err(),
            "mistyped optional field"
        );
    }

    #[test]
    fn threads_roundtrip_and_default_to_unknown() {
        let mut record = sample();
        assert_eq!(record.threads, None);
        let json = record.to_json();
        assert!(json.contains("\"threads\":null"), "{json}");
        record.threads = Some(4);
        assert!(record.to_json().contains("\"threads\":4"));
        assert_eq!(reparse(&record).unwrap().threads, Some(4));
        // Records without the key parse as unknown.
        let legacy = json.replace("\"threads\":null,", "");
        assert!(!legacy.contains("threads"), "{legacy}");
        let parsed = RunRecord::from_json(&Json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(parsed.threads, None);
    }

    #[test]
    fn workload_and_checksum_roundtrip() {
        let td = TempDir::new("report").unwrap();
        let cfg = PipelineConfig::builder()
            .scale(6)
            .edge_factor(4)
            .seed(2)
            .workload(crate::Workload::Bfs)
            .build();
        let result = Pipeline::new(cfg, td.path()).run().unwrap();
        let record = RunRecord::from_result(&result);
        assert_eq!(record.workload, "bfs");
        assert!(record.checksum.is_some());
        assert!(
            record.kernels[3].is_some(),
            "the workload reports through the kernel-3 slot"
        );
        let parsed = reparse(&record).unwrap();
        assert_eq!(parsed.workload, "bfs");
        assert_eq!(parsed.checksum, record.checksum);
        let json = record.to_json();
        assert!(json.contains("\"workload\":\"bfs\""), "{json}");
        assert!(json.contains("\"checksum\":\""), "{json}");
        // PageRank runs carry the workload name but no checksum.
        let pr = sample();
        assert_eq!(pr.workload, "pagerank");
        assert_eq!(pr.checksum, None);
        assert!(pr.to_json().contains("\"checksum\":null"));
    }

    #[test]
    fn partial_runs_serialize() {
        let td = TempDir::new("report").unwrap();
        let cfg = PipelineConfig::builder()
            .scale(5)
            .edge_factor(2)
            .seed(2)
            .build();
        let result = Pipeline::new(cfg, td.path()).run_through(1).unwrap();
        let record = RunRecord::from_result(&result);
        assert!(record.kernels[0].is_some());
        assert!(record.kernels[1].is_some());
        assert!(record.kernels[2].is_none());
        let parsed = reparse(&record).unwrap();
        assert!(parsed.kernels[2].is_none() && parsed.kernels[3].is_none());
    }
}
