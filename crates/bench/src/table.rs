//! The one output layer of the `BENCH_*.json` trajectories.
//!
//! Every trajectory is a flat two-level document: a top-level object with
//! a version tag (`benchmark`), the sweep's config keys and a `results`
//! array of uniform row objects. Each sweep lists its header and row
//! columns once, as `(key, value)` [`Cells`], and declares the rate
//! identities its rows must satisfy; from those, this module
//!
//! * renders the canonical document ([`render`], through
//!   [`ppbench_core::json`]: sorted keys, shortest-roundtrip floats),
//! * prints the terminal table ([`text_table`], the keys as column
//!   headers), and
//! * checks a document read back ([`check`]): it must parse, carry the
//!   version tag, have exactly the header keys, at least one row, exactly
//!   the row keys on every row, and rates that agree with the raw
//!   measurements they are derived from.
//!
//! The expected key sets come from the same cell lists the renderer
//! writes, so emitter and checker cannot drift apart.

use ppbench_core::json::{Json, JsonArray, JsonObject};
use ppbench_core::PipelineConfig;

/// Largest relative error a reported rate may carry against the rate its
/// row's raw fields imply.
const RATE_TOLERANCE: f64 = 0.01;

/// `(key, value)` cells of a header or a row, in terminal-table column
/// order (the JSON document sorts its keys). Values are scalars: strings,
/// unsigned integers, floats and booleans.
pub type Cells = Vec<(&'static str, Json)>;

/// A rate identity every row must satisfy within 1%:
/// `key = product of size / seconds · factor`, where each `size` field is
/// read from the row, or else from the header (k3's `iterations`).
#[derive(Debug, Clone, Copy)]
pub struct Rate {
    /// The reported rate column.
    pub key: &'static str,
    /// The fields the rate is derived from.
    pub size: &'static [&'static str],
    /// Unit conversion factor.
    pub factor: f64,
}

/// A measured sweep whose results form one `BENCH_*.json` trajectory.
/// `Default` is the sweep its binary runs without flags.
pub trait Sweep: Default {
    /// One measured point.
    type Row: Default;
    /// Version tag written into the document so schema changes are
    /// explicit.
    const VERSION: &'static str;
    /// The file the binary writes unless `--out` says otherwise.
    const FILE: &'static str;
    /// The rate identities of every row.
    const RATES: &'static [Rate];

    /// The document's config fields (everything but `benchmark` and
    /// `results`). Those named like a [`PipelineConfig::from_json`] key
    /// are also the config of every sweep point ([`points`]).
    fn header(&self) -> Cells;

    /// One row's columns.
    fn cells(row: &Self::Row) -> Cells;

    /// The graph scale of each sweep point.
    fn scales(&self) -> &[u32];

    /// Measures every point; `points` are this sweep's [`points`].
    fn run(&self, points: &[PipelineConfig]) -> Result<Vec<Self::Row>, String>;
}

/// The config fields of the sweep point at `scale`: the header cells
/// whose keys [`PipelineConfig::from_json`] accepts, and `scale`.
fn point_cells<S: Sweep>(sweep: &S, scale: u32) -> Cells {
    let accepted = PipelineConfig::builder().build().canonical_fields();
    let mut cells: Cells = sweep
        .header()
        .into_iter()
        .filter(|(key, _)| *key != "scale" && accepted.iter().any(|(k, _)| k == key))
        .collect();
    cells.push(("scale", Json::Uint(u64::from(scale))));
    cells
}

/// The sweep point at `scale` as a JSON object, e.g. a `POST /runs` body.
pub fn point_json<S: Sweep>(sweep: &S, scale: u32) -> String {
    object(point_cells(sweep, scale)).render()
}

/// Every sweep point's config, built from [`point_cells`] through the
/// pipeline's config codec ([`PipelineConfig::from_json`]), so a sweep
/// accepts exactly the values a pipeline run accepts; an error names the
/// offending field.
pub fn points<S: Sweep>(sweep: &S) -> Result<Vec<PipelineConfig>, String> {
    let point = |scale: u32| {
        let members = point_cells(sweep, scale)
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect();
        PipelineConfig::from_json(&Json::Object(members)).map_err(|e| e.to_string())
    };
    sweep.scales().iter().map(|&scale| point(scale)).collect()
}

/// The cells as a JSON object (cells hold scalars only; anything else
/// would render as `null`).
fn object(cells: Cells) -> JsonObject {
    let mut obj = JsonObject::new();
    for (key, value) in cells {
        match value {
            Json::String(s) => obj.set_str(key, &s),
            Json::Uint(n) => obj.set_u64(key, n),
            Json::Number(v) => obj.set_f64(key, v),
            Json::Bool(b) => obj.set_bool(key, b),
            _ => obj.set_null(key),
        };
    }
    obj
}

/// Renders the sweep as its canonical trajectory document.
pub fn render<S: Sweep>(sweep: &S, rows: &[S::Row]) -> String {
    let mut results = JsonArray::new();
    for row in rows {
        results.push_obj(&object(S::cells(row)));
    }
    let mut doc = object(sweep.header());
    doc.set_str("benchmark", S::VERSION)
        .set_raw("results", results.render());
    doc.render()
}

/// A cell as the terminal table shows it: floats rounded to four
/// decimals, very small ones in scientific notation, large ones whole.
fn display(value: &Json) -> String {
    match value {
        Json::String(s) => s.clone(),
        Json::Uint(n) => n.to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Number(v) if *v != 0.0 && v.abs() < 1e-3 => format!("{v:.3e}"),
        Json::Number(v) if v.abs() >= 1e4 => format!("{v:.0}"),
        Json::Number(v) => format!("{v:.4}"),
        _ => String::new(),
    }
}

/// Renders the rows as a right-aligned text table headed by the row keys.
pub fn text_table<S: Sweep>(rows: &[S::Row]) -> String {
    let keys: Vec<String> = S::cells(&S::Row::default())
        .into_iter()
        .map(|(key, _)| key.to_string())
        .collect();
    let mut widths: Vec<usize> = keys.iter().map(String::len).collect();
    let lines: Vec<Vec<String>> = std::iter::once(keys)
        .chain(rows.iter().map(|row| {
            S::cells(row)
                .iter()
                .map(|(_, value)| display(value))
                .collect()
        }))
        .collect();
    for line in &lines {
        for (w, text) in widths.iter_mut().zip(line) {
            *w = (*w).max(text.len());
        }
    }
    let mut out = String::new();
    for line in &lines {
        let padded: Vec<String> = widths
            .iter()
            .zip(line)
            .map(|(&w, text)| format!("{text:>w$}"))
            .collect();
        out.push_str(&padded.join("  "));
        out.push('\n');
    }
    out
}

/// The keys of `cells` in the order [`Json::keys`] reports an object's.
fn sorted_keys(cells: Cells) -> Vec<&'static str> {
    let mut keys: Vec<&str> = cells.into_iter().map(|(key, _)| key).collect();
    keys.sort_unstable();
    keys
}

/// Checks a trajectory document against the sweep's shape and rate
/// identities. A stale or hand-edited rate is rejected even when the
/// shape is intact.
pub fn check<S: Sweep>(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if doc.get("benchmark").and_then(Json::as_str) != Some(S::VERSION) {
        return Err(format!("missing or wrong version tag {:?}", S::VERSION));
    }
    let mut top_keys = sorted_keys(S::default().header());
    top_keys.extend(["benchmark", "results"]);
    top_keys.sort_unstable();
    let top = doc.keys();
    if top != top_keys {
        return Err(format!("top-level keys {top:?} != expected {top_keys:?}"));
    }
    let Some(Json::Array(rows)) = doc.get("results") else {
        return Err("`results` is not an array".to_string());
    };
    if rows.is_empty() {
        return Err("no result rows".to_string());
    }
    let row_keys = sorted_keys(S::cells(&S::Row::default()));
    for (r, row) in rows.iter().enumerate() {
        let got = row.keys();
        if got != row_keys {
            return Err(format!("row {r} keys {got:?} != expected {row_keys:?}"));
        }
        check_rates(&doc, row, S::RATES).map_err(|e| format!("row {r}: {e}"))?;
    }
    Ok(())
}

/// Checks one row's [`Rate`] identities.
fn check_rates(doc: &Json, row: &Json, rates: &[Rate]) -> Result<(), String> {
    let number = |key: &str| {
        row.get(key)
            .or_else(|| doc.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{key:?} is missing or not a number"))
    };
    let seconds = number("seconds")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err(format!("non-positive seconds {seconds}"));
    }
    for rate in rates {
        let size = rate
            .size
            .iter()
            .map(|&key| number(key))
            .product::<Result<f64, _>>()?;
        let implied = size / seconds * rate.factor;
        let reported = number(rate.key)?;
        let rel = (reported - implied).abs() / implied.abs().max(f64::MIN_POSITIVE);
        if rel > RATE_TOLERANCE {
            return Err(format!(
                "{} = {reported} disagrees with {}/seconds·{} = {implied} by {:.1}% (> {:.0}%)",
                rate.key,
                rate.size.join("·"),
                rate.factor,
                rel * 100.0,
                RATE_TOLERANCE * 100.0
            ));
        }
    }
    Ok(())
}
