//! Shared schema validation for the `BENCH_*.json` trajectory files.
//!
//! Every trajectory is a flat two-level document: a top-level object with
//! a version tag (`benchmark`) plus config keys, and a `results` array of
//! uniform row objects. Each sweep's `check_schema` hands
//! [`check_flat_schema`] a reference document rendered by its own
//! `to_json`, so the expected shape is derived from the emitter and the
//! two cannot drift apart. Documents are read with the workspace's one
//! JSON parser ([`ppbench_core::json::Json`]): truncated or malformed
//! files fail, not just files with the wrong keys.

use ppbench_core::json::Json;

/// Parses `text` and checks it has the shape of `reference`: the same
/// version tag, exactly the reference's top-level keys, at least one
/// result row, and exactly the keys of the reference's first row on every
/// row. Returns the parsed document for further checks.
pub(crate) fn check_flat_schema(text: &str, reference: &str) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let expected = Json::parse(reference).map_err(|e| format!("reference: {e}"))?;
    let version = expected.get("benchmark").and_then(Json::as_str);
    if doc.get("benchmark").and_then(Json::as_str) != version {
        return Err(format!("missing or wrong version tag {version:?}"));
    }
    let (top, top_keys) = (doc.keys(), expected.keys());
    if top != top_keys {
        return Err(format!("top-level keys {top:?} != expected {top_keys:?}"));
    }
    let row_keys = rows(&expected)?
        .first()
        .ok_or("reference has no result row")?
        .keys();
    let rows = rows(&doc)?;
    if rows.is_empty() {
        return Err("no result rows".to_string());
    }
    for (r, row) in rows.iter().enumerate() {
        let got = row.keys();
        if got != row_keys {
            return Err(format!("row {r} keys {got:?} != expected {row_keys:?}"));
        }
    }
    Ok(doc)
}

/// The `results` array of a trajectory document.
fn rows(doc: &Json) -> Result<&[Json], String> {
    match doc.get("results") {
        Some(Json::Array(rows)) => Ok(rows),
        _ => Err("`results` is not an array".to_string()),
    }
}

/// Cross-checks every result row's reported rates against its own
/// size/seconds fields: for each `(rate_key, factor)`, the row must satisfy
/// `rate ≈ size / seconds × factor` within `rel_tol` relative error. A row
/// whose rate disagrees with its raw measurements by more than the
/// tolerance is rejected — stale or hand-edited rates cannot survive a
/// schema check.
pub(crate) fn check_rate_consistency(
    doc: &Json,
    size_key: &str,
    secs_key: &str,
    rates: &[(&str, f64)],
    rel_tol: f64,
) -> Result<(), String> {
    let rows = rows(doc)?;
    if rows.is_empty() {
        return Err("no result rows to rate-check".to_string());
    }
    for (r, row) in rows.iter().enumerate() {
        let field = |key: &str| {
            row.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("row {r}: {key:?} is missing or not a number"))
        };
        let size = field(size_key)?;
        let seconds = field(secs_key)?;
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err(format!("row {r}: non-positive seconds {seconds}"));
        }
        for &(rate_key, factor) in rates {
            let reported = field(rate_key)?;
            let implied = size / seconds * factor;
            let rel = (reported - implied).abs() / implied.abs().max(f64::MIN_POSITIVE);
            if rel > rel_tol {
                return Err(format!(
                    "row {r}: {rate_key} = {reported} disagrees with \
                     {size_key}/{secs_key}·{factor} = {implied} by {:.1}% (> {:.0}%)",
                    rel * 100.0,
                    rel_tol * 100.0
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_schema_rejects_missing_and_extra_keys() {
        let reference = r#"{"benchmark":"v1","results":[{"x":0,"y":0}]}"#;
        let good = r#"{"benchmark":"v1","results":[{"x":1,"y":2}]}"#;
        check_flat_schema(good, reference).unwrap();
        let wrong_version = r#"{"benchmark":"v2","results":[{"x":1,"y":2}]}"#;
        let missing_row_key = r#"{"benchmark":"v1","results":[{"x":1}]}"#;
        let extra_top_key = r#"{"benchmark":"v1","extra":1,"results":[{"x":1,"y":2}]}"#;
        let empty = r#"{"benchmark":"v1","results":[]}"#;
        // Right keys, but not a JSON document.
        let truncated = r#"{"benchmark":"v1","results":[{"x":1,"y":2}]"#;
        let garbage_values = r#"{"benchmark":"v1","results":[{"x":1.2.3,"y":nope}]}"#;
        for bad in [
            wrong_version,
            missing_row_key,
            extra_top_key,
            empty,
            truncated,
            garbage_values,
        ] {
            assert!(check_flat_schema(bad, reference).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn rate_consistency_accepts_true_rates_and_rejects_drifted_ones() {
        let rates: &[(&str, f64)] = &[("mb_per_s", 1.0), ("gb_per_s", 1e-3)];
        let check = |text: &str| {
            let doc = Json::parse(text).unwrap();
            check_rate_consistency(&doc, "mbytes", "seconds", rates, 0.01)
        };
        let good = concat!(
            r#"{"benchmark":"v1","results":["#,
            r#"{"mbytes":10.0,"seconds":2.0,"mb_per_s":5.0,"gb_per_s":0.005}]}"#
        );
        check(good).unwrap();

        // A rate off by 4% must be rejected; one off by 0.4% must pass.
        let drifted = good.replace("\"mb_per_s\":5.0", "\"mb_per_s\":5.2");
        let err = check(&drifted).unwrap_err();
        assert!(err.contains("mb_per_s"), "{err}");
        let close = good.replace("\"mb_per_s\":5.0", "\"mb_per_s\":5.02");
        check(&close).unwrap();

        // Both rates are checked independently.
        let bad_gb = good.replace("\"gb_per_s\":0.005", "\"gb_per_s\":0.006");
        assert!(check(&bad_gb).is_err());

        // Degenerate rows cannot slip through.
        let zero_secs = good.replace("\"seconds\":2.0", "\"seconds\":0.0");
        assert!(check(&zero_secs).is_err());
        let text_rate = good.replace("\"mb_per_s\":5.0", "\"mb_per_s\":\"5.0\"");
        assert!(check(&text_rate).is_err());
        assert!(check(r#"{"benchmark":"v1","results":[]}"#).is_err());
    }
}
