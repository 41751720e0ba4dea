//! Validation of the harness's `--json` dumps.
//!
//! The harness emits JSON by hand, so round-tripping a dump through the
//! workspace's JSON reader ([`pta_obs::json`], which shares no code with
//! the emitter) is the cheapest way to catch a malformed emitter.
//! `table1 --check FILE` and the CI smoke-perf step both parse a dumped
//! `--json` file and assert every cell is present and well-formed with
//! [`validate_rows`].

use pta_obs::json::Value;

/// Fields every [`crate::ExperimentRow`] JSON object must carry.
///
/// `status`, `schema_version` and `threads` are deliberately absent:
/// they are validated separately because dumps from before those fields
/// existed (`BENCH_baseline.json` among them) omit them. A missing
/// status means `"ok"`, a missing version means v1, a missing thread
/// count means `1`.
const ROW_FIELDS: &[&str] = &[
    "workload",
    "analysis",
    "reachable_methods",
    "avg_objs_per_var",
    "call_graph_edges",
    "poly_v_calls",
    "reachable_v_calls",
    "may_fail_casts",
    "reachable_casts",
    "time_secs",
    "sensitive_var_points_to",
    "contexts",
    "heap_contexts",
    "uncaught_exception_sites",
    "stats",
];

/// What [`validate_rows`] found in a well-formed dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsSummary {
    /// Total number of rows (cells) in the dump.
    pub cells: usize,
    /// Rows tagged `"status":"timeout"` — cells whose solve exceeded the
    /// per-cell deadline even after the retry. Their metrics are the
    /// salvaged partial result, not a real measurement.
    pub timeouts: usize,
    /// Rows tagged `"status":"memory_cap"` — cells whose solve tripped
    /// the per-cell `--max-memory` budget (a deterministic model trip,
    /// not host noise). Their metrics are the salvaged partial result.
    pub memory_caps: usize,
    /// Rows carrying a `"profile"` embed (cells run with `--profile`).
    /// Profiled solves are forced sequential, so their times are not
    /// comparable to unprofiled rows.
    pub profiled: usize,
}

/// Validates a parsed `--json` dump: a non-empty array of rows, each with
/// the full field set, a non-negative wall time, and a `stats` object with
/// numeric counters. Timed-out rows (`"status":"timeout"`) are tolerated
/// and counted; a missing `status` (legacy dump) means `"ok"`. Rows
/// carrying a `"profile"` embed (`--profile` dumps, `BENCH_profile.json`)
/// are tolerated and counted too; when present the embed must hold a
/// `"rules"` array whose entries have a name and numeric counters.
///
/// Both schema versions are accepted: v1 dumps (no `schema_version`, no
/// `threads` — `BENCH_baseline.json` era) and v2 dumps (both fields on
/// every row). A version this reader does not know is an error, so a
/// future incompatible format fails loudly instead of half-validating.
///
/// # Errors
///
/// Returns a message naming the first offending row and field.
pub fn validate_rows(doc: &Value) -> Result<RowsSummary, String> {
    let rows = doc.as_array().ok_or("top level is not an array")?;
    if rows.is_empty() {
        return Err("no rows".to_owned());
    }
    let mut timeouts = 0;
    let mut memory_caps = 0;
    let mut profiled = 0;
    for (i, row) in rows.iter().enumerate() {
        match row.get("schema_version").map(Value::as_number) {
            None => {} // v1: predates row versioning
            Some(Some(v)) if v == 1.0 || v == f64::from(crate::SCHEMA_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "row {i}: unsupported schema_version {v:?} (this reader knows 1 and {})",
                    crate::SCHEMA_VERSION
                ))
            }
        }
        match row.get("threads").map(Value::as_number) {
            None => {} // v1 rows are implicitly single-threaded
            Some(Some(n)) if n >= 0.0 && n.fract() == 0.0 => {}
            Some(n) => return Err(format!("row {i}: field \"threads\" is malformed: {n:?}")),
        }
        match row.get("status").map(Value::as_str) {
            None | Some(Some("ok")) => {}
            Some(Some("timeout")) => timeouts += 1,
            Some(Some("memory_cap")) => memory_caps += 1,
            Some(s) => {
                return Err(format!(
                    "row {i}: field \"status\" is malformed: {s:?} \
                     (expected \"ok\", \"timeout\" or \"memory_cap\")"
                ))
            }
        }
        for &field in ROW_FIELDS {
            let v = row
                .get(field)
                .ok_or_else(|| format!("row {i}: missing field {field:?}"))?;
            let ok = match field {
                "workload" | "analysis" => v.as_str().is_some_and(|s| !s.is_empty()),
                "avg_objs_per_var" => v.as_number().is_some_and(|n| n >= 0.0),
                "time_secs" => v.as_number().is_some_and(|n| n >= 0.0),
                "stats" => matches!(v, Value::Object(_)),
                _ => v.as_number().is_some_and(|n| n >= 0.0 && n.fract() == 0.0),
            };
            if !ok {
                return Err(format!("row {i}: field {field:?} is malformed: {v:?}"));
            }
        }
        let Some(Value::Object(stats)) = row.get("stats") else {
            unreachable!("checked above");
        };
        for (name, v) in stats {
            if v.as_number().is_none_or(|n| n < 0.0) {
                return Err(format!("row {i}: stats counter {name:?} is malformed"));
            }
        }
        if let Some(profile) = row.get("profile") {
            validate_profile(profile).map_err(|e| format!("row {i}: {e}"))?;
            profiled += 1;
        }
        if let Some(clients) = row.get("clients") {
            validate_clients(clients).map_err(|e| format!("row {i}: {e}"))?;
        }
        // Optional memory column (cells measured under the counting
        // allocator) and sharing marker (`--share off` rows).
        if let Some(peak) = row.get("peak_rss_bytes") {
            if peak.as_number().is_none_or(|n| n < 0.0 || n.fract() != 0.0) {
                return Err(format!("row {i}: field \"peak_rss_bytes\" is malformed"));
            }
        }
        if let Some(ns) = row.get("no_share") {
            if !matches!(ns, Value::Bool(true)) {
                return Err(format!(
                    "row {i}: field \"no_share\" is malformed (only `true` is ever emitted)"
                ));
            }
        }
    }
    Ok(RowsSummary {
        cells: rows.len(),
        timeouts,
        memory_caps,
        profiled,
    })
}

/// Validates one row's `"clients"` embed (cells run with `--taint-groups`):
/// an object with one non-negative integer finding count per client.
fn validate_clients(clients: &Value) -> Result<(), String> {
    for key in ["taint", "escape", "nullness"] {
        let ok = clients
            .get(key)
            .and_then(Value::as_number)
            .is_some_and(|n| n >= 0.0 && n.fract() == 0.0);
        if !ok {
            return Err(format!("clients embed: counter {key:?} is malformed"));
        }
    }
    Ok(())
}

/// Validates one row's `"profile"` embed: an object whose `"rules"` array
/// holds `{name, fires, derived, ns}` entries with non-negative integer
/// counters (the shape `profdiff` consumes).
fn validate_profile(profile: &Value) -> Result<(), String> {
    let rules = profile
        .get("rules")
        .ok_or("profile embed has no \"rules\" array")?
        .as_array()
        .ok_or("profile \"rules\" is not an array")?;
    for (j, rule) in rules.iter().enumerate() {
        if rule.get("name").and_then(Value::as_str).is_none() {
            return Err(format!("profile rule {j} has no name"));
        }
        for key in ["fires", "derived", "ns"] {
            let ok = rule
                .get(key)
                .and_then(Value::as_number)
                .is_some_and(|n| n >= 0.0 && n.fract() == 0.0);
            if !ok {
                return Err(format!("profile rule {j}: counter {key:?} is malformed"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_obs::json::parse;

    #[test]
    fn round_trips_real_rows() {
        let program = pta_workload::dacapo_workload("luindex", 0.15);
        let row = crate::run_cell("luindex", &program, pta_core::Analysis::OneObj, 1);
        let doc = parse(&crate::rows_to_json(std::slice::from_ref(&row))).unwrap();
        assert_eq!(
            validate_rows(&doc),
            Ok(RowsSummary {
                cells: 1,
                timeouts: 0,
                memory_caps: 0,
                profiled: 0
            })
        );
        let parsed = &doc.as_array().unwrap()[0];
        assert_eq!(parsed.get("workload").unwrap().as_str(), Some("luindex"));
        assert_eq!(
            parsed
                .get("stats")
                .unwrap()
                .get("vpt_inserted")
                .unwrap()
                .as_number(),
            Some(row.stats.vpt_inserted as f64)
        );
    }

    #[test]
    fn validation_names_the_broken_field() {
        let doc = parse(r#"[{"workload":"w"}]"#).unwrap();
        let err = validate_rows(&doc).unwrap_err();
        assert!(err.contains("row 0"), "{err}");
        assert!(err.contains("analysis"), "{err}");
        assert_eq!(
            validate_rows(&parse("[]").unwrap()),
            Err("no rows".to_owned())
        );
    }

    #[test]
    fn timeout_rows_validate_and_are_counted() {
        let program = pta_workload::dacapo_workload("luindex", 0.15);
        let ok = crate::run_cell("luindex", &program, pta_core::Analysis::OneObj, 1);
        let timed_out = crate::run_cell_governed(
            "luindex",
            &program,
            pta_core::Analysis::STwoObjH,
            1,
            Some(1e-6),
            None,
        );
        assert_eq!(timed_out.status, crate::CellStatus::Timeout);
        let doc = parse(&crate::rows_to_json(&[ok.clone(), timed_out])).unwrap();
        assert_eq!(
            validate_rows(&doc),
            Ok(RowsSummary {
                cells: 2,
                timeouts: 1,
                memory_caps: 0,
                profiled: 0
            })
        );

        // Legacy dumps (BENCH_baseline.json) predate the status field;
        // a missing status reads as "ok".
        let legacy =
            crate::rows_to_json(std::slice::from_ref(&ok)).replace("\"status\":\"ok\",", "");
        assert_eq!(
            validate_rows(&parse(&legacy).unwrap()),
            Ok(RowsSummary {
                cells: 1,
                timeouts: 0,
                memory_caps: 0,
                profiled: 0
            })
        );

        // Anything else in the status slot is malformed.
        let bogus = crate::rows_to_json(std::slice::from_ref(&ok))
            .replace("\"status\":\"ok\"", "\"status\":\"maybe\"");
        let err = validate_rows(&parse(&bogus).unwrap()).unwrap_err();
        assert!(err.contains("status"), "{err}");
    }

    #[test]
    fn profiled_rows_validate_and_are_counted() {
        let program = pta_workload::dacapo_workload("luindex", 0.15);
        let plain = crate::run_cell("luindex", &program, pta_core::Analysis::OneObj, 1);
        let profiled = crate::run_cell_observed(
            "luindex",
            &program,
            pta_core::Analysis::OneObj,
            1,
            None,
            None,
            None,
            &pta_obs::Trace::disabled(),
            true,
            None,
            true,
        );
        let dump = crate::rows_to_json(&[plain, profiled]);
        assert_eq!(
            validate_rows(&parse(&dump).unwrap()),
            Ok(RowsSummary {
                cells: 2,
                timeouts: 0,
                memory_caps: 0,
                profiled: 1
            })
        );

        // A mangled rule counter inside the embed fails loudly.
        let broken = dump.replacen("\"fires\":", "\"fires\":-", 1);
        let err = validate_rows(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("fires"), "{err}");
    }

    #[test]
    fn both_schema_versions_validate_but_unknown_ones_fail() {
        let program = pta_workload::dacapo_workload("luindex", 0.15);
        let row = crate::run_cell("luindex", &program, pta_core::Analysis::OneObj, 1);
        let current = crate::rows_to_json(std::slice::from_ref(&row));
        assert!(current.contains(&format!("\"schema_version\":{}", crate::SCHEMA_VERSION)));
        assert!(current.contains("\"threads\":1"));
        assert!(validate_rows(&parse(&current).unwrap()).is_ok());

        // A v1 dump (BENCH_baseline.json era): no schema_version, no
        // threads, no status.
        let v1 = current
            .replace(
                &format!("\"schema_version\":{},", crate::SCHEMA_VERSION),
                "",
            )
            .replace("\"threads\":1,", "")
            .replace("\"status\":\"ok\",", "");
        assert!(validate_rows(&parse(&v1).unwrap()).is_ok());

        // A future version must fail loudly.
        let v99 = current.replace(
            &format!("\"schema_version\":{}", crate::SCHEMA_VERSION),
            "\"schema_version\":99",
        );
        let err = validate_rows(&parse(&v99).unwrap()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }
}
