//! Reading the harness's `--json` dumps back.
//!
//! The harness emits JSON by hand, so round-tripping a dump through the
//! workspace's JSON reader ([`pta_obs::json`], which shares no code with
//! the emitter) is the cheapest way to catch a malformed emitter.
//! `pta table1 --check FILE` asserts every cell is present and
//! well-formed ([`check_dump`]), and `pta profdiff` compares the per-rule
//! profiles of two dumps ([`diff_profiles`]).

use pta_obs::json::{self, Value};

/// Fields every [`crate::ExperimentRow`] JSON object must carry.
///
/// `status`, `schema_version` and `threads` are deliberately absent:
/// they are validated separately because dumps from before those fields
/// existed (`BENCH_baseline.json` among them) omit them, and current rows
/// no longer carry `threads`. A missing status means `"ok"`, a missing
/// version means v1, a missing thread count means `1`.
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

/// Parses a dump's text and validates it with [`validate_rows`].
///
/// # Errors
///
/// Returns the JSON reader's or the validator's message.
pub fn parse_dump(source: &str) -> Result<(Value, RowsSummary), String> {
    let doc = json::parse(source).map_err(|e| e.to_string())?;
    let summary = validate_rows(&doc)?;
    Ok((doc, summary))
}

/// `pta table1 --check`: parses and validates a dump and, with
/// `expect_cells`, checks that it holds that many cells. Returns the
/// verdict line, e.g. `24 cells OK`, noting partial and profiled rows.
///
/// # Errors
///
/// Returns why the dump fails the check.
pub fn check_dump(source: &str, expect_cells: Option<usize>) -> Result<String, String> {
    let (_, summary) = parse_dump(source)?;
    let cells = summary.cells;
    if let Some(expected) = expect_cells.filter(|&n| n != cells) {
        return Err(format!("{cells} cells, expected {expected}"));
    }
    let mut notes = Vec::new();
    // Partial cells are tolerated — the dump is well-formed and complete —
    // but loudly reported: their metrics are partial.
    if summary.timeouts > 0 {
        notes.push(format!(
            "{} timed out; those rows carry partial results",
            summary.timeouts
        ));
    }
    if summary.memory_caps > 0 {
        notes.push(format!(
            "{} tripped their memory budget; those rows carry partial results",
            summary.memory_caps
        ));
    }
    if summary.profiled > 0 {
        notes.push(format!("{} carry profile embeds", summary.profiled));
    }
    Ok(if notes.is_empty() {
        format!("{cells} cells OK")
    } else {
        format!("{cells} cells OK ({})", notes.join("; "))
    })
}

/// What [`diff_profiles`] found.
#[derive(Debug, Default)]
pub struct ProfileDiff {
    /// Rules present in both dumps whose counters were compared.
    pub compared: usize,
    /// One line per counter outside the tolerance and per baseline row
    /// or rule missing from the current dump.
    pub drifts: Vec<String>,
}

/// `pta profdiff`: compares the per-rule `fires` and `derived` counters of
/// two validated dumps. Rows are matched by `(workload, analysis)`; rows
/// without a `"profile"` embed are skipped. A counter drifts when it moves
/// by more than `tolerance` (a fraction, e.g. `0.05`) of its baseline
/// value. Timing (`ns`) is never compared — it is machine noise by design.
///
/// The solver is deterministic, so on an unchanged tree the counts agree
/// exactly; a drift means the rule engine's behaviour changed.
#[must_use]
pub fn diff_profiles(baseline: &Value, current: &Value, tolerance: f64) -> ProfileDiff {
    let current = profiled_rows(current);
    let mut diff = ProfileDiff::default();
    for (key, rules) in profiled_rows(baseline) {
        let Some((_, cur_rules)) = current.iter().find(|(k, _)| *k == key) else {
            diff.drifts
                .push(format!("{key}: missing from the current dump"));
            continue;
        };
        for (name, base) in rules {
            let Some((_, cur)) = cur_rules.iter().find(|(n, _)| *n == name) else {
                diff.drifts.push(format!(
                    "{key}: rule {name:?} missing from the current dump"
                ));
                continue;
            };
            diff.compared += 1;
            for (what, b, c) in [("fires", base[0], cur[0]), ("derived", base[1], cur[1])] {
                if (c as f64 - b as f64).abs() > b as f64 * tolerance {
                    let delta = c as i128 - b as i128;
                    diff.drifts
                        .push(format!("{key} {name} {what}: {b} -> {c} ({delta:+})"));
                }
            }
        }
    }
    diff
}

/// One profiled row's `(rule, [fires, derived])` pairs, in dump order.
type RuleCounts = Vec<(String, [u64; 2])>;

/// `(workload/analysis, rule counts)` for every profiled row of a
/// validated dump, in dump order.
fn profiled_rows(doc: &Value) -> Vec<(String, RuleCounts)> {
    let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_number).unwrap_or(0.0) as u64;
    doc.as_array()
        .into_iter()
        .flatten()
        .filter_map(|row| {
            let rules = row.get("profile")?.get("rules")?.as_array()?;
            let key = format!("{}/{}", text(row, "workload"), text(row, "analysis"));
            let rules = rules
                .iter()
                .map(|r| (text(r, "name"), [num(r, "fires"), num(r, "derived")]))
                .collect();
            Some((key, rules))
        })
        .collect()
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
/// `threads` — `BENCH_baseline.json` era) and v2 dumps, with or without
/// the retired `threads` field. A version this reader does not know is an
/// error, so a future incompatible format fails loudly instead of
/// half-validating.
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
            None => {} // v1 and current rows: every cell solves on one thread
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
        // allocator).
        if let Some(peak) = row.get("peak_rss_bytes") {
            if peak.as_number().is_none_or(|n| n < 0.0 || n.fract() != 0.0) {
                return Err(format!("row {i}: field \"peak_rss_bytes\" is malformed"));
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
    use crate::{run_cell, MatrixOptions};
    use pta_core::Analysis;
    use pta_obs::json::parse;

    /// One repetition of `luindex` s0.15 under `analysis` and `opts`.
    fn luindex_row(opts: MatrixOptions, analysis: Analysis) -> crate::ExperimentRow {
        let program = pta_workload::dacapo_workload("luindex", 0.15);
        let opts = MatrixOptions {
            repetitions: 1,
            ..opts
        };
        run_cell(&opts, "luindex", &program, analysis, None).unwrap()
    }

    #[test]
    fn round_trips_real_rows() {
        let row = luindex_row(MatrixOptions::default(), Analysis::OneObj);
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
        let ok = luindex_row(MatrixOptions::default(), Analysis::OneObj);
        let timed_out = luindex_row(
            MatrixOptions {
                cell_timeout: Some(std::time::Duration::from_micros(1)),
                ..MatrixOptions::default()
            },
            Analysis::STwoObjH,
        );
        assert_eq!(timed_out.status, crate::CellStatus::Timeout);
        let dump = crate::rows_to_json(&[ok.clone(), timed_out]);
        assert_eq!(
            validate_rows(&parse(&dump).unwrap()),
            Ok(RowsSummary {
                cells: 2,
                timeouts: 1,
                memory_caps: 0,
                profiled: 0
            })
        );
        // `pta table1 --check` accepts the dump and says which rows are
        // partial.
        assert_eq!(
            check_dump(&dump, Some(2)),
            Ok("2 cells OK (1 timed out; those rows carry partial results)".to_owned())
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
        let plain = luindex_row(MatrixOptions::default(), Analysis::OneObj);
        let profiled = luindex_row(
            MatrixOptions {
                profile: true,
                ..MatrixOptions::default()
            },
            Analysis::OneObj,
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
        let row = luindex_row(MatrixOptions::default(), Analysis::OneObj);
        let current = crate::rows_to_json(std::slice::from_ref(&row));
        assert!(current.contains(&format!("\"schema_version\":{}", crate::SCHEMA_VERSION)));
        assert!(!current.contains("\"threads\""));
        assert!(validate_rows(&parse(&current).unwrap()).is_ok());

        // Recorded v2 rows (the checked-in dumps) carry `"threads":1`.
        let recorded = current.replace("\"status\":\"ok\",", "\"status\":\"ok\",\"threads\":1,");
        assert!(validate_rows(&parse(&recorded).unwrap()).is_ok());

        // A v1 dump (BENCH_baseline.json era): no schema_version, no
        // threads, no status.
        let v1 = current
            .replace(
                &format!("\"schema_version\":{},", crate::SCHEMA_VERSION),
                "",
            )
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
