//! Machine-readable reports for `pta analyze`.
//!
//! `pta analyze --format json` emits one JSON object per analysis run (an
//! array when several `--analysis` flags are given) so scripts can consume
//! results without scraping the human-oriented text output. The solver's
//! always-on counters ride along under the `"stats"` key when `--stats` is
//! passed (with a `"governance"` outcome object — budget consumed,
//! demotions applied), and the per-rule evaluation profile under
//! `"profile"` when `--profile` is. Every report carries the run's
//! `"termination"` status (`complete`, `deadline_exceeded`, `step_limit`,
//! `memory_cap`); runs that gracefully degraded also list the demoted
//! methods under `"demoted_sites"`. Every object opens with a
//! `"schema_version"` field ([`SCHEMA_VERSION`]) so consumers can detect
//! format changes; v1 payloads (before the version and `threads` fields
//! existed) carry no version field at all. Hand-rolled JSON: the
//! toolchain runs fully offline, so there is no serde; the shape is
//! locked down by `tests/cli_report.rs`.

use pta_clients::ExperimentMetrics;
use pta_core::PointsToResult;

/// Version of the per-run JSON object emitted by [`AnalysisReport::to_json`].
///
/// History: v1 (unversioned) predates `schema_version` and `threads`; v2
/// added both, plus a per-shard stats array that went away with the
/// sharded parallel solver (it only ever appeared on multi-threaded runs,
/// so every v2 payload written since is a valid v2 payload).
pub const SCHEMA_VERSION: u32 = 2;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Everything one `pta analyze` run wants to report. `time_secs` is passed
/// in (not measured here) so tests can pin it and compare golden output.
pub struct AnalysisReport<'a> {
    /// Paper-style analysis name (e.g. `S-2obj+H`).
    pub analysis: &'a str,
    /// `"specialized"` or `"datalog"`.
    pub backend: &'a str,
    /// Wall-clock solve time.
    pub time_secs: f64,
    /// Solver thread count. Every run solves on one thread, so callers
    /// pass `1`; the field stays for the JSON shape (`"threads":1`).
    pub threads: usize,
    /// The solved result.
    pub result: &'a PointsToResult,
    /// Table 1 metric set, when `--metrics` was passed.
    pub metrics: Option<&'a ExperimentMetrics>,
    /// Include the solver counters under `"stats"` (`--stats`).
    pub include_stats: bool,
    /// Include the per-rule evaluation profile under `"profile"`
    /// (`--profile`); silently absent when the result carries none.
    pub include_profile: bool,
    /// Methods demoted to the context-insensitive constructor by graceful
    /// degradation, as `(qualified name, context fan-out at demotion)`.
    /// Empty for runs that never degraded.
    pub demoted: &'a [(String, u32)],
    /// Peak heap bytes measured by the binary's counting allocator
    /// ([`pta_govern::memtrack`]); `None` outside `--stats` runs so the
    /// default report stays byte-reproducible across machines.
    pub peak_rss_bytes: Option<u64>,
}

impl AnalysisReport<'_> {
    /// Renders the report as a single JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema_version\":{},\"analysis\":\"{}\",\"backend\":\"{}\",\
             \"threads\":{},\"time_secs\":{},\
             \"reachable_methods\":{},\"call_graph_edges\":{},\"termination\":\"{}\"",
            SCHEMA_VERSION,
            esc(self.analysis),
            esc(self.backend),
            self.threads,
            if self.time_secs.is_finite() {
                format!("{}", self.time_secs)
            } else {
                "null".to_owned()
            },
            self.result.reachable_method_count(),
            self.result.call_graph_edge_count(),
            self.result.termination().as_str(),
        );
        if !self.demoted.is_empty() {
            let sites: Vec<String> = self
                .demoted
                .iter()
                .map(|(name, fanout)| {
                    format!("{{\"method\":\"{}\",\"fanout\":{fanout}}}", esc(name))
                })
                .collect();
            out.push_str(&format!(",\"demoted_sites\":[{}]", sites.join(",")));
        }
        if let Some(m) = self.metrics {
            out.push_str(&format!(
                ",\"metrics\":{{\"avg_objs_per_var\":{},\"poly_v_calls\":{},\
                 \"reachable_v_calls\":{},\"may_fail_casts\":{},\"reachable_casts\":{},\
                 \"sensitive_var_points_to\":{},\"contexts\":{},\"heap_contexts\":{},\
                 \"uncaught_exception_sites\":{}}}",
                m.avg_var_points_to,
                m.poly_virtual_calls,
                m.reachable_virtual_calls,
                m.may_fail_casts,
                m.reachable_casts,
                m.ctx_var_points_to,
                m.contexts,
                m.heap_contexts,
                m.uncaught_exception_sites,
            ));
        }
        if self.include_stats {
            out.push_str(&format!(
                ",\"stats\":{}",
                self.result.solver_stats().to_json()
            ));
            // Governance outcome: how much of the budget the run consumed
            // and whether graceful degradation fired. Still schema v2 —
            // consumers treat unknown keys inside the stats block as
            // optional.
            out.push_str(&format!(
                ",\"governance\":{{\"steps_consumed\":{},\"demotions_applied\":{}}}",
                self.result.solver_stats().steps,
                self.result.solver_stats().demoted_methods,
            ));
            // Host-measured, so confined to --stats runs (still schema
            // v2: unknown keys are optional for consumers).
            if let Some(peak) = self.peak_rss_bytes {
                out.push_str(&format!(",\"peak_rss_bytes\":{peak}"));
            }
        }
        if self.include_profile {
            if let Some(p) = self.result.profile() {
                out.push_str(&format!(",\"profile\":{}", p.to_json()));
            }
        }
        out.push('}');
        out
    }
}

/// Renders several per-analysis reports as a JSON array (the `--format
/// json` top level, even for a single analysis — a stable shape is easier
/// to consume than object-or-array).
#[must_use]
pub fn reports_to_json(reports: &[AnalysisReport<'_>]) -> String {
    let body: Vec<String> = reports.iter().map(AnalysisReport::to_json).collect();
    format!("[{}]", body.join(","))
}
