//! Rendering: Table 1, Figure 3 and the summary statistics, in layouts
//! mirroring the paper.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{CellStatus, ExperimentRow};

fn by_workload(rows: &[ExperimentRow]) -> BTreeMap<&str, Vec<&ExperimentRow>> {
    let mut map: BTreeMap<&str, Vec<&ExperimentRow>> = BTreeMap::new();
    for row in rows {
        map.entry(&row.workload).or_default().push(row);
    }
    map
}

fn find<'r>(rows: &[&'r ExperimentRow], analysis: &str) -> Option<&'r ExperimentRow> {
    rows.iter().find(|r| r.analysis == analysis).copied()
}

/// Renders the paper's Table 1: per benchmark, four precision metrics and
/// two performance metrics for every analysis, grouped like the paper
/// (call-site group, 1-object group, 2-object group, 2-type group). The
/// best performance number per group is marked with `*` (the paper uses
/// bold).
pub fn render_table1(rows: &[ExperimentRow]) -> String {
    let mut out = String::new();
    let analyses: Vec<&str> = {
        // Preserve first-seen order (callers pass Table 1 order).
        let mut seen = Vec::new();
        for r in rows {
            if !seen.contains(&r.analysis.as_str()) {
                seen.push(&r.analysis);
            }
        }
        seen
    };

    let _ = writeln!(
        out,
        "Table 1: precision and performance metrics for all benchmarks and analyses."
    );
    let _ = writeln!(
        out,
        "(Lower is better everywhere. `*` marks the best time within an analysis group,"
    );
    let _ = writeln!(out, "as the paper's bold entries do.)\n");

    for (workload, wrows) in by_workload(rows) {
        let reference = wrows[0];
        let _ = writeln!(
            out,
            "== {workload} (over ~{} meths; v-calls of ~{}; casts of ~{})",
            reference.reachable_methods, reference.reachable_v_calls, reference.reachable_casts
        );
        let _ = writeln!(
            out,
            "{:>11} | {:>12} {:>8} {:>12} {:>14} | {:>12} {:>16}",
            "analysis",
            "avg objs/var",
            "edges",
            "poly v-calls",
            "may-fail casts",
            "time (s)",
            "sens var-pts-to"
        );
        let _ = writeln!(out, "{}", "-".repeat(96));

        // Group boundaries in Table 1 order.
        let groups: [&[&str]; 4] = [
            &["1call", "1call+H", "2call+H"],
            &["1obj", "U-1obj", "SA-1obj", "SB-1obj"],
            &["2obj+H", "U-2obj+H", "S-2obj+H"],
            &["2type+H", "U-2type+H", "S-2type+H"],
        ];
        // Timed-out cells report the deadline, not a measurement, so they
        // never win the best-time star.
        let best_time_of_group = |names: &[&str]| -> Option<f64> {
            names
                .iter()
                .filter_map(|n| find(&wrows, n))
                .filter(|r| r.status == CellStatus::Ok)
                .map(|r| r.time_secs)
                .min_by(f64::total_cmp)
        };

        for &analysis in &analyses {
            let Some(row) = find(&wrows, analysis) else {
                continue;
            };
            let star = row.status == CellStatus::Ok
                && groups
                    .iter()
                    .find(|g| g.contains(&analysis))
                    .and_then(|g| best_time_of_group(g))
                    .is_some_and(|best| (row.time_secs - best).abs() < 1e-12);
            let _ = writeln!(
                out,
                "{:>11} | {:>12.2} {:>8} {:>12} {:>14} | {:>11.3}{} {:>16}{}",
                row.analysis,
                row.avg_objs_per_var,
                row.call_graph_edges,
                row.poly_v_calls,
                row.may_fail_casts,
                row.time_secs,
                if star { "*" } else { " " },
                row.sensitive_var_points_to,
                match row.status {
                    CellStatus::Ok => "",
                    CellStatus::Timeout => "  TIMEOUT (partial)",
                    CellStatus::MemoryCap => "  MEMORY CAP (partial)",
                },
            );
            let is_last_present_of_group = groups.iter().any(|g| {
                g.contains(&analysis) && g.iter().rfind(|n| analyses.contains(n)) == Some(&analysis)
            });
            if is_last_present_of_group {
                let _ = writeln!(out, "{}", "-".repeat(96));
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders Figure 3's data as CSV: one series per benchmark, columns
/// `workload,analysis,may_fail_casts,time_secs`.
pub fn render_figure3_csv(rows: &[ExperimentRow]) -> String {
    let mut out = String::from("workload,analysis,may_fail_casts,time_secs\n");
    for row in rows {
        let _ = writeln!(
            out,
            "{},{},{},{:.6}",
            row.workload, row.analysis, row.may_fail_casts, row.time_secs
        );
    }
    out
}

/// Renders an ASCII scatter per benchmark: execution time (Y, rows) against
/// may-fail casts (X, columns), lower-left is better — the layout of the
/// paper's Figure 3.
pub fn render_figure3_scatter(rows: &[ExperimentRow]) -> String {
    const W: usize = 72;
    const H: usize = 18;
    let mut out = String::new();
    for (workload, wrows) in by_workload(rows) {
        let xmax = wrows
            .iter()
            .map(|r| r.may_fail_casts)
            .max()
            .unwrap_or(1)
            .max(1);
        let xmin = wrows.iter().map(|r| r.may_fail_casts).min().unwrap_or(0);
        let tmax = wrows
            .iter()
            .map(|r| r.time_secs)
            .max_by(f64::total_cmp)
            .unwrap_or(1.0)
            .max(1e-9);
        let mut grid = vec![vec![' '; W + 1]; H + 1];
        let mut labels: Vec<String> = Vec::new();
        for (i, row) in wrows.iter().enumerate() {
            let marker = char::from_u32('a' as u32 + (i as u32 % 26)).unwrap_or('?');
            let x = if xmax == xmin {
                0
            } else {
                (row.may_fail_casts - xmin) * W / (xmax - xmin)
            };
            // Y grows downward; put fast analyses near the bottom.
            let y = H - ((row.time_secs / tmax) * H as f64).round() as usize;
            grid[y.min(H)][x.min(W)] = marker;
            labels.push(format!(
                "  {marker} = {} ({} casts, {:.3}s)",
                row.analysis, row.may_fail_casts, row.time_secs
            ));
        }
        let _ = writeln!(out, "== {workload}: time (s, up) vs may-fail casts (right)");
        for (yi, line) in grid.iter().enumerate() {
            let y_val = tmax * (H - yi) as f64 / H as f64;
            let line: String = line.iter().collect();
            let _ = writeln!(out, "{y_val:>8.3} |{line}");
        }
        let _ = writeln!(out, "{:>8} +{}", "", "-".repeat(W + 1));
        let _ = writeln!(
            out,
            "{:>10}{xmin:<8}{:>width$}{xmax}",
            "",
            "",
            width = W.saturating_sub(16)
        );
        for label in labels {
            let _ = writeln!(out, "{label}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Geometric mean of `values`; 1.0 for an empty slice.
fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One paper claim compared against measurement.
#[derive(Debug, Clone)]
pub struct ClaimLine {
    /// Description of the claim.
    pub claim: String,
    /// What the paper reports.
    pub paper: String,
    /// What this reproduction measures.
    pub measured: String,
    /// Whether the direction/shape of the claim holds.
    pub holds: bool,
}

/// Computes the paper's §1/§4 aggregate claims from the matrix and renders
/// them paper-vs-measured.
pub fn render_summary(rows: &[ExperimentRow]) -> String {
    let mut lines: Vec<ClaimLine> = Vec::new();
    let per_wl = by_workload(rows);

    // Helper: ratios of time and vpt between two analyses across workloads.
    let ratios = |num: &str, den: &str| -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut time = Vec::new();
        let mut vpt = Vec::new();
        let mut casts = Vec::new();
        for wrows in per_wl.values() {
            if let (Some(n), Some(d)) = (find(wrows, num), find(wrows, den)) {
                if d.time_secs > 0.0 && n.time_secs > 0.0 {
                    time.push(n.time_secs / d.time_secs);
                }
                if d.sensitive_var_points_to > 0 {
                    vpt.push(n.sensitive_var_points_to as f64 / d.sensitive_var_points_to as f64);
                }
                if d.may_fail_casts > 0 {
                    casts.push(n.may_fail_casts as f64 / d.may_fail_casts as f64);
                }
            }
        }
        (time, vpt, casts)
    };

    // Claim 1: S-2obj+H is faster than 2obj+H (paper: avg 1.53x speedup)
    // and more precise.
    {
        let (time, vpt, casts) = ratios("2obj+H", "S-2obj+H");
        let speedup = geomean(&time);
        let vpt_ratio = geomean(&vpt);
        let cast_ratio = geomean(&casts);
        lines.push(ClaimLine {
            claim: "S-2obj+H vs 2obj+H: cheaper and more precise".into(),
            paper: "avg 1.53x speedup; fewer may-fail casts".into(),
            // Wall-clock at our workload sizes is millisecond-scale and
            // noisy; the verdict is gated on the paper's own
            // platform-independent cost metric (sensitive var-points-to,
            // §4.2) plus the precision side, with time reported alongside.
            measured: format!(
                "time ratio {speedup:.2}x; base has {vpt_ratio:.2}x the sensitive var-points-to \
                 and {cast_ratio:.2}x the may-fail casts"
            ),
            holds: vpt_ratio >= 0.98 && cast_ratio > 1.0,
        });
    }

    // Claim 2: the 1obj selective hybrids are at least as cheap as 1obj
    // with no precision loss (paper: avg 1.12x speedup for the family).
    // Gated on the deterministic tuple metric; time reported alongside.
    {
        let (time_sb, vpt_sb, casts_sb) = ratios("1obj", "SB-1obj");
        let (time_sa, vpt_sa, _) = ratios("1obj", "SA-1obj");
        let sb = geomean(&time_sb);
        let sa = geomean(&time_sa);
        lines.push(ClaimLine {
            claim: "SA/SB-1obj vs 1obj: as cheap or cheaper, SB more precise".into(),
            paper: "avg 1.12x speedup; SB strictly more precise".into(),
            measured: format!(
                "time ratio vs SB {sb:.2}x, vs SA {sa:.2}x; vpt ratio vs SB {:.2}x, vs SA {:.2}x; \
                 1obj has {:.2}x SB's may-fail casts",
                geomean(&vpt_sb),
                geomean(&vpt_sa),
                geomean(&casts_sb)
            ),
            holds: geomean(&vpt_sb) >= 0.95 && geomean(&vpt_sa) >= 0.98 && geomean(&casts_sb) > 1.0,
        });
    }

    // Claim 3: uniform hybrids are precise but very slow (paper: often 3x+
    // slower, 2x+ the context-sensitive points-to size).
    {
        let (time, vpt, _) = ratios("U-2obj+H", "2obj+H");
        let (time1, vpt1, _) = ratios("U-1obj", "1obj");
        lines.push(ClaimLine {
            claim: "uniform hybrids cost far more than their bases".into(),
            paper: "often >=3x slower, ~2x context-sensitive points-to".into(),
            measured: format!(
                "U-2obj+H: {:.2}x time, {:.2}x vpt; U-1obj: {:.2}x time, {:.2}x vpt",
                geomean(&time),
                geomean(&vpt),
                geomean(&time1),
                geomean(&vpt1)
            ),
            holds: geomean(&vpt) > 1.2 && geomean(&vpt1) > 1.2,
        });
    }

    // Claim 4: a call-site-sensitive heap is a bad tradeoff (1call+H vs
    // 1call: much more cost, almost no precision).
    {
        let (time, vpt, casts) = ratios("1call+H", "1call");
        lines.push(ClaimLine {
            claim: "1call+H vs 1call: cost up, precision flat".into(),
            paper: "cost grows significantly, little precision added".into(),
            measured: format!(
                "{:.2}x time, {:.2}x vpt, {:.2}x may-fail casts",
                geomean(&time),
                geomean(&vpt),
                geomean(&casts)
            ),
            holds: geomean(&vpt) > 1.2 && geomean(&casts) > 0.95,
        });
    }

    // Claim 5: selective hybrids approach uniform-hybrid precision.
    {
        let (_, _, casts_s) = ratios("S-2obj+H", "U-2obj+H");
        let (_, _, casts_base) = ratios("2obj+H", "U-2obj+H");
        lines.push(ClaimLine {
            claim: "S-2obj+H precision close to U-2obj+H, far from 2obj+H".into(),
            paper: "selective ~= uniform precision at a fraction of cost".into(),
            measured: format!(
                "may-fail casts: S/U ratio {:.2}x vs base/U ratio {:.2}x",
                geomean(&casts_s),
                geomean(&casts_base)
            ),
            holds: geomean(&casts_s) < geomean(&casts_base),
        });
    }

    let mut out = String::from("Summary statistics (paper vs measured):\n\n");
    for line in &lines {
        let _ = writeln!(
            out,
            "[{}] {}",
            if line.holds { "HOLDS" } else { "DIFFERS" },
            line.claim
        );
        let _ = writeln!(out, "    paper:    {}", line.paper);
        let _ = writeln!(out, "    measured: {}", line.measured);
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, analysis: &str, casts: usize, time: f64, vpt: u64) -> ExperimentRow {
        ExperimentRow {
            workload: workload.into(),
            analysis: analysis.into(),
            status: CellStatus::Ok,
            reachable_methods: 100,
            avg_objs_per_var: 2.0,
            call_graph_edges: 500,
            poly_v_calls: 10,
            reachable_v_calls: 50,
            may_fail_casts: casts,
            reachable_casts: 60,
            time_secs: time,
            sensitive_var_points_to: vpt,
            contexts: 10,
            heap_contexts: 5,
            uncaught_exception_sites: 0,
            stats: pta_core::SolverStats::default(),
            profile: None,
            clients: None,
            peak_rss_bytes: None,
        }
    }

    fn sample() -> Vec<ExperimentRow> {
        vec![
            row("antlr", "1call", 40, 0.2, 9000),
            row("antlr", "1call+H", 40, 0.5, 15000),
            row("antlr", "1obj", 35, 0.15, 8000),
            row("antlr", "SA-1obj", 33, 0.12, 7000),
            row("antlr", "SB-1obj", 30, 0.14, 7500),
            row("antlr", "U-1obj", 28, 0.4, 16000),
            row("antlr", "2obj+H", 20, 0.3, 10000),
            row("antlr", "U-2obj+H", 12, 1.0, 25000),
            row("antlr", "S-2obj+H", 13, 0.2, 9000),
            row("antlr", "2type+H", 25, 0.18, 9500),
            row("antlr", "U-2type+H", 14, 0.5, 15000),
            row("antlr", "S-2type+H", 16, 0.15, 8800),
        ]
    }

    #[test]
    fn table1_contains_all_analyses_and_marks_best() {
        let t = render_table1(&sample());
        for a in ["1call", "S-2obj+H", "U-2type+H"] {
            assert!(t.contains(a), "missing {a} in:\n{t}");
        }
        assert!(t.contains('*'), "no best-time marker:\n{t}");
        assert!(t.contains("antlr"));
    }

    #[test]
    fn figure3_csv_has_header_and_rows() {
        let csv = render_figure3_csv(&sample());
        assert!(csv.starts_with("workload,analysis,may_fail_casts,time_secs\n"));
        assert_eq!(csv.lines().count(), 13);
    }

    #[test]
    fn scatter_renders_each_analysis_label() {
        let s = render_figure3_scatter(&sample());
        assert!(s.contains("= S-2obj+H"));
        assert!(s.contains("time (s, up) vs may-fail casts"));
    }

    #[test]
    fn summary_claims_hold_on_paper_shaped_sample() {
        let s = render_summary(&sample());
        assert!(
            !s.contains("DIFFERS"),
            "sample should satisfy all claims:\n{s}"
        );
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use crate::ExperimentRow;

    fn row(analysis: &str, casts: usize, time: f64) -> ExperimentRow {
        ExperimentRow {
            workload: "w".into(),
            analysis: analysis.into(),
            status: crate::CellStatus::Ok,
            reachable_methods: 1,
            avg_objs_per_var: 1.0,
            call_graph_edges: 1,
            poly_v_calls: 0,
            reachable_v_calls: 0,
            may_fail_casts: casts,
            reachable_casts: casts,
            time_secs: time,
            sensitive_var_points_to: 1,
            contexts: 1,
            heap_contexts: 1,
            uncaught_exception_sites: 0,
            stats: pta_core::SolverStats::default(),
            profile: None,
            clients: None,
            peak_rss_bytes: None,
        }
    }

    #[test]
    fn scatter_handles_identical_x_values() {
        // All analyses fail the same number of casts: xmin == xmax.
        let rows = vec![row("a1", 5, 0.1), row("a2", 5, 0.2)];
        let s = render_figure3_scatter(&rows);
        assert!(s.contains("= a1"));
        assert!(s.contains("= a2"));
    }

    #[test]
    fn scatter_handles_zero_times_and_zero_casts() {
        let rows = vec![row("fast", 0, 0.0), row("slow", 9, 0.5)];
        let s = render_figure3_scatter(&rows);
        assert!(s.contains("= fast (0 casts"));
    }

    #[test]
    fn summary_with_missing_analyses_does_not_panic() {
        // Only one analysis present: every ratio set is empty, geomean
        // degrades to 1.0, and rendering still succeeds.
        let rows = vec![row("1obj", 3, 0.1)];
        let s = render_summary(&rows);
        assert!(s.contains("Summary statistics"));
    }

    #[test]
    fn table_with_unknown_analysis_name_renders_without_groups() {
        let rows = vec![row("custom-policy", 1, 0.1)];
        let t = render_table1(&rows);
        assert!(t.contains("custom-policy"));
    }
}
