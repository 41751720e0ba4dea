//! The daemon's resident state: programs loaded once, policies solved
//! once, answers served many times.
//!
//! Startup parses (or generates) every configured program, then solves
//! every configured policy for each program — each solve under the
//! configured startup budget. A solve that trips its budget does **not**
//! make the (program, policy) pair unavailable: mirroring the batch
//! CLI's exit-3 semantics, the daemon instead solves the always-cheap
//! context-insensitive baseline to completion and answers queries for
//! the tripped policy from that fallback, tagging every such response
//! `"partial": true`. Clients get a sound (over-approximate) answer and
//! an honest label instead of an error.
//!
//! Client findings (`op: "findings"`) are also materialized here, once
//! per entry, so per-request work is pure lookup + filtering and a
//! request deadline bounds only cheap scans.

use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use pta_clients::{run_check, CheckReport, CheckSpec, ClientBackend};
use pta_core::{Analysis, AnalysisSession, Budget, PointsToResult, Termination};
use pta_ir::{MethodId, Program, ProgramDelta, VarId};
use pta_lang::parse_program;
use pta_obs::Metrics;
use pta_workload::dacapo_workload;

use crate::protocol::EditSpec;

/// Where a resident program comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramSource {
    /// A `.jir` file on disk; the resident name is the file stem.
    File(String),
    /// A generated DaCapo-shaped workload, `name:scale`; the resident
    /// name is the full spec string (so two scales can coexist).
    Workload { name: String, scale: String },
}

impl ProgramSource {
    /// Parses a `--workload NAME:SCALE` spec.
    pub fn parse_workload(spec: &str) -> Result<ProgramSource, String> {
        pta_workload::parse_spec(spec)?;
        let (name, scale) = spec.split_once(':').expect("checked by parse_spec");
        Ok(ProgramSource::Workload {
            name: name.to_owned(),
            scale: scale.to_owned(),
        })
    }

    /// The resident name queries address this program by.
    #[must_use]
    pub fn resident_name(&self) -> String {
        match self {
            ProgramSource::File(path) => std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.clone()),
            ProgramSource::Workload { name, scale } => format!("{name}:{scale}"),
        }
    }

    fn load(&self) -> Result<Program, String> {
        match self {
            ProgramSource::File(path) => {
                let source = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                parse_program(&source).map_err(|e| format!("cannot parse {path}: {e}"))
            }
            ProgramSource::Workload { name, scale } => {
                // Both validated in `parse_workload`.
                Ok(dacapo_workload(name, scale.parse().unwrap()))
            }
        }
    }
}

/// How the daemon solves at startup.
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// Startup budget per (program, policy) solve; a trip engages the
    /// context-insensitive fallback.
    pub budget: Budget,
    /// The daemon's metrics registry, attached to every resident
    /// session so solver/apply counters land in one place. Disabled by
    /// default (records nothing, allocates nothing).
    pub metrics: Metrics,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            budget: Budget::unlimited(),
            metrics: Metrics::disabled(),
        }
    }
}

/// One solved (program, policy) pair.
pub struct PolicyEntry {
    pub policy: Analysis,
    /// The owned session behind `result`. Kept alive between requests so
    /// `update` can maintain the fixpoint incrementally instead of
    /// re-solving from scratch; it also says how the last `update` ran.
    pub(crate) session: AnalysisSession<Analysis>,
    /// The result queries are answered from. When `partial`, this is the
    /// context-insensitive fallback, not the tripped primary solve.
    pub result: PointsToResult,
    /// Client findings over `result`, materialized once.
    pub report: CheckReport,
    /// `true` when the primary solve tripped its budget and the
    /// fallback answers instead.
    pub partial: bool,
    /// How the primary solve ended (`Complete` when `!partial`).
    pub termination: Termination,
    /// Wall-clock solve time of the most recent (re-)solve, ms.
    pub solve_ms: u64,
    /// Primary solve step count.
    pub steps: u64,
}

impl PolicyEntry {
    /// The wire value of this entry's `"status"` in health responses.
    #[must_use]
    pub fn status(&self) -> &'static str {
        if self.partial {
            "partial"
        } else {
            "ready"
        }
    }
}

/// A resident program with one entry per configured policy.
pub struct ResidentProgram {
    pub name: String,
    /// The current version's program. Replaced only together with the
    /// name index (see [`Resident::update`]).
    pub program: Arc<Program>,
    /// Monotone program version: 1 at startup, +1 per applied `update`.
    pub version: u64,
    pub entries: Vec<PolicyEntry>,
    names: NameIndex,
}

impl ResidentProgram {
    /// Every variable named `name`, in arena order (empty when none).
    #[must_use]
    pub fn vars_named(&self, name: &str) -> &[VarId] {
        let (p, vars) = (&self.program, &self.names.vars);
        let lo = vars.partition_point(|&v| p.var_name(v) < name);
        let len = vars[lo..].partition_point(|&v| p.var_name(v) == name);
        &vars[lo..lo + len]
    }

    /// The first method, in arena order, whose qualified name
    /// (`Class.name`) is `qualified`.
    #[must_use]
    pub fn method_named(&self, qualified: &str) -> Option<MethodId> {
        let (p, methods) = (&self.program, &self.names.methods);
        let at = methods.partition_point(|&m| qualified_bytes(p, m).lt(qualified.bytes()));
        methods
            .get(at)
            .copied()
            .filter(|&m| qualified_bytes(p, m).eq(qualified.bytes()))
    }
}

/// Name lookups for one program version, so a query binary-searches
/// instead of comparing every variable or method name. It holds ids only
/// and compares through the program's own name tables: building it
/// copies no string.
struct NameIndex {
    /// Every variable, sorted by `(name, id)`: the variables sharing a
    /// name form one run, in arena order.
    vars: Vec<VarId>,
    /// Every method, sorted by `(qualified name, id)`.
    methods: Vec<MethodId>,
}

impl NameIndex {
    fn build(program: &Program) -> NameIndex {
        // The ids start in arena order and both sorts are stable, so
        // equal names stay in id order.
        let mut vars: Vec<VarId> = program.vars().collect();
        vars.sort_by_key(|&v| program.var_name(v));
        let mut methods: Vec<MethodId> = program.methods().collect();
        methods.sort_by(|&a, &b| qualified_bytes(program, a).cmp(qualified_bytes(program, b)));
        NameIndex { vars, methods }
    }
}

/// The bytes of `m`'s qualified name, without building it.
fn qualified_bytes(program: &Program, m: MethodId) -> impl Iterator<Item = u8> + '_ {
    program
        .method_qualified_parts(m)
        .into_iter()
        .flat_map(str::bytes)
}

/// Everything the daemon holds hot. Built once at startup and kept behind
/// one `RwLock`: workers answer under the read lock, and `update` holds
/// the write lock for its whole apply, so queries wait behind an edit.
pub struct Resident {
    pub programs: Vec<ResidentProgram>,
    /// The configured policies, in flag order; `policies[0]` is the
    /// default for requests that omit `"policy"`.
    pub policies: Vec<Analysis>,
}

impl Resident {
    /// Loads every program and solves every (program, policy) pair.
    pub fn build(
        sources: &[ProgramSource],
        policy_names: &[String],
        solve: &SolveConfig,
    ) -> Result<Resident, String> {
        if sources.is_empty() {
            return Err("no programs: pass FILE.jir and/or --workload NAME:SCALE".into());
        }
        let mut policies = Vec::new();
        for name in policy_names {
            let a = Analysis::from_str(name)
                .map_err(|_| format!("unknown policy \"{name}\" (try `pta list`)"))?;
            if !policies.contains(&a) {
                policies.push(a);
            }
        }
        if policies.is_empty() {
            policies.push(Analysis::Insens);
        }
        let mut programs: Vec<ResidentProgram> = Vec::new();
        for source in sources {
            let name = source.resident_name();
            if programs.iter().any(|p| p.name == name) {
                return Err(format!("duplicate resident program name \"{name}\""));
            }
            let program = Arc::new(source.load()?);
            let mut entries = Vec::new();
            for &policy in &policies {
                entries.push(solve_entry(&program, policy, solve));
            }
            programs.push(ResidentProgram {
                name,
                names: NameIndex::build(&program),
                program,
                version: 1,
                entries,
            });
        }
        Ok(Resident { programs, policies })
    }

    /// Resolves a request's program reference. `None` means "the only
    /// resident program" and is an error when several are loaded.
    pub fn program(&self, name: Option<&str>) -> Result<&ResidentProgram, String> {
        match name {
            Some(n) => self.programs.iter().find(|p| p.name == n).ok_or_else(|| {
                format!(
                    "no resident program \"{n}\" (have: {})",
                    self.names().join(", ")
                )
            }),
            None if self.programs.len() == 1 => Ok(&self.programs[0]),
            None => Err(format!(
                "\"program\" is required with several resident programs (have: {})",
                self.names().join(", ")
            )),
        }
    }

    /// Resolves a request's policy reference against the resident set.
    pub fn entry<'r>(
        &self,
        program: &'r ResidentProgram,
        policy: Option<&str>,
    ) -> Result<&'r PolicyEntry, String> {
        let want = match policy {
            None => self.policies[0],
            Some(name) => {
                Analysis::from_str(name).map_err(|_| format!("unknown policy \"{name}\""))?
            }
        };
        program
            .entries
            .iter()
            .find(|e| e.policy == want)
            .ok_or_else(|| {
                format!(
                    "policy \"{}\" is not resident (have: {})",
                    want.name(),
                    self.policies
                        .iter()
                        .map(|p| p.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
    }

    fn names(&self) -> Vec<&str> {
        self.programs.iter().map(|p| p.name.as_str()).collect()
    }

    /// Applies one `update` request: edits the named resident program
    /// and re-establishes every policy's fixpoint — incrementally when
    /// the entry's session retained its solver state.
    pub fn update(
        &mut self,
        name: Option<&str>,
        edits: &[EditSpec],
        solve: &SolveConfig,
    ) -> Result<UpdateOutcome, String> {
        let idx = match name {
            Some(n) => self
                .programs
                .iter()
                .position(|p| p.name == n)
                .ok_or_else(|| {
                    format!(
                        "no resident program \"{n}\" (have: {})",
                        self.names().join(", ")
                    )
                })?,
            None if self.programs.len() == 1 => 0,
            None => {
                return Err(format!(
                    "\"program\" is required with several resident programs (have: {})",
                    self.names().join(", ")
                ));
            }
        };
        let rp = &mut self.programs[idx];
        let delta = build_delta(rp, edits)?;
        // Validate the delta once up front so a bad edit script fails
        // atomically instead of leaving entries on different versions.
        let new_program = Arc::new(rp.program.apply_delta(&delta).map_err(|e| e.to_string())?);
        let mut entries = Vec::with_capacity(rp.entries.len());
        for e in &mut rp.entries {
            e.apply(&delta, solve)?;
            entries.push((
                e.policy,
                e.session.last_apply_was_incremental(),
                e.solve_ms,
                e.session.last_fallback(),
            ));
        }
        rp.names = NameIndex::build(&new_program);
        rp.program = new_program;
        rp.version += 1;
        Ok(UpdateOutcome {
            program: rp.name.clone(),
            version: rp.version,
            entries,
        })
    }

    /// Exports per-entry state gauges (`pta_policy_*`, labeled by
    /// program and policy) into `m`. Called after startup solves and
    /// after every applied update, so the exposition endpoint always
    /// reflects the current resident state.
    pub fn export_gauges(&self, m: &Metrics) {
        if !m.is_enabled() {
            return;
        }
        for p in &self.programs {
            m.gauge("pta_program_version", &[("program", &p.name)])
                .set(p.version);
            for e in &p.entries {
                let labels: &[(&str, &str)] = &[("program", &p.name), ("policy", e.policy.name())];
                m.gauge("pta_policy_solve_ms", labels).set(e.solve_ms);
                m.gauge("pta_policy_steps", labels).set(e.steps);
                m.gauge("pta_policy_partial", labels)
                    .set(u64::from(e.partial));
            }
        }
    }

    /// One line per (program, policy) pair for startup logging.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for p in &self.programs {
            for e in &p.entries {
                let _ = writeln!(
                    out,
                    "  {} × {}: {} ({} steps, {} ms)",
                    p.name,
                    e.policy.name(),
                    e.status(),
                    e.steps,
                    e.solve_ms
                );
            }
        }
        out
    }
}

/// Resolves a primary solve into the answer source queries use,
/// engaging the context-insensitive fallback when the solve tripped its
/// budget — the serve analog of the batch CLI's exit-3 partial result.
/// Returns `(result, report, partial, termination, steps)`.
fn resolve_primary(
    primary: PointsToResult,
    program: &Arc<Program>,
    solve: &SolveConfig,
) -> (PointsToResult, CheckReport, bool, Termination, u64) {
    let termination = primary.termination();
    let steps = primary.solver_stats().steps;
    let (result, partial) = if termination.is_complete() {
        (primary, false)
    } else {
        // Budget tripped: answer from the context-insensitive baseline,
        // solved to completion (it is the cheapest policy by orders of
        // magnitude), and tag every response partial.
        let fallback = AnalysisSession::from_arc(Arc::clone(program))
            .policy(Analysis::Insens)
            .metrics(solve.metrics.clone())
            .solve();
        (fallback, true)
    };
    let report = run_check(
        program,
        &result,
        &CheckSpec::default(),
        ClientBackend::Direct,
    );
    (result, report, partial, termination, steps)
}

fn solve_entry(program: &Arc<Program>, policy: Analysis, solve: &SolveConfig) -> PolicyEntry {
    let started = Instant::now();
    let mut session = AnalysisSession::from_arc(Arc::clone(program))
        .policy(policy)
        .budget(solve.budget.clone())
        .incremental(true)
        .metrics(solve.metrics.clone());
    let primary = session.solve();
    let (result, report, partial, termination, steps) = resolve_primary(primary, program, solve);
    PolicyEntry {
        policy,
        session,
        result,
        report,
        partial,
        termination,
        solve_ms: started.elapsed().as_millis() as u64,
        steps,
    }
}

impl PolicyEntry {
    /// Applies one program delta to this entry — incrementally when the
    /// session retained its fixpoint, by re-solving otherwise.
    fn apply(&mut self, delta: &ProgramDelta, solve: &SolveConfig) -> Result<(), String> {
        let started = Instant::now();
        let primary = self.session.apply(delta).map_err(|e| e.to_string())?;
        let program = Arc::clone(self.session.program());
        let (result, report, partial, termination, steps) =
            resolve_primary(primary, &program, solve);
        self.result = result;
        self.report = report;
        self.partial = partial;
        self.termination = termination;
        self.steps = steps;
        self.solve_ms = started.elapsed().as_millis() as u64;
        Ok(())
    }
}

/// The per-policy outcome report of one applied `update`.
pub struct UpdateOutcome {
    pub program: String,
    pub version: u64,
    /// `(policy, maintained incrementally, solve_ms, fallback reason)`
    /// per entry; the reason is `None` for incremental maintenance.
    pub entries: Vec<(Analysis, bool, u64, Option<&'static str>)>,
}

/// Resolves the edit script's names against `rp`'s program and builds
/// the corresponding [`ProgramDelta`].
fn build_delta(rp: &ResidentProgram, edits: &[EditSpec]) -> Result<ProgramDelta, String> {
    let program = &rp.program;
    let find_method = |name: &str| -> Result<MethodId, String> {
        rp.method_named(name)
            .ok_or_else(|| format!("no method named \"{name}\""))
    };
    let find_var = |meth: MethodId, name: &str| -> Option<VarId> {
        rp.vars_named(name)
            .iter()
            .copied()
            .find(|&v| program.var_method(v) == meth)
    };
    let mut delta = ProgramDelta::new(program);
    for edit in edits {
        match edit {
            EditSpec::Alloc {
                method,
                to,
                class,
                label,
            } => {
                let m = find_method(method)?;
                let ty = program
                    .types()
                    .find(|&t| program.type_name(t) == class)
                    .ok_or_else(|| format!("no class named \"{class}\""))?;
                let var = find_var(m, to).unwrap_or_else(|| delta.var(m, to));
                delta.alloc(m, var, ty, label);
            }
            EditSpec::Move { method, to, from } => {
                let m = find_method(method)?;
                let from = find_var(m, from)
                    .ok_or_else(|| format!("no variable \"{from}\" in {method}"))?;
                let to = find_var(m, to).unwrap_or_else(|| delta.var(m, to));
                delta.move_(m, to, from);
            }
            EditSpec::Remove { method, index } => {
                delta.remove_instr(find_method(method)?, *index as usize);
            }
            EditSpec::Clear { method } => delta.clear_method(find_method(method)?),
            EditSpec::Entry { method } => delta.entry_point(find_method(method)?),
            EditSpec::RemoveEntry { method } => delta.remove_entry_point(find_method(method)?),
        }
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(spec: &str) -> Vec<ProgramSource> {
        vec![ProgramSource::parse_workload(spec).unwrap()]
    }

    #[test]
    fn builds_ready_entries_and_resolves_references() {
        let r = Resident::build(
            &sources("luindex:0.1"),
            &["insens".into(), "2obj+H".into()],
            &SolveConfig::default(),
        )
        .unwrap();
        assert_eq!(r.policies, vec![Analysis::Insens, Analysis::TwoObjH]);
        let p = r.program(None).unwrap();
        assert_eq!(p.name, "luindex:0.1");
        let e = r.entry(p, Some("2obj+H")).unwrap();
        assert_eq!(e.status(), "ready");
        assert!(!e.partial);
        assert!(r.entry(p, Some("3obj+2H")).is_err());
        assert!(r.program(Some("missing")).is_err());
    }

    #[test]
    fn tripped_solves_fall_back_to_insens_and_tag_partial() {
        let r = Resident::build(
            &sources("luindex:0.2"),
            &["2obj+H".into()],
            &SolveConfig {
                budget: Budget::unlimited().with_max_steps(50),
                ..SolveConfig::default()
            },
        )
        .unwrap();
        let e = &r.programs[0].entries[0];
        assert!(e.partial);
        assert_eq!(e.status(), "partial");
        assert_eq!(e.termination, Termination::StepLimit);
        // The fallback is a complete insens result, so answers exist.
        assert!(e.result.termination().is_complete());
        assert!(e.result.reachable_method_count() > 0);
    }

    #[test]
    fn updates_bump_the_version_and_stay_incremental() {
        let mut r = Resident::build(
            &sources("luindex:0.1"),
            &["insens".into(), "2obj+H".into()],
            &SolveConfig::default(),
        )
        .unwrap();
        assert_eq!(r.programs[0].version, 1);
        let base = Arc::clone(&r.programs[0].program);
        let entry = base.entry_points()[0];
        let edits = vec![EditSpec::Alloc {
            method: base.method_qualified_name(entry),
            to: "fresh_upd".into(),
            class: base.type_name(base.method_declaring(entry)).to_owned(),
            label: "upd_h0".into(),
        }];
        let out = r.update(None, &edits, &SolveConfig::default()).unwrap();
        assert_eq!(out.version, 2);
        assert_eq!(r.programs[0].version, 2);
        // luindex:0.1 has no reachable exception traffic, so an additive
        // edit is absorbed incrementally by every resident policy.
        assert!(out
            .entries
            .iter()
            .all(|&(_, incremental, _, fallback)| incremental && fallback.is_none()));
        // The fresh allocation is visible to queries against the entry.
        let np = Arc::clone(&r.programs[0].program);
        let var = np
            .vars()
            .find(|&v| np.var_name(v) == "fresh_upd")
            .expect("delta-created variable");
        let p = r.program(None).unwrap();
        let e = r.entry(p, None).unwrap();
        assert!(e.result.termination().is_complete());
        assert_eq!(e.result.points_to(var).len(), 1);
    }

    /// An incremental `update` exports what the solver did while
    /// maintaining the fixpoint: every `pta_solver_*` series of a
    /// one-policy daemon's scrape reads the entry's counters afterwards,
    /// so the added allocation shows in `pta_solver_fire_alloc_total`.
    #[test]
    fn incremental_updates_export_solver_counters() {
        let solve = SolveConfig {
            metrics: Metrics::enabled(),
            ..SolveConfig::default()
        };
        let mut r = Resident::build(&sources("luindex:0.1"), &["2obj+H".into()], &solve).unwrap();
        let base = Arc::clone(&r.programs[0].program);
        let entry = base.entry_points()[0];
        let edits = vec![EditSpec::Alloc {
            method: base.method_qualified_name(entry),
            to: "fresh_upd".into(),
            class: base.type_name(base.method_declaring(entry)).to_owned(),
            label: "upd_h0".into(),
        }];
        let before = r.programs[0].entries[0].result.solver_stats().fire_alloc;
        let out = r.update(None, &edits, &solve).unwrap();
        assert!(out.entries[0].1, "the update must be maintained in place");
        let stats = *r.programs[0].entries[0].result.solver_stats();
        assert!(stats.fire_alloc > before);

        let scrape = solve.metrics.to_prometheus();
        let series: Vec<(&str, u64)> = scrape
            .lines()
            .filter(|l| l.starts_with("pta_solver_"))
            .map(|l| {
                let (name, value) = l.split_once(' ').expect("a sample line");
                (name, value.parse().expect("an integer sample"))
            })
            .collect();
        let fields = stats.fields();
        assert_eq!(series.len(), fields.len(), "{scrape}");
        for (name, value) in fields {
            let series_name = match name {
                "peak_worklist" => "pta_solver_peak_worklist".to_owned(),
                _ => format!("pta_solver_{name}_total"),
            };
            let got = series.iter().find(|s| s.0 == series_name).map(|s| s.1);
            assert_eq!(got, Some(value), "{series_name}");
        }
    }

    #[test]
    fn bad_edit_scripts_fail_atomically() {
        let mut r = Resident::build(
            &sources("luindex:0.1"),
            &["insens".into()],
            &SolveConfig::default(),
        )
        .unwrap();
        for edits in [
            vec![EditSpec::Clear {
                method: "No.such".into(),
            }],
            vec![EditSpec::Move {
                method: r.programs[0]
                    .program
                    .method_qualified_name(r.programs[0].program.entry_points()[0]),
                to: "x".into(),
                from: "no_such_var".into(),
            }],
        ] {
            assert!(r.update(None, &edits, &SolveConfig::default()).is_err());
            assert_eq!(r.programs[0].version, 1, "failed update must not bump");
        }
        // `program` is required only when several programs are resident.
        assert!(r
            .update(Some("missing"), &[], &SolveConfig::default())
            .is_err());
    }

    #[test]
    fn rejects_bad_sources() {
        assert!(ProgramSource::parse_workload("luindex").is_err());
        assert!(ProgramSource::parse_workload("nosuch:0.1").is_err());
        assert!(ProgramSource::parse_workload("luindex:-1").is_err());
        assert!(ProgramSource::parse_workload("luindex:nan").is_err());
        assert!(ProgramSource::parse_workload("luindex:1024.5").is_err());
        assert!(ProgramSource::parse_workload("luindex:1024").is_ok());
        let missing = vec![ProgramSource::File("/nonexistent/x.jir".into())];
        assert!(Resident::build(&missing, &[], &SolveConfig::default()).is_err());
        assert!(Resident::build(&[], &[], &SolveConfig::default()).is_err());
    }
}
