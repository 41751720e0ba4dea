//! The semi-naive fixpoint engine.
//!
//! [`Engine`] owns relations, rules and functors. [`Engine::run`] schedules
//! rules into strata (see [`crate::stratify`]) and iterates each stratum to
//! fixpoint with *delta* evaluation: in every round, each rule is evaluated
//! once per body atom, with that atom restricted to the rows derived in the
//! previous round and the remaining atoms ranging over everything derived
//! before this round. Joins are index-driven: for every atom, the columns
//! bound by the current partial match form a key probed against an
//! incrementally maintained hash index (see [`crate::relation`]).

use std::fmt;

use pta_govern::{Budget, BudgetMeter, CancelToken, Termination};
use pta_ir::hash::FxHashMap;

use crate::relation::Relation;
use crate::rule::{Rule, RuleBuilder, Slot};
use crate::tuple::Row;

/// Identifies a relation within an [`Engine`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(u32);

impl RelId {
    /// The relation's dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a registered functor within an [`Engine`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct FunctorId(u32);

impl FunctorId {
    /// The functor's dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A constructor function: maps bound argument values to a single value.
///
/// Functors model the paper's `Record` / `Merge` / `MergeStatic` context
/// constructors. They must be *deterministic* (same arguments, same result)
/// for evaluation to reach a fixpoint; interning closures satisfy this.
pub type Functor = Box<dyn FnMut(&[u32]) -> u32>;

struct RegisteredFunctor {
    name: String,
    f: Functor,
}

/// Evaluation statistics returned by [`Engine::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of fixpoint rounds across all strata.
    pub rounds: usize,
    /// Number of strata executed.
    pub strata: usize,
    /// Total rows derived (including initial facts).
    pub total_rows: usize,
    /// How the run ended: `Complete` for a full fixpoint, any other
    /// variant when [`Engine::run_governed`] stopped early on budget
    /// exhaustion or cancellation (relations then hold a sound prefix of
    /// the fixpoint).
    pub termination: Termination,
}

/// Per-rule evaluation totals collected by [`Engine::run_profiled`], in
/// rule registration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleProfile {
    /// The rule's diagnostic label (`rule #N` when unlabeled).
    pub label: String,
    /// Semi-naive evaluation passes run (one per non-empty delta window
    /// per round; a rule with a k-atom body can fire up to k times per
    /// round).
    pub fires: u64,
    /// Head rows derived by this rule that were *new* (deduplicated rows
    /// re-derived by an earlier rule in the same round count toward that
    /// earlier rule).
    pub derived: u64,
    /// Cumulative wall-clock nanoseconds spent evaluating the rule.
    pub ns: u64,
}

/// A Datalog engine: relations, rules, functors and the fixpoint driver.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Default)]
pub struct Engine {
    relations: Vec<Relation>,
    rel_by_name: FxHashMap<String, RelId>,
    rules: Vec<Rule>,
    functors: Vec<RegisteredFunctor>,
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Declares a relation with the given arity; returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if a relation of the same name already exists.
    pub fn relation(&mut self, name: &str, arity: usize) -> RelId {
        assert!(
            !self.rel_by_name.contains_key(name),
            "relation {name} already declared"
        );
        assert!(arity <= crate::tuple::MAX_ARITY, "arity too large");
        let id = RelId(self.relations.len() as u32);
        self.relations.push(Relation::new(name, arity));
        self.rel_by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a relation by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelId> {
        self.rel_by_name.get(name).copied()
    }

    /// The name of a relation.
    pub fn relation_name(&self, rel: RelId) -> &str {
        self.relations[rel.index()].name()
    }

    /// The arity of a relation.
    pub fn relation_arity(&self, rel: RelId) -> usize {
        self.relations[rel.index()].arity()
    }

    /// Registers a functor; returns its handle.
    pub fn functor(&mut self, name: &str, f: Functor) -> FunctorId {
        let id = FunctorId(self.functors.len() as u32);
        self.functors.push(RegisteredFunctor {
            name: name.to_owned(),
            f,
        });
        id
    }

    /// Inserts an initial fact. Returns `true` if the row was new.
    pub fn fact(&mut self, rel: RelId, values: &[u32]) -> bool {
        self.relations[rel.index()].insert(Row::new(values))
    }

    /// Starts building a rule. Call [`RuleBuilder::build`] to register it.
    pub fn rule(&mut self) -> RuleBuilder<'_> {
        RuleBuilder::new(self)
    }

    pub(crate) fn register_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Number of rules registered so far.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Number of relations declared so far.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    pub(crate) fn rules(&self) -> &[Rule] {
        &self.rules
    }

    pub(crate) fn functor_count(&self) -> usize {
        self.functors.len()
    }

    pub(crate) fn relations_ref(&self) -> &[Relation] {
        &self.relations
    }

    /// Number of rows currently in `rel`.
    pub fn len(&self, rel: RelId) -> usize {
        self.relations[rel.index()].len()
    }

    /// `true` if `rel` has no rows.
    pub fn is_empty(&self, rel: RelId) -> bool {
        self.relations[rel.index()].is_empty()
    }

    /// Iterates the rows of `rel` in derivation order.
    pub fn rows(&self, rel: RelId) -> impl Iterator<Item = &Row> {
        self.relations[rel.index()].rows().iter()
    }

    /// `true` if `rel` contains the given row.
    pub fn contains(&self, rel: RelId, values: &[u32]) -> bool {
        self.relations[rel.index()].contains(&Row::new(values))
    }

    /// Populates `into` with every row of `domain` that is absent from
    /// `minus` — the engine's substitute for stratified negation, which
    /// the rule language deliberately omits.
    ///
    /// This is a *pre-run* helper over extensional facts: it reads the
    /// relations as they stand when called, so the complement is only
    /// meaningful for input relations whose contents are fully known
    /// before evaluation (calling it on an IDB relation mid-derivation
    /// would bake in a stale snapshot). Returns the number of rows
    /// inserted.
    ///
    /// # Panics
    ///
    /// Panics if the three relations do not share one arity.
    pub fn complement(&mut self, domain: RelId, minus: RelId, into: RelId) -> usize {
        let arity = self.relation_arity(domain);
        assert_eq!(
            arity,
            self.relation_arity(minus),
            "complement: domain/minus arity mismatch"
        );
        assert_eq!(
            arity,
            self.relation_arity(into),
            "complement: domain/into arity mismatch"
        );
        let missing: Vec<Row> = self.relations[domain.index()]
            .rows()
            .iter()
            .filter(|row| !self.relations[minus.index()].contains(row))
            .cloned()
            .collect();
        let target = &mut self.relations[into.index()];
        missing
            .into_iter()
            .filter(|row| target.insert(*row))
            .count()
    }

    /// Runs all rules to fixpoint, stratum by stratum.
    pub fn run(&mut self) -> EngineStats {
        self.run_governed(&Budget::unlimited(), None)
    }

    /// Like [`Engine::run`], but checks `budget` and `cancel`
    /// cooperatively once per fixpoint round (the engine's natural
    /// iteration granularity; `Budget::max_steps` counts rounds here).
    ///
    /// On exhaustion the engine stops between rounds and returns with
    /// [`EngineStats::termination`] set to the tripped limit. The
    /// relations then hold every row derived so far — a sound *prefix* of
    /// the fixpoint (each row is a valid derivation; sets may be
    /// incomplete). A later `run`/`run_governed` call resumes and
    /// finishes the fixpoint, as rows are never retracted.
    pub fn run_governed(&mut self, budget: &Budget, cancel: Option<&CancelToken>) -> EngineStats {
        self.run_inner(budget, cancel, None)
    }

    /// Like [`Engine::run_governed`], but also collects a per-rule
    /// evaluation profile: how many semi-naive evaluation passes each rule
    /// ran, how many of its derived head rows were new, and its cumulative
    /// evaluation time. Rules are identified by their diagnostic label
    /// (`rule #N` when unlabeled), in registration order.
    ///
    /// Profiling adds a clock read per (rule, round) — negligible next to
    /// rule evaluation — and row-attribution bookkeeping at insert time;
    /// un-profiled runs through [`Engine::run_governed`] pay neither.
    pub fn run_profiled(
        &mut self,
        budget: &Budget,
        cancel: Option<&CancelToken>,
    ) -> (EngineStats, Vec<RuleProfile>) {
        let mut prof: Vec<RuleProfile> = self
            .rules
            .iter()
            .enumerate()
            .map(|(i, r)| RuleProfile {
                label: if r.label.is_empty() {
                    format!("rule #{i}")
                } else {
                    r.label.clone()
                },
                fires: 0,
                derived: 0,
                ns: 0,
            })
            .collect();
        let stats = self.run_inner(budget, cancel, Some(&mut prof));
        (stats, prof)
    }

    fn run_inner(
        &mut self,
        budget: &Budget,
        cancel: Option<&CancelToken>,
        mut prof: Option<&mut Vec<RuleProfile>>,
    ) -> EngineStats {
        let mut meter = BudgetMeter::new(budget);
        let governed = !budget.is_unlimited() || cancel.is_some();
        // Per-relation row footprint for the budget memory estimate.
        let row_bytes: Vec<u64> = self
            .relations
            .iter()
            .map(|r| (r.arity() * 4 + 8) as u64)
            .collect();
        let strata = crate::stratify::schedule(&self.rules, self.relations.len());
        let mut stats = EngineStats {
            strata: strata.len(),
            ..EngineStats::default()
        };
        let n = self.relations.len();
        'outer: for stratum in &strata {
            // At stratum entry every existing row is "new" for this
            // stratum's rules.
            let mut prev_end = vec![0usize; n];
            loop {
                stats.rounds += 1;
                let full_end: Vec<usize> = self.relations.iter().map(Relation::len).collect();
                if governed {
                    let mem: u64 = full_end
                        .iter()
                        .zip(&row_bytes)
                        .map(|(&len, &bytes)| len as u64 * bytes)
                        .sum();
                    if let Some(t) = meter.check(stats.rounds as u64, mem, cancel) {
                        stats.termination = t;
                        break 'outer;
                    }
                }
                let mut derived: Vec<(RelId, Row)> = Vec::new();
                // When profiling: `(rule index, end offset into derived)`
                // per evaluated rule, so fresh insertions below can be
                // attributed back to the rule that derived them.
                let mut segments: Vec<(usize, usize)> = Vec::new();
                {
                    let relations = &mut self.relations;
                    let functors = &mut self.functors;
                    let rules = &self.rules;
                    let mut ctx = EvalCtx {
                        relations,
                        functors,
                        full_end: &full_end,
                        prev_end: &prev_end,
                    };
                    for &ri in stratum {
                        let rule = &rules[ri];
                        let t0 = prof.is_some().then(std::time::Instant::now);
                        let mut evals = 0u64;
                        for k in 0..rule.body.len() {
                            let rel = rule.body[k].rel.index();
                            if prev_end[rel] < full_end[rel] {
                                ctx.eval_rule(rule, k, &mut derived);
                                evals += 1;
                            }
                        }
                        if let (Some(t0), Some(p)) = (t0, prof.as_deref_mut()) {
                            p[ri].fires += evals;
                            p[ri].ns += t0.elapsed().as_nanos() as u64;
                            segments.push((ri, derived.len()));
                        }
                    }
                }
                let mut changed = false;
                let mut seg = segments.into_iter();
                let mut cur = seg.next();
                for (i, (rel, row)) in derived.into_iter().enumerate() {
                    let fresh = self.relations[rel.index()].insert(row);
                    changed |= fresh;
                    if let Some(p) = prof.as_deref_mut() {
                        while let Some((_, end)) = cur {
                            if i < end {
                                break;
                            }
                            cur = seg.next();
                        }
                        if fresh {
                            if let Some((ri, _)) = cur {
                                p[ri].derived += 1;
                            }
                        }
                    }
                }
                prev_end = full_end;
                if !changed {
                    break;
                }
            }
        }
        stats.total_rows = self.relations.iter().map(Relation::len).sum();
        stats
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Engine");
        d.field("rules", &self.rules.len());
        d.field(
            "functors",
            &self
                .functors
                .iter()
                .map(|x| x.name.as_str())
                .collect::<Vec<_>>(),
        );
        for rel in &self.relations {
            d.field(rel.name(), &rel.len());
        }
        d.finish()
    }
}

/// Borrow-split evaluation context so relation indices (mutable) and rule
/// metadata (shared) can be used simultaneously.
struct EvalCtx<'a> {
    relations: &'a mut Vec<Relation>,
    functors: &'a mut Vec<RegisteredFunctor>,
    full_end: &'a [usize],
    prev_end: &'a [usize],
}

impl EvalCtx<'_> {
    /// Evaluates `rule` with body position `delta_pos` restricted to the
    /// delta window, appending derived head rows to `out`.
    ///
    /// The delta atom is matched first (anchoring the semi-naive window);
    /// the remaining atoms are ordered greedily at each step by join
    /// selectivity — most bound columns first, smaller relations on ties —
    /// the classic planning heuristic of optimizing Datalog engines.
    fn eval_rule(&mut self, rule: &Rule, delta_pos: usize, out: &mut Vec<(RelId, Row)>) {
        let mut remaining: Vec<usize> = (0..rule.body.len()).filter(|&i| i != delta_pos).collect();
        let mut env = vec![0u32; rule.nvars];
        let mut bound = vec![false; rule.nvars];
        self.join(
            rule,
            &mut remaining,
            Some(delta_pos),
            delta_pos,
            &mut env,
            &mut bound,
            out,
        );
    }

    /// Selectivity score for matching `atom` next: (bound columns,
    /// negated relation size). Higher is better.
    fn score(&self, rule: &Rule, pos: usize, bound: &[bool]) -> (usize, i64) {
        let atom = &rule.body[pos];
        let bound_cols = atom
            .terms
            .iter()
            .filter(|t| match t {
                Slot::Const(_) => true,
                Slot::Var(v) => bound[*v],
            })
            .count();
        let size = self.full_end[atom.rel.index()] as i64;
        (bound_cols, -size)
    }

    #[allow(clippy::too_many_arguments)]
    fn join(
        &mut self,
        rule: &Rule,
        remaining: &mut Vec<usize>,
        forced: Option<usize>,
        delta_pos: usize,
        env: &mut [u32],
        bound: &mut [bool],
        out: &mut Vec<(RelId, Row)>,
    ) {
        let done = forced.is_none() && remaining.is_empty();
        if done {
            // Body matched: evaluate bindings, then derive heads.
            for b in &rule.bindings {
                let args: Vec<u32> = b
                    .args
                    .iter()
                    .map(|s| match s {
                        Slot::Var(v) => env[*v],
                        Slot::Const(c) => *c,
                    })
                    .collect();
                env[b.out] = (self.functors[b.functor.index()].f)(&args);
                bound[b.out] = true;
            }
            for h in &rule.heads {
                let mut row = Row::empty();
                for t in &h.terms {
                    row = row.push(match t {
                        Slot::Var(v) => env[*v],
                        Slot::Const(c) => *c,
                    });
                }
                out.push((h.rel, row));
            }
            return;
        }

        // Pick the next atom: the forced (delta) atom on the first call,
        // then the most selective remaining atom.
        let (pos, picked_index) = match forced {
            Some(p) => (p, None),
            None => {
                let best = (0..remaining.len())
                    .max_by_key(|&i| self.score(rule, remaining[i], bound))
                    .expect("remaining non-empty");
                (remaining[best], Some(best))
            }
        };
        if let Some(i) = picked_index {
            remaining.swap_remove(i);
        }
        let atom = &rule.body[pos];
        let rel_idx = atom.rel.index();

        // Build the probe key from already-bound terms.
        let mut mask = 0u8;
        let mut key = Row::empty();
        for (i, t) in atom.terms.iter().enumerate() {
            match t {
                Slot::Const(c) => {
                    mask |= 1 << i;
                    key = key.push(*c);
                }
                Slot::Var(v) if bound[*v] => {
                    mask |= 1 << i;
                    key = key.push(env[*v]);
                }
                Slot::Var(_) => {}
            }
        }

        let (lo, hi) = if pos == delta_pos {
            (self.prev_end[rel_idx], self.full_end[rel_idx])
        } else {
            (0, self.full_end[rel_idx])
        };
        if lo >= hi {
            // Nothing to match; restore the remaining-set before bailing.
            if picked_index.is_some() {
                remaining.push(pos);
            }
            return;
        }

        // Candidate row positions. The probe allocates a position list copy
        // because the recursion needs the relations borrow back.
        let positions: Vec<u32> = if mask == 0 {
            (lo as u32..hi as u32).collect()
        } else {
            self.relations[rel_idx]
                .probe(mask, &key)
                .iter()
                .copied()
                .filter(|&p| (p as usize) >= lo && (p as usize) < hi)
                .collect()
        };

        let mut newly_bound: Vec<usize> = Vec::new();
        for p in positions {
            let row = self.relations[rel_idx].rows()[p as usize];
            let mut ok = true;
            newly_bound.clear();
            for (i, t) in atom.terms.iter().enumerate() {
                if let Slot::Var(v) = t {
                    if bound[*v] {
                        if env[*v] != row.get(i) {
                            ok = false;
                            break;
                        }
                    } else {
                        env[*v] = row.get(i);
                        bound[*v] = true;
                        newly_bound.push(*v);
                    }
                }
            }
            if ok {
                let saved: Vec<usize> = newly_bound.clone();
                self.join(rule, remaining, None, delta_pos, env, bound, out);
                for &v in &saved {
                    bound[v] = false;
                }
            } else {
                for &v in &newly_bound {
                    bound[v] = false;
                }
            }
        }
        // Restore the remaining-set for the caller (set semantics; order
        // may be permuted, which is fine).
        if picked_index.is_some() {
            remaining.push(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Term;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn transitive_closure() {
        let mut e = Engine::new();
        let edge = e.relation("edge", 2);
        let path = e.relation("path", 2);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            e.fact(edge, &[a, b]);
        }
        e.rule()
            .head(path, &[v("x"), v("y")])
            .atom(edge, &[v("x"), v("y")])
            .build()
            .unwrap();
        e.rule()
            .head(path, &[v("x"), v("z")])
            .atom(edge, &[v("x"), v("y")])
            .atom(path, &[v("y"), v("z")])
            .build()
            .unwrap();
        let stats = e.run();
        assert_eq!(e.len(path), 10); // C(5,2) pairs on a chain
        assert!(stats.rounds >= 3);
        assert!(e.contains(path, &[0, 4]));
        assert!(!e.contains(path, &[4, 0]));
    }

    #[test]
    fn complement_fills_the_gap_between_domain_and_minus() {
        let mut e = Engine::new();
        let loaded = e.relation("Loaded", 2);
        let written = e.relation("Written", 2);
        let unwritten = e.relation("Unwritten", 2);
        for row in [[1, 7], [2, 7], [3, 8]] {
            e.fact(loaded, &row);
        }
        e.fact(written, &[2, 7]);
        e.fact(written, &[9, 9]); // rows outside the domain are ignored
        let inserted = e.complement(loaded, written, unwritten);
        assert_eq!(inserted, 2);
        assert!(e.contains(unwritten, &[1, 7]));
        assert!(e.contains(unwritten, &[3, 8]));
        assert!(!e.contains(unwritten, &[2, 7]));
        // Idempotent: a second call inserts nothing new.
        assert_eq!(e.complement(loaded, written, unwritten), 0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn complement_rejects_mismatched_arity() {
        let mut e = Engine::new();
        let a = e.relation("a", 2);
        let b = e.relation("b", 1);
        let c = e.relation("c", 2);
        e.complement(a, b, c);
    }

    #[test]
    fn constants_filter_matches() {
        let mut e = Engine::new();
        let r = e.relation("r", 2);
        let s = e.relation("s", 1);
        e.fact(r, &[1, 10]);
        e.fact(r, &[2, 20]);
        e.rule()
            .head(s, &[v("y")])
            .atom(r, &[Term::cst(2), v("y")])
            .build()
            .unwrap();
        e.run();
        assert_eq!(e.rows(s).collect::<Vec<_>>(), vec![&Row::new(&[20])]);
    }

    #[test]
    fn repeated_variable_within_atom_requires_equality() {
        let mut e = Engine::new();
        let r = e.relation("r", 2);
        let diag = e.relation("diag", 1);
        e.fact(r, &[1, 1]);
        e.fact(r, &[1, 2]);
        e.fact(r, &[3, 3]);
        e.rule()
            .head(diag, &[v("x")])
            .atom(r, &[v("x"), v("x")])
            .build()
            .unwrap();
        e.run();
        assert_eq!(e.len(diag), 2);
        assert!(e.contains(diag, &[1]));
        assert!(e.contains(diag, &[3]));
    }

    #[test]
    fn multi_head_rule_derives_both() {
        let mut e = Engine::new();
        let a = e.relation("a", 1);
        let b = e.relation("b", 1);
        let c = e.relation("c", 1);
        e.fact(a, &[5]);
        e.rule()
            .head(b, &[v("x")])
            .head(c, &[v("x")])
            .atom(a, &[v("x")])
            .build()
            .unwrap();
        e.run();
        assert!(e.contains(b, &[5]));
        assert!(e.contains(c, &[5]));
    }

    #[test]
    fn functor_with_interning_reaches_fixpoint() {
        // ctx(n') <- ctx(n), n' = step(n): step saturates at 3, so the
        // fixpoint must terminate with {0,1,2,3}.
        let mut e = Engine::new();
        let ctx = e.relation("ctx", 1);
        let step = e.functor("step", Box::new(|args: &[u32]| (args[0] + 1).min(3)));
        e.fact(ctx, &[0]);
        e.rule()
            .head(ctx, &[v("m")])
            .atom(ctx, &[v("n")])
            .bind(step, &[v("n")], "m")
            .build()
            .unwrap();
        e.run();
        assert_eq!(e.len(ctx), 4);
        assert!(e.contains(ctx, &[3]));
    }

    #[test]
    fn strata_run_in_dependency_order() {
        // base -> mid -> top, non-recursive: three strata, and results
        // propagate all the way through.
        let mut e = Engine::new();
        let base = e.relation("base", 1);
        let mid = e.relation("mid", 1);
        let top = e.relation("top", 1);
        e.fact(base, &[1]);
        e.rule()
            .head(mid, &[v("x")])
            .atom(base, &[v("x")])
            .build()
            .unwrap();
        e.rule()
            .head(top, &[v("x")])
            .atom(mid, &[v("x")])
            .build()
            .unwrap();
        let stats = e.run();
        assert!(e.contains(top, &[1]));
        assert_eq!(stats.strata, 2);
    }

    #[test]
    fn same_generation_runs_to_fixpoint() {
        // Classic same-generation over a small tree.
        //      0
        //    1   2
        //   3 4 5 6
        let mut e = Engine::new();
        let parent = e.relation("parent", 2); // (child, parent)
        let sg = e.relation("sg", 2);
        for (c, p) in [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)] {
            e.fact(parent, &[c, p]);
        }
        // sg(x, x) is implicit via the sibling rule; use the textbook pair:
        // sg(x, y) <- parent(x, p), parent(y, p).
        e.rule()
            .head(sg, &[v("x"), v("y")])
            .atom(parent, &[v("x"), v("p")])
            .atom(parent, &[v("y"), v("p")])
            .build()
            .unwrap();
        // sg(x, y) <- parent(x, px), sg(px, py), parent(y, py).
        e.rule()
            .head(sg, &[v("x"), v("y")])
            .atom(parent, &[v("x"), v("px")])
            .atom(sg, &[v("px"), v("py")])
            .atom(parent, &[v("y"), v("py")])
            .build()
            .unwrap();
        e.run();
        // All four leaves are same-generation with each other.
        for x in 3..=6u32 {
            for y in 3..=6u32 {
                assert!(e.contains(sg, &[x, y]), "sg({x},{y})");
            }
        }
        // A leaf and an inner node are not.
        assert!(!e.contains(sg, &[3, 1]));
    }

    #[test]
    fn engine_debug_lists_relations() {
        let mut e = Engine::new();
        let _ = e.relation("edge", 2);
        let dbg = format!("{e:?}");
        assert!(dbg.contains("edge"));
    }

    #[test]
    fn governed_run_stops_early_and_resumes_to_the_same_fixpoint() {
        let mut e = Engine::new();
        let edge = e.relation("edge", 2);
        let path = e.relation("path", 2);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            e.fact(edge, &[a, b]);
        }
        e.rule()
            .head(path, &[v("x"), v("y")])
            .atom(edge, &[v("x"), v("y")])
            .build()
            .unwrap();
        e.rule()
            .head(path, &[v("x"), v("z")])
            .atom(edge, &[v("x"), v("y")])
            .atom(path, &[v("y"), v("z")])
            .build()
            .unwrap();
        let partial = e.run_governed(&Budget::unlimited().with_max_steps(2), None);
        assert_eq!(partial.termination, Termination::StepLimit);
        let rows_so_far = e.len(path);
        assert!(rows_so_far < 10, "two rounds cannot close a 5-chain");
        // Rows are never retracted: re-running resumes and completes.
        let full = e.run();
        assert_eq!(full.termination, Termination::Complete);
        assert_eq!(e.len(path), 10);
    }

    #[test]
    fn cancelled_run_reports_deadline_exceeded() {
        let mut e = Engine::new();
        let edge = e.relation("edge", 2);
        let path = e.relation("path", 2);
        e.fact(edge, &[0, 1]);
        e.rule()
            .head(path, &[v("x"), v("y")])
            .atom(edge, &[v("x"), v("y")])
            .build()
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let stats = e.run_governed(&Budget::unlimited(), Some(&token));
        assert_eq!(stats.termination, Termination::DeadlineExceeded);
        assert_eq!(e.len(path), 0, "cancelled before the first round derived");
    }

    #[test]
    fn run_is_idempotent() {
        let mut e = Engine::new();
        let edge = e.relation("edge", 2);
        let path = e.relation("path", 2);
        e.fact(edge, &[0, 1]);
        e.rule()
            .head(path, &[v("x"), v("y")])
            .atom(edge, &[v("x"), v("y")])
            .build()
            .unwrap();
        e.run();
        let before = e.len(path);
        e.run();
        assert_eq!(e.len(path), before);
    }
}
