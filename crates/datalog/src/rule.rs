//! Rule representation and the rule-building DSL.
//!
//! A rule is a conjunctive query: one or more *head* atoms derived whenever
//! all *body* atoms match, plus an ordered list of *functor bindings*
//! evaluated after the body matches. Bindings are how the paper's context
//! constructors (`Record`, `Merge`, `MergeStatic`) enter rule evaluation:
//!
//! ```text
//! VarPointsTo(var, ctx, heap, hctx) , hctx = Record(heap, ctx) <-
//!     Reachable(meth, ctx), Alloc(var, heap, meth).
//! ```
//!
//! Variables are named strings during construction and resolved to dense
//! slots by [`RuleBuilder::build`], which also performs range-restriction
//! checks (every head/functor variable must be bound by the body or by an
//! earlier binding).

use std::error::Error;
use std::fmt;

use pta_ir::hash::FxHashMap;

use crate::engine::{Engine, FunctorId, RelId};

/// A term in an atom: a named variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A named variable, unified across the rule.
    Var(String),
    /// A constant value.
    Const(u32),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// Shorthand for a constant term.
    pub fn cst(value: u32) -> Term {
        Term::Const(value)
    }
}

/// A resolved term: variable slot or constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    Var(usize),
    Const(u32),
}

/// A resolved atom.
#[derive(Debug, Clone)]
pub(crate) struct Atom {
    pub rel: RelId,
    pub terms: Vec<Slot>,
}

/// A resolved functor binding `out = functor(args…)`.
#[derive(Debug, Clone)]
pub(crate) struct Binding {
    pub functor: FunctorId,
    pub args: Vec<Slot>,
    pub out: usize,
}

/// A fully resolved rule, ready for semi-naive evaluation.
#[derive(Debug, Clone)]
pub(crate) struct Rule {
    pub heads: Vec<Atom>,
    pub body: Vec<Atom>,
    pub bindings: Vec<Binding>,
    pub nvars: usize,
    #[allow(dead_code)] // diagnostics only
    pub label: String,
}

/// Errors detected while building a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleBuildError {
    /// The rule has no head atom.
    NoHead,
    /// The rule has no body atom (facts should use `Engine::fact`).
    NoBody,
    /// An atom's term count does not match its relation's arity.
    ArityMismatch {
        /// Name of the offending relation.
        relation: String,
        /// Terms supplied.
        got: usize,
        /// Arity expected.
        expected: usize,
    },
    /// A head or functor-argument variable is not bound by the body or by an
    /// earlier binding (violates range restriction).
    UnboundVariable {
        /// The unbound variable's name.
        name: String,
    },
}

impl fmt::Display for RuleBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleBuildError::NoHead => write!(f, "rule has no head atom"),
            RuleBuildError::NoBody => write!(f, "rule has no body atom"),
            RuleBuildError::ArityMismatch {
                relation,
                got,
                expected,
            } => write!(
                f,
                "atom over {relation} has {got} terms, relation arity is {expected}"
            ),
            RuleBuildError::UnboundVariable { name } => {
                write!(f, "variable {name} is not bound by the rule body")
            }
        }
    }
}

impl Error for RuleBuildError {}

/// Builder for one rule; obtained from [`Engine::rule`].
pub struct RuleBuilder<'e> {
    engine: &'e mut Engine,
    label: String,
    heads: Vec<(RelId, Vec<Term>)>,
    body: Vec<(RelId, Vec<Term>)>,
    bindings: Vec<(FunctorId, Vec<Term>, String)>,
}

impl<'e> RuleBuilder<'e> {
    pub(crate) fn new(engine: &'e mut Engine) -> RuleBuilder<'e> {
        RuleBuilder {
            engine,
            label: String::new(),
            heads: Vec::new(),
            body: Vec::new(),
            bindings: Vec::new(),
        }
    }

    /// Attaches a diagnostic label to the rule.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Adds a head atom (derived on every body match).
    pub fn head(mut self, rel: RelId, terms: &[Term]) -> Self {
        self.heads.push((rel, terms.to_vec()));
        self
    }

    /// Adds a body atom (must match for the rule to fire).
    pub fn atom(mut self, rel: RelId, terms: &[Term]) -> Self {
        self.body.push((rel, terms.to_vec()));
        self
    }

    /// Adds a functor binding `out = functor(args…)`, evaluated after the
    /// body matches and before heads are derived. Bindings are evaluated in
    /// declaration order, so later bindings may use earlier outputs.
    pub fn bind(mut self, functor: FunctorId, args: &[Term], out: impl Into<String>) -> Self {
        self.bindings.push((functor, args.to_vec(), out.into()));
        self
    }

    /// Resolves names, validates the rule, and registers it with the engine.
    ///
    /// # Errors
    ///
    /// See [`RuleBuildError`].
    pub fn build(self) -> Result<(), RuleBuildError> {
        if self.heads.is_empty() {
            return Err(RuleBuildError::NoHead);
        }
        if self.body.is_empty() {
            return Err(RuleBuildError::NoBody);
        }

        let mut slots: FxHashMap<String, usize> = FxHashMap::default();
        let slot_of = |name: &str, slots: &mut FxHashMap<String, usize>| -> usize {
            if let Some(&s) = slots.get(name) {
                s
            } else {
                let s = slots.len();
                slots.insert(name.to_owned(), s);
                s
            }
        };

        // Resolve body first so body variables get slots and we know what is
        // bound.
        let mut body = Vec::with_capacity(self.body.len());
        let mut bound: Vec<String> = Vec::new();
        for (rel, terms) in &self.body {
            let expected = self.engine.relation_arity(*rel);
            if terms.len() != expected {
                return Err(RuleBuildError::ArityMismatch {
                    relation: self.engine.relation_name(*rel).to_owned(),
                    got: terms.len(),
                    expected,
                });
            }
            let resolved = terms
                .iter()
                .map(|t| match t {
                    Term::Var(n) => {
                        bound.push(n.clone());
                        Slot::Var(slot_of(n, &mut slots))
                    }
                    Term::Const(v) => Slot::Const(*v),
                })
                .collect();
            body.push(Atom {
                rel: *rel,
                terms: resolved,
            });
        }

        // Bindings: args must be bound already; outputs become bound.
        let mut bindings = Vec::with_capacity(self.bindings.len());
        for (functor, args, out) in &self.bindings {
            let mut resolved_args = Vec::with_capacity(args.len());
            for t in args {
                match t {
                    Term::Var(n) => {
                        if !bound.iter().any(|b| b == n) {
                            return Err(RuleBuildError::UnboundVariable { name: n.clone() });
                        }
                        resolved_args.push(Slot::Var(slot_of(n, &mut slots)));
                    }
                    Term::Const(v) => resolved_args.push(Slot::Const(*v)),
                }
            }
            bound.push(out.clone());
            let out_slot = slot_of(out, &mut slots);
            bindings.push(Binding {
                functor: *functor,
                args: resolved_args,
                out: out_slot,
            });
        }

        // Heads: every variable must be bound.
        let mut heads = Vec::with_capacity(self.heads.len());
        for (rel, terms) in &self.heads {
            let expected = self.engine.relation_arity(*rel);
            if terms.len() != expected {
                return Err(RuleBuildError::ArityMismatch {
                    relation: self.engine.relation_name(*rel).to_owned(),
                    got: terms.len(),
                    expected,
                });
            }
            let mut resolved = Vec::with_capacity(terms.len());
            for t in terms {
                match t {
                    Term::Var(n) => {
                        if !bound.iter().any(|b| b == n) {
                            return Err(RuleBuildError::UnboundVariable { name: n.clone() });
                        }
                        resolved.push(Slot::Var(slot_of(n, &mut slots)));
                    }
                    Term::Const(v) => resolved.push(Slot::Const(*v)),
                }
            }
            heads.push(Atom {
                rel: *rel,
                terms: resolved,
            });
        }

        let rule = Rule {
            heads,
            body,
            bindings,
            nvars: slots.len(),
            label: self.label,
        };
        self.engine.register_rule(rule);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    #[test]
    fn unbound_head_variable_is_rejected() {
        let mut e = Engine::new();
        let a = e.relation("a", 1);
        let b = e.relation("b", 1);
        let err = e
            .rule()
            .head(b, &[Term::var("y")])
            .atom(a, &[Term::var("x")])
            .build()
            .unwrap_err();
        assert_eq!(err, RuleBuildError::UnboundVariable { name: "y".into() });
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut e = Engine::new();
        let a = e.relation("a", 2);
        let b = e.relation("b", 1);
        let err = e
            .rule()
            .head(b, &[Term::var("x")])
            .atom(a, &[Term::var("x")])
            .build()
            .unwrap_err();
        assert!(matches!(err, RuleBuildError::ArityMismatch { .. }));
    }

    #[test]
    fn headless_and_bodyless_rules_are_rejected() {
        let mut e = Engine::new();
        let a = e.relation("a", 1);
        assert_eq!(
            e.rule().atom(a, &[Term::var("x")]).build().unwrap_err(),
            RuleBuildError::NoHead
        );
        assert_eq!(
            e.rule().head(a, &[Term::cst(1)]).build().unwrap_err(),
            RuleBuildError::NoBody
        );
    }

    #[test]
    fn binding_output_can_feed_head() {
        let mut e = Engine::new();
        let a = e.relation("a", 1);
        let b = e.relation("b", 2);
        let inc = e.functor("inc", Box::new(|args: &[u32]| args[0] + 1));
        e.fact(a, &[10]);
        e.rule()
            .head(b, &[Term::var("x"), Term::var("y")])
            .atom(a, &[Term::var("x")])
            .bind(inc, &[Term::var("x")], "y")
            .build()
            .unwrap();
        e.run();
        assert_eq!(
            e.rows(b).collect::<Vec<_>>(),
            vec![&crate::Row::new(&[10, 11])]
        );
    }

    #[test]
    fn binding_with_unbound_arg_is_rejected() {
        let mut e = Engine::new();
        let a = e.relation("a", 1);
        let b = e.relation("b", 1);
        let inc = e.functor("inc", Box::new(|args: &[u32]| args[0] + 1));
        let err = e
            .rule()
            .head(b, &[Term::var("y")])
            .atom(a, &[Term::var("x")])
            .bind(inc, &[Term::var("z")], "y")
            .build()
            .unwrap_err();
        assert_eq!(err, RuleBuildError::UnboundVariable { name: "z".into() });
    }
}
