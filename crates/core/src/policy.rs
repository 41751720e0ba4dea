//! Context-sensitivity policies: the paper's `Record` / `Merge` /
//! `MergeStatic` constructor functions.
//!
//! Section 2.2 of the paper shows that *all* standard analyses arise from
//! one parametric rule set by varying three constructor functions, and §3
//! introduces the hybrid analyses that are its contribution. This module
//! implements every analysis the paper defines or evaluates, plus the
//! `2call+H` deep-call-site ablation:
//!
//! | group | analyses |
//! |---|---|
//! | baseline | `insens` |
//! | call-site | `1call`, `1call+H`, `2call+H` |
//! | 1-object | `1obj`, `U-1obj`, `SA-1obj`, `SB-1obj` |
//! | 2-object | `2obj+H`, `U-2obj+H`, `S-2obj+H` |
//! | 2-type | `2type+H`, `U-2type+H`, `S-2type+H` |
//!
//! Analyses are exposed two ways: the [`Analysis`] enum (used by the bench
//! harness and examples) and the [`ContextPolicy`] trait (so downstream
//! users can define *new* context policies — the paper's "future work"
//! §6 suggests exactly this kind of experimentation; see the
//! `custom_policy` example).

use std::fmt;
use std::str::FromStr;

use pta_ir::{HeapId, InvoId, MethodId, Program};

use crate::context::{
    ctx1, ctx2, ctx3, hctx1, hctx2, Ctx, CtxElem, HeapCtx, CTX_EMPTY, HCTX_EMPTY,
};

/// A context-sensitivity policy: the three constructor functions of the
/// paper's Figure 1, with access to the program for symbol-table maps such
/// as `CA : H -> T`.
///
/// Implementations must be **deterministic** and **finite**: for a fixed
/// program, the set of contexts reachable from [`ContextPolicy::INITIAL`]
/// through the constructors must be finite (the fixed three-element tuple
/// guarantees this for all provided policies).
pub trait ContextPolicy {
    /// The initial context under which entry points are analyzed.
    const INITIAL: Ctx = CTX_EMPTY;

    /// A short display name (e.g. `"S-2obj+H"`).
    fn name(&self) -> &str;

    /// `RECORD(heap, ctx) = hctx` — creates the heap context for an object
    /// allocated at `heap` by a method analyzed under `ctx`.
    fn record(&self, heap: HeapId, ctx: Ctx, program: &Program) -> HeapCtx;

    /// `MERGE(heap, hctx, invo, ctx) = calleeCtx` — creates the callee
    /// context for a virtual call at `invo` on a receiver abstracted as
    /// `(heap, hctx)`, made from a method analyzed under `ctx`.
    fn merge(&self, heap: HeapId, hctx: HeapCtx, invo: InvoId, ctx: Ctx, program: &Program) -> Ctx;

    /// `MERGESTATIC(invo, ctx) = calleeCtx` — creates the callee context for
    /// a static call at `invo` made from a method analyzed under `ctx`.
    ///
    /// This constructor is the paper's new degree of freedom: selective
    /// hybrids differ from their base analyses *only* here.
    fn merge_static(&self, invo: InvoId, ctx: Ctx, program: &Program) -> Ctx;

    /// `DEMOTE(meth) = ctx` — the fallback context graceful degradation
    /// analyzes `meth` under once its context fan-out crosses the budget
    /// watermark (`SolverConfig::degrade`). Every later call edge into a
    /// demoted method reuses this single context instead of minting fresh
    /// ones via [`ContextPolicy::merge`] / [`ContextPolicy::merge_static`].
    ///
    /// The default — the empty (context-insensitive) context — is sound
    /// for every policy: demotion only *merges* contexts, a monotone
    /// over-approximation that can add spurious flows but never lose real
    /// ones. Overrides must preserve that property (return a context that
    /// does not depend on the call that reached the method) and must be
    /// deterministic, like the other constructors.
    fn demote(&self, _meth: MethodId, _program: &Program) -> Ctx {
        CTX_EMPTY
    }
}

/// The analyses defined and evaluated in the paper (plus the `2call+H`
/// ablation). Order within each group follows Table 1's column order.
///
/// Every variant's documentation quotes the constructor definitions from
/// the paper (§2.2 for standard analyses, §3.1 for uniform hybrids, §3.2
/// for selective hybrids).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(non_camel_case_types)]
pub enum Analysis {
    /// Context-insensitive: `C = HC = {*}`; all three constructors return
    /// `*`.
    Insens,
    /// 1-call-site-sensitive (`1call`): `C = I`, `HC = {*}`.
    ///
    /// `Record = *`, `Merge = invo`, `MergeStatic = invo`.
    OneCall,
    /// 1-call-site-sensitive with context-sensitive heap (`1call+H`):
    /// `C = HC = I`.
    ///
    /// `Record = ctx`, `Merge = invo`, `MergeStatic = invo`.
    OneCallH,
    /// 2-call-site-sensitive with a 1-context-sensitive heap (`2call+H`),
    /// included as the deep-call-site ablation the paper mentions among the
    /// analyses that "quickly make an analysis intractable": `C = I × I`,
    /// `HC = I`.
    ///
    /// `Record = first(ctx)`, `Merge = MergeStatic = pair(invo, first(ctx))`.
    TwoCallH,
    /// 1-object-sensitive (`1obj`): `C = H`, `HC = {*}`.
    ///
    /// `Record = *`, `Merge = heap`, `MergeStatic = ctx` (static calls
    /// blindly copy the caller's context).
    OneObj,
    /// Uniform 1-object hybrid (`U-1obj`, §3.1): `C = H × I`, `HC = {*}`.
    ///
    /// `Record = *`, `Merge = pair(heap, invo)`,
    /// `MergeStatic = pair(first(ctx), invo)`. Strictly more precise than
    /// `1obj`.
    UOneObj,
    /// Selective 1-object hybrid A (`SA-1obj`, §3.2): `C = H ∪ I`,
    /// `HC = {*}` — keeps a *single* element, an allocation site at virtual
    /// calls but an invocation site at static calls.
    ///
    /// `Record = *`, `Merge = heap`, `MergeStatic = invo`. Not comparable to
    /// `1obj` in precision, but consistently faster.
    SAOneObj,
    /// Selective 1-object hybrid B (`SB-1obj`, §3.2): `C = H × (I ∪ {*})`.
    ///
    /// `Record = *`, `Merge = pair(heap, *)`,
    /// `MergeStatic = pair(first(ctx), invo)`. Strictly more precise than
    /// `1obj`; approximates `U-1obj`'s precision at a fraction of the cost.
    SBOneObj,
    /// 1-object-sensitive with a context-sensitive heap (`1obj+H`):
    /// `C = H`, `HC = H`. The paper's §2.2 "Other Analyses" discussion
    /// rejects it as "a strictly inferior choice to other analyses
    /// (especially 2type+H) in practice: it is both much less precise and
    /// much slower" — included here so that claim can be measured.
    ///
    /// `Record = first(ctx)`, `Merge = heap`, `MergeStatic = ctx`.
    OneObjH,
    /// 2-object-sensitive with a 1-context-sensitive heap (`2obj+H`):
    /// `C = H × H`, `HC = H`. The paper's high-precision baseline.
    ///
    /// `Record = first(ctx)`, `Merge = pair(heap, hctx)`,
    /// `MergeStatic = ctx`.
    TwoObjH,
    /// Uniform 2-object hybrid (`U-2obj+H`, §3.1): `C = H × H × I`,
    /// `HC = H`.
    ///
    /// `Record = first(ctx)`, `Merge = triple(heap, hctx, invo)`,
    /// `MergeStatic = triple(first(ctx), second(ctx), invo)`. Strictly more
    /// precise than `2obj+H`, but very expensive.
    UTwoObjH,
    /// Selective 2-object hybrid (`S-2obj+H`, §3.2):
    /// `C = H × (H ∪ I) × (H ∪ I ∪ {*})`, `HC = H`.
    ///
    /// `Record = first(ctx)`, `Merge = triple(heap, hctx, *)`,
    /// `MergeStatic = triple(first(ctx), invo, second(ctx))`. The paper's
    /// headline result: more precise than `2obj+H` *and* substantially
    /// faster (avg 1.53x in the paper).
    STwoObjH,
    /// 2-type-sensitive with a 1-context-sensitive heap (`2type+H`):
    /// `C = T × T`, `HC = T`, where types come from `CA(heap)` — the class
    /// containing the allocation site.
    ///
    /// `Record = first(ctx)`, `Merge = pair(CA(heap), hctx)`,
    /// `MergeStatic = ctx`.
    TwoTypeH,
    /// Uniform 2-type hybrid (`U-2type+H`, §3.1): `C = T × T × I`,
    /// `HC = T`.
    ///
    /// `Record = first(ctx)`, `Merge = triple(CA(heap), hctx, invo)`,
    /// `MergeStatic = triple(first(ctx), second(ctx), invo)`.
    UTwoTypeH,
    /// Selective 2-type hybrid (`S-2type+H`, §3.2):
    /// `C = T × (T ∪ I) × (T ∪ I ∪ {*})`, `HC = T`.
    ///
    /// `Record = first(ctx)`, `Merge = triple(CA(heap), hctx, *)`,
    /// `MergeStatic = triple(first(ctx), invo, second(ctx))`.
    STwoTypeH,
    /// 2-object-sensitive with a **2**-context-sensitive heap (`2obj+2H`) —
    /// one of the deeper-context analyses the paper's §2.2 lists among
    /// those that "quickly make an analysis intractable" and §6 proposes
    /// for further experimentation: `C = H × H`, `HC = H × H`.
    ///
    /// `Record = ctx` (both elements), `Merge = pair(heap, first(hctx))`,
    /// `MergeStatic = ctx`.
    TwoObj2H,
    /// 3-object-sensitive with a 2-context-sensitive heap (`3obj+2H`),
    /// the canonical deeper object-sensitive analysis (§6 future work):
    /// `C = H × H × H`, `HC = H × H`.
    ///
    /// `Record = pair(first(ctx), second(ctx))`,
    /// `Merge = triple(heap, first(hctx), second(hctx))`,
    /// `MergeStatic = ctx`.
    ThreeObj2H,
    /// Selective hybrid of `3obj+2H` (this repository's extension of the
    /// paper's recipe to depth 3): virtual calls keep the full
    /// object-sensitive triple; static calls append the invocation site in
    /// the second slot, `MergeStatic = triple(first(ctx), invo,
    /// second(ctx))`, exactly as S-2obj+H does one level down.
    SThreeObj2H,
}

impl Analysis {
    /// All analyses, in the paper's Table 1 column order (call-site group,
    /// 1-object group, 2-object group, 2-type group), with `insens` first,
    /// the `2call+H` ablation after the call-site group, and the
    /// deeper-context extensions (§6 future work) last.
    pub const ALL: [Analysis; 18] = [
        Analysis::Insens,
        Analysis::OneCall,
        Analysis::OneCallH,
        Analysis::TwoCallH,
        Analysis::OneObj,
        Analysis::UOneObj,
        Analysis::SAOneObj,
        Analysis::SBOneObj,
        Analysis::OneObjH,
        Analysis::TwoObjH,
        Analysis::UTwoObjH,
        Analysis::STwoObjH,
        Analysis::TwoTypeH,
        Analysis::UTwoTypeH,
        Analysis::STwoTypeH,
        Analysis::TwoObj2H,
        Analysis::ThreeObj2H,
        Analysis::SThreeObj2H,
    ];

    /// The twelve analyses of the paper's Table 1, in its exact column
    /// order.
    pub const TABLE1: [Analysis; 12] = [
        Analysis::OneCall,
        Analysis::OneCallH,
        Analysis::OneObj,
        Analysis::UOneObj,
        Analysis::SAOneObj,
        Analysis::SBOneObj,
        Analysis::TwoObjH,
        Analysis::UTwoObjH,
        Analysis::STwoObjH,
        Analysis::TwoTypeH,
        Analysis::UTwoTypeH,
        Analysis::STwoTypeH,
    ];

    /// The paper's display name (e.g. `"S-2obj+H"`).
    pub fn name(self) -> &'static str {
        match self {
            Analysis::Insens => "insens",
            Analysis::OneCall => "1call",
            Analysis::OneCallH => "1call+H",
            Analysis::TwoCallH => "2call+H",
            Analysis::OneObj => "1obj",
            Analysis::UOneObj => "U-1obj",
            Analysis::SAOneObj => "SA-1obj",
            Analysis::SBOneObj => "SB-1obj",
            Analysis::OneObjH => "1obj+H",
            Analysis::TwoObjH => "2obj+H",
            Analysis::UTwoObjH => "U-2obj+H",
            Analysis::STwoObjH => "S-2obj+H",
            Analysis::TwoTypeH => "2type+H",
            Analysis::UTwoTypeH => "U-2type+H",
            Analysis::STwoTypeH => "S-2type+H",
            Analysis::TwoObj2H => "2obj+2H",
            Analysis::ThreeObj2H => "3obj+2H",
            Analysis::SThreeObj2H => "S-3obj+2H",
        }
    }

    /// `true` for the paper's uniform hybrids (§3.1).
    pub fn is_uniform_hybrid(self) -> bool {
        matches!(
            self,
            Analysis::UOneObj | Analysis::UTwoObjH | Analysis::UTwoTypeH
        )
    }

    /// `true` for the paper's selective hybrids (§3.2) and this
    /// repository's depth-3 extension.
    pub fn is_selective_hybrid(self) -> bool {
        matches!(
            self,
            Analysis::SAOneObj
                | Analysis::SBOneObj
                | Analysis::STwoObjH
                | Analysis::STwoTypeH
                | Analysis::SThreeObj2H
        )
    }

    /// The base (non-hybrid) analysis a hybrid enhances, if any.
    pub fn base_analysis(self) -> Option<Analysis> {
        match self {
            Analysis::UOneObj | Analysis::SAOneObj | Analysis::SBOneObj => Some(Analysis::OneObj),
            Analysis::UTwoObjH | Analysis::STwoObjH => Some(Analysis::TwoObjH),
            Analysis::UTwoTypeH | Analysis::STwoTypeH => Some(Analysis::TwoTypeH),
            Analysis::SThreeObj2H => Some(Analysis::ThreeObj2H),
            _ => None,
        }
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown analysis name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAnalysisError {
    /// The unrecognized input.
    pub input: String,
}

impl fmt::Display for ParseAnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown analysis name: {:?}", self.input)
    }
}

impl std::error::Error for ParseAnalysisError {}

impl FromStr for Analysis {
    type Err = ParseAnalysisError;

    fn from_str(s: &str) -> Result<Analysis, ParseAnalysisError> {
        Analysis::ALL
            .iter()
            .copied()
            .find(|a| a.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseAnalysisError {
                input: s.to_owned(),
            })
    }
}

impl ContextPolicy for Analysis {
    fn name(&self) -> &str {
        Analysis::name(*self)
    }

    fn record(&self, _heap: HeapId, ctx: Ctx, _program: &Program) -> HeapCtx {
        match self {
            // No heap context.
            Analysis::Insens
            | Analysis::OneCall
            | Analysis::OneObj
            | Analysis::UOneObj
            | Analysis::SAOneObj
            | Analysis::SBOneObj => HCTX_EMPTY,
            // `Record(heap, ctx) = ctx` — the (single-element) method
            // context becomes the heap context.
            Analysis::OneCallH => hctx1(ctx[0]),
            // `Record(heap, ctx) = first(ctx)`.
            Analysis::OneObjH
            | Analysis::TwoCallH
            | Analysis::TwoObjH
            | Analysis::UTwoObjH
            | Analysis::STwoObjH
            | Analysis::TwoTypeH
            | Analysis::UTwoTypeH
            | Analysis::STwoTypeH => hctx1(ctx[0]),
            // Deeper heap contexts: keep the two most significant method
            // context elements.
            Analysis::TwoObj2H | Analysis::ThreeObj2H | Analysis::SThreeObj2H => {
                hctx2(ctx[0], ctx[1])
            }
        }
    }

    fn merge(&self, heap: HeapId, hctx: HeapCtx, invo: InvoId, ctx: Ctx, program: &Program) -> Ctx {
        match self {
            Analysis::Insens => CTX_EMPTY,
            // `Merge = invo`.
            Analysis::OneCall | Analysis::OneCallH => ctx1(CtxElem::invo(invo)),
            // `Merge = pair(invo, first(ctx))`.
            Analysis::TwoCallH => ctx2(CtxElem::invo(invo), ctx[0]),
            // `Merge = heap`.
            Analysis::OneObj | Analysis::OneObjH | Analysis::SAOneObj => ctx1(CtxElem::heap(heap)),
            // `Merge = pair(heap, invo)`.
            Analysis::UOneObj => ctx2(CtxElem::heap(heap), CtxElem::invo(invo)),
            // `Merge = pair(heap, *)`.
            Analysis::SBOneObj => ctx2(CtxElem::heap(heap), CtxElem::STAR),
            // `Merge = pair(heap, hctx)`.
            Analysis::TwoObjH => ctx2(CtxElem::heap(heap), hctx[0]),
            // `Merge = triple(heap, hctx, invo)`.
            Analysis::UTwoObjH => ctx3(CtxElem::heap(heap), hctx[0], CtxElem::invo(invo)),
            // `Merge = triple(heap, hctx, *)`.
            Analysis::STwoObjH => ctx3(CtxElem::heap(heap), hctx[0], CtxElem::STAR),
            // `Merge = pair(CA(heap), hctx)`.
            Analysis::TwoTypeH => ctx2(CtxElem::ty(program.heap_containing_class(heap)), hctx[0]),
            // `Merge = triple(CA(heap), hctx, invo)`.
            Analysis::UTwoTypeH => ctx3(
                CtxElem::ty(program.heap_containing_class(heap)),
                hctx[0],
                CtxElem::invo(invo),
            ),
            // `Merge = triple(CA(heap), hctx, *)`.
            Analysis::STwoTypeH => ctx3(
                CtxElem::ty(program.heap_containing_class(heap)),
                hctx[0],
                CtxElem::STAR,
            ),
            // `Merge = pair(heap, first(hctx))`.
            Analysis::TwoObj2H => ctx2(CtxElem::heap(heap), hctx[0]),
            // `Merge = triple(heap, first(hctx), second(hctx))` — the full
            // receiver-object chain.
            Analysis::ThreeObj2H | Analysis::SThreeObj2H => {
                ctx3(CtxElem::heap(heap), hctx[0], hctx[1])
            }
        }
    }

    fn merge_static(&self, invo: InvoId, ctx: Ctx, _program: &Program) -> Ctx {
        match self {
            Analysis::Insens => CTX_EMPTY,
            // `MergeStatic = invo`.
            Analysis::OneCall | Analysis::OneCallH | Analysis::SAOneObj => {
                ctx1(CtxElem::invo(invo))
            }
            // `MergeStatic = pair(invo, first(ctx))`.
            Analysis::TwoCallH => ctx2(CtxElem::invo(invo), ctx[0]),
            // `MergeStatic = ctx` — copy the caller's context unchanged.
            Analysis::OneObj
            | Analysis::OneObjH
            | Analysis::TwoObjH
            | Analysis::TwoTypeH
            | Analysis::TwoObj2H
            | Analysis::ThreeObj2H => ctx,
            // `MergeStatic = pair(first(ctx), invo)`.
            Analysis::UOneObj | Analysis::SBOneObj => ctx2(ctx[0], CtxElem::invo(invo)),
            // `MergeStatic = triple(first(ctx), second(ctx), invo)`.
            Analysis::UTwoObjH | Analysis::UTwoTypeH => ctx3(ctx[0], ctx[1], CtxElem::invo(invo)),
            // `MergeStatic = triple(first(ctx), invo, second(ctx))`.
            Analysis::STwoObjH | Analysis::STwoTypeH | Analysis::SThreeObj2H => {
                ctx3(ctx[0], CtxElem::invo(invo), ctx[1])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_ir::ProgramBuilder;

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let c = b.class("C", Some(object));
        let m = b.method(c, "main", &[], true);
        let v = b.var(m, "v");
        b.alloc(m, v, c, "site");
        b.entry_point(m);
        b.finish().unwrap()
    }

    #[test]
    fn names_roundtrip_through_fromstr() {
        for a in Analysis::ALL {
            assert_eq!(a.name().parse::<Analysis>().unwrap(), a);
        }
        assert!("bogus".parse::<Analysis>().is_err());
        // Case-insensitive.
        assert_eq!("s-2obj+h".parse::<Analysis>().unwrap(), Analysis::STwoObjH);
    }

    #[test]
    fn table1_is_a_subset_of_all() {
        for a in Analysis::TABLE1 {
            assert!(Analysis::ALL.contains(&a));
        }
        assert!(!Analysis::TABLE1.contains(&Analysis::Insens));
        assert!(!Analysis::TABLE1.contains(&Analysis::TwoCallH));
    }

    #[test]
    fn hybrid_classification_matches_paper() {
        assert!(Analysis::UTwoObjH.is_uniform_hybrid());
        assert!(Analysis::STwoObjH.is_selective_hybrid());
        assert!(!Analysis::TwoObjH.is_uniform_hybrid());
        assert_eq!(Analysis::STwoObjH.base_analysis(), Some(Analysis::TwoObjH));
        assert_eq!(Analysis::SBOneObj.base_analysis(), Some(Analysis::OneObj));
        assert_eq!(Analysis::OneCall.base_analysis(), None);
    }

    /// §3.1: "the context of a U-1obj analysis is always a superset of that
    /// of 1obj" — the first element agrees, the invocation site is appended.
    #[test]
    fn u1obj_context_refines_1obj() {
        let p = tiny_program();
        let h = HeapId::from_raw(0);
        let i = InvoId::from_raw(0);
        let base = Analysis::OneObj.merge(h, HCTX_EMPTY, i, CTX_EMPTY, &p);
        let uni = Analysis::UOneObj.merge(h, HCTX_EMPTY, i, CTX_EMPTY, &p);
        assert_eq!(base[0], uni[0]);
        assert_eq!(uni[1], CtxElem::invo(i));
    }

    /// §3.2: SB-1obj virtual-call contexts coincide with 1obj's in their
    /// significant element; static calls append the invocation site.
    #[test]
    fn sb1obj_virtual_matches_1obj_static_extends() {
        let p = tiny_program();
        let h = HeapId::from_raw(0);
        let i = InvoId::from_raw(0);
        let v = Analysis::SBOneObj.merge(h, HCTX_EMPTY, i, CTX_EMPTY, &p);
        assert_eq!(v[0], CtxElem::heap(h));
        assert!(v[1].is_star());
        let ctx = [CtxElem::heap(h), CtxElem::STAR, CtxElem::STAR];
        let s = Analysis::SBOneObj.merge_static(i, ctx, &p);
        assert_eq!(s, [CtxElem::heap(h), CtxElem::invo(i), CtxElem::STAR]);
    }

    /// §3.2 S-2obj+H: on a virtual call the context equals 2obj+H's (plus a
    /// trailing `*`), on the first static call it is a strict extension, and
    /// on nested static calls the last two elements are invocation sites.
    #[test]
    fn s2objh_context_shapes() {
        let p = tiny_program();
        let h = HeapId::from_raw(0);
        let hctx = hctx1(CtxElem::heap(HeapId::from_raw(0)));
        let i1 = InvoId::from_raw(0);
        let v = Analysis::STwoObjH.merge(h, hctx, i1, CTX_EMPTY, &p);
        let base = Analysis::TwoObjH.merge(h, hctx, i1, CTX_EMPTY, &p);
        assert_eq!(v[0], base[0]);
        assert_eq!(v[1], base[1]);
        assert!(v[2].is_star());
        // First static call from a virtually-called method.
        let s1 = Analysis::STwoObjH.merge_static(i1, v, &p);
        assert_eq!(s1[0], v[0]);
        assert_eq!(s1[1], CtxElem::invo(i1));
        assert_eq!(s1[2], v[1]);
        // Second static call: both trailing elements are invocation sites.
        let i2 = InvoId::from_raw(1);
        let s2 = Analysis::STwoObjH.merge_static(i2, s1, &p);
        assert_eq!(s2[0], v[0]);
        assert_eq!(s2[1], CtxElem::invo(i2));
        assert_eq!(s2[2], CtxElem::invo(i1));
    }

    /// 2obj+H: `Record = first(ctx)` makes the heap context the receiver of
    /// the allocating method, and `Merge = pair(heap, hctx)`.
    #[test]
    fn two_obj_h_constructors() {
        let p = tiny_program();
        let recv = CtxElem::heap(HeapId::from_raw(7));
        let ctx = [recv, CtxElem::STAR, CtxElem::STAR];
        assert_eq!(
            Analysis::TwoObjH.record(HeapId::from_raw(0), ctx, &p),
            hctx1(recv)
        );
        let m = Analysis::TwoObjH.merge(
            HeapId::from_raw(3),
            hctx1(recv),
            InvoId::from_raw(9),
            ctx,
            &p,
        );
        assert_eq!(m, [CtxElem::heap(HeapId::from_raw(3)), recv, CtxElem::STAR]);
        assert_eq!(
            Analysis::TwoObjH.merge_static(InvoId::from_raw(9), ctx, &p),
            ctx
        );
    }

    /// Type-sensitive analyses use `CA(heap)` — the class *containing* the
    /// allocation, not the allocated type.
    #[test]
    fn type_sensitivity_uses_containing_class() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let alloc_in = b.class("Factory", Some(object));
        let allocated = b.class("Product", Some(object));
        let m = b.method(alloc_in, "make", &[], true);
        let v = b.var(m, "v");
        let h = b.alloc(m, v, allocated, "new Product");
        let main = b.method(alloc_in, "main", &[], true);
        b.entry_point(main);
        let p = b.finish().unwrap();
        let merged = Analysis::TwoTypeH.merge(h, HCTX_EMPTY, InvoId::from_raw(0), CTX_EMPTY, &p);
        assert_eq!(merged[0], CtxElem::ty(alloc_in));
        assert_ne!(merged[0], CtxElem::ty(allocated));
    }

    /// `insens` collapses everything to the single context.
    #[test]
    fn insens_has_single_context() {
        let p = tiny_program();
        let h = HeapId::from_raw(0);
        let i = InvoId::from_raw(0);
        assert_eq!(Analysis::Insens.record(h, CTX_EMPTY, &p), HCTX_EMPTY);
        assert_eq!(
            Analysis::Insens.merge(h, HCTX_EMPTY, i, CTX_EMPTY, &p),
            CTX_EMPTY
        );
        assert_eq!(Analysis::Insens.merge_static(i, CTX_EMPTY, &p), CTX_EMPTY);
    }

    /// 1call+H records the calling context (an invocation site) as heap
    /// context.
    #[test]
    fn one_call_h_records_call_site_heap_context() {
        let p = tiny_program();
        let site = CtxElem::invo(InvoId::from_raw(4));
        let ctx = [site, CtxElem::STAR, CtxElem::STAR];
        assert_eq!(
            Analysis::OneCallH.record(HeapId::from_raw(0), ctx, &p),
            hctx1(site)
        );
        assert_eq!(
            Analysis::OneCall.record(HeapId::from_raw(0), ctx, &p),
            HCTX_EMPTY
        );
    }
}
