//! Context representation and interning.
//!
//! The paper's analyses qualify every method (and local variable) with a
//! *context* drawn from `C` and every heap object with a *heap context*
//! drawn from `HC`. Across all analyses studied, a context is a tuple of at
//! most three *elements*, each of which is an allocation site (`H`), an
//! invocation site (`I`), a class type (`T`), or the distinguished `*`
//! element. The paper constructs these with `pair`/`triple` and observes
//! that the statically bounded depth is what keeps the analysis finite
//! ("the possible number of distinct contexts is cubic in the size of the
//! input program").
//!
//! A [`CtxElem`] is a tagged `u32` (2 tag bits, 30 payload bits); a [`Ctx`]
//! is a fixed `[CtxElem; 3]` padded with `*`; heap contexts are a single
//! element. Contexts are interned to dense [`CtxId`] / [`HCtxId`] values so
//! the solver's tuples stay four `u32`s wide regardless of context depth.

use std::fmt;

use pta_ir::{HeapId, InvoId, Program, TypeId};

const TAG_SHIFT: u32 = 30;
const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;
const TAG_STAR: u32 = 0;
const TAG_HEAP: u32 = 1;
const TAG_INVO: u32 = 2;
const TAG_TYPE: u32 = 3;

/// One element of a context tuple: `H ∪ I ∪ T ∪ {*}`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxElem(u32);

/// The unpacked view of a [`CtxElem`], for matching and display.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum CtxElemKind {
    /// The distinguished "no information" element.
    Star,
    /// An allocation site (object-sensitivity).
    Heap(HeapId),
    /// An invocation site (call-site-sensitivity).
    Invo(InvoId),
    /// A class type (type-sensitivity).
    Type(TypeId),
}

impl CtxElem {
    /// The distinguished `*` element.
    pub const STAR: CtxElem = CtxElem(0);

    /// An allocation-site element.
    #[inline]
    pub fn heap(h: HeapId) -> CtxElem {
        debug_assert!(h.raw() <= PAYLOAD_MASK);
        CtxElem((TAG_HEAP << TAG_SHIFT) | h.raw())
    }

    /// An invocation-site element.
    #[inline]
    pub fn invo(i: InvoId) -> CtxElem {
        debug_assert!(i.raw() <= PAYLOAD_MASK);
        CtxElem((TAG_INVO << TAG_SHIFT) | i.raw())
    }

    /// A class-type element.
    #[inline]
    pub fn ty(t: TypeId) -> CtxElem {
        debug_assert!(t.raw() <= PAYLOAD_MASK);
        CtxElem((TAG_TYPE << TAG_SHIFT) | t.raw())
    }

    /// Unpacks the element.
    #[inline]
    pub fn kind(self) -> CtxElemKind {
        let payload = self.0 & PAYLOAD_MASK;
        match self.0 >> TAG_SHIFT {
            TAG_STAR => CtxElemKind::Star,
            TAG_HEAP => CtxElemKind::Heap(HeapId::from_raw(payload)),
            TAG_INVO => CtxElemKind::Invo(InvoId::from_raw(payload)),
            _ => CtxElemKind::Type(TypeId::from_raw(payload)),
        }
    }

    /// `true` if this is the `*` element.
    #[inline]
    pub fn is_star(self) -> bool {
        self.0 == 0
    }

    /// Renders the element with names resolved against `program`.
    pub fn display(self, program: &Program) -> String {
        match self.kind() {
            CtxElemKind::Star => "*".to_owned(),
            CtxElemKind::Heap(h) => format!("[{}]", program.heap_label(h)),
            CtxElemKind::Invo(i) => format!("<{}>", program.invo_label(i)),
            CtxElemKind::Type(t) => format!("{{{}}}", program.type_name(t)),
        }
    }
}

impl fmt::Debug for CtxElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            CtxElemKind::Star => write!(f, "*"),
            CtxElemKind::Heap(h) => write!(f, "{h}"),
            CtxElemKind::Invo(i) => write!(f, "{i}"),
            CtxElemKind::Type(t) => write!(f, "{t}"),
        }
    }
}

impl Default for CtxElem {
    fn default() -> CtxElem {
        CtxElem::STAR
    }
}

/// A calling context: up to three elements, padded with `*`.
pub type Ctx = [CtxElem; 3];

/// A heap context: up to two elements, padded with `*`.
///
/// Every analysis in the paper's evaluation uses at most one heap-context
/// element; the second slot supports the deeper-context analyses of the
/// paper's §6 future work (`2obj+2H`, `3obj+2H`).
pub type HeapCtx = [CtxElem; 2];

/// The initial (empty) context: `(*, *, *)`.
pub const CTX_EMPTY: Ctx = [CtxElem::STAR; 3];

/// The empty heap context: `(*, *)`.
pub const HCTX_EMPTY: HeapCtx = [CtxElem::STAR; 2];

/// Convenience constructor for a one-element heap context.
#[inline]
pub fn hctx1(a: CtxElem) -> HeapCtx {
    [a, CtxElem::STAR]
}

/// Convenience constructor for a two-element heap context.
#[inline]
pub fn hctx2(a: CtxElem, b: CtxElem) -> HeapCtx {
    [a, b]
}

/// Convenience constructor for a one-element context.
#[inline]
pub fn ctx1(a: CtxElem) -> Ctx {
    [a, CtxElem::STAR, CtxElem::STAR]
}

/// Convenience constructor for a two-element context (the paper's `pair`).
#[inline]
pub fn ctx2(a: CtxElem, b: CtxElem) -> Ctx {
    [a, b, CtxElem::STAR]
}

/// Convenience constructor for a three-element context (the paper's
/// `triple`).
#[inline]
pub fn ctx3(a: CtxElem, b: CtxElem, c: CtxElem) -> Ctx {
    [a, b, c]
}

/// An interned calling context.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CtxId(u32);

impl CtxId {
    /// The initial context `(*, *, *)`, always interned first.
    pub const INITIAL: CtxId = CtxId(0);

    /// The raw interned index.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Wraps a raw interned index (for engine interop).
    #[inline]
    pub fn from_raw(raw: u32) -> CtxId {
        CtxId(raw)
    }
}

/// An interned heap context (a single element in every analysis studied).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct HCtxId(u32);

impl HCtxId {
    /// The empty heap context `*`, always interned first.
    pub const EMPTY: HCtxId = HCtxId(0);

    /// The raw interned index.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Wraps a raw interned index (for engine interop).
    #[inline]
    pub fn from_raw(raw: u32) -> HCtxId {
        HCtxId(raw)
    }
}

/// A key that can live in a [`DenseMap`]: hashable to a pre-mixed 64-bit
/// value. The hash must be fully mixed (high entropy in the low bits)
/// because the table uses it directly for linear probing.
pub(crate) trait InternKey: Copy + Eq {
    /// A well-mixed 64-bit hash of the key.
    fn ikey_hash(self) -> u64;
}

#[inline]
fn mix64(x: u64) -> u64 {
    // splitmix64 finalizer — the same mixer the repo's seeded RNG uses.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl InternKey for (u32, u32) {
    #[inline]
    fn ikey_hash(self) -> u64 {
        mix64(u64::from(self.0) << 32 | u64::from(self.1))
    }
}

impl InternKey for Ctx {
    #[inline]
    fn ikey_hash(self) -> u64 {
        mix64(mix64(u64::from(self[0].0) << 32 | u64::from(self[1].0)) ^ u64::from(self[2].0))
    }
}

impl InternKey for HeapCtx {
    #[inline]
    fn ikey_hash(self) -> u64 {
        mix64(u64::from(self[0].0) << 32 | u64::from(self[1].0))
    }
}

/// An open-addressing interner: maps keys to dense `u32` IDs in insertion
/// order. Replaces the previous `FxHashMap<K, Id>` + `Vec<K>` pair — one
/// flat probe array, no per-entry overhead, and capacity pre-sizing from
/// program statistics so the hot interning path almost never rehashes.
#[derive(Debug, Clone)]
pub(crate) struct DenseMap<K: InternKey> {
    /// Keys in insertion (= ID) order.
    keys: Vec<K>,
    /// Probe table: `id + 1`, or 0 for an empty slot. Power-of-two sized.
    slots: Vec<u32>,
}

impl<K: InternKey> Default for DenseMap<K> {
    fn default() -> DenseMap<K> {
        DenseMap::with_capacity(0)
    }
}

impl<K: InternKey> DenseMap<K> {
    /// Creates a map pre-sized for about `cap` keys.
    pub(crate) fn with_capacity(cap: usize) -> DenseMap<K> {
        let slots = (cap.max(8) * 2).next_power_of_two();
        DenseMap {
            keys: Vec::with_capacity(cap),
            slots: vec![0; slots],
        }
    }

    /// Number of interned keys.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The key behind an ID.
    #[inline]
    pub(crate) fn resolve(&self, id: u32) -> K {
        self.keys[id as usize]
    }

    /// All interned keys, in ID order.
    #[inline]
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Bytes held by the key store and probe table (capacity, not
    /// length: what the allocator actually handed out). This is the
    /// interned-key component of the solver's budget memory estimate.
    #[inline]
    pub(crate) fn mem_bytes(&self) -> u64 {
        (self.keys.capacity() * std::mem::size_of::<K>() + self.slots.capacity() * 4) as u64
    }

    /// Looks up `key` without inserting.
    #[inline]
    pub(crate) fn get(&self, key: K) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = key.ikey_hash() as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            let id = slot - 1;
            if self.keys[id as usize] == key {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns `key`, returning its dense ID (existing or freshly
    /// assigned).
    pub(crate) fn intern(&mut self, key: K) -> u32 {
        // Keep the load factor under 3/4.
        if (self.keys.len() + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = key.ikey_hash() as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                let id = self.keys.len() as u32;
                self.keys.push(key);
                self.slots[i] = id + 1;
                return id;
            }
            let id = slot - 1;
            if self.keys[id as usize] == key {
                return id;
            }
            i = (i + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(16);
        let mut slots = vec![0u32; new_len];
        let mask = new_len - 1;
        for (id, key) in self.keys.iter().enumerate() {
            let mut i = key.ikey_hash() as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = id as u32 + 1;
        }
        self.slots = slots;
    }
}

/// Interner for calling contexts.
#[derive(Debug, Clone)]
pub struct CtxInterner {
    map: DenseMap<Ctx>,
}

impl Default for CtxInterner {
    fn default() -> CtxInterner {
        CtxInterner::new()
    }
}

impl CtxInterner {
    /// Creates an interner with [`CtxId::INITIAL`] pre-interned.
    pub fn new() -> CtxInterner {
        CtxInterner::with_capacity(0)
    }

    /// Creates an interner pre-sized for about `cap` contexts, with
    /// [`CtxId::INITIAL`] pre-interned.
    pub fn with_capacity(cap: usize) -> CtxInterner {
        let mut i = CtxInterner {
            map: DenseMap::with_capacity(cap),
        };
        let id = i.intern(CTX_EMPTY);
        debug_assert_eq!(id, CtxId::INITIAL);
        i
    }

    /// Interns `ctx`, returning its dense ID.
    #[inline]
    pub fn intern(&mut self, ctx: Ctx) -> CtxId {
        CtxId(self.map.intern(ctx))
    }

    /// The context tuple behind an ID.
    #[inline]
    pub fn resolve(&self, id: CtxId) -> Ctx {
        self.map.resolve(id.0)
    }

    /// Number of distinct contexts created.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Bytes held by the interner's tables (budget memory accounting).
    pub fn mem_bytes(&self) -> u64 {
        self.map.mem_bytes()
    }

    /// `true` if only the initial context exists... never, after `new`.
    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }
}

/// Interner for heap contexts.
#[derive(Debug, Clone)]
pub struct HCtxInterner {
    map: DenseMap<HeapCtx>,
}

impl Default for HCtxInterner {
    fn default() -> HCtxInterner {
        HCtxInterner::new()
    }
}

impl HCtxInterner {
    /// Creates an interner with [`HCtxId::EMPTY`] pre-interned.
    pub fn new() -> HCtxInterner {
        HCtxInterner::with_capacity(0)
    }

    /// Creates an interner pre-sized for about `cap` heap contexts, with
    /// [`HCtxId::EMPTY`] pre-interned.
    pub fn with_capacity(cap: usize) -> HCtxInterner {
        let mut i = HCtxInterner {
            map: DenseMap::with_capacity(cap),
        };
        let id = i.intern(HCTX_EMPTY);
        debug_assert_eq!(id, HCtxId::EMPTY);
        i
    }

    /// Interns a heap context, returning its dense ID.
    #[inline]
    pub fn intern(&mut self, hctx: HeapCtx) -> HCtxId {
        HCtxId(self.map.intern(hctx))
    }

    /// The heap context behind an ID.
    #[inline]
    pub fn resolve(&self, id: HCtxId) -> HeapCtx {
        self.map.resolve(id.0)
    }

    /// Number of distinct heap contexts created.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Bytes held by the interner's tables (budget memory accounting).
    pub fn mem_bytes(&self) -> u64 {
        self.map.mem_bytes()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_roundtrip() {
        let h = CtxElem::heap(HeapId::from_raw(123));
        let i = CtxElem::invo(InvoId::from_raw(456));
        let t = CtxElem::ty(TypeId::from_raw(789));
        assert_eq!(h.kind(), CtxElemKind::Heap(HeapId::from_raw(123)));
        assert_eq!(i.kind(), CtxElemKind::Invo(InvoId::from_raw(456)));
        assert_eq!(t.kind(), CtxElemKind::Type(TypeId::from_raw(789)));
        assert_eq!(CtxElem::STAR.kind(), CtxElemKind::Star);
        assert!(CtxElem::STAR.is_star());
        assert!(!h.is_star());
    }

    #[test]
    fn elems_with_same_payload_different_tag_differ() {
        let h = CtxElem::heap(HeapId::from_raw(5));
        let i = CtxElem::invo(InvoId::from_raw(5));
        let t = CtxElem::ty(TypeId::from_raw(5));
        assert_ne!(h, i);
        assert_ne!(i, t);
        assert_ne!(h, t);
    }

    #[test]
    fn interner_is_injective_and_stable() {
        let mut ctxs = CtxInterner::new();
        let a = ctxs.intern(ctx1(CtxElem::heap(HeapId::from_raw(1))));
        let b = ctxs.intern(ctx1(CtxElem::heap(HeapId::from_raw(2))));
        let a2 = ctxs.intern(ctx1(CtxElem::heap(HeapId::from_raw(1))));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(ctxs.resolve(a), ctx1(CtxElem::heap(HeapId::from_raw(1))));
        assert_eq!(ctxs.len(), 3); // initial + 2
        assert_eq!(ctxs.intern(CTX_EMPTY), CtxId::INITIAL);
    }

    #[test]
    fn hctx_interner_starts_with_empty() {
        let mut h = HCtxInterner::new();
        assert_eq!(h.intern(HCTX_EMPTY), HCtxId::EMPTY);
        let x = h.intern(hctx1(CtxElem::heap(HeapId::from_raw(9))));
        assert_ne!(x, HCtxId::EMPTY);
        assert_eq!(h.resolve(x), hctx1(CtxElem::heap(HeapId::from_raw(9))));
        let y = h.intern(hctx2(
            CtxElem::heap(HeapId::from_raw(9)),
            CtxElem::heap(HeapId::from_raw(1)),
        ));
        assert_ne!(y, x);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn ctx_constructors_pad_with_star() {
        let e = CtxElem::heap(HeapId::from_raw(3));
        assert_eq!(ctx1(e), [e, CtxElem::STAR, CtxElem::STAR]);
        assert_eq!(ctx2(e, e), [e, e, CtxElem::STAR]);
        assert_eq!(ctx3(e, e, e), [e, e, e]);
        assert_eq!(CTX_EMPTY, [CtxElem::STAR; 3]);
    }

    #[test]
    fn debug_format_shows_kind() {
        assert_eq!(format!("{:?}", CtxElem::STAR), "*");
        assert_eq!(format!("{:?}", CtxElem::heap(HeapId::from_raw(4))), "h4");
        assert_eq!(format!("{:?}", CtxElem::invo(InvoId::from_raw(4))), "i4");
        assert_eq!(format!("{:?}", CtxElem::ty(TypeId::from_raw(4))), "t4");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pta_ir::rng::Rng;

    fn random_elem(rng: &mut Rng) -> CtxElem {
        match rng.gen_range(0..4u32) {
            0 => CtxElem::STAR,
            1 => CtxElem::heap(HeapId::from_raw(rng.gen_range(0..1_000_000u32))),
            2 => CtxElem::invo(InvoId::from_raw(rng.gen_range(0..1_000_000u32))),
            _ => CtxElem::ty(TypeId::from_raw(rng.gen_range(0..1_000_000u32))),
        }
    }

    /// The packed representation round-trips through `kind()`.
    #[test]
    fn elem_pack_unpack_roundtrip() {
        let mut rng = Rng::seed_from_u64(0xe1e);
        for _ in 0..512 {
            let e = random_elem(&mut rng);
            let rebuilt = match e.kind() {
                CtxElemKind::Star => CtxElem::STAR,
                CtxElemKind::Heap(h) => CtxElem::heap(h),
                CtxElemKind::Invo(i) => CtxElem::invo(i),
                CtxElemKind::Type(t) => CtxElem::ty(t),
            };
            assert_eq!(e, rebuilt);
        }
    }

    /// Interning is injective: distinct tuples get distinct IDs, equal
    /// tuples the same ID, and `resolve` inverts `intern`.
    #[test]
    fn interner_injective() {
        let mut rng = Rng::seed_from_u64(0x171);
        for _ in 0..16 {
            let n = rng.gen_range(1..50usize);
            let tuples: Vec<(CtxElem, CtxElem, CtxElem)> = (0..n)
                .map(|_| {
                    (
                        random_elem(&mut rng),
                        random_elem(&mut rng),
                        random_elem(&mut rng),
                    )
                })
                .collect();
            let mut interner = CtxInterner::new();
            let ids: Vec<CtxId> = tuples
                .iter()
                .map(|&(a, b, c)| interner.intern([a, b, c]))
                .collect();
            for (i, &(a, b, c)) in tuples.iter().enumerate() {
                assert_eq!(interner.resolve(ids[i]), [a, b, c]);
                for (j, &(x, y, z)) in tuples.iter().enumerate() {
                    assert_eq!(ids[i] == ids[j], [a, b, c] == [x, y, z]);
                }
            }
        }
    }

    /// Heap-context interning behaves identically.
    #[test]
    fn hctx_interner_injective() {
        let mut rng = Rng::seed_from_u64(0x4c7);
        for _ in 0..16 {
            let n = rng.gen_range(1..50usize);
            let tuples: Vec<(CtxElem, CtxElem)> = (0..n)
                .map(|_| (random_elem(&mut rng), random_elem(&mut rng)))
                .collect();
            let mut interner = HCtxInterner::new();
            let ids: Vec<HCtxId> = tuples
                .iter()
                .map(|&(a, b)| interner.intern([a, b]))
                .collect();
            for (i, &(a, b)) in tuples.iter().enumerate() {
                assert_eq!(interner.resolve(ids[i]), [a, b]);
            }
        }
    }
}
