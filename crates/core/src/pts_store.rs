//! Hash-consed storage for large points-to sets (the `Shared` stage of
//! [`crate::pts::PtsSet`]).
//!
//! Under the paper's object-sensitive analyses the same large points-to
//! set is materialized for thousands of `(var, ctx)` keys — every key on a
//! copy chain (`Move`, `InterProcAssign`) replays its source's insert
//! sequence and therefore passes through the *same* growth states. The
//! always-on `vpt_dup` / `dedup_hit_rate` counters quantify this
//! duplication on every run; this module removes its memory cost.
//!
//! A [`PtsStore`] interns immutable bitmap representations
//! ([`SharedRep`]) by content: when a set crosses [`SHARE_MIN`] elements
//! (or flushes a full copy-on-write overlay), its word array is trimmed to
//! canonical form, content-hashed, and either unified with an existing
//! identical representation (an intern *hit* — the freshly built words are
//! dropped and both sets point at one `Arc`) or registered as a new one.
//! Reads never touch the store: a `Shared` set carries its base `Arc`
//! inline, so `contains`/`iter`/`extend_into` stay store-free and only
//! inserts need `&mut PtsStore`.
//!
//! ## Determinism
//!
//! Interning is invisible to analysis semantics: a set's *content* is
//! independent of whether its representation is private or shared, every
//! representation iterates in ascending object-ID order, and promotion /
//! flush points are functions of the (deterministic) insert sequence
//! alone. The solver owns one store. DESIGN.md §13 spells out the full
//! argument.
//!
//! ## Memory model
//!
//! The store also maintains `heap_bytes`, a deterministic model of the
//! bytes held by bitmap-stage set representations (private bitmaps count
//! their word arrays; interned representations count once, at first
//! intern). The solvers add it to their `mem_estimate`, which makes
//! `--max-memory` budgets representation-aware: a sharing run fits where
//! the same analysis with `--no-share` trips the cap. `bytes_saved`
//! accumulates the words dropped on every intern hit — exactly the gap
//! between the two models. Superseded representations are evicted at
//! overlay flush ([`PtsStore::release`]): when a growing set re-interns
//! base ∪ overlay and it was the last holder of its old base, the old
//! representation leaves the index and `heap_bytes`, so the store only
//! ever accounts for *live* representations.

use std::sync::Arc;

use pta_ir::hash::FxHashMap;

/// Element count at which a private bitmap is promoted into the store.
/// Below this, sharing bookkeeping costs more than the duplication; above
/// it, one representation spans `words ≥ SHARE_MIN / 64` heap words per
/// holder and the dedup wins compound.
pub const SHARE_MIN: usize = 128;

/// Maximum copy-on-write overlay size. Inserts into a shared set land in
/// a small sorted overlay (keeping the hot delta-batching path
/// allocation-light); once the overlay fills, base ∪ overlay is re-interned
/// and the overlay resets.
pub const OVERLAY_MAX: usize = 32;

/// One immutable, canonical (trailing zero words trimmed) bitmap
/// representation, shared by every set whose content matched at intern
/// time. Bit `v` of `words[v / 64]` is set iff `v` is a member.
#[derive(Debug)]
pub struct SharedRep {
    pub(crate) words: Box<[u64]>,
    pub(crate) len: u32,
}

impl SharedRep {
    /// Membership bit test.
    #[inline]
    pub(crate) fn contains(&self, v: u32) -> bool {
        let w = (v >> 6) as usize;
        w < self.words.len() && self.words[w] & (1u64 << (v & 63)) != 0
    }

    /// Heap bytes held by the word array.
    #[inline]
    fn byte_size(&self) -> u64 {
        self.words.len() as u64 * 8
    }
}

/// FNV-1a over the word array (length folded in so a prefix never
/// collides with its extension by pure accident; full content equality is
/// still verified on every probe).
fn content_hash(words: &[u64], len: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ u64::from(len);
    for &w in words {
        h = (h ^ w).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The solver-owned intern store. See the module docs.
#[derive(Debug, Default)]
pub struct PtsStore {
    /// `false` (`--no-share`) keeps every call site uniform but makes
    /// [`PtsStore::intern`] unreachable: sets then stop at the private
    /// bitmap stage exactly as before the `Shared` stage existed.
    enabled: bool,
    /// Content hash → representations with that hash (collision chains
    /// are resolved by full word-array comparison).
    index: FxHashMap<u64, Vec<Arc<SharedRep>>>,
    /// Representations interned over the run (`sets_interned`) — a
    /// cumulative event count; evicted representations stay counted.
    interned: u64,
    /// Intern probes that unified with an existing representation
    /// (`sets_shared`).
    hits: u64,
    /// Bytes of would-be-duplicate word arrays dropped on intern hits
    /// (`bytes_saved`).
    bytes_saved: u64,
    /// Superseded representations evicted by [`PtsStore::release`]
    /// (`sets_evicted`) — a cumulative event count.
    evicted: u64,
    /// Deterministic model of bytes held by bitmap-stage representations
    /// (private bitmaps each; interned representations once).
    heap_bytes: u64,
}

impl PtsStore {
    /// An enabled store (the default configuration).
    #[must_use]
    pub fn new() -> PtsStore {
        PtsStore {
            enabled: true,
            ..PtsStore::default()
        }
    }

    /// A disabled store (`--no-share`): insert paths still thread it —
    /// and it still tracks `heap_bytes` for the memory model — but no set
    /// is ever promoted to the `Shared` stage.
    #[must_use]
    pub fn disabled() -> PtsStore {
        PtsStore::default()
    }

    /// Whether sets may be promoted into this store.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Representations interned over the run (cumulative; includes
    /// representations since evicted by [`PtsStore::release`]).
    #[must_use]
    pub fn sets_interned(&self) -> u64 {
        self.interned
    }

    /// Intern probes unified with an existing representation.
    #[must_use]
    pub fn sets_shared(&self) -> u64 {
        self.hits
    }

    /// Bytes of duplicate representations avoided by unification.
    #[must_use]
    pub fn bytes_saved(&self) -> u64 {
        self.bytes_saved
    }

    /// Superseded representations evicted by [`PtsStore::release`]
    /// (cumulative).
    #[must_use]
    pub fn sets_evicted(&self) -> u64 {
        self.evicted
    }

    /// Modeled bytes currently held by bitmap-stage representations.
    #[must_use]
    pub fn heap_bytes(&self) -> u64 {
        self.heap_bytes
    }

    /// Interns `words` (with `len` member bits set), returning the
    /// canonical shared representation. Consumes the caller's array; on a
    /// hit it is dropped in favour of the existing `Arc`.
    pub(crate) fn intern(&mut self, mut words: Vec<u64>, len: u32) -> Arc<SharedRep> {
        debug_assert!(self.enabled, "intern on a disabled store");
        // Canonical form: no trailing zero words, so equal contents hash
        // and compare equal regardless of how the arrays were grown.
        while words.last() == Some(&0) {
            words.pop();
        }
        let hash = content_hash(&words, len);
        let bucket = self.index.entry(hash).or_default();
        for rep in bucket.iter() {
            if rep.len == len && *rep.words == words[..] {
                self.hits += 1;
                self.bytes_saved += rep.byte_size();
                return Arc::clone(rep);
            }
        }
        let rep = Arc::new(SharedRep {
            words: words.into_boxed_slice(),
            len,
        });
        self.interned += 1;
        self.heap_bytes += rep.byte_size();
        bucket.push(Arc::clone(&rep));
        rep
    }

    /// Drops the store's own reference to `rep` when no live set still
    /// shares it. Called after an overlay flush replaces a set's base:
    /// without eviction every superseded growth state would sit in the
    /// index forever (the index's `Arc` keeps it alive), and a long solve
    /// would retain *more* than the unshared representation ever
    /// allocates. Two strong references — the index's and the caller's
    /// in-hand one — mean the representation is dead.
    pub(crate) fn release(&mut self, rep: &Arc<SharedRep>) {
        if Arc::strong_count(rep) != 2 {
            return;
        }
        let hash = content_hash(&rep.words, rep.len);
        if let Some(bucket) = self.index.get_mut(&hash) {
            // `swap_remove` reorders the bucket, which is fine: contents
            // are unique within a bucket (checked before every push), so
            // a probe matches at most one entry regardless of order.
            if let Some(pos) = bucket.iter().position(|r| Arc::ptr_eq(r, rep)) {
                let dead = bucket.swap_remove(pos);
                self.evicted += 1;
                self.heap_bytes = self.heap_bytes.saturating_sub(dead.byte_size());
                if bucket.is_empty() {
                    self.index.remove(&hash);
                }
            }
        }
    }

    /// Records `bytes` of newly allocated private bitmap words.
    #[inline]
    pub(crate) fn track_bitmap_bytes(&mut self, bytes: u64) {
        self.heap_bytes += bytes;
    }

    /// Records `bytes` of private bitmap words released (promoted into
    /// the store or dropped).
    #[inline]
    pub(crate) fn untrack_bitmap_bytes(&mut self, bytes: u64) {
        self.heap_bytes = self.heap_bytes.saturating_sub(bytes);
    }
}
