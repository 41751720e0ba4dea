//! Dense points-to sets: the solver's per-(variable, context) tuple store.
//!
//! The specialized solver keys every `VarPointsTo` fact by its
//! `(var, ctx)` pair and stores the pointed-to objects — dense
//! `(heap, heap-context)` pair IDs — in a [`PtsSet`]. The representation is
//! a three-stage hybrid chosen for the workload's distribution (the paper
//! observes the *median* points-to set size is 1 across every analysis and
//! benchmark, while a few hot sets grow to thousands of elements):
//!
//! - **inline**: up to [`INLINE_MAX`] sorted elements stored inside the set
//!   itself — the typical singleton set costs no heap allocation at all;
//! - **small**: a sorted `Vec<u32>`; membership is a binary search and
//!   iteration is a linear scan over one cache line or two;
//! - **bitmap**: once a set outgrows [`SMALL_MAX`] elements it is promoted
//!   to a bit vector indexed by object ID; membership becomes a single bit
//!   test and iteration a word-wise scan (object IDs are dense, so the
//!   universe — and therefore the scan — stays proportional to the number
//!   of distinct objects the analysis ever created).
//!
//! All representations iterate in ascending object-ID order, which the
//! solver relies on when deduplicating projections.

/// Number of elements a set may hold before being promoted to a bitmap.
///
/// 32 sorted `u32`s are two cache lines; binary search over them is
/// consistently cheaper than the bitmap's memory footprint for the long
/// tail of tiny sets.
pub const SMALL_MAX: usize = 32;

/// Number of elements stored inline — inside the `PtsSet` itself, with no
/// heap allocation — before spilling to the heap-allocated small vector.
/// Since the median points-to set size is 1, this keeps the majority of
/// sets allocation-free.
pub const INLINE_MAX: usize = 6;

/// A set of dense `u32` object IDs with an inline/small-vector/bitmap
/// hybrid representation. See the module docs for the design rationale.
#[derive(Debug, Clone, Default)]
pub struct PtsSet {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Sorted, deduplicated, stored inline (no allocation).
    Inline { len: u8, elems: [u32; INLINE_MAX] },
    /// Sorted, deduplicated, heap-allocated.
    Small(Vec<u32>),
    /// Bit `v` of `words[v / 64]` set iff `v` is a member.
    Bitmap { words: Vec<u64>, len: u32 },
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Inline {
            len: 0,
            elems: [0; INLINE_MAX],
        }
    }
}

impl PtsSet {
    /// Creates an empty set (small representation, no allocation).
    #[must_use]
    pub fn new() -> PtsSet {
        PtsSet::default()
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Small(v) => v.len(),
            Repr::Bitmap { len, .. } => *len as usize,
        }
    }

    /// `true` if the set has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once the set has left the sorted small stages for the
    /// bitmap — the transition the solver's `set_promotions` profile
    /// counter records.
    #[must_use]
    pub fn is_bitmap(&self) -> bool {
        matches!(self.repr, Repr::Bitmap { .. })
    }

    /// Heap bytes held by the bitmap's word array (0 in the sorted
    /// stages). The solver sums these into the deterministic memory
    /// model behind `--max-memory`.
    #[must_use]
    pub fn bitmap_bytes(&self) -> u64 {
        match &self.repr {
            Repr::Bitmap { words, .. } => words.len() as u64 * 8,
            Repr::Inline { .. } | Repr::Small(_) => 0,
        }
    }

    /// Membership test: linear scan (inline), binary search (small) or
    /// bit test (bitmap).
    #[must_use]
    pub fn contains(&self, v: u32) -> bool {
        match &self.repr {
            Repr::Inline { len, elems } => elems[..*len as usize].contains(&v),
            Repr::Small(vec) => vec.binary_search(&v).is_ok(),
            Repr::Bitmap { words, .. } => {
                let w = (v >> 6) as usize;
                w < words.len() && words[w] & (1u64 << (v & 63)) != 0
            }
        }
    }

    /// Inserts `v`; returns `true` if it was not already present.
    /// Idempotent. Promotes small → bitmap at the [`SMALL_MAX`] boundary.
    pub fn insert(&mut self, v: u32) -> bool {
        match &mut self.repr {
            Repr::Inline { len, elems } => {
                let n = *len as usize;
                // Sorted-insert by linear scan: at most six comparisons.
                let mut pos = n;
                for (i, &e) in elems[..n].iter().enumerate() {
                    if e == v {
                        return false;
                    }
                    if e > v {
                        pos = i;
                        break;
                    }
                }
                if n < INLINE_MAX {
                    elems.copy_within(pos..n, pos + 1);
                    elems[pos] = v;
                    *len += 1;
                    return true;
                }
                // Spill inline -> small, then insert normally.
                let mut vec = Vec::with_capacity(INLINE_MAX * 2);
                vec.extend_from_slice(&elems[..n]);
                self.repr = Repr::Small(vec);
                self.insert(v)
            }
            Repr::Small(vec) => match vec.binary_search(&v) {
                Ok(_) => false,
                Err(pos) => {
                    if vec.len() < SMALL_MAX {
                        vec.insert(pos, v);
                        return true;
                    }
                    // Promote, then insert into the bitmap.
                    let max = vec.last().copied().unwrap_or(0).max(v);
                    let mut words = vec![0u64; (max as usize >> 6) + 1];
                    for &e in vec.iter() {
                        words[(e >> 6) as usize] |= 1u64 << (e & 63);
                    }
                    let len = vec.len() as u32;
                    self.repr = Repr::Bitmap { words, len };
                    self.insert(v)
                }
            },
            Repr::Bitmap { words, len } => {
                let w = (v >> 6) as usize;
                if w >= words.len() {
                    // Exactly to the new highest word: a bitmap spans the
                    // objects it holds, without doubling's slack.
                    words.reserve_exact(w + 1 - words.len());
                    words.resize(w + 1, 0);
                }
                let bit = 1u64 << (v & 63);
                if words[w] & bit != 0 {
                    false
                } else {
                    words[w] |= bit;
                    *len += 1;
                    true
                }
            }
        }
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        match &self.repr {
            Repr::Inline { len, elems } => Iter::Small(elems[..*len as usize].iter()),
            Repr::Small(vec) => Iter::Small(vec.iter()),
            Repr::Bitmap { words, .. } => Iter::Bitmap {
                words,
                word_idx: 0,
                cur: words.first().copied().unwrap_or(0),
            },
        }
    }

    /// Appends every element (ascending) to `out` without clearing it.
    pub fn extend_into(&self, out: &mut Vec<u32>) {
        match &self.repr {
            Repr::Inline { len, elems } => out.extend_from_slice(&elems[..*len as usize]),
            Repr::Small(vec) => out.extend_from_slice(vec),
            Repr::Bitmap { words, len } => {
                out.reserve(*len as usize);
                extend_from_words(words, out);
            }
        }
    }
}

/// Pushes every set bit of `words` (ascending) onto `out`.
fn extend_from_words(words: &[u64], out: &mut Vec<u32>) {
    for (wi, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let bit = w.trailing_zeros();
            out.push((wi as u32) << 6 | bit);
            w &= w - 1;
        }
    }
}

/// Ascending iterator over a [`PtsSet`].
pub enum Iter<'a> {
    /// Small representation: slice iterator.
    Small(std::slice::Iter<'a, u32>),
    /// Bitmap representation: word-wise scan.
    Bitmap {
        /// The bitmap words.
        words: &'a [u64],
        /// Index of the word `cur` was loaded from.
        word_idx: usize,
        /// Remaining bits of the current word.
        cur: u64,
    },
}

impl Iterator for Iter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Iter::Small(it) => it.next().copied(),
            Iter::Bitmap {
                words,
                word_idx,
                cur,
            } => loop {
                if *cur != 0 {
                    let bit = cur.trailing_zeros();
                    *cur &= *cur - 1;
                    return Some((*word_idx as u32) << 6 | bit);
                }
                *word_idx += 1;
                if *word_idx >= words.len() {
                    return None;
                }
                *cur = words[*word_idx];
            },
        }
    }
}

impl<'a> IntoIterator for &'a PtsSet {
    type Item = u32;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_set() {
        let s = PtsSet::new();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert!(!s.is_bitmap());
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = PtsSet::new();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert_eq!(s.len(), 1);
        // Idempotence must also hold across the promotion boundary.
        for v in 0..(2 * SMALL_MAX as u32) {
            s.insert(v);
        }
        let len = s.len();
        for v in 0..(2 * SMALL_MAX as u32) {
            assert!(!s.insert(v), "duplicate insert of {v} reported new");
        }
        assert_eq!(s.len(), len);
    }

    #[test]
    fn promotion_happens_exactly_at_the_boundary() {
        let mut s = PtsSet::new();
        // Insert SMALL_MAX distinct elements: still small.
        for v in 0..SMALL_MAX as u32 {
            assert!(s.insert(v * 3));
        }
        assert_eq!(s.len(), SMALL_MAX);
        assert!(!s.is_bitmap(), "promoted too early");
        // Re-inserting an existing element must not promote.
        assert!(!s.insert(0));
        assert!(!s.is_bitmap());
        // The (SMALL_MAX + 1)-th distinct element promotes.
        assert!(s.insert(1));
        assert!(s.is_bitmap(), "not promoted at the boundary");
        assert_eq!(s.len(), SMALL_MAX + 1);
        // Everything inserted before the promotion is still a member.
        for v in 0..SMALL_MAX as u32 {
            assert!(s.contains(v * 3));
        }
        assert!(s.contains(1));
    }

    /// `bitmap_bytes` is 0 in the sorted stages and the word array's size
    /// from promotion on; the solver's memory model sums it.
    #[test]
    fn bitmap_bytes_track_the_word_array() {
        let mut s = PtsSet::new();
        for v in 0..SMALL_MAX as u32 {
            s.insert(v);
        }
        assert_eq!(s.bitmap_bytes(), 0);
        // Promotion sizes the array for the largest member: one word.
        s.insert(SMALL_MAX as u32);
        assert_eq!(s.bitmap_bytes(), 8);
        // Growth to word 15, then a member of a word already there.
        s.insert(1000);
        assert_eq!(s.bitmap_bytes(), 16 * 8);
        s.insert(999);
        assert_eq!(s.bitmap_bytes(), 16 * 8);
    }

    #[test]
    fn inline_spill_preserves_order_and_membership() {
        let mut s = PtsSet::new();
        // Fill the inline tier in reverse order.
        for v in (0..INLINE_MAX as u32).rev() {
            assert!(s.insert(v * 10));
        }
        assert_eq!(s.len(), INLINE_MAX);
        assert!(!s.is_bitmap());
        let got: Vec<u32> = s.iter().collect();
        assert_eq!(
            got,
            (0..INLINE_MAX as u32).map(|v| v * 10).collect::<Vec<_>>()
        );
        // One more spills to the heap vector; everything survives, sorted.
        assert!(s.insert(5));
        assert_eq!(s.len(), INLINE_MAX + 1);
        assert!(!s.is_bitmap());
        assert!(s.contains(5));
        let got: Vec<u32> = s.iter().collect();
        let mut want: Vec<u32> = (0..INLINE_MAX as u32).map(|v| v * 10).collect();
        want.push(5);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn iteration_is_sorted_in_both_representations() {
        // Small: inserted in reverse.
        let mut s = PtsSet::new();
        for v in (0..10u32).rev() {
            s.insert(v * 5);
        }
        let got: Vec<u32> = s.iter().collect();
        assert_eq!(got, (0..10u32).map(|v| v * 5).collect::<Vec<_>>());
        assert!(!s.is_bitmap());

        // Bitmap: push past the boundary, still sorted.
        for v in (0..100u32).rev() {
            s.insert(v * 7 + 1);
        }
        assert!(s.is_bitmap());
        let got: Vec<u32> = s.iter().collect();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(got, sorted, "bitmap iteration not sorted/deduped");
        let mut out = Vec::new();
        s.extend_into(&mut out);
        assert_eq!(out, got, "extend_into disagrees with iter");
    }

    /// Seeded splitmix64 fuzz loop against a `BTreeSet` reference model.
    #[test]
    fn fuzz_against_btreeset_model() {
        use pta_ir::rng::Rng;
        for seed in 0..8u64 {
            let mut rng = Rng::seed_from_u64(0x9175_0000 + seed);
            let mut set = PtsSet::new();
            let mut model: BTreeSet<u32> = BTreeSet::new();
            // Mix of dense and sparse values to exercise both reprs and
            // bitmap growth.
            let universe = match seed % 3 {
                0 => 64u32,
                1 => 1 << 12,
                _ => 1 << 20,
            };
            for _ in 0..2_000 {
                let v = rng.gen_range(0..universe);
                assert_eq!(set.insert(v), model.insert(v), "insert({v}) verdict");
                if model.len() == SMALL_MAX + 1 {
                    assert!(set.is_bitmap(), "should be promoted past SMALL_MAX");
                }
            }
            assert_eq!(set.len(), model.len());
            // Membership agrees on hits and misses.
            for _ in 0..500 {
                let v = rng.gen_range(0..universe);
                assert_eq!(set.contains(v), model.contains(&v), "contains({v})");
            }
            // Iteration is exactly the sorted model.
            let got: Vec<u32> = set.iter().collect();
            let want: Vec<u32> = model.iter().copied().collect();
            assert_eq!(got, want);
        }
    }
}
