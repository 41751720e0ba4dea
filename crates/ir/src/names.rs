//! The name arena: every entity name and site label of a [`crate::Program`]
//! lives in one `String`, and each `*Info` record holds a [`Span`] into it.
//!
//! A program with 170k variables and 120k site labels then owns one name
//! buffer instead of 290k small strings, so building it allocates per
//! buffer and cloning it copies one allocation. The same [`Span`] type
//! addresses the flat list of variable lists (formals and actual
//! arguments).
//!
//! [`NameIndex`] interns names (classes, signatures, fields) without
//! storing them a second time: it maps a name's hash to the dense ID whose
//! record holds the name, and the caller supplies the comparison against
//! the arena. A lookup of a name already present allocates nothing.

use std::hash::Hasher;

use crate::hash::FxHasher;

/// A `start..start + len` range in an arena (bytes of a name buffer, or
/// elements of a flat list).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Appends `name` to `names` and returns where it landed.
    pub(crate) fn push_str(names: &mut String, name: &str) -> Span {
        let span = Span::new(names.len(), name.len());
        names.push_str(name);
        span
    }

    /// Appends `items` to `arena` and returns where they landed.
    pub(crate) fn push_slice<T: Copy>(arena: &mut Vec<T>, items: &[T]) -> Span {
        let span = Span::new(arena.len(), items.len());
        arena.extend_from_slice(items);
        span
    }

    /// The elements `arena` gained since it was `start` long.
    pub(crate) fn since<T>(arena: &[T], start: usize) -> Span {
        Span::new(start, arena.len() - start)
    }

    fn new(start: usize, len: usize) -> Span {
        let fits = |n: usize| u32::try_from(n).expect("name arena exceeds 4 GiB");
        fits(start + len);
        Span {
            start: fits(start),
            len: fits(len),
        }
    }

    /// The name this span addresses in `names`.
    pub(crate) fn str(self, names: &str) -> &str {
        &names[self.start as usize..(self.start + self.len) as usize]
    }

    /// The elements this span addresses in `arena`.
    pub(crate) fn slice<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }

    /// The same range after its arena was appended to another of length
    /// `offset`.
    pub(crate) fn rebase(self, offset: usize) -> Span {
        Span::new(self.start as usize + offset, self.len as usize)
    }
}

/// The interning hash of `name` qualified by `key` (an arity or an owner
/// type; 0 where the name alone is the key).
pub(crate) fn name_hash(name: &str, key: usize) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    h.write_usize(key);
    h.finish()
}

/// An open-addressing hash index from names to dense IDs. It stores only
/// `(hash, id)` pairs; the names stay in their arena, and every lookup
/// confirms a candidate with a caller-supplied comparison.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex {
    /// `(high hash bits, id + 1)`; an id of 0 marks an empty slot. The
    /// length is zero or a power of two.
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl NameIndex {
    /// The ID recorded under `hash` for which `is(id)` holds.
    pub(crate) fn find(&self, hash: u64, mut is: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let tag = tag(hash);
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let (t, id) = self.slots[i];
            if id == 0 {
                return None;
            }
            if t == tag && is(id as usize - 1) {
                return Some(id as usize - 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `id` under `hash`. The caller has checked, with
    /// [`NameIndex::find`], that no equal name is recorded.
    pub(crate) fn insert(&mut self, hash: u64, id: usize) {
        if (self.len + 1) * 2 > self.slots.len() {
            let cap = (self.slots.len() * 2).max(16);
            let old = std::mem::replace(&mut self.slots, vec![(0, 0); cap]);
            for (t, id) in old.into_iter().filter(|&(_, id)| id != 0) {
                self.place(t, id);
            }
        }
        let id = u32::try_from(id + 1).expect("more than 2^32 - 1 names");
        self.place(tag(hash), id);
        self.len += 1;
    }

    fn place(&mut self, tag: u32, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        while self.slots[i].1 != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = (tag, id);
    }
}

/// The well-mixed high half of an Fx hash (its low bits are weak).
fn tag(hash: u64) -> u32 {
    (hash >> 32) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_address_and_rebase() {
        let mut names = String::new();
        let a = Span::push_str(&mut names, "alpha");
        let b = Span::push_str(&mut names, "beta");
        assert_eq!((a.str(&names), b.str(&names)), ("alpha", "beta"));
        let mut joined = String::from("xy");
        joined.push_str(&names);
        assert_eq!(b.rebase(2).str(&joined), "beta");
        let mut args = vec![7u32];
        let s = Span::push_slice(&mut args, &[1, 2, 3]);
        assert_eq!(s.slice(&args), &[1, 2, 3]);
    }

    #[test]
    fn index_interns_each_key_once_across_growth() {
        let mut keys: Vec<(String, usize)> = Vec::new();
        let mut index = NameIndex::default();
        for i in 0..3000 {
            let key = (format!("n{}", i % 700), i % 3);
            let hash = name_hash(&key.0, key.1);
            if index.find(hash, |id| keys[id] == key).is_none() {
                index.insert(hash, keys.len());
                keys.push(key);
            }
        }
        // `(name, key)` pairs repeat with period lcm(700, 3) = 2100.
        assert_eq!(keys.len(), 2100);
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(
                index.find(name_hash(&key.0, key.1), |i| &keys[i] == key),
                Some(id)
            );
        }
        assert_eq!(index.find(name_hash("absent", 0), |_| false), None);
    }
}
