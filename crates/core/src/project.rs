//! The projection kernel behind the context-insensitive views of
//! [`crate::PointsToResult`]. Each view is a [`Csr`] array: one `starts`
//! vector indexed by dense ID plus one flat item vector. The elements
//! behind each row (a variable's `(var, ctx)` keys, a cell's field
//! entries) are grouped by counting passes ([`Csr::group`]), and each
//! row's values are unioned by [`Union::append`] straight into the output,
//! without sorting tuples. Incremental applies rebuild only the dirty rows
//! and copy the clean runs between them in bulk ([`Csr::splice`]).

use pta_ir::{FieldId, HeapId};

use crate::pts::SMALL_MAX;

/// Rows over a dense ID space: row `i` is `items[starts[i]..starts[i + 1]]`.
#[derive(Debug, Clone)]
pub struct Csr<T> {
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Csr<T> {
        Csr {
            starts: vec![0],
            items: Vec::new(),
        }
    }
}

impl<T: Copy> Csr<T> {
    /// Builds rows `0..n_rows`; `fill(i, items)` appends row `i`. The item
    /// vector is allocated for `bound` items up front, so a bound at or
    /// above the item count builds it without regrowing.
    pub fn build(n_rows: usize, bound: usize, mut fill: impl FnMut(usize, &mut Vec<T>)) -> Csr<T> {
        let mut csr = Csr::default();
        csr.starts.reserve(n_rows);
        csr.items.reserve_exact(bound);
        for i in 0..n_rows {
            fill(i, &mut csr.items);
            csr.starts.push(csr.items.len() as u32);
        }
        csr.items.shrink_to_fit();
        csr
    }

    /// The CSR over `starts` (`n_rows + 1` ascending offsets, from 0 to
    /// `items.len()`) and `items`.
    pub(crate) fn from_parts(starts: Vec<u32>, items: Vec<T>) -> Csr<T> {
        Csr { starts, items }
    }

    /// The `starts` and `items` vectors.
    pub(crate) fn into_parts(self) -> (Vec<u32>, Vec<T>) {
        (self.starts, self.items)
    }

    /// Row `i`; empty past the last row.
    pub fn row(&self, i: usize) -> &[T] {
        if i < self.n_rows() {
            &self.items[self.starts[i] as usize..self.starts[i + 1] as usize]
        } else {
            &[]
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.starts.len() - 1
    }

    /// Every item, row after row.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The non-empty rows with their indices, ascending.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &[T])> + '_ {
        self.starts
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(i, w)| (i, &self.items[w[0] as usize..w[1] as usize]))
    }

    /// A copy grown to `n_rows` rows in which every row in `dirty`
    /// (ascending, distinct, below `n_rows`) is rebuilt by
    /// `fill(i, old_row, items)`. The clean runs between dirty rows are
    /// copied in bulk; new rows that are not dirty are empty.
    pub fn splice(
        &self,
        n_rows: usize,
        dirty: &[u32],
        mut fill: impl FnMut(usize, &[T], &mut Vec<T>),
    ) -> Csr<T> {
        let mut out = Csr {
            starts: Vec::with_capacity(n_rows + 1),
            items: Vec::with_capacity(self.items.len()),
        };
        out.starts.push(0);
        let mut next = 0;
        for d in dirty.iter().map(|&d| d as usize).chain([n_rows]) {
            let end = d.min(self.n_rows()).max(next);
            if next < end {
                let (a, base) = (self.starts[next], out.items.len() as u32);
                out.items
                    .extend_from_slice(&self.items[a as usize..self.starts[end] as usize]);
                let shifted = self.starts[next + 1..=end].iter().map(|&s| s - a + base);
                out.starts.extend(shifted);
            }
            out.starts.resize(d + 1, out.items.len() as u32);
            if d < n_rows {
                fill(d, self.row(d), &mut out.items);
                out.starts.push(out.items.len() as u32);
            }
            next = d + 1;
        }
        out.items.shrink_to_fit();
        out
    }
}

impl Csr<u32> {
    /// Groups `ids` into `n_rows` rows by `row_of`, keeping their order
    /// within each row: a counting sort, with no comparisons.
    pub fn group(
        n_rows: usize,
        ids: impl Iterator<Item = u32> + Clone,
        row_of: impl Fn(u32) -> usize,
    ) -> Csr<u32> {
        let mut starts = vec![0u32; n_rows + 1];
        for id in ids.clone() {
            starts[row_of(id) + 1] += 1;
        }
        for i in 0..n_rows {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut items = vec![0u32; starts[n_rows] as usize];
        for id in ids {
            let c = &mut cursor[row_of(id)];
            items[*c as usize] = id;
            *c += 1;
        }
        Csr { starts, items }
    }

    /// Row `r` holds the distinct second components of the `pairs` whose
    /// first component is `r`, ascending, each wrapped by `wrap`.
    pub fn from_pairs<T: Copy>(
        n_rows: usize,
        pairs: &[(u32, u32)],
        wrap: impl Fn(u32) -> T,
    ) -> Csr<T> {
        let groups = Csr::group(n_rows, 0..pairs.len() as u32, |i| {
            pairs[i as usize].0 as usize
        });
        let mut union = Union::default();
        Csr::build(n_rows, pairs.len(), |r, out| {
            let row = groups.row(r);
            let values = row.iter().map(|&i| pairs[i as usize].1);
            union.append(out, row.len(), values, &wrap);
        })
    }
}

/// Scratch for unioning one row's values into ascending, distinct order.
///
/// A row of at most [`SMALL_MAX`] values is sorted in place. A larger row
/// sets bits in a word bitmap over the value universe, listing each word
/// it touches first (branch-free), then emits the touched words in order:
/// it sorts that list when few words were touched and scans every word
/// when most were.
#[derive(Debug, Default)]
pub struct Union {
    small: Vec<u32>,
    words: Vec<u64>,
    touched: Vec<u32>,
}

impl Union {
    /// Appends to `out` the distinct `values`, ascending, each wrapped by
    /// `wrap`. `total` is the number of values, duplicates included.
    pub fn append<T>(
        &mut self,
        out: &mut Vec<T>,
        total: usize,
        values: impl Iterator<Item = u32>,
        wrap: impl Fn(u32) -> T,
    ) {
        if total <= SMALL_MAX {
            self.small.clear();
            self.small.extend(values);
            self.small.sort_unstable();
            self.small.dedup();
            out.extend(self.small.iter().map(|&v| wrap(v)));
            return;
        }
        let (words, touched) = (&mut self.words, &mut self.touched);
        let mut n = 0;
        values.for_each(|v| {
            let w = (v >> 6) as usize;
            if w >= words.len() {
                words.resize(w + 1, 0);
                touched.resize(w + 2, 0);
            }
            let old = words[w];
            words[w] = old | 1 << (v & 63);
            touched[n] = w as u32;
            n += usize::from(old == 0);
        });
        if n * 8 < words.len() {
            touched[..n].sort_unstable();
        } else {
            n = 0;
            for (w, &bits) in words.iter().enumerate() {
                touched[n] = w as u32;
                n += usize::from(bits != 0);
            }
        }
        for &w in &touched[..n] {
            let mut bits = std::mem::take(&mut words[w as usize]);
            while bits != 0 {
                out.push(wrap(w << 6 | bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
    }
}

/// The `(base heap, field) → heaps` view, as two CSR arrays over base
/// heaps: row `b` of `heaps` holds base heap `b`'s cells one after
/// another, each sorted, and row `b` of `cells` lists their fields,
/// ascending, each with the end of its cell within that row.
#[derive(Debug, Clone, Default)]
pub struct FieldView {
    cells: Csr<(FieldId, u32)>,
    heaps: Csr<HeapId>,
}

impl FieldView {
    /// Builds the view over elements `0..n` (field entries or relation
    /// rows): element `e` lies in cell `cell_of(e)` = `(base heap, field)`
    /// and contributes the `len_of(e)` heaps of `heaps_of(e)`. Also
    /// returns the elements of each base heap, ordered by field.
    pub fn build<I: Iterator<Item = u32>>(
        n_heaps: usize,
        n_fields: usize,
        n: usize,
        cell_of: impl Fn(u32) -> (u32, u32),
        len_of: impl Fn(u32) -> usize,
        heaps_of: impl Fn(u32) -> I,
    ) -> (FieldView, Csr<u32>) {
        let by_field = Csr::group(n_fields, 0..n as u32, |e| cell_of(e).1 as usize);
        let by_base = Csr::group(n_heaps, by_field.items.iter().copied(), |e| {
            cell_of(e).0 as usize
        });
        let all: Vec<u32> = (0..n_heaps as u32).collect();
        let elems = |b: usize| by_base.row(b);
        let view =
            FieldView::default().splice(n_heaps, &all, elems, |e| cell_of(e).1, len_of, heaps_of);
        (view, by_base)
    }

    /// A copy grown to `n_heaps` base heaps in which every base heap `b`
    /// in `dirty` (ascending, distinct) is rebuilt from its elements
    /// `elems(b)`, ordered by field: element `e` has field `field_of(e)`
    /// and contributes the `len_of(e)` heaps of `heaps_of(e)`.
    pub fn splice<'e, I: Iterator<Item = u32>>(
        &self,
        n_heaps: usize,
        dirty: &[u32],
        elems: impl Fn(usize) -> &'e [u32],
        field_of: impl Fn(u32) -> u32,
        len_of: impl Fn(u32) -> usize,
        heaps_of: impl Fn(u32) -> I,
    ) -> FieldView {
        let (mut union, mut cells) = (Union::default(), Vec::new());
        let heaps = self.heaps.splice(n_heaps, dirty, |b, _, out| {
            let row = out.len();
            for run in elems(b).chunk_by(|&x, &y| field_of(x) == field_of(y)) {
                let (at, total) = (out.len(), run.iter().map(|&e| len_of(e)).sum());
                let values = run.iter().flat_map(|&e| heaps_of(e));
                union.append(out, total, values, HeapId::from_raw);
                if out.len() > at {
                    let field = FieldId::from_raw(field_of(run[0]));
                    cells.push((b, field, (out.len() - row) as u32));
                }
            }
        });
        let mut rest = cells.as_slice();
        let cells = self.cells.splice(n_heaps, dirty, |b, _, out| {
            let (row, tail) = rest.split_at(rest.partition_point(|&(c, ..)| c == b));
            out.extend(row.iter().map(|&(_, field, end)| (field, end)));
            rest = tail;
        });
        FieldView { cells, heaps }
    }

    /// The heaps of cell `(base, field)`; empty if it was never stored
    /// into or either ID is out of range.
    pub fn get(&self, base: HeapId, field: FieldId) -> &[HeapId] {
        let (cells, heaps) = (self.cells.row(base.index()), self.heaps.row(base.index()));
        match cells.binary_search_by_key(&field, |&(f, _)| f) {
            Ok(j) => {
                &heaps[j.checked_sub(1).map_or(0, |i| cells[i].1 as usize)..cells[j].1 as usize]
            }
            Err(_) => &[],
        }
    }

    /// Every populated cell with its heaps, ascending by base heap, then
    /// field.
    pub fn iter(&self) -> impl Iterator<Item = ((HeapId, FieldId), &[HeapId])> + '_ {
        self.cells.rows().flat_map(move |(b, cells)| {
            let heaps = self.heaps.row(b);
            cells.iter().scan(0, move |start, &(field, end)| {
                let cell = &heaps[*start as usize..end as usize];
                *start = end;
                Some(((HeapId::from_index(b), field), cell))
            })
        })
    }
}

/// A bitset over `0..n` holding `members`.
pub(crate) fn bitset(n: usize, members: impl Iterator<Item = u32>) -> Vec<u64> {
    let mut words = vec![0u64; n.div_ceil(64)];
    for m in members {
        words[m as usize >> 6] |= 1 << (m & 63);
    }
    words
}
