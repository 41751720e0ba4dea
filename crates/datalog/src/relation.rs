//! Relations: deduplicated tuple stores with incremental hash indices.
//!
//! A relation keeps its rows in insertion order, which is what makes
//! semi-naive evaluation cheap: the engine remembers, per round, the window
//! of row positions inserted in that round (the *delta*), and joins restrict
//! themselves to positions inside or outside the window. Indices map a
//! projection of bound columns to the list of row positions carrying that
//! key; they are maintained incrementally (each index remembers how far into
//! the row log it has scanned).

use pta_ir::hash::FxHashMap;

use crate::tuple::Row;

/// An index over the columns selected by a bitmask.
#[derive(Debug, Default)]
struct ColumnIndex {
    /// Key (projected columns, ascending) -> positions of matching rows.
    map: FxHashMap<Row, Vec<u32>>,
    /// Number of rows of the log already folded into `map`.
    indexed_upto: usize,
}

/// A deduplicated, insertion-ordered store of [`Row`]s.
#[derive(Debug)]
pub struct Relation {
    name: String,
    arity: usize,
    rows: Vec<Row>,
    seen: FxHashMap<Row, ()>,
    indices: FxHashMap<u8, ColumnIndex>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new(name: impl Into<String>, arity: usize) -> Relation {
        Relation {
            name: name.into(),
            arity,
            rows: Vec::new(),
            seen: FxHashMap::default(),
            indices: FxHashMap::default(),
        }
    }

    /// The relation's name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no rows have been inserted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row; returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity differs from the relation's.
    pub fn insert(&mut self, row: Row) -> bool {
        assert_eq!(
            row.len(),
            self.arity,
            "arity mismatch inserting into {}",
            self.name
        );
        if self.seen.insert(row, ()).is_none() {
            self.rows.push(row);
            true
        } else {
            false
        }
    }

    /// `true` if the relation contains `row`.
    pub fn contains(&self, row: &Row) -> bool {
        self.seen.contains_key(row)
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Looks up the positions of rows whose `mask`-projection equals `key`,
    /// bringing the index up to date first.
    ///
    /// `mask` bit `i` selects column `i`; `key` holds the bound values in
    /// ascending column order. An empty mask returns all row positions
    /// (callers should instead scan [`Relation::rows`] directly; this path
    /// exists for generality).
    pub fn probe(&mut self, mask: u8, key: &Row) -> &[u32] {
        debug_assert!(
            (mask as usize) < (1usize << self.arity),
            "mask wider than arity"
        );
        let index = self.indices.entry(mask).or_default();
        if index.indexed_upto < self.rows.len() {
            for pos in index.indexed_upto..self.rows.len() {
                let k = self.rows[pos].project(mask);
                index.map.entry(k).or_default().push(pos as u32);
            }
            index.indexed_upto = self.rows.len();
        }
        index.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new("r", 2);
        assert!(r.insert(Row::new(&[1, 2])));
        assert!(!r.insert(Row::new(&[1, 2])));
        assert!(r.insert(Row::new(&[2, 1])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Row::new(&[1, 2])));
        assert!(!r.contains(&Row::new(&[9, 9])));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_is_enforced() {
        let mut r = Relation::new("r", 2);
        r.insert(Row::new(&[1]));
    }

    #[test]
    fn probe_finds_rows_by_column_subset() {
        let mut r = Relation::new("edge", 2);
        r.insert(Row::new(&[1, 2]));
        r.insert(Row::new(&[1, 3]));
        r.insert(Row::new(&[2, 3]));
        // Index on first column.
        let hits = r.probe(0b01, &Row::new(&[1])).to_vec();
        assert_eq!(hits.len(), 2);
        // Index on second column.
        let hits = r.probe(0b10, &Row::new(&[3])).to_vec();
        assert_eq!(hits.len(), 2);
        // Full-key probe.
        let hits = r.probe(0b11, &Row::new(&[2, 3])).to_vec();
        assert_eq!(hits, vec![2]);
        // Missing key.
        assert!(r.probe(0b01, &Row::new(&[9])).is_empty());
    }

    #[test]
    fn probe_sees_rows_inserted_after_index_creation() {
        let mut r = Relation::new("edge", 2);
        r.insert(Row::new(&[1, 2]));
        assert_eq!(r.probe(0b01, &Row::new(&[1])).len(), 1);
        r.insert(Row::new(&[1, 5]));
        r.insert(Row::new(&[2, 7]));
        // The existing index must be refreshed incrementally.
        assert_eq!(r.probe(0b01, &Row::new(&[1])).len(), 2);
        assert_eq!(r.probe(0b01, &Row::new(&[2])).len(), 1);
    }
}
