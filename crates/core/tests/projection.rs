//! The flat projection kernel (`pta_core::project`) against a `BTreeSet`
//! model: random `(var, ctx)` keys whose object sets map many-to-one onto
//! heaps, with empty variables, multi-key variables and rows on both
//! sides of the sorted/bitmap cutover. A spliced view patched over random
//! dirty rows, including rows past the old end, must equal a fresh build.

use std::collections::{BTreeMap, BTreeSet};

use pta_core::project::{Csr, FieldView, Union};
use pta_core::{Analysis, AnalysisSession, PtsSet};
use pta_ir::rng::Rng;
use pta_ir::{FieldId, HeapId, InvoId, MethodId, ProgramBuilder, VarId};

const HEAPS: u32 = 1500;

/// Random facts: `keys[k] = (row, set of objects)`, objects mapped to
/// heaps by `heap_of`.
struct Facts {
    keys: Vec<(u32, PtsSet)>,
    heap_of: Vec<u32>,
}

impl Facts {
    fn new(rng: &mut Rng) -> Facts {
        // Several objects share a heap, as heap contexts do.
        let heap_of = (0..4 * HEAPS).map(|_| rng.gen_range(0..HEAPS)).collect();
        Facts {
            keys: Vec::new(),
            heap_of,
        }
    }

    /// Adds a key for `row` with a set sized around the cutover or far
    /// past it.
    fn add_key(&mut self, rng: &mut Rng, row: u32) {
        let size = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..4),
            1 => rng.gen_range(28..40),
            2 => rng.gen_range(40..200),
            _ => rng.gen_range(200..3000),
        };
        let mut set = PtsSet::new();
        self.grow(rng, &mut set, size);
        self.keys.push((row, set));
    }

    fn grow(&self, rng: &mut Rng, set: &mut PtsSet, n: usize) {
        for _ in 0..n {
            set.insert(rng.gen_range(0..self.heap_of.len() as u32));
        }
    }

    fn model(&self, n_rows: usize) -> Vec<BTreeSet<u32>> {
        let mut rows = vec![BTreeSet::new(); n_rows];
        for (row, set) in &self.keys {
            rows[*row as usize].extend(set.iter().map(|o| self.heap_of[o as usize]));
        }
        rows
    }

    /// Appends the union of `keys`' heaps, as the solver does per variable.
    fn row(&self, union: &mut Union, keys: &[u32], out: &mut Vec<HeapId>) {
        let sets = keys.iter().map(|&k| &self.keys[k as usize].1);
        let total = sets.clone().map(PtsSet::len).sum();
        let heaps = sets
            .flat_map(PtsSet::iter)
            .map(|o| self.heap_of[o as usize]);
        union.append(out, total, heaps, HeapId::from_raw);
    }

    fn by_row(&self, n_rows: usize) -> Csr<u32> {
        Csr::group(n_rows, 0..self.keys.len() as u32, |k| {
            self.keys[k as usize].0 as usize
        })
    }

    fn build(&self, n_rows: usize) -> Csr<HeapId> {
        let (by_row, mut union) = (self.by_row(n_rows), Union::default());
        Csr::build(n_rows, 0, |r, out| self.row(&mut union, by_row.row(r), out))
    }
}

fn assert_matches(view: &Csr<HeapId>, model: &[BTreeSet<u32>], what: &str) {
    assert_eq!(view.n_rows(), model.len(), "{what}: row count");
    for (r, want) in model.iter().enumerate() {
        let got: Vec<u32> = view.row(r).iter().map(|h| h.raw()).collect();
        assert_eq!(
            got,
            want.iter().copied().collect::<Vec<_>>(),
            "{what}: row {r}"
        );
    }
    let nonempty: Vec<usize> = view.rows().map(|(r, _)| r).collect();
    let want: Vec<usize> = (0..model.len()).filter(|&r| !model[r].is_empty()).collect();
    assert_eq!(nonempty, want, "{what}: non-empty rows");
    assert!(view.row(model.len()).is_empty() && view.row(usize::MAX).is_empty());
}

#[test]
fn var_view_equals_the_set_model_and_splices_equal_fresh_builds() {
    for seed in 0..6 {
        let mut rng = Rng::seed_from_u64(seed);
        let mut facts = Facts::new(&mut rng);
        let n_rows = 60;
        for _ in 0..90 {
            // Rows 40.. stay empty for now; some rows get many keys.
            let row = rng.gen_range(0..40);
            facts.add_key(&mut rng, row);
        }
        let mut view = facts.build(n_rows);
        assert_matches(&view, &facts.model(n_rows), &format!("seed {seed}"));

        for round in 0..5 {
            // Grow random rows (new objects, new keys, rows past the end).
            let grown = n_rows + 10 * (round + 1);
            let mut dirty = BTreeSet::new();
            for _ in 0..rng.gen_range(1..12usize) {
                let k = rng.gen_range(0..facts.keys.len());
                let mut set = std::mem::take(&mut facts.keys[k].1);
                let n = rng.gen_range(1..300);
                facts.grow(&mut rng, &mut set, n);
                dirty.insert(facts.keys[k].0);
                facts.keys[k].1 = set;
                let row = rng.gen_range(0..grown as u32);
                facts.add_key(&mut rng, row);
                dirty.insert(row);
            }
            let dirty: Vec<u32> = dirty.into_iter().collect();
            let (by_row, mut union) = (facts.by_row(grown), Union::default());
            view = view.splice(grown, &dirty, |r, _, out| {
                facts.row(&mut union, by_row.row(r), out);
            });
            let fresh = facts.build(grown);
            assert_eq!(view.items(), fresh.items(), "seed {seed} round {round}");
            assert_matches(
                &view,
                &facts.model(grown),
                &format!("splice {seed}/{round}"),
            );
        }
    }
}

#[test]
fn pair_rows_and_old_row_splices_equal_the_set_model() {
    let mut rng = Rng::seed_from_u64(7);
    let n_rows = 50;
    let mut pairs: Vec<(u32, u32)> = (0..4000)
        .map(|_| (rng.gen_range(0..30), rng.gen_range(0..5000)))
        .collect();
    // One row far past the cutover, one with only duplicates.
    pairs.extend((0..700).map(|i| (31, i * 7 % 5000)));
    pairs.extend((0..50).map(|_| (32, 9)));
    let model = |pairs: &[(u32, u32)]| {
        let mut rows = vec![BTreeSet::new(); n_rows];
        for &(r, v) in pairs {
            rows[r as usize].insert(v);
        }
        rows
    };
    let view = Csr::from_pairs(n_rows, &pairs, HeapId::from_raw);
    assert_matches(&view, &model(&pairs), "pairs");

    // Patch rows by unioning each old row with new values, as the call
    // targets are patched with new call-graph edges.
    let added: BTreeMap<u32, Vec<u32>> = [(3, vec![1, 4999]), (31, vec![2, 3]), (45, vec![8])]
        .into_iter()
        .collect();
    let dirty: Vec<u32> = added.keys().copied().collect();
    let mut union = Union::default();
    let patched = view.splice(n_rows, &dirty, |r, old, out| {
        let new = &added[&(r as u32)];
        let values = old.iter().map(|h| h.raw()).chain(new.iter().copied());
        union.append(out, old.len() + new.len(), values, HeapId::from_raw);
    });
    pairs.extend(
        added
            .iter()
            .flat_map(|(&r, vs)| vs.iter().map(move |&v| (r, v))),
    );
    assert_matches(&patched, &model(&pairs), "patched pairs");
}

#[test]
fn field_view_equals_the_cell_model_and_splices_equal_fresh_builds() {
    let mut rng = Rng::seed_from_u64(11);
    let (n_heaps, n_fields) = (40usize, 6usize);
    let mut facts = Facts::new(&mut rng);
    // Element = (base heap, field) cell plus a key whose heaps it holds.
    let mut cells: Vec<(u32, u32)> = Vec::new();
    for _ in 0..150 {
        let cell = (rng.gen_range(0..30), rng.gen_range(0..n_fields as u32));
        cells.push(cell);
        facts.add_key(&mut rng, 0);
    }
    let model = |facts: &Facts, cells: &[(u32, u32)]| {
        let mut m: BTreeMap<(u32, u32), BTreeSet<u32>> = BTreeMap::new();
        for (e, cell) in cells.iter().enumerate() {
            let heaps = facts.keys[e].1.iter().map(|o| facts.heap_of[o as usize]);
            m.entry(*cell).or_default().extend(heaps);
        }
        m.retain(|_, v| !v.is_empty());
        m
    };
    let flat = |view: &FieldView| {
        let cells = view.iter().map(|((b, f), h)| {
            let heaps: BTreeSet<u32> = h.iter().map(|x| x.raw()).collect();
            assert_eq!(
                heaps.len(),
                h.len(),
                "cell ({b:?}, {f:?}) sorted and distinct"
            );
            assert_eq!(view.get(b, f), h);
            ((b.raw(), f.raw()), heaps)
        });
        cells.collect::<BTreeMap<_, _>>()
    };
    let build = |facts: &Facts, cells: &[(u32, u32)], n_heaps| {
        FieldView::build(
            n_heaps,
            n_fields,
            cells.len(),
            |e| cells[e as usize],
            |e| facts.keys[e as usize].1.len(),
            |e| {
                facts.keys[e as usize]
                    .1
                    .iter()
                    .map(|o| facts.heap_of[o as usize])
            },
        )
    };
    let (view, by_base) = build(&facts, &cells, n_heaps);
    assert_eq!(flat(&view), model(&facts, &cells));
    assert!(view
        .get(HeapId::from_raw(35), FieldId::from_raw(0))
        .is_empty());
    assert!(view
        .get(HeapId::from_raw(9999), FieldId::from_raw(9999))
        .is_empty());

    // Grow some cells and add cells (some on base heaps past the old end),
    // then splice the dirty base heaps.
    let mut elems: Vec<Vec<u32>> = (0..n_heaps).map(|b| by_base.row(b).to_vec()).collect();
    elems.resize(n_heaps + 5, Vec::new());
    let mut dirty = BTreeSet::new();
    for _ in 0..20 {
        let e = rng.gen_range(0..cells.len());
        let mut set = std::mem::take(&mut facts.keys[e].1);
        let n = rng.gen_range(1..100);
        facts.grow(&mut rng, &mut set, n);
        facts.keys[e].1 = set;
        dirty.insert(cells[e].0);
        let cell = (rng.gen_range(0..n_heaps as u32 + 5), rng.gen_range(0..3));
        let fes = &mut elems[cell.0 as usize];
        let at = fes.partition_point(|&x| cells[x as usize].1 <= cell.1);
        fes.insert(at, cells.len() as u32);
        cells.push(cell);
        facts.add_key(&mut rng, 0);
        dirty.insert(cell.0);
    }
    let dirty: Vec<u32> = dirty.into_iter().collect();
    let spliced = view.splice(
        n_heaps + 5,
        &dirty,
        |b| &elems[b],
        |e| cells[e as usize].1,
        |e| facts.keys[e as usize].1.len(),
        |e| {
            facts.keys[e as usize]
                .1
                .iter()
                .map(|o| facts.heap_of[o as usize])
        },
    );
    assert_eq!(flat(&spliced), model(&facts, &cells));
    let (fresh, _) = build(&facts, &cells, n_heaps + 5);
    assert_eq!(flat(&spliced), flat(&fresh));
}

#[test]
fn out_of_range_ids_answer_empty() {
    let mut b = ProgramBuilder::new();
    let object = b.class("Object", None);
    let main = b.method(object, "main", &[], true);
    let (x, y) = (b.var(main, "x"), b.var(main, "y"));
    let f = b.field(object, "f");
    b.alloc(main, x, object, "h1");
    b.store(main, x, f, x);
    b.load(main, y, x, f);
    b.entry_point(main);
    let program = b.finish().expect("valid program");
    for analysis in [Analysis::Insens, Analysis::TwoObjH] {
        let r = AnalysisSession::open(program.clone())
            .policy(analysis)
            .solve();
        let h1 = r.points_to(x)[0];
        assert_eq!(r.field_points_to(h1, f), &[h1]);
        assert!(r.points_to(VarId::from_raw(1 << 30)).is_empty());
        assert!(r.call_targets(InvoId::from_raw(1 << 30)).is_empty());
        assert!(r.field_points_to(HeapId::from_raw(1 << 30), f).is_empty());
        assert!(r.field_points_to(h1, FieldId::from_raw(1 << 30)).is_empty());
        assert!(r.static_points_to(FieldId::from_raw(1 << 30)).is_empty());
        assert!(!r.is_reachable(MethodId::from_raw(1 << 30)));
    }
}
