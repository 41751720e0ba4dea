//! Result digests over the context-insensitive projection of a solve:
//! per-variable points-to sets, per-invocation call targets, reachable
//! methods and the precision counts.
//!
//! [`fast`] hashes entity ids, so it compares two results of one program.
//! [`canonical`] hashes entities by name, so it is the same for every
//! declaration order of a program (every seed) and can be checked against
//! the golden digests in `expected/digests.tsv`.

use pta_clients::precision_metrics;
use pta_core::PointsToResult;
use pta_ir::{InvoId, Program, VarId};

/// FNV-1a, one 64-bit word at a time.
struct Hasher(u64);

impl Hasher {
    fn new() -> Hasher {
        Hasher(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn words(&mut self, ws: impl ExactSizeIterator<Item = u64>) {
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }
}

/// FNV-1a over bytes.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Hasher::new();
    for &b in bytes {
        h.word(u64::from(b));
    }
    h.0
}

/// A digest of `result` keyed by entity ids. Each set is hashed in id
/// order, whatever order the solver left it in.
#[must_use]
pub fn fast(program: &Program, result: &PointsToResult) -> u64 {
    let mut h = Hasher::new();
    let mut buf: Vec<u64> = Vec::new();
    let mut set = |h: &mut Hasher, ids: &mut dyn Iterator<Item = usize>| {
        buf.clear();
        buf.extend(ids.map(|i| i as u64));
        buf.sort_unstable();
        h.words(buf.iter().copied());
    };
    for v in program.vars() {
        set(&mut h, &mut result.points_to(v).iter().map(|x| x.index()));
    }
    for i in program.invos() {
        set(
            &mut h,
            &mut result.call_targets(i).iter().map(|x| x.index()),
        );
    }
    set(&mut h, &mut result.reachable_methods().map(|m| m.index()));
    h.word(result.ctx_var_points_to_count());
    h.word(result.context_count() as u64);
    h.word(result.heap_context_count() as u64);
    h.0
}

/// Entity ranks by name for one program, built once per program.
pub struct Canon {
    vars: Vec<VarId>,
    invos: Vec<InvoId>,
    heap_rank: Vec<u64>,
    method_rank: Vec<u64>,
}

/// Ranks of `items` after sorting by `key` (ties keep arena order).
fn ranks<K: Ord>(count: usize, key: impl Fn(usize) -> K) -> (Vec<usize>, Vec<u64>) {
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by_key(|&i| key(i));
    let mut rank = vec![0; count];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r as u64;
    }
    (order, rank)
}

impl Canon {
    /// Ranks methods by qualified name, variables by (method, name),
    /// allocation and call sites by label.
    #[must_use]
    pub fn new(program: &Program) -> Canon {
        let methods: Vec<String> = program
            .methods()
            .map(|m| program.method_qualified_name(m))
            .collect();
        let (_, method_rank) = ranks(methods.len(), |i| &methods[i]);
        let vars: Vec<VarId> = program.vars().collect();
        let (var_order, _) = ranks(vars.len(), |i| {
            let v = vars[i];
            (
                method_rank[program.var_method(v).index()],
                program.var_name(v),
            )
        });
        let heaps: Vec<_> = program.heaps().collect();
        let (_, heap_rank) = ranks(heaps.len(), |i| program.heap_label(heaps[i]));
        let invos: Vec<InvoId> = program.invos().collect();
        let (invo_order, _) = ranks(invos.len(), |i| program.invo_label(invos[i]));
        Canon {
            vars: var_order.into_iter().map(|i| vars[i]).collect(),
            invos: invo_order.into_iter().map(|i| invos[i]).collect(),
            heap_rank,
            method_rank,
        }
    }
}

/// A digest of `result` keyed by entity names, as hex.
#[must_use]
pub fn canonical(program: &Program, canon: &Canon, result: &PointsToResult) -> String {
    let mut h = Hasher::new();
    let sorted_ranks = |ranks: Vec<u64>| {
        let mut r = ranks;
        r.sort_unstable();
        r
    };
    for &v in &canon.vars {
        let pts = result.points_to(v).iter();
        h.words(sorted_ranks(pts.map(|x| canon.heap_rank[x.index()]).collect()).into_iter());
    }
    for &i in &canon.invos {
        let targets = result.call_targets(i).iter();
        h.words(sorted_ranks(targets.map(|m| canon.method_rank[m.index()]).collect()).into_iter());
    }
    let reachable = result.reachable_methods();
    h.words(sorted_ranks(reachable.map(|m| canon.method_rank[m.index()]).collect()).into_iter());
    let m = precision_metrics(program, result);
    for count in [
        m.median_var_points_to as u64,
        m.call_graph_edges as u64,
        m.reachable_methods as u64,
        m.poly_virtual_calls as u64,
        m.reachable_virtual_calls as u64,
        m.may_fail_casts as u64,
        m.reachable_casts as u64,
        m.ctx_var_points_to,
        m.ctx_call_graph_edges,
        m.contexts as u64,
        m.heap_contexts as u64,
        m.uncaught_exception_sites as u64,
    ] {
        h.word(count);
    }
    format!("{:016x}", h.0)
}

/// The golden digests blessed at seed 0, keyed by
/// [`crate::programs::golden_key`].
const GOLDENS: &str = include_str!("../expected/digests.tsv");

/// The golden digest for `key`, if one is blessed.
#[must_use]
pub fn golden(key: &str) -> Option<&'static str> {
    GOLDENS.lines().find_map(|line| {
        let (k, d) = line.split_once('\t')?;
        (k == key).then_some(d)
    })
}

/// Checks the canonical digest of `result` against golden `key` (skipped
/// for smoke-test sizes, which have no goldens).
pub fn check_golden(
    params: &crate::Params,
    m: &mut crate::Measured,
    key: &str,
    program: &Program,
    result: &PointsToResult,
) {
    if params.tiny {
        return;
    }
    let got = canonical(program, &Canon::new(program), result);
    match golden(key) {
        Some(want) if want == got => {}
        Some(want) => m.fail(0, format!("{key}: digest {got}, golden {want}")),
        None => m.fail(0, format!("{key}: no golden digest (run `bless`)")),
    }
}
