//! Memory budget of the dense solver.
//!
//! The solver sizes its tables from what it derives: interners and per-key
//! tables grow on demand, bitmap words grow to the highest object they
//! hold, the result's flat views are allocated at their known size, and
//! pending deltas live in a pool of reused buffers. So the peak heap of a
//! solve is a small multiple of the `(var, ctx) -> object` tuples it
//! derives. The bounds below hold that line with headroom; tables
//! pre-sized from program statistics, doubled bitmaps and projection
//! buffers, and one delta `Vec` per key together crossed both.
//!
//! Peaks are per thread ([`ScopedPeak`]), so the other tests of this
//! binary, which the harness runs concurrently, cannot charge their
//! allocations to the measured solve.

use std::sync::Arc;

use pta_core::{Analysis, AnalysisSession};
use pta_govern::memtrack::{CountingAlloc, ScopedPeak};
use pta_workload::dacapo_workload;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Solves luindex at scale 4 under `analysis`; returns the solve's peak
/// heap bytes above the program per context-sensitive tuple.
fn peak_bytes_per_tuple(analysis: Analysis) -> f64 {
    let program = Arc::new(dacapo_workload("luindex", 4.0));
    let scope = ScopedPeak::begin();
    let result = AnalysisSession::from_arc(Arc::clone(&program))
        .policy(analysis)
        .solve();
    let peak = scope.peak_bytes();
    let tuples = result.ctx_var_points_to_count();
    assert!(tuples > 0, "{analysis}: the solve derived nothing");
    peak as f64 / tuples as f64
}

#[test]
fn insens_solve_peak_stays_near_its_tuples() {
    let per_tuple = peak_bytes_per_tuple(Analysis::Insens);
    // About 24: the bitmaps, the result's var view and the per-key
    // records. Pre-sized tables, doubled bitmaps and one delta `Vec` per
    // key put it at 39.5.
    assert!(per_tuple < 32.0, "insens: {per_tuple:.2} B per tuple");
}

#[test]
fn selective_two_object_solve_peak_stays_near_its_tuples() {
    let per_tuple = peak_bytes_per_tuple(Analysis::STwoObjH);
    // About 188: with few tuples per variable, the program-sized tables
    // (the static index, frame slots, call-site lists) weigh most. The
    // pre-sized tables put it at 244.7.
    assert!(per_tuple < 215.0, "S-2obj+H: {per_tuple:.2} B per tuple");
}
