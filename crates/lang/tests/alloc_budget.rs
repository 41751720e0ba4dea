//! Allocation budget of the front end and of program copies.
//!
//! The lexer and parser borrow every name from the source text, the AST
//! keeps its declarations, statements and name lists in a few flat
//! vectors, lowering reuses one variable map and one label buffer, and a
//! `Program` keeps its names in one arena. So `parse_program` allocates
//! per buffer, not per name, and `Program::clone` allocates per method
//! body, not per entity.
//! The bounds below hold that line with headroom; a change that brings
//! back a `String` per identifier, per label or per entity crosses them.
//!
//! The counter is per thread, so the other tests of this binary, which the
//! harness runs concurrently, cannot charge their allocations to the
//! measured call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pta_lang::{parse_program, print_program};
use pta_workload::dacapo_workload;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. A `const`-initialized
    /// `Cell` has no destructor and needs no lazy setup, so touching it
    /// from inside the allocator cannot allocate or recurse.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the current thread allocated minus the bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last [`peak_above`] began.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation (`grow` > 0) or resize of `grow` live bytes.
fn count_alloc(grow: i64) {
    // `try_with` fails only during thread teardown; those allocations
    // belong to no measured call.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grow);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the peak bytes this thread held
/// live above its level at the call.
fn peak_above<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base) as u64)
}

/// luindex at scale 1, printed to `.jir` text.
fn luindex_source() -> String {
    print_program(&dacapo_workload("luindex", 1.0))
}

#[test]
fn parse_program_allocates_per_buffer_not_per_name() {
    let source = luindex_source();
    let (program, allocs) = counted(|| parse_program(&source).expect("printed programs parse"));
    let per_instr = allocs as f64 / program.instr_count() as f64;
    // About 0.7 with names borrowed from the source and the AST in a few
    // flat vectors (what remains is mostly the growth steps of each
    // method's instruction and location vectors); one `String` per
    // identifier, per label and per map key put it at 17.
    assert!(
        per_instr < 1.0,
        "parse_program made {allocs} allocations for {} instructions ({per_instr:.2} each)",
        program.instr_count()
    );
}

#[test]
fn program_clone_allocates_per_method_not_per_name() {
    let program = parse_program(&luindex_source()).expect("printed programs parse");
    let (copy, allocs) = counted(|| program.clone());
    let per_method = allocs as f64 / program.method_count() as f64;
    // Each method owns its instructions and their source locations (about
    // 2.1 allocations a method); a `String` per entity name and a `Vec` per
    // argument list put it at 17.7.
    assert!(
        per_method < 3.0,
        "Program::clone made {allocs} allocations for {} methods ({per_method:.2} each)",
        program.method_count()
    );
    assert_eq!(copy.var_count(), program.var_count());
}

#[test]
fn parse_program_frees_the_tokens_before_lowering() {
    let source = luindex_source();
    let (program, peak) = peak_above(|| parse_program(&source).expect("printed programs parse"));
    let per_byte = peak as f64 / source.len() as f64;
    // About 15 with the token vector freed once the AST is built: the AST
    // and the program under construction set the peak. Keeping the tokens
    // alive through lowering put it at 20.
    assert!(
        per_byte < 17.5,
        "parse_program peaked at {peak} bytes for {} bytes of source ({per_byte:.2} each)",
        source.len()
    );
    assert!(program.instr_count() > 0);
}
