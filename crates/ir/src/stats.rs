//! Program-size statistics, used by the workload generator to calibrate the
//! synthetic DaCapo-like suite and by the bench harness to report workload
//! sizes next to each experiment row.

use crate::program::{Instr, Program};

/// Instruction and entity counts for a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramStats {
    /// Number of class types.
    pub types: usize,
    /// Number of methods.
    pub methods: usize,
    /// Number of local variables.
    pub vars: usize,
    /// Number of allocation sites.
    pub allocs: usize,
    /// Number of `move` instructions.
    pub moves: usize,
    /// Number of `cast` instructions.
    pub casts: usize,
    /// Number of field loads.
    pub loads: usize,
    /// Number of field stores.
    pub stores: usize,
    /// Number of static-field loads.
    pub sloads: usize,
    /// Number of static-field stores.
    pub sstores: usize,
    /// Number of `throw` instructions.
    pub throws: usize,
    /// Number of virtual call sites.
    pub vcalls: usize,
    /// Number of static call sites.
    pub scalls: usize,
}

impl ProgramStats {
    /// Computes the statistics of `program`.
    pub fn of(program: &Program) -> ProgramStats {
        let mut s = ProgramStats {
            types: program.type_count(),
            methods: program.method_count(),
            vars: program.var_count(),
            ..ProgramStats::default()
        };
        for m in program.methods() {
            for instr in program.instrs(m) {
                match instr {
                    Instr::Alloc { .. } => s.allocs += 1,
                    Instr::Move { .. } => s.moves += 1,
                    Instr::Cast { .. } => s.casts += 1,
                    Instr::Load { .. } => s.loads += 1,
                    Instr::Store { .. } => s.stores += 1,
                    Instr::SLoad { .. } => s.sloads += 1,
                    Instr::SStore { .. } => s.sstores += 1,
                    Instr::Throw { .. } => s.throws += 1,
                    Instr::VCall { .. } => s.vcalls += 1,
                    Instr::SCall { .. } => s.scalls += 1,
                }
            }
        }
        s
    }

    /// Total instruction count.
    pub fn instructions(&self) -> usize {
        self.allocs
            + self.moves
            + self.casts
            + self.loads
            + self.stores
            + self.sloads
            + self.sstores
            + self.throws
            + self.vcalls
            + self.scalls
    }
}

impl std::fmt::Display for ProgramStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} types, {} methods, {} vars, {} instrs ({} alloc, {} move, {} cast, {} load, {} store, {} sload, {} sstore, {} throw, {} vcall, {} scall)",
            self.types,
            self.methods,
            self.vars,
            self.instructions(),
            self.allocs,
            self.moves,
            self.casts,
            self.loads,
            self.stores,
            self.sloads,
            self.sstores,
            self.throws,
            self.vcalls,
            self.scalls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    #[test]
    fn counts_every_instruction_kind() {
        let mut b = ProgramBuilder::new();
        let object = b.class("Object", None);
        let c = b.class("C", Some(object));
        let f = b.field(c, "fld");
        let callee = b.method(c, "callee", &[], true);
        let main = b.method(c, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        b.alloc(main, x, c, "new C");
        b.move_(main, y, x);
        b.cast(main, y, x, c);
        b.store(main, x, f, y);
        b.load(main, y, x, f);
        b.vcall(main, x, "nothing", &[], None, "v");
        b.scall(main, callee, &[], None, "s");
        b.entry_point(main);
        let p = b.finish().unwrap();
        let s = ProgramStats::of(&p);
        assert_eq!(s.allocs, 1);
        assert_eq!(s.moves, 1);
        assert_eq!(s.casts, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.vcalls, 1);
        assert_eq!(s.scalls, 1);
        assert_eq!(s.instructions(), 7);
        assert_eq!(s.methods, 2);
        assert!(s.to_string().contains("2 methods"));
    }
}
