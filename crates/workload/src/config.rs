//! Workload configuration: the size and idiom-mix knobs of the generator.

/// Parameters controlling one synthetic workload.
///
/// All counts are *per category*; see the crate docs for what each idiom
/// exercises. The defaults produce a small smoke-test program; the
/// [`crate::dacapo`] presets produce benchmark-scale programs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Workload display name.
    pub name: String,
    /// RNG seed; generation is deterministic in `(config, seed)`.
    pub seed: u64,
    /// Number of independent class hierarchies.
    pub hierarchies: usize,
    /// Subclasses per hierarchy (each overrides the base's virtual
    /// methods with a different data-flow variant).
    pub subclasses: usize,
    /// Number of container classes (field + `set`/`get`).
    pub containers: usize,
    /// Number of static utility classes.
    pub util_classes: usize,
    /// Identity/wrap/fill helper *groups* per utility class.
    pub utils_per_class: usize,
    /// Length of static call chains inside utility classes (exercises
    /// static-calls-within-static-calls, the case where S-2obj+H's context
    /// shape differs most from the uniform hybrid's).
    pub chain_depth: usize,
    /// Number of static driver methods.
    pub drivers: usize,
    /// Random operations generated per driver body.
    pub ops_per_driver: usize,
    /// Calls from `main` to drivers (each a distinct static call site).
    pub main_calls: usize,
    /// Fraction (0-100) of container reads followed by a downcast.
    pub cast_percent: u32,
    /// Number of taint-fixture groups injected into `main` for the
    /// `pta check` client suite (see [`crate::TAINT_SPEC`]). Each group
    /// routes a tainted and a clean payload through one *shared static
    /// identity helper* before a sink call, so context policies that merge
    /// static calls into the caller context (the pure object/type-sensitive
    /// analyses) conflate the two and raise a false alarm, while the
    /// hybrids keep them apart. `0` (the default everywhere) injects
    /// nothing and leaves the generated program byte-identical to
    /// pre-taint-fixture versions of this crate.
    pub taint_groups: usize,
}

impl WorkloadConfig {
    /// A minimal configuration for unit tests (≈ 40-80 methods).
    pub fn tiny(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            name: format!("tiny-{seed}"),
            seed,
            hierarchies: 2,
            subclasses: 2,
            containers: 2,
            util_classes: 1,
            utils_per_class: 2,
            chain_depth: 2,
            drivers: 4,
            ops_per_driver: 8,
            main_calls: 6,
            cast_percent: 40,
            taint_groups: 0,
        }
    }

    /// A mid-size configuration for integration tests and cross-validation
    /// (≈ 300-500 methods).
    pub fn small(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            name: format!("small-{seed}"),
            seed,
            hierarchies: 6,
            subclasses: 4,
            containers: 5,
            util_classes: 3,
            utils_per_class: 4,
            chain_depth: 3,
            drivers: 24,
            ops_per_driver: 16,
            main_calls: 40,
            cast_percent: 40,
            taint_groups: 0,
        }
    }

    /// Scales every size knob by `factor` (at least 1 each), keeping the
    /// idiom mix. Used by the bench harness's `--scale` flag.
    pub fn scaled(&self, factor: f64) -> WorkloadConfig {
        let scale = |n: usize| -> usize { ((n as f64 * factor).round() as usize).max(1) };
        WorkloadConfig {
            name: self.name.clone(),
            seed: self.seed,
            hierarchies: scale(self.hierarchies),
            subclasses: self.subclasses,
            containers: scale(self.containers),
            util_classes: scale(self.util_classes),
            utils_per_class: self.utils_per_class,
            chain_depth: self.chain_depth,
            drivers: scale(self.drivers),
            ops_per_driver: self.ops_per_driver,
            main_calls: scale(self.main_calls),
            cast_percent: self.cast_percent,
            taint_groups: self.taint_groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_preserves_mix_and_floors_at_one() {
        let c = WorkloadConfig::tiny(1);
        let s = c.scaled(0.01);
        assert_eq!(s.hierarchies, 1);
        assert_eq!(s.drivers, 1);
        assert_eq!(s.subclasses, c.subclasses);
        let b = c.scaled(3.0);
        assert_eq!(b.hierarchies, 6);
        assert_eq!(b.drivers, 12);
    }
}
