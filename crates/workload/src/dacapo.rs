//! The synthetic DaCapo suite: ten named workloads mirroring the relative
//! sizes and idiom mixes of the benchmarks in the paper's Table 1.
//!
//! The paper analyzes DaCapo 2006-10-MR2 under JDK 1.6, reporting ~7.9K
//! (luindex) to ~15K (chart) reachable methods. The synthetic counterparts
//! keep the *relative* size ordering and skew each benchmark toward the
//! idioms its real counterpart is known for — parser generators are
//! static-utility-heavy (antlr, jython), bytecode optimizers are
//! cast-heavy (bloat), chart/eclipse carry wide class hierarchies, hsqldb
//! is container-heavy, xalan has deep call chains. Absolute sizes are
//! scaled down (configurable via [`dacapo_suite`]'s `scale`) so the full
//! 12-analysis × 10-workload matrix runs in minutes rather than days.

use crate::config::WorkloadConfig;
use crate::gen::generate;
use pta_ir::Program;

/// The ten benchmark names, in the paper's Table 1 row order.
pub const DACAPO_NAMES: [&str; 10] = [
    "antlr", "bloat", "chart", "eclipse", "hsqldb", "jython", "luindex", "lusearch", "pmd", "xalan",
];

/// Returns the configuration for one named benchmark at `scale` (1.0 is the
/// default evaluation size).
///
/// # Panics
///
/// Panics if `name` is not one of [`DACAPO_NAMES`].
pub fn dacapo_config(name: &str, scale: f64) -> WorkloadConfig {
    let base = match name {
        // Parser generator: lots of static utility layers and chains.
        "antlr" => WorkloadConfig {
            name: "antlr".into(),
            seed: 0xA417,
            hierarchies: 10,
            subclasses: 4,
            containers: 8,
            util_classes: 8,
            utils_per_class: 5,
            chain_depth: 4,
            drivers: 44,
            ops_per_driver: 18,
            main_calls: 70,
            cast_percent: 35,
            taint_groups: 0,
        },
        // Bytecode optimizer: biggest cast pressure, wide hierarchy.
        "bloat" => WorkloadConfig {
            name: "bloat".into(),
            seed: 0xB10A,
            hierarchies: 12,
            subclasses: 5,
            containers: 9,
            util_classes: 7,
            utils_per_class: 5,
            chain_depth: 3,
            drivers: 52,
            ops_per_driver: 20,
            main_calls: 80,
            cast_percent: 60,
            taint_groups: 0,
        },
        // Charting: the largest; broad hierarchies (renderers, axes).
        "chart" => WorkloadConfig {
            name: "chart".into(),
            seed: 0xC4A2,
            hierarchies: 20,
            subclasses: 6,
            containers: 10,
            util_classes: 8,
            utils_per_class: 5,
            chain_depth: 3,
            drivers: 64,
            ops_per_driver: 20,
            main_calls: 96,
            cast_percent: 40,
            taint_groups: 0,
        },
        // IDE core: plugin-style dispatch, moderate size.
        "eclipse" => WorkloadConfig {
            name: "eclipse".into(),
            seed: 0xEC11,
            hierarchies: 13,
            subclasses: 5,
            containers: 8,
            util_classes: 6,
            utils_per_class: 4,
            chain_depth: 3,
            drivers: 46,
            ops_per_driver: 18,
            main_calls: 72,
            cast_percent: 35,
            taint_groups: 0,
        },
        // Database: container- and helper-heavy.
        "hsqldb" => WorkloadConfig {
            name: "hsqldb".into(),
            seed: 0x45DB,
            hierarchies: 9,
            subclasses: 4,
            containers: 14,
            util_classes: 8,
            utils_per_class: 5,
            chain_depth: 3,
            drivers: 50,
            ops_per_driver: 19,
            main_calls: 76,
            cast_percent: 45,
            taint_groups: 0,
        },
        // Python interpreter: generated code, extreme static-call density.
        "jython" => WorkloadConfig {
            name: "jython".into(),
            seed: 0x1902,
            hierarchies: 8,
            subclasses: 4,
            containers: 7,
            util_classes: 8,
            utils_per_class: 5,
            chain_depth: 5,
            drivers: 42,
            ops_per_driver: 18,
            main_calls: 68,
            cast_percent: 35,
            taint_groups: 0,
        },
        // Text indexer: the smallest.
        "luindex" => WorkloadConfig {
            name: "luindex".into(),
            seed: 0x1DEA,
            hierarchies: 8,
            subclasses: 4,
            containers: 6,
            util_classes: 5,
            utils_per_class: 4,
            chain_depth: 3,
            drivers: 36,
            ops_per_driver: 17,
            main_calls: 56,
            cast_percent: 30,
            taint_groups: 0,
        },
        // Text search: luindex's sibling, slightly larger.
        "lusearch" => WorkloadConfig {
            name: "lusearch".into(),
            seed: 0x105E,
            hierarchies: 9,
            subclasses: 4,
            containers: 6,
            util_classes: 5,
            utils_per_class: 4,
            chain_depth: 3,
            drivers: 38,
            ops_per_driver: 18,
            main_calls: 60,
            cast_percent: 30,
            taint_groups: 0,
        },
        // Source analyzer: visitor-style dispatch, moderate casts.
        "pmd" => WorkloadConfig {
            name: "pmd".into(),
            seed: 0x93D0,
            hierarchies: 12,
            subclasses: 5,
            containers: 7,
            util_classes: 6,
            utils_per_class: 4,
            chain_depth: 3,
            drivers: 44,
            ops_per_driver: 18,
            main_calls: 70,
            cast_percent: 45,
            taint_groups: 0,
        },
        // XSLT processor: deep call chains, big call graph.
        "xalan" => WorkloadConfig {
            name: "xalan".into(),
            seed: 0x8A1A,
            hierarchies: 12,
            subclasses: 5,
            containers: 9,
            util_classes: 8,
            utils_per_class: 5,
            chain_depth: 5,
            drivers: 50,
            ops_per_driver: 19,
            main_calls: 78,
            cast_percent: 35,
            taint_groups: 0,
        },
        other => panic!("unknown DaCapo workload {other:?}; known: {DACAPO_NAMES:?}"),
    };
    if (scale - 1.0).abs() < f64::EPSILON {
        base
    } else {
        base.scaled(scale)
    }
}

/// Generates one named benchmark at `scale`.
///
/// # Panics
///
/// Panics if `name` is unknown.
pub fn dacapo_workload(name: &str, scale: f64) -> Program {
    generate(&dacapo_config(name, scale))
}

/// Checks that `name` is one of [`DACAPO_NAMES`].
///
/// # Errors
///
/// Lists the known names when `name` is not one of them.
pub fn check_name(name: &str) -> Result<&str, String> {
    if DACAPO_NAMES.contains(&name) {
        Ok(name)
    } else {
        Err(format!(
            "unknown workload \"{name}\" (want one of {})",
            DACAPO_NAMES.join(", ")
        ))
    }
}

/// Parses a workload scale: a finite number in `(0, 1024]`.
///
/// # Errors
///
/// Names the rejected text.
pub fn parse_scale(text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 && s <= 1024.0 => Ok(s),
        _ => Err(format!(
            "workload scale \"{text}\" is not a finite number in (0, 1024]"
        )),
    }
}

/// Parses a `NAME:SCALE` workload spec, checking both halves.
///
/// # Errors
///
/// Says which half is wrong.
pub fn parse_spec(spec: &str) -> Result<(&str, f64), String> {
    let (name, scale) = spec
        .split_once(':')
        .ok_or_else(|| format!("expected NAME:SCALE, got \"{spec}\""))?;
    Ok((check_name(name)?, parse_scale(scale)?))
}

/// Generates the full ten-benchmark suite at `scale`, in Table 1 row order.
pub fn dacapo_suite(scale: f64) -> Vec<(String, Program)> {
    DACAPO_NAMES
        .iter()
        .map(|&name| (name.to_owned(), dacapo_workload(name, scale)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_ir::ProgramStats;

    #[test]
    fn all_names_generate() {
        for name in DACAPO_NAMES {
            let p = dacapo_workload(name, 0.2);
            let s = ProgramStats::of(&p);
            assert!(s.methods > 20, "{name} too small: {s}");
        }
    }

    #[test]
    fn chart_is_the_largest_luindex_the_smallest() {
        let sizes: Vec<(usize, &str)> = DACAPO_NAMES
            .iter()
            .map(|&n| (dacapo_workload(n, 1.0).method_count(), n))
            .collect();
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert_eq!(max.1, "chart", "sizes: {sizes:?}");
        assert_eq!(min.1, "luindex", "sizes: {sizes:?}");
    }

    #[test]
    #[should_panic(expected = "unknown DaCapo workload")]
    fn unknown_name_panics() {
        dacapo_config("doesnotexist", 1.0);
    }
}
