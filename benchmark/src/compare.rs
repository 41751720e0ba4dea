//! `compare A B`: two sets of runs, as TSV rows
//! `workload\tmetric\tvalue\tunit\tn`, judged metric by metric against
//! the regression bounds `BENCHMARK.json` fixes.

use std::collections::{BTreeMap, HashMap};

use pta_serve::json::{self, Value};

use crate::stats;

/// Values per `(workload, metric)`, in file order, with the unit.
type Runs = BTreeMap<(String, String), (Vec<f64>, String)>;

/// Parses TSV rows; several rows for one workload and metric are several
/// runs. Lines starting with `#` are comments.
///
/// # Errors
///
/// A row without five fields or with a non-numeric value.
pub fn read_tsv(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, metric, value, unit, _n] = f[..] else {
            return Err(format!("line {}: want 5 tab-separated fields", i + 1));
        };
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value {value:?}", i + 1))?;
        let entry = runs
            .entry((workload.to_owned(), metric.to_owned()))
            .or_insert_with(|| (Vec::new(), unit.to_owned()));
        entry.0.push(value);
    }
    Ok(runs)
}

/// Per metric: whether lower is better, and its bound (end-to-end only).
pub type Spec = HashMap<String, (bool, Option<f64>)>;

/// Reads the metric declarations of `BENCHMARK.json`.
///
/// # Errors
///
/// Malformed JSON or metric entries.
pub fn read_spec(text: &str) -> Result<Spec, String> {
    let v = json::parse(text)?;
    let mut spec = Spec::new();
    for key in ["end_to_end", "per_layer"] {
        let Some(Value::Array(items)) = v.get(key) else {
            return Err(format!("missing array {key:?}"));
        };
        for item in items {
            let name = item.get("name").and_then(Value::as_str);
            let better = item.get("better").and_then(Value::as_str);
            let (Some(name), Some(better)) = (name, better) else {
                return Err(format!("{key}: entry without name or better"));
            };
            let bound = match item.get("bound") {
                Some(Value::Number(b)) => Some(*b),
                _ => None,
            };
            spec.insert(name.to_owned(), (better == "lower", bound));
        }
    }
    Ok(spec)
}

/// One report line per workload and metric present in both sets, and
/// whether any bounded metric regressed.
#[must_use]
pub fn compare(a: &Runs, b: &Runs, spec: &Spec) -> (String, bool) {
    let mut out = format!(
        "{:<13} {:<28} {:>12} {:>12} {:>7} {:>7} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "B/A", "spread", "bound"
    );
    let mut regressed = false;
    for (key, (va, unit)) in a {
        let Some((vb, _)) = b.get(key) else {
            continue;
        };
        let (Some(ma), Some(mb)) = (stats::median(va), stats::median(vb)) else {
            continue;
        };
        let ratio = if ma == 0.0 { f64::NAN } else { mb / ma };
        let (lower_better, bound) = spec.get(&key.1).copied().unwrap_or((true, None));
        let worse = if lower_better {
            ratio - 1.0
        } else {
            1.0 - ratio
        };
        let spread = match (stats::relative_iqr(va), stats::relative_iqr(vb)) {
            (Some(x), Some(y)) => Some(x.max(y)),
            _ => None,
        };
        let verdict = match bound {
            None => "info",
            Some(bound) if spread.is_some_and(|s| s > bound) => "unresolved",
            Some(bound) if worse > bound => {
                regressed = true;
                "regressed"
            }
            Some(_) if ratio.is_nan() => "unresolved",
            Some(_) => "ok",
        };
        let pct = |x: Option<f64>| x.map_or("-".to_owned(), |x| format!("{:.1}%", x * 100.0));
        out.push_str(&format!(
            "{:<13} {:<28} {:>12} {:>12} {:>7.3} {:>7} {:>6}  {verdict}\n",
            key.0,
            format!("{} ({unit})", key.1),
            format!("{ma:.4}"),
            format!("{mb:.4}"),
            ratio,
            pct(spread),
            pct(bound),
        ));
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end":[
        {"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1},
        {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}],
        "per_layer":[{"name":"core.steps","unit":"count","better":"lower"}]}"#;

    fn runs(rows: &[(&str, f64)]) -> Runs {
        let text: String = rows
            .iter()
            .map(|(m, v)| format!("w\t{m}\t{v}\tu\t1\n"))
            .collect();
        read_tsv(&text).unwrap()
    }

    fn verdict(report: &str, metric: &str) -> String {
        let line = report.lines().find(|l| l.contains(metric)).unwrap();
        line.split_whitespace().last().unwrap().to_owned()
    }

    #[test]
    fn judges_each_metric_by_its_direction_and_bound() {
        let spec = read_spec(SPEC).unwrap();
        let a = runs(&[
            ("op_p50_ms", 100.0),
            ("op_p50_ms", 101.0),
            ("op_p50_ms", 99.0),
            ("ops_per_s", 10.0),
            ("ops_per_s", 10.0),
            ("ops_per_s", 10.0),
            ("core.steps", 5.0),
        ]);
        let b = runs(&[
            ("op_p50_ms", 120.0),
            ("op_p50_ms", 121.0),
            ("op_p50_ms", 119.0),
            ("ops_per_s", 10.5),
            ("ops_per_s", 10.4),
            ("ops_per_s", 10.6),
            ("core.steps", 4.0),
        ]);
        let (report, regressed) = compare(&a, &b, &spec);
        assert!(regressed);
        assert_eq!(verdict(&report, "op_p50_ms"), "regressed");
        assert_eq!(verdict(&report, "ops_per_s"), "ok");
        assert_eq!(verdict(&report, "core.steps"), "info");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let spec = read_spec(SPEC).unwrap();
        let a = runs(&[
            ("op_p50_ms", 100.0),
            ("op_p50_ms", 150.0),
            ("op_p50_ms", 70.0),
        ]);
        let b = runs(&[
            ("op_p50_ms", 140.0),
            ("op_p50_ms", 100.0),
            ("op_p50_ms", 150.0),
        ]);
        let (report, regressed) = compare(&a, &b, &spec);
        assert!(!regressed);
        assert_eq!(verdict(&report, "op_p50_ms"), "unresolved");
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(read_tsv("w\tm\t1\tms\n").is_err());
        assert!(read_tsv("w\tm\tx\tms\t1\n").is_err());
        assert_eq!(read_tsv("# host\nw\tm\t1\tms\t1\n").unwrap().len(), 1);
    }
}
