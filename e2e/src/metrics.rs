//! The metric lists — names, units, direction, bounds — and the order
//! statistics they are computed with. `BENCHMARK.json` at the root of the
//! repository is the one place the lists are written down: it is compiled
//! in and read back here, so the harness prints, checks and compares
//! exactly what that file names.

use std::sync::OnceLock;

use crate::json::Json;

/// One metric as `BENCHMARK.json` lists it.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// What the harness takes from `BENCHMARK.json`.
#[derive(Debug)]
pub struct Spec {
    /// Length of the measured run unless `--seconds` says otherwise.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("no list `{key}`"))?;
    items
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("`{key}`: an entry has no `{k}`"))
            };
            Ok(Metric {
                name: text("name")?.to_owned(),
                unit: text("unit")?.to_owned(),
                higher_is_better: match text("better")? {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`{key}`: better = {other}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

fn parse_spec(src: &str) -> Result<Spec, String> {
    let doc = Json::parse(src)?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no list `workloads`")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect();
    let spec = Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("no `run_seconds`")?,
        workloads,
        end_to_end: metric_list(&doc, "end_to_end")?,
        per_layer: metric_list(&doc, "per_layer")?,
    };
    match spec.end_to_end.iter().find(|m| m.bound.is_none()) {
        Some(m) => Err(format!("end-to-end metric {} has no bound", m.name)),
        None => Ok(spec),
    }
}

/// `BENCHMARK.json` as it was when this program was built.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse_spec(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

pub fn kind_metric(kind: &str) -> String {
    format!("dbms.kind.{kind}.p50_us")
}

/// Nearest-rank percentile of a sorted slice (`q` in 0..=1).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|v| *v as f64).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Workload, KINDS};

    #[test]
    fn order_statistics() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.50), 500);
        assert_eq!(percentile(&sorted, 0.99), 990);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn benchmark_json_is_well_formed_and_names_what_the_code_has() {
        let spec = spec();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, ours);
        assert!(spec.run_seconds >= 1.0 && spec.run_seconds <= 60.0);
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let listed = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), listed, "a metric name is used twice");
        for kind in KINDS {
            assert!(names.contains(&kind_metric(kind).as_str()), "{kind}");
        }
        for m in &spec.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}
