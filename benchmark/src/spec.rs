//! `BENCHMARK.json` as the single source of metric names, units,
//! directions and regression bounds. It is embedded at build time, so the
//! binary reports exactly the units it declares and `--compare` applies
//! exactly the declared bounds.

use crate::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

fn decls(doc: &Json, key: &str) -> Result<Vec<MetricDecl>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json lacks {key}"))?
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{key}: metric lacks {k}"))
            };
            let better = match text("better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => {
                    return Err(format!("{key}: better must be higher or lower, got {other:?}"))
                }
            };
            Ok(MetricDecl {
                name: text("name")?,
                unit: text("unit")?,
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl BenchmarkSpec {
    pub fn load() -> Result<BenchmarkSpec, String> {
        Self::parse(BENCHMARK_JSON)
    }

    pub fn parse(text: &str) -> Result<BenchmarkSpec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json lacks workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or("workload lacks name")
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchmarkSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json lacks run_seconds")?,
            workloads,
            end_to_end: decls(&doc, "end_to_end")?,
            per_layer: decls(&doc, "per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_matches_the_code() {
        let spec = BenchmarkSpec::load().unwrap();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(e2e, ["reads_per_s", "cpu_us_per_read", "peak_rss_mb", "setup_s", "accuracy"]);
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut all: Vec<&str> =
            spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are used once");
    }
}
