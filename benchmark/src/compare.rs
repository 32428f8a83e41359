//! Result records, and the comparison of two sets of them against the
//! bounds fixed in `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::procstat;
use crate::run::{Metric, Outcome, RunConfig};
use crate::spec::{BenchmarkSpec, Better, MetricDecl};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------- records

/// Facts about the machine and the run, recorded with every result.
pub fn machine_facts(cfg: &RunConfig, loadavg_before: &str) -> Json {
    json::obj([
        ("nproc", json::num(procstat::nproc() as f64)),
        ("threads", json::num(crate::THREADS as f64)),
        ("loadavg_before", json::string(loadavg_before)),
        ("loadavg_after", json::string(procstat::loadavg())),
        ("scratch_dir", json::string(cfg.out_dir.display().to_string())),
        ("rustc", json::string(procstat::rustc_version())),
        ("git_commit", json::string(procstat::git_commit())),
        ("seed", json::num(cfg.seed as f64)),
        ("run_seconds", json::num(cfg.seconds)),
    ])
}

fn metric_json(m: &Metric, unit: &str) -> Json {
    let mut members = vec![("value", json::num(m.value)), ("unit", json::string(unit))];
    if let Some(s) = m.reps() {
        members.push((
            "reps",
            json::obj([
                ("n", json::num(s.n as f64)),
                ("q1", json::num(s.q1)),
                ("median", json::num(s.median)),
                ("q3", json::num(s.q3)),
                ("rel_iqr", json::num(s.rel_iqr())),
                ("samples", Json::Arr(m.samples.iter().map(|&v| json::num(v)).collect())),
            ]),
        ));
    }
    json::obj(members)
}

/// One workload's end-to-end outcome as a record member.
pub fn outcome_json(outcome: &Outcome, spec: &BenchmarkSpec) -> Json {
    let unit = |name: &str| {
        spec.end_to_end.iter().find(|d| d.name == name).map_or("", |d| d.unit.as_str())
    };
    json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", json::num(outcome.attempted as f64)),
        ("failed", json::num(outcome.failed as f64)),
        ("problems", Json::Arr(outcome.problems.iter().map(json::string).collect())),
        ("two_thread_speedup", outcome.two_thread_speedup.map_or(Json::Null, json::num)),
        (
            "metrics",
            json::obj(outcome.metrics.iter().map(|(k, m)| (k.clone(), metric_json(m, unit(k))))),
        ),
    ])
}

/// Write one result record; returns its path. A record never claims a gain.
pub fn write_record(
    dir: &Path,
    machine: Json,
    workloads: BTreeMap<String, Json>,
    per_layer: Option<Json>,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = dir.join(format!("record-{stamp}-{}.json", std::process::id()));
    let record = json::obj([
        ("schema", json::num(1.0)),
        ("claim", Json::Null),
        ("machine", machine),
        ("workloads", Json::Obj(workloads)),
        ("per_layer", per_layer.unwrap_or(Json::Null)),
    ]);
    ngs_durable::write_atomic(&path, (json::to_string(&record) + "\n").as_bytes())
        .map_err(|e| e.to_string())?;
    Ok(path)
}

// ------------------------------------------------------------- comparison

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread between the baseline's own runs is wider than the bound,
    /// so neither "unchanged" nor "worse" can be told.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median (negative
/// when `b` is better).
pub fn worsening(a_median: f64, b_median: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Higher => a_median - b_median,
        Better::Lower => b_median - a_median,
    };
    if a_median == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a_median.abs()
    }
}

pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    if a.rel_iqr() > bound {
        Verdict::Unresolved
    } else if worsening(a.median, b.median, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Values of `workload × metric` in a set of records. A set of one record
/// falls back on the spread over that run's own repetitions.
fn summarise(records: &[Json], workload: &str, metric: &str) -> Option<Summary> {
    let entries: Vec<&Json> = records
        .iter()
        .filter_map(|r| r.get("workloads")?.get(workload)?.get("metrics")?.get(metric))
        .collect();
    let values: Vec<f64> = entries.iter().filter_map(|m| m.get("value")?.as_f64()).collect();
    if let ([entry], [value]) = (entries.as_slice(), values.as_slice()) {
        if let Some(reps) = entry.get("reps") {
            let field = |k: &str| reps.get(k).and_then(Json::as_f64);
            return Some(Summary { n: 1, median: *value, q1: field("q1")?, q3: field("q3")? });
        }
    }
    Summary::of(&values)
}

/// Load one record file, or every `record-*.json` of a directory.
pub fn load_records(path: &Path) -> Result<Vec<Json>, String> {
    let mut files: Vec<PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("record-") && n.ends_with(".json"))
            })
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no record-*.json files", path.display()));
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            json::parse(text.trim()).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

pub struct Row {
    pub workload: String,
    pub metric: MetricDecl,
    pub a: Summary,
    pub b: Summary,
    pub verdict: Verdict,
}

/// One row per workload × end-to-end metric present on both sides.
pub fn compare(a: &[Json], b: &[Json], spec: &BenchmarkSpec) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (Some(sa), Some(sb)) =
                (summarise(a, workload, &metric.name), summarise(b, workload, &metric.name))
            else {
                continue;
            };
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: sa,
                b: sb,
                verdict: verdict(&sa, &sb, metric.better, bound),
            });
        }
    }
    rows
}

/// Print the comparison; true when every row is `ok`.
pub fn print_rows(rows: &[Row]) -> bool {
    println!(
        "{:<15} {:<16} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}  verdict",
        "workload",
        "metric",
        "bound",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "worse by"
    );
    for r in rows {
        println!(
            "{:<15} {:<16} {:>5.0}% {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>7.2}%  {}",
            r.workload,
            r.metric.name,
            r.metric.bound.unwrap_or(0.0) * 100.0,
            r.a.q1,
            r.a.median,
            r.a.q3,
            r.b.q1,
            r.b.median,
            r.b.q3,
            worsening(r.a.median, r.b.median, r.metric.better) * 100.0,
            r.verdict.label()
        );
    }
    rows.iter().all(|r| r.verdict == Verdict::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(values: &[f64]) -> Summary {
        Summary::of(values).unwrap()
    }

    #[test]
    fn worse_only_beyond_the_bound_and_in_the_bad_direction() {
        let a = summary(&[100.0, 101.0, 99.0, 100.0]);
        // Throughput: 8 % lower is within a 10 % bound, 12 % lower is not.
        assert_eq!(verdict(&a, &summary(&[92.0, 92.0]), Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(verdict(&a, &summary(&[88.0, 88.0]), Better::Higher, 0.10), Verdict::Worse);
        // Getting better is never worse, however far.
        assert_eq!(verdict(&a, &summary(&[150.0, 150.0]), Better::Higher, 0.10), Verdict::Ok);
        // A cost: higher is worse.
        assert_eq!(verdict(&a, &summary(&[112.0, 112.0]), Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &summary(&[50.0, 50.0]), Better::Lower, 0.10), Verdict::Ok);
        assert!((worsening(100.0, 88.0, Better::Higher) - 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 88.0, Better::Lower) + 0.12).abs() < 1e-12);
    }

    #[test]
    fn a_baseline_noisier_than_the_bound_is_unresolved_not_unchanged() {
        // Quartiles 85 and 115 around 100: spread 30 % against a 10 % bound.
        let noisy = summary(&[80.0, 90.0, 100.0, 110.0, 120.0]);
        assert!(noisy.rel_iqr() > 0.10);
        assert_eq!(
            verdict(&noisy, &summary(&[100.0, 100.0]), Better::Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &summary(&[50.0, 50.0]), Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // The same baseline is fine for a metric with a wider bound.
        assert_eq!(verdict(&noisy, &summary(&[100.0, 100.0]), Better::Higher, 0.35), Verdict::Ok);
    }

    #[test]
    fn zero_baselines_do_not_divide() {
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
        assert_eq!(worsening(0.0, 1.0, Better::Higher), 0.0);
    }

    fn record(workload: &str, metric: &str, value: f64, reps: Option<(f64, f64)>) -> Json {
        let mut m = vec![("value", json::num(value))];
        if let Some((q1, q3)) = reps {
            m.push(("reps", json::obj([("q1", json::num(q1)), ("q3", json::num(q3))])));
        }
        json::obj([(
            "workloads",
            json::obj([(workload, json::obj([("metrics", json::obj([(metric, json::obj(m))]))]))]),
        )])
    }

    #[test]
    fn sets_pool_their_records_and_a_single_record_uses_its_reps() {
        let set: Vec<Json> =
            [10.0, 12.0, 11.0].iter().map(|&v| record("w", "m", v, Some((0.0, 99.0)))).collect();
        assert_eq!(summarise(&set, "w", "m"), Some(summary(&[10.0, 12.0, 11.0])));
        let single = [record("w", "m", 10.0, Some((9.5, 10.5)))];
        assert_eq!(
            summarise(&single, "w", "m"),
            Some(Summary { n: 1, median: 10.0, q1: 9.5, q3: 10.5 })
        );
        let bare = [record("w", "m", 10.0, None)];
        assert_eq!(summarise(&bare, "w", "m").unwrap().rel_iqr(), 0.0);
        assert_eq!(summarise(&set, "w", "absent"), None);
        assert_eq!(summarise(&set, "other", "m"), None);
    }
}
