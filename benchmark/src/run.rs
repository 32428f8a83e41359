//! The end-to-end pass of one workload (tracing off).

use crate::child;
use crate::json::Json;
use crate::stats::Summary;
use crate::workloads::{Inputs, Spec, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up is repeated and its median reported, so that one slow disk
/// flush does not decide `setup_s`.
const SETUP_REPS: usize = 3;
/// Fewer timed repetitions than this have no meaningful median.
const MIN_REPS: usize = 5;

#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    /// The repetitions behind `value`, in run order (empty for a metric
    /// measured once per run).
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn single(value: f64) -> Metric {
        Metric { value, samples: Vec::new() }
    }

    /// The median over repetitions, with their quartiles.
    pub fn over_reps(samples: &[f64]) -> Metric {
        Metric { value: crate::stats::median(samples), samples: samples.to_vec() }
    }

    /// Spread over the repetitions of this run, where the metric has reps.
    pub fn reps(&self) -> Option<Summary> {
        Summary::of(&self.samples)
    }
}

/// What one pass of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Metric>,
    /// Operations attempted / failed: repetitions whose output failed
    /// verification, or requests not answered `Corrected`.
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failed check.
    pub problems: Vec<String>,
    /// How well two busy threads ran side by side just before the
    /// measurement (2.0 = a core each, 1.0 = sharing one).
    pub two_thread_speedup: Option<f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn put(&mut self, name: &str, metric: Metric) {
        self.metrics.insert(name.to_string(), metric);
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    /// `--quick`: inputs ÷ 8, one repetition, all verification on.
    pub quick: bool,
    /// The traced pass reports no `setup_s`, so it sets up once.
    pub single_setup: bool,
    pub out_dir: PathBuf,
}

impl RunConfig {
    pub fn shrink(&self) -> usize {
        if self.quick {
            8
        } else {
            1
        }
    }

    fn setup_reps(&self) -> usize {
        if self.quick || self.single_setup {
            1
        } else {
            SETUP_REPS
        }
    }

    pub fn min_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            MIN_REPS
        }
    }

    /// Timed seconds of the repetition loop (`--quick` stops after one rep).
    pub fn rep_seconds(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            self.seconds
        }
    }
}

/// A per-run scratch directory inside `out/`, removed when dropped.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn create(out_dir: &Path, tag: &str) -> Result<Scratch, String> {
        let dir = out_dir.join(format!("scratch-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `one_setup` as often as the configuration asks; returns the last
/// generation and the seconds each took.
pub fn timed_setups(
    cfg: &RunConfig,
    mut one_setup: impl FnMut() -> Result<Inputs, String>,
) -> Result<(Inputs, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let inputs = one_setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= cfg.setup_reps() {
            return Ok((inputs, times));
        }
    }
}

/// Score the output once (every repetition wrote the same bytes) and hold
/// it against the workload's floor.
pub fn score(workload: &Workload, inputs: &Inputs, dir: &Path, outcome: &mut Outcome) {
    match workload.accuracy(inputs, dir) {
        Ok(accuracy) => {
            outcome.put("accuracy", Metric::single(accuracy));
            if accuracy.is_nan() || accuracy < workload.accuracy_floor {
                outcome.problems.push(format!(
                    "accuracy ({}) {accuracy:.4} is below the floor {}",
                    workload.accuracy_is, workload.accuracy_floor
                ));
                outcome.failed = outcome.attempted;
            }
        }
        Err(e) => {
            outcome.problems.push(format!("output cannot be scored: {e}"));
            outcome.failed = outcome.attempted;
        }
    }
}

fn field(rep: &Json, name: &str) -> Result<f64, String> {
    rep.get(name).and_then(Json::as_f64).ok_or_else(|| format!("child result lacks {name}"))
}

/// End-to-end pass of a batch workload: set-up in this process, the
/// repetitions in a fresh child.
pub fn batch(workload: &Workload, cfg: &RunConfig) -> Result<Outcome, String> {
    debug_assert!(!matches!(workload.spec, Spec::Serve { .. }));
    let scratch = Scratch::create(&cfg.out_dir, workload.name)?;
    let dir = scratch.0.as_path();
    let (inputs, setup_times) =
        timed_setups(cfg, || workload.generate(cfg.seed, cfg.shrink(), dir))?;

    let mut cmd = child::command("reps", workload, dir, crate::THREADS)?;
    cmd.args([
        "--seconds",
        &cfg.rep_seconds().to_string(),
        "--min-reps",
        &cfg.min_reps().to_string(),
    ]);
    cmd.args(["--shrink", &cfg.shrink().to_string()]);
    let result = child::run(cmd, dir)?;

    let reps = result.get("reps").and_then(Json::as_arr).ok_or("child result lacks reps")?;
    let n_reads = inputs.n_reads as f64;
    let mut outcome = Outcome::default();
    let (mut throughput, mut cpu_per_read) = (Vec::new(), Vec::new());
    for rep in reps {
        throughput.push(n_reads / field(rep, "wall_s")?);
        cpu_per_read.push(field(rep, "cpu_s")? * 1e6 / n_reads);
        outcome.attempted += 1;
        if rep.get("identical") != Some(&Json::Bool(true)) {
            outcome.failed += 1;
        }
    }
    if outcome.failed > 0 {
        outcome
            .problems
            .push(format!("{} repetition(s) wrote different output bytes", outcome.failed));
    }
    outcome.put("reads_per_s", Metric::over_reps(&throughput));
    outcome.put("cpu_us_per_read", Metric::over_reps(&cpu_per_read));
    outcome.put("peak_rss_mb", Metric::single(field(&result, "vm_hwm_kb")? / 1024.0));
    outcome.two_thread_speedup = result.get("two_thread_speedup").and_then(Json::as_f64);
    outcome.put("setup_s", Metric::over_reps(&setup_times));
    score(workload, &inputs, dir, &mut outcome);
    Ok(outcome)
}
