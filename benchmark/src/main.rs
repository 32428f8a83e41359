//! `ngs-benchmark` — seeded end-to-end and per-layer benchmark of the
//! ngs-correct workspace. See README.md for the metric definitions.

mod child;
mod compare;
mod json;
mod layers;
mod procstat;
mod run;
mod serve;
mod spans;
mod spec;
mod stats;
mod wake;
mod workloads;

use json::Json;
use ngs_cli::Args;
use run::{Outcome, RunConfig};
use spec::BenchmarkSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use workloads::{Spec, Workload, WORKLOADS};

/// The shipped binaries register the tracking allocator (it counts nothing
/// until `--profile-mem`); the benchmark measures the same configuration.
#[global_allocator]
static ALLOC: ngs_observe::alloc::TrackingAllocator = ngs_observe::alloc::TrackingAllocator;

/// Threads of every measured process, set explicitly through
/// `NGS_THREADS` — never "all cores".
pub const THREADS: usize = 2;

const USAGE: &str = "ngs-benchmark — seeded benchmark of the ngs-correct workspace

USAGE:
  ngs-benchmark [--seed N] [--seconds S] [--workload NAME] [--trace 0|1] [--quick]
  ngs-benchmark --compare A B      (two records, or two directories of records)
  ngs-benchmark --selfcheck N      (N full runs of this tree, first half vs second half)

Without --workload every workload runs, end-to-end pass then traced pass,
and one record is written to benchmark/out/. With --workload one pass of
one workload runs (--trace 1 selects the traced pass). The last line of
stdout is one JSON object: correct, attempted, failed, metrics.";

fn out_dir() -> PathBuf {
    // Run from the repository root (as BENCHMARK.json's command does) the
    // relative path keeps Unix-socket paths short; elsewhere fall back to
    // the package's own directory.
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn param(e: ngs_core::NgsError) -> String {
    e.to_string()
}

fn child_main(mode: &str, args: &Args) -> Result<(), String> {
    let workload =
        workloads::find(args.require("workload").map_err(param)?).ok_or("unknown workload")?;
    let dir = PathBuf::from(args.require("dir").map_err(param)?);
    let shrink = args.get_parsed("shrink", 1).map_err(param)?;
    let result = match mode {
        "reps" => child::reps_main(
            workload,
            &dir,
            args.get_parsed("seconds", 0.0).map_err(param)?,
            args.get_parsed("min-reps", 0).map_err(param)?,
            shrink,
            // The serve set-up's batch run leaves the index snapshot here.
            &args
                .get("checkpoint-dir")
                .map_or(Vec::new(), |d| vec!["--checkpoint-dir".to_string(), d.to_string()]),
        )?,
        "trace" => layers::trace_main(
            workload,
            &dir,
            shrink,
            Path::new(args.require("trace-out").map_err(param)?),
        )?,
        "correct-only" => layers::correct_only_main(workload, &dir, shrink)?,
        // The shipped `ngs-serve` driver; it prints its own ready line and
        // runs until SIGTERM.
        "serve" => return ngs_cli::serving::serve_main(args).map_err(param),
        other => return Err(format!("unknown child mode {other:?}")),
    };
    println!("{}", json::to_string(&result));
    Ok(())
}

fn end_to_end(workload: &Workload, cfg: &RunConfig) -> Result<Outcome, String> {
    if matches!(workload.spec, Spec::Serve { .. }) {
        serve::run(workload, cfg, None).map(|(outcome, _)| outcome)
    } else {
        run::batch(workload, cfg)
    }
}

/// `{"name": {"value": v, "unit": u}}` for the result line, insisting that
/// exactly the declared metrics were measured.
fn result_metrics(
    measured: &BTreeMap<String, f64>,
    declared: &[spec::MetricDecl],
) -> Result<Json, String> {
    if let Some(extra) = measured.keys().find(|k| !declared.iter().any(|d| &d.name == *k)) {
        return Err(format!("metric {extra} is measured but not declared in BENCHMARK.json"));
    }
    let members = declared
        .iter()
        .map(|d| {
            let value = measured
                .get(&d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            Ok((
                d.name.clone(),
                json::obj([("value", json::num(*value)), ("unit", json::string(&d.unit))]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(json::obj(members))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    json::to_string(&json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", json::num(attempted.max(1) as f64)),
        ("failed", json::num(failed as f64)),
        ("metrics", metrics),
    ]))
}

fn print_outcome(workload: &Workload, outcome: &Outcome, spec: &BenchmarkSpec) {
    println!("== {} (end to end, tracing off; accuracy = {})", workload.name, workload.accuracy_is);
    for d in &spec.end_to_end {
        if let Some(m) = outcome.metrics.get(&d.name) {
            let reps = m.reps().map_or(String::new(), |s| {
                format!(
                    "   median of {} reps, q1 {:.4} q3 {:.4} rel.IQR {:.2}%",
                    s.n,
                    s.q1,
                    s.q3,
                    s.rel_iqr() * 100.0
                )
            });
            println!("  {:<34} {:>14.4} {:<9}{reps}", d.name, m.value, d.unit);
        }
    }
    println!("  attempted {} failed {}", outcome.attempted, outcome.failed);
    if let Some(speedup) = outcome.two_thread_speedup {
        println!("  before timing, two busy threads ran {speedup:.2}x as fast as one");
    }
    for p in &outcome.problems {
        println!("  FAILED: {p}");
    }
}

fn print_layer(
    layer: &layers::Layer,
    traced: &BTreeMap<&'static str, layers::Traced>,
    spec: &BenchmarkSpec,
) {
    println!("== per layer (traced pass)");
    for d in &spec.per_layer {
        if let Some(v) = layer.get(&d.name) {
            println!("  {:<34} {:>14.4} {}", d.name, v, d.unit);
        }
    }
    for (name, t) in traced {
        println!(
            "  trace of {name:<15} coverage {:.3}  overhead {:.5}",
            t.coverage_frac, t.overhead_frac
        );
    }
}

fn layer_json(layer: &layers::Layer, traced: &BTreeMap<&'static str, layers::Traced>) -> Json {
    json::obj([
        ("metrics", json::obj(layer.iter().map(|(k, v)| (k.clone(), json::num(*v))))),
        (
            "traces",
            json::obj(traced.iter().map(|(name, t)| {
                (
                    name.to_string(),
                    json::obj([
                        ("coverage_frac", json::num(t.coverage_frac)),
                        ("overhead_frac", json::num(t.overhead_frac)),
                    ]),
                )
            })),
        ),
    ])
}

/// Which passes a run makes.
#[derive(Clone, Copy)]
struct Passes {
    end_to_end: bool,
    traced: bool,
}

/// Run `passes` over `selected` and write one record into `record_dir`.
/// One pass of one workload — the contract's
/// `--workload W --seed N --seconds S --trace 0|1` — reports exactly the
/// declared metrics by their plain names; anything wider prefixes each
/// end-to-end metric with its workload.
fn run(
    selected: &[Workload],
    passes: Passes,
    cfg: &RunConfig,
    record_dir: &Path,
    spec: &BenchmarkSpec,
) -> Result<bool, String> {
    let loadavg = procstat::loadavg();
    let single = selected.len() == 1 && !(passes.end_to_end && passes.traced);
    let mut record = BTreeMap::new();
    let mut metrics = json::obj::<String>([]);
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    if passes.end_to_end {
        let mut flat = Vec::new();
        for workload in selected {
            let outcome = end_to_end(workload, cfg)?;
            print_outcome(workload, &outcome, spec);
            attempted += outcome.attempted;
            failed += outcome.failed;
            correct &= outcome.correct();
            if single {
                let values = outcome.metrics.iter().map(|(k, m)| (k.clone(), m.value)).collect();
                metrics = result_metrics(&values, &spec.end_to_end)?;
            }
            for d in &spec.end_to_end {
                if let Some(m) = outcome.metrics.get(&d.name) {
                    flat.push((
                        format!("{}.{}", workload.name, d.name),
                        json::obj([("value", json::num(m.value)), ("unit", json::string(&d.unit))]),
                    ));
                }
            }
            record.insert(workload.name.to_string(), compare::outcome_json(&outcome, spec));
        }
        if !single {
            metrics = json::obj(flat);
        }
    }
    let mut per_layer = None;
    if passes.traced {
        let (layer, traced) = layers::traced_pass(&selected[0], cfg)?;
        print_layer(&layer, &traced, spec);
        if single {
            metrics = result_metrics(&layer, &spec.per_layer)?;
            attempted = WORKLOADS.len() as u64;
        }
        per_layer = Some(layer_json(&layer, &traced));
    }
    if cfg.quick {
        println!("QUICK — not a measurement");
    } else {
        let machine = compare::machine_facts(cfg, &loadavg);
        let path = compare::write_record(record_dir, machine, record, per_layer)?;
        println!("record written to {}", path.display());
    }
    println!("{}", result_line(correct, attempted, failed, metrics));
    Ok(correct)
}

/// `--selfcheck N`: N full end-to-end runs of this tree, first half
/// against second half, under the bounds of BENCHMARK.json.
fn selfcheck(n: usize, cfg: &RunConfig, spec: &BenchmarkSpec) -> Result<bool, String> {
    if n < 2 {
        return Err("--selfcheck needs at least 2 runs".into());
    }
    let base = cfg.out_dir.join(format!("selfcheck-{}", std::process::id()));
    let (dir_a, dir_b) = (base.join("a"), base.join("b"));
    let mut correct = true;
    for i in 0..n {
        println!("---- selfcheck run {} of {n}", i + 1);
        let dir = if i < n / 2 { &dir_a } else { &dir_b };
        correct &= run(&WORKLOADS, Passes { end_to_end: true, traced: false }, cfg, dir, spec)?;
    }
    let (a, b) = (compare::load_records(&dir_a)?, compare::load_records(&dir_b)?);
    println!("---- first {} run(s) [A] against last {} [B]", a.len(), b.len());
    let all_ok = compare::print_rows(&compare::compare(&a, &b, spec));
    println!("records kept in {}", base.display());
    Ok(correct && all_ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Pooled CLOSET re-executes this binary as its MapReduce worker.
    if argv.first().map(String::as_str) == Some("--mr-worker") {
        std::process::exit(ngs_cli::mr_worker_main(&argv[1..]));
    }
    let spec = BenchmarkSpec::load()?;
    if argv.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("--compare takes exactly two paths".into());
        };
        let rows = compare::compare(
            &compare::load_records(Path::new(a))?,
            &compare::load_records(Path::new(b))?,
            &spec,
        );
        return Ok(compare::print_rows(&rows));
    }
    let args = Args::parse(argv).map_err(param)?;
    if args.has_flag("help") {
        println!("{USAGE}");
        return Ok(true);
    }
    if let Some(mode) = args.get("child") {
        return child_main(mode, &args).map(|()| true);
    }

    if procstat::nproc() < THREADS {
        return Err(format!(
            "{} core(s) available, {THREADS} needed: with fewer the benchmark would measure the scheduler",
            procstat::nproc()
        ));
    }
    let cfg = RunConfig {
        seed: args.get_parsed("seed", 1).map_err(param)?,
        seconds: args.get_parsed("seconds", spec.run_seconds).map_err(param)?,
        quick: args.has_flag("quick"),
        single_setup: false,
        out_dir: out_dir(),
    };
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let trace = match args.get_parsed("trace", 0u8).map_err(param)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    if let Some(n) = args.value_of("selfcheck").map_err(param)? {
        let n = n.parse().map_err(|_| format!("--selfcheck: bad count {n:?}"))?;
        return selfcheck(n, &cfg, &spec);
    }
    match args.value_of("workload").map_err(param)? {
        Some(name) => {
            let workload = workloads::find(name).ok_or_else(|| {
                format!("unknown workload {name:?}; known: {}", spec.workloads.join(", "))
            })?;
            let passes = Passes { end_to_end: !trace, traced: trace };
            run(std::slice::from_ref(workload), passes, &cfg, &cfg.out_dir, &spec)
        }
        None => {
            run(&WORKLOADS, Passes { end_to_end: true, traced: true }, &cfg, &cfg.out_dir, &spec)
        }
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("ngs-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
