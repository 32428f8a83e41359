//! `ngs-cli` — command-line front ends for the ngs-correct tool suite.
//!
//! Binaries (all take `--key value` flags; `--help` prints usage):
//!
//! * `reptile-correct` — correct a FASTQ/FASTA file with Reptile;
//! * `redeem-detect` — REDEEM EM over a read set: per-k-mer `Y` and `T`
//!   estimates plus the §3.7 inferred threshold, as TSV;
//! * `closet-cluster` — CLOSET clustering at a threshold series, clusters
//!   as TSV;
//! * `assemble` — de Bruijn unitig assembly to FASTA;
//! * `simulate-reads` — generate a synthetic dataset with ground truth;
//! * `ngs-serve` — long-lived correction server over a unix/TCP socket;
//! * `ngs-client` — batch client for `ngs-serve` with retry/backoff;
//! * `ngs-trace` — trace viewer (chrome export, summary, merge).
//!
//! This module hosts the shared argument parser and I/O helpers so the
//! binaries stay thin and the logic is unit-testable.

use ngs_core::{NgsError, Read, Result};
use ngs_seqio::MalformedPolicy;
use std::collections::BTreeMap;

pub mod pipelines;
pub mod serving;

/// The registry every worker entry point resolves job specs against:
/// `mapreduce-lite`'s builtins plus CLOSET's Phase-I tasks. Driver and
/// worker must agree on this set, so there is exactly one builder.
pub fn worker_registry() -> mapreduce_lite::JobRegistry {
    let mut registry = mapreduce_lite::JobRegistry::with_builtins();
    closet::register_specs(&mut registry);
    registry
}

/// Hidden worker mode behind `--mr-worker` (and the `ngs-mr-worker`
/// binary): connect to the driver's socket and serve task attempts until
/// drained. `argv` is everything after the mode flag — socket path and
/// worker id. Returns the process exit code.
pub fn mr_worker_main(argv: &[String]) -> i32 {
    mapreduce_lite::worker_main(&worker_registry(), argv)
}

/// A parsed `--key value` command line.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    /// Bare `--flag` switches (no value).
    flags: Vec<String>,
}

impl Args {
    /// Parse a raw argument list (excluding the program name).
    ///
    /// Every `--key` consumes the following token as its value unless that
    /// token is itself a `--key`, in which case the first key is recorded
    /// as a bare flag. `--key=value` binds explicitly, without looking at
    /// the next token.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args> {
        let mut args = Args::default();
        let mut iter = argv.into_iter().peekable();
        while let Some(tok) = iter.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| NgsError::InvalidParameter(format!("expected --flag, got {tok:?}")))?
                .to_string();
            if key.is_empty() {
                return Err(NgsError::InvalidParameter("empty flag name".into()));
            }
            if let Some((k, v)) = key.split_once('=') {
                if k.is_empty() {
                    return Err(NgsError::InvalidParameter("empty flag name".into()));
                }
                args.values.insert(k.to_string(), v.to_string());
                continue;
            }
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().unwrap();
                    args.values.insert(key, value);
                }
                _ => args.flags.push(key),
            }
        }
        Ok(args)
    }

    /// True when the bare flag was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A string value, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// A string value, if present — but erroring when the key was given as
    /// a *bare* flag (e.g. `--k` as the last token, or `--k --verbose`):
    /// the user clearly meant to supply a value and dropping to the default
    /// would silently misconfigure the run.
    pub fn value_of(&self, name: &str) -> Result<Option<&str>> {
        match self.get(name) {
            Some(v) => Ok(Some(v)),
            None if self.has_flag(name) => {
                Err(NgsError::InvalidParameter(format!("missing value for --{name}")))
            }
            None => Ok(None),
        }
    }

    /// A required string value.
    pub fn require(&self, name: &str) -> Result<&str> {
        self.value_of(name)?
            .ok_or_else(|| NgsError::InvalidParameter(format!("missing required --{name}")))
    }

    /// A parsed value with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.value_of(name)? {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| NgsError::InvalidParameter(format!("--{name}: cannot parse {s:?}"))),
        }
    }

    /// A comma-separated list of floats.
    pub fn get_f64_list(&self, name: &str, default: &[f64]) -> Result<Vec<f64>> {
        match self.value_of(name)? {
            None => Ok(default.to_vec()),
            Some(s) => s
                .split(',')
                .map(|tok| {
                    tok.trim().parse::<f64>().map_err(|_| {
                        NgsError::InvalidParameter(format!("--{name}: bad float {tok:?}"))
                    })
                })
                .collect(),
        }
    }
}

fn is_fasta_path(path: &str) -> bool {
    path.ends_with(".fa") || path.ends_with(".fasta") || path.ends_with(".fna")
}

/// Read sequences from a path, dispatching on extension (`.fa`/`.fasta` →
/// FASTA, anything else → FASTQ). Fails fast on the first malformed record.
pub fn read_sequences(path: &str) -> Result<Vec<Read>> {
    let disabled = ngs_observe::Collector::disabled();
    Ok(read_sequences_observed(path, MalformedPolicy::FailFast, &disabled)?.0)
}

/// [`read_sequences`] under an explicit [`MalformedPolicy`], ticking the
/// `seqio.bytes_read` / `seqio.records_read` counters on `collector` while
/// reading, so a live progress meter has throughput and an ETA denominator.
/// Also returns how many malformed records were skipped (always 0 under
/// [`MalformedPolicy::FailFast`]).
pub fn read_sequences_observed(
    path: &str,
    policy: MalformedPolicy,
    collector: &ngs_observe::Collector,
) -> Result<(Vec<Read>, usize)> {
    let file = std::fs::File::open(path)?;
    if is_fasta_path(path) {
        ngs_seqio::read_fasta_observed(file, policy, collector)
    } else {
        ngs_seqio::read_fastq_observed(file, policy, collector)
    }
}

/// Write sequences to a path, dispatching on extension like
/// [`read_sequences`]. The write is atomic (tmp + rename): a crash mid-way
/// leaves the destination untouched, never truncated.
pub fn write_sequences(path: &str, reads: &[Read]) -> Result<()> {
    let mut file = ngs_durable::AtomicFile::create(path)?;
    if is_fasta_path(path) {
        ngs_seqio::write_fasta(&mut file, reads, 70)?;
    } else {
        ngs_seqio::write_fastq(&mut file, reads)?;
    }
    file.commit()?;
    Ok(())
}

/// Build the collector for an instrumented run: recording when any
/// observability flag was given — `--metrics-json`, `--trace-jsonl` (with
/// an event tracer attached), `--resource-jsonl`, `--profile-mem` or
/// `--progress` — disabled (every call a no-op, no clock read) otherwise,
/// so un-instrumented runs pay nothing. A recording collector measures
/// every span's wall and process CPU time.
pub fn metrics_collector(args: &Args) -> Result<ngs_observe::Collector> {
    let recording = args.value_of("metrics-json")?.is_some()
        || args.value_of("resource-jsonl")?.is_some()
        || args.has_flag("profile-mem")
        || args.has_flag("progress");
    Ok(if args.value_of("trace-jsonl")?.is_some() {
        ngs_observe::Collector::with_tracer(std::sync::Arc::new(ngs_observe::Tracer::new()))
    } else if recording {
        ngs_observe::Collector::new()
    } else {
        ngs_observe::Collector::disabled()
    })
}

/// When `--metrics-json PATH` was given: snapshot `collector` into a report
/// for `pipeline`, fail if any `required` span is absent (so a refactor
/// that drops an instrumentation point fails the run), print the human
/// table to stderr and write the machine JSON (`BENCH_<pipeline>.json`
/// schema) to PATH.
pub fn emit_metrics(
    args: &Args,
    collector: &ngs_observe::Collector,
    pipeline: &str,
    required: &[&str],
) -> Result<()> {
    let Some(path) = args.value_of("metrics-json")? else {
        return Ok(());
    };
    let report = collector.report(pipeline);
    let missing = report.missing_spans(required);
    if !missing.is_empty() {
        return Err(NgsError::InvalidParameter(format!(
            "metrics report for {pipeline} is missing required spans: {}",
            missing.join(", ")
        )));
    }
    eprint!("{}", report.render_table());
    ngs_durable::write_atomic(path, report.to_json().as_bytes())?;
    eprintln!("wrote metrics to {path}");
    Ok(())
}

/// When `--trace-jsonl PATH` was given: serialise the collector's trace
/// buffer as JSONL (`ngs-trace` schema, version 2) and write it atomically
/// — a crash mid-write never leaves a torn trace file. Call this after
/// every span guard (including the pipeline's root span) has dropped, or
/// the trace will contain dangling begins.
///
/// A run that stitched in worker traces (pooled `--mr-workers`) also
/// writes one component file per process — `PATH.driver`,
/// `PATH.worker0`, … — so `ngs-trace merge` can be exercised on real
/// per-process files; the stitched PATH is already the merged view.
pub fn emit_trace(args: &Args, collector: &ngs_observe::Collector) -> Result<()> {
    let Some(path) = args.value_of("trace-jsonl")? else {
        return Ok(());
    };
    let tracer = collector.tracer().ok_or_else(|| {
        NgsError::InvalidParameter("--trace-jsonl given but the collector has no tracer".into())
    })?;
    ngs_durable::write_atomic(path, tracer.to_jsonl().as_bytes())?;
    eprintln!("wrote trace to {path}");

    let foreign: Vec<_> =
        tracer.processes().into_iter().filter(|m| m.pid != tracer.pid()).collect();
    // In-process pooled runs share one pid; a per-pid partition would just
    // duplicate the stitched file, so components are only written when a
    // genuinely foreign process contributed events.
    if !foreign.is_empty() {
        let own = ngs_observe::trace::ProcessMeta {
            pid: tracer.pid(),
            role: "driver".into(),
            clock_offset_ns: 0,
        };
        let mut role_count: BTreeMap<&str, usize> = BTreeMap::new();
        for m in &foreign {
            *role_count.entry(m.role.as_str()).or_default() += 1;
        }
        for meta in std::iter::once(&own).chain(&foreign) {
            // A run that launched several pools (e.g. one job per
            // threshold) re-uses worker roles across distinct processes;
            // the pid keeps each process its own file.
            let name = if role_count.get(meta.role.as_str()).is_some_and(|&n| n > 1) {
                format!("{}-{}", meta.role, meta.pid)
            } else {
                meta.role.clone()
            };
            let component = format!("{path}.{name}");
            ngs_durable::write_atomic(&component, tracer.to_jsonl_for_pid(meta).as_bytes())?;
            eprintln!("wrote {name} component to {component}");
        }
    }
    Ok(())
}

/// Print usage and exit when `--help` was requested.
pub fn usage_gate(args: &Args, usage: &str) {
    if args.has_flag("help") {
        println!("{usage}");
        std::process::exit(0);
    }
}

/// Exit code for a failed run: 2 for usage/parameter errors (the caller
/// typed something wrong — distinct from runtime failure so scripts and CI
/// can tell "fix the command line" from "the run broke"), 1 otherwise.
pub fn error_exit_code(e: &NgsError) -> i32 {
    match e {
        NgsError::InvalidParameter(_) => 2,
        _ => 1,
    }
}

/// Standard error-and-exit wrapper for binary main functions.
pub fn run_main(result: Result<()>) {
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(error_exit_code(&e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = parse(&["--input", "x.fastq", "--verbose", "--k", "13"]);
        assert_eq!(a.get("input"), Some("x.fastq"));
        assert!(a.has_flag("verbose"));
        assert_eq!(a.get_parsed::<usize>("k", 0).unwrap(), 13);
    }

    #[test]
    fn missing_required_is_error() {
        let a = parse(&["--k", "13"]);
        assert!(a.require("input").is_err());
        assert_eq!(a.require("k").unwrap(), "13");
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.get_parsed::<f64>("rate", 0.01).unwrap(), 0.01);
        assert_eq!(a.get_f64_list("thresholds", &[0.8, 0.6]).unwrap(), vec![0.8, 0.6]);
    }

    #[test]
    fn float_lists_parse() {
        let a = parse(&["--thresholds", "0.9, 0.7,0.5"]);
        assert_eq!(a.get_f64_list("thresholds", &[]).unwrap(), vec![0.9, 0.7, 0.5]);
    }

    #[test]
    fn bad_values_are_errors() {
        let a = parse(&["--k", "wat"]);
        assert!(a.get_parsed::<usize>("k", 1).is_err());
        let a = parse(&["--thresholds", "0.9,x"]);
        assert!(a.get_f64_list("thresholds", &[]).is_err());
    }

    #[test]
    fn non_flag_leading_token_rejected() {
        assert!(Args::parse(vec!["positional".to_string()]).is_err());
    }

    #[test]
    fn equals_form_binds_without_consuming_the_next_token() {
        let a = parse(&["--threads=2", "--input", "x.fastq"]);
        assert_eq!(a.get("threads"), Some("2"));
        assert_eq!(a.get("input"), Some("x.fastq"));
        // Empty key is still rejected.
        assert!(Args::parse(vec!["--=5".to_string()]).is_err());
        // Value may itself contain '=' (only the first splits).
        let a = parse(&["--define=a=b"]);
        assert_eq!(a.get("define"), Some("a=b"));
    }

    #[test]
    fn observability_flags_make_the_collector_record() {
        for flag in ["--profile-mem", "--progress"] {
            assert!(metrics_collector(&parse(&[flag])).unwrap().is_enabled(), "{flag}");
        }
        assert!(metrics_collector(&parse(&["--metrics-json", "m.json"])).unwrap().is_enabled());
        assert!(!metrics_collector(&parse(&[])).unwrap().is_enabled());
    }

    #[test]
    fn flag_missing_its_value_is_an_error_not_a_silent_default() {
        // `--k` as the last token: the value was forgotten, not omitted.
        let a = parse(&["--input", "x.fastq", "--k"]);
        let err = a.get_parsed::<usize>("k", 13).unwrap_err();
        assert!(err.to_string().contains("missing value for --k"), "got: {err}");
        assert!(a.require("k").is_err());
        assert!(a.value_of("k").is_err());
        // Same when the next token is another flag.
        let a = parse(&["--thresholds", "--verbose"]);
        assert!(a.get_f64_list("thresholds", &[0.8]).is_err());
        // Genuinely absent keys still default cleanly.
        assert_eq!(a.get_parsed::<usize>("k", 13).unwrap(), 13);
        // Intentional bare switches are unaffected.
        assert!(a.has_flag("verbose"));
    }

    #[test]
    fn exit_codes_distinguish_usage_from_runtime_errors() {
        assert_eq!(error_exit_code(&NgsError::InvalidParameter("--threads: bad".into())), 2);
        assert_eq!(error_exit_code(&NgsError::MalformedRecord("truncated record".into())), 1);
        assert_eq!(error_exit_code(&NgsError::Io("disk gone".into())), 1);
    }

    #[test]
    fn policy_reader_reports_skips() {
        let dir = std::env::temp_dir().join(format!("ngs_cli_policy_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.fastq");
        std::fs::write(&path, "@r1\nACGT\n+\n!!!!\n@broken\nACGT\n@r2\nTTTT\n+\n!!!!\n").unwrap();
        let path = path.to_str().unwrap();
        assert!(read_sequences(path).is_err());
        let (reads, skipped) = read_sequences_observed(
            path,
            MalformedPolicy::Skip { max: 5 },
            &ngs_observe::Collector::disabled(),
        )
        .unwrap();
        assert!(!reads.is_empty());
        assert!(skipped >= 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sequence_io_round_trip_by_extension() {
        let dir = std::env::temp_dir().join(format!("ngs_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let reads = vec![Read::new("r1", b"ACGT"), Read::new("r2", b"GGNTA")];
        for name in ["x.fasta", "x.fastq"] {
            let path = dir.join(name);
            let path = path.to_str().unwrap();
            write_sequences(path, &reads).unwrap();
            let back = read_sequences(path).unwrap();
            assert_eq!(back.len(), 2);
            assert_eq!(back[0].seq, reads[0].seq);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
