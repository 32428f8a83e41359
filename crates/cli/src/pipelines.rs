//! Durable pipeline drivers shared by the `reptile-correct`,
//! `redeem-detect` and `closet-cluster` binaries.
//!
//! Each driver splits its pipeline at the stage boundaries the
//! corresponding crate can snapshot (see `ngs_durable::CheckpointStore`),
//! so `--checkpoint-dir DIR` persists expensive intermediate state and
//! `--resume` restarts from it after a crash — re-validating the manifest
//! checksums and the input-file fingerprint, and recomputing any stage
//! whose parameters changed. Resumed runs produce byte-identical output to
//! cold runs (all numeric state round-trips via `f64::to_bits`; see the
//! `crash_resume` integration test).
//!
//! The `--crash-after STAGE` flag is the test hook for that guarantee: it
//! kills the process (exit code [`CRASH_EXIT_CODE`]) immediately after the
//! named stage's checkpoint lands, simulating a crash at the worst moment
//! that is still recoverable.

use crate::{
    emit_metrics, emit_trace, metrics_collector, read_sequences_observed, write_sequences, Args,
};
use ngs_core::{NgsError, Read, Result};
use ngs_durable::{ByteWriter, CheckpointStore, Fingerprint};
use ngs_kmer::TileTable;
use ngs_observe::sampler::{ProgressMeter, ResourceSampler};
use ngs_observe::Collector;
use ngs_seqio::MalformedPolicy;
use std::io::{IsTerminal as _, Write as _};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Exit code of a run killed by `--crash-after` (distinct from the generic
/// error exit 1, so tests can tell an injected crash from a real failure).
pub const CRASH_EXIT_CODE: i32 = 42;

/// The durability-related flags shared by all three pipeline CLIs.
#[derive(Debug, Clone, Default)]
pub struct DurabilityOpts {
    /// `--checkpoint-dir DIR`: persist stage snapshots here.
    pub checkpoint_dir: Option<PathBuf>,
    /// `--resume`: reload valid snapshots instead of recomputing.
    pub resume: bool,
    /// `--max-bad-records N`: input error budget (0 = fail fast).
    pub policy: MalformedPolicy,
    /// `--crash-after STAGE`: test hook, exit(42) after that stage's
    /// checkpoint is saved.
    pub crash_after: Option<String>,
}

impl DurabilityOpts {
    /// Parse the shared durability flags.
    pub fn from_args(args: &Args) -> Result<DurabilityOpts> {
        let checkpoint_dir = args.value_of("checkpoint-dir")?.map(PathBuf::from);
        let resume = args.has_flag("resume");
        if resume && checkpoint_dir.is_none() {
            return Err(NgsError::InvalidParameter("--resume requires --checkpoint-dir".into()));
        }
        let max_bad: usize = args.get_parsed("max-bad-records", 0)?;
        let policy = if max_bad == 0 {
            MalformedPolicy::FailFast
        } else {
            MalformedPolicy::Skip { max: max_bad }
        };
        let crash_after = args.value_of("crash-after")?.map(String::from);
        Ok(DurabilityOpts { checkpoint_dir, resume, policy, crash_after })
    }

    /// Open the checkpoint store when `--checkpoint-dir` was given,
    /// fingerprinting `input` so snapshots taken against other data miss.
    pub fn store<'c>(
        &self,
        pipeline: &str,
        input: &str,
        collector: &'c Collector,
    ) -> Result<Option<CheckpointStore<'c>>> {
        match &self.checkpoint_dir {
            None => Ok(None),
            Some(dir) => {
                let fp = Fingerprint::of_file(input)?;
                Ok(Some(CheckpointStore::open(dir, pipeline, fp, collector)?))
            }
        }
    }

    /// Test hook: die right after `stage`'s checkpoint landed.
    pub fn crash_if_requested(&self, stage: &str) {
        if self.crash_after.as_deref() == Some(stage) {
            eprintln!("crash-after: simulated crash after stage {stage:?}");
            std::process::exit(CRASH_EXIT_CODE);
        }
    }
}

/// Load the input reads under the run's [`MalformedPolicy`] and the
/// `seqio.read` span, folding the skip count into the collector
/// (`seqio.records_skipped`) and ticking the `seqio.bytes_read` /
/// `seqio.records_read` counters while reading.
pub fn load_reads(input: &str, opts: &DurabilityOpts, collector: &Collector) -> Result<Vec<Read>> {
    let (reads, skipped) = {
        let _s = collector.span("seqio.read");
        read_sequences_observed(input, opts.policy, collector)?
    };
    collector.add("seqio.records_skipped", skipped as u64);
    if skipped > 0 {
        eprintln!("skipped {skipped} malformed record(s) in {input}");
    }
    eprintln!("read {} sequences from {input}", reads.len());
    Ok(reads)
}

/// Parse a thread count from `--threads` or `NGS_THREADS`. Zero,
/// negatives, overflow, and garbage are all [`NgsError::InvalidParameter`]
/// (exit code 2 through `run_main`) with a message naming the origin —
/// never a silent fallback to "all cores".
pub fn parse_thread_count(raw: &str, origin: &str) -> Result<usize> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(NgsError::InvalidParameter(format!(
            "{origin}: thread count must be at least 1, got 0"
        ))),
        Ok(n) => Ok(n),
        Err(_) => Err(NgsError::InvalidParameter(format!(
            "{origin}: cannot parse thread count {raw:?} (expected a positive integer \
             no larger than {})",
            usize::MAX
        ))),
    }
}

/// Apply the shared `--threads N` flag: pin the size of the global
/// parallel runtime before its first use (taking precedence over the
/// `NGS_THREADS` environment variable). Without the flag, a *set*
/// `NGS_THREADS` is validated here too — the pool itself silently ignores
/// malformed values, which would turn a typo'd `NGS_THREADS=O8` into an
/// accidental all-cores run. Unset env and absent flag fall through to the
/// pool's own sizing (env, then available cores).
pub fn apply_threads_flag(args: &Args) -> Result<()> {
    if let Some(raw) = args.value_of("threads")? {
        rayon::set_num_threads(parse_thread_count(raw, "--threads")?);
    } else if let Ok(raw) = std::env::var("NGS_THREADS") {
        rayon::set_num_threads(parse_thread_count(&raw, "NGS_THREADS")?);
    }
    Ok(())
}

/// The observability flags shared by all three pipeline CLIs.
#[derive(Debug, Clone, Default)]
pub struct ObserveOpts {
    /// `--profile-mem`: enable the tracking allocator's counters (the
    /// binary must have registered [`ngs_observe::alloc::TrackingAllocator`]
    /// as its global allocator — all three pipeline binaries do).
    pub profile_mem: bool,
    /// `--resource-jsonl PATH`: sample allocator + `/proc` stats on a
    /// background thread and write the timeline JSONL here at the end.
    pub resource_jsonl: Option<PathBuf>,
    /// `--progress`: force the live progress heartbeat even when stderr is
    /// not a TTY (a TTY stderr turns it on automatically for instrumented
    /// runs).
    pub progress: bool,
}

impl ObserveOpts {
    /// Parse the shared observability flags.
    pub fn from_args(args: &Args) -> Result<ObserveOpts> {
        Ok(ObserveOpts {
            profile_mem: args.has_flag("profile-mem"),
            resource_jsonl: args.value_of("resource-jsonl")?.map(PathBuf::from),
            progress: args.has_flag("progress"),
        })
    }
}

/// Live telemetry for one pipeline run: the tracking allocator, the
/// background resource sampler and the progress heartbeat. (CPU time needs
/// no thread: the collector's spans read the process CPU clock.) Construct
/// with [`ObserveSession::begin`] before the input is read (so ingest
/// throughput is visible live) and call [`ObserveSession::finish`] after
/// the run's spans close to stop the threads and write the resource
/// timeline.
pub struct ObserveSession {
    sampler: Option<ResourceSampler>,
    progress: Option<ProgressMeter>,
    resource_path: Option<PathBuf>,
}

impl ObserveSession {
    /// How often the background sampler snapshots allocator + `/proc`
    /// stats. 100 ms keeps timelines readable for runs of seconds to
    /// minutes while costing well under 0.1% CPU.
    pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(100);
    /// Progress heartbeat cadence — 1 line per second keeps long runs
    /// legible without flooding stderr.
    pub const PROGRESS_INTERVAL: Duration = Duration::from_secs(1);

    /// Start the requested telemetry. `input` is the pipeline's input path;
    /// its file size becomes the ETA denominator for the ingest phase.
    pub fn begin(opts: &ObserveOpts, collector: &Arc<Collector>, input: &str) -> ObserveSession {
        if opts.profile_mem && !ngs_observe::alloc::enable() {
            eprintln!(
                "warning: --profile-mem given but this binary did not register the \
                 tracking allocator; allocation figures will be absent"
            );
        }
        let sampler =
            opts.resource_jsonl.as_ref().map(|_| ResourceSampler::start(Self::SAMPLE_INTERVAL));
        // Auto-enable the heartbeat on interactive runs of instrumented
        // pipelines; `--progress` forces it for piped/captured stderr.
        let want_progress =
            (opts.progress || std::io::stderr().is_terminal()) && collector.is_enabled();
        let progress = want_progress.then(|| {
            ProgressMeter::start(
                collector.clone(),
                "seqio.records_read",
                "seqio.bytes_read",
                std::fs::metadata(input).ok().map(|m| m.len()),
                Self::PROGRESS_INTERVAL,
            )
        });
        ObserveSession { sampler, progress, resource_path: opts.resource_jsonl.clone() }
    }

    /// Stop the telemetry threads and write the resource timeline
    /// atomically.
    pub fn finish(self) -> Result<()> {
        if let Some(p) = self.progress {
            p.stop();
        }
        if let (Some(sampler), Some(path)) = (self.sampler, self.resource_path) {
            let samples = sampler.stop();
            ngs_durable::write_atomic(&path, ngs_observe::sampler::to_jsonl(&samples).as_bytes())?;
            eprintln!("wrote resource timeline to {}", path.display());
        }
        Ok(())
    }
}

fn key_of(build: impl FnOnce(&mut ByteWriter)) -> u64 {
    let mut w = ByteWriter::with_capacity(64);
    build(&mut w);
    ngs_durable::checksum_bytes(&w.into_bytes())
}

// ---------------------------------------------------------------- reptile

pub(crate) fn reptile_params_key(p: &reptile::ReptileParams) -> u64 {
    key_of(|w| {
        w.put_usize(p.k);
        w.put_usize(p.d);
        w.put_usize(p.tile_overlap);
        w.put_u32(p.cg);
        w.put_u32(p.cm);
        w.put_f64(p.cr);
        w.put_u8(p.qc);
        w.put_u8(p.qm);
        w.put_u8(p.default_n_base);
        w.put_usize(p.max_n_per_window);
        w.put_usize(p.max_shift_retries);
    })
}

/// What both Reptile drivers do between loading the reads and having an
/// index: parameters from the data with the shared `--k`/`--d` overrides
/// applied — `--k` before the thresholds are taken, so they are thresholds
/// of the tiles that run — and ambiguity preprocessing in place. One
/// function so `reptile-correct` and `ngs-serve` derive *identical*
/// parameters (and thus an identical checkpoint key) from identical flags —
/// that is what lets a batch run warm-start the server and vice versa.
///
/// Returns the parameters and, when preprocessing changed no read, the tile
/// table the thresholds were read off: the table of `reads` as they now
/// are, for `Reptile::build_with_observed` to keep instead of building it
/// again. The two passes go under the caller's span names, `[parameters and
/// table, preprocessing]`: to the batch run the first is Phase-1 work done
/// early, to a warm-starting server it is what is left of start-up.
pub(crate) fn reptile_prepare(
    args: &Args,
    reads: &mut [Read],
    genome_len: usize,
    collector: &Collector,
    [tiles_span, preprocess_span]: [&str; 2],
) -> Result<(reptile::ReptileParams, Option<TileTable>)> {
    let k = args
        .value_of("k")?
        .map(|raw| match raw.parse() {
            Ok(k) if (1..=16).contains(&k) => Ok(k),
            _ => Err(NgsError::InvalidParameter(format!("--k: need 1..=16, got {raw:?}"))),
        })
        .transpose()?;
    let (mut params, tiles) = {
        let mut s = collector.span_with_threads(tiles_span, rayon::current_num_threads());
        let derived = reptile::ReptileParams::from_data_with_tiles(reads, genome_len, k);
        s.set_threads(rayon::last_threads_used());
        derived
    };
    params.d = args.get_parsed("d", params.d)?;
    eprintln!(
        "parameters: k={} d={} |t|={} Cg={} Cm={} Qc={}",
        params.k,
        params.d,
        params.tile_len(),
        params.cg,
        params.cm,
        params.qc
    );
    let changed = {
        let _s = collector.span(preprocess_span);
        reptile::ambig::preprocess_in_place(reads, &params)
    };
    Ok((params, (changed == 0).then_some(tiles)))
}

/// `reptile-correct` driver: build (or resume) the Phase-1 index, then
/// correct the reads where they were loaded. Checkpointed stage: `index`
/// (parameters + tile table; anchors and neighbour index are derived).
pub fn reptile_correct(args: &Args) -> Result<()> {
    let input = args.require("input")?;
    let output = args.require("output")?;
    let genome_len: usize = args.get_parsed("genome-len", 1_000_000)?;
    let opts = DurabilityOpts::from_args(args)?;
    let obs = ObserveOpts::from_args(args)?;
    apply_threads_flag(args)?;

    let collector = Arc::new(metrics_collector(args)?);
    let session = ObserveSession::begin(&obs, &collector, input);
    // Root span for the whole run: every phase span nests under it in the
    // trace (ambient parenting on this thread). Dropped before the
    // metrics/trace emit so it is recorded in both.
    let run_span = collector.span("reptile.run");
    let mut reads = load_reads(input, &opts, &collector)?;

    // Ambiguity preprocessing happens before the index is built, so a
    // resumed index sees the same read set.
    let spans = ["reptile.build.tiles", "reptile.preprocess"];
    let (params, tiles) = reptile_prepare(args, &mut reads, genome_len, &collector, spans)?;

    let mut store = opts.store("reptile", input, &collector)?;
    let params_key = reptile_params_key(&params);
    let cached = match (&store, opts.resume) {
        (Some(s), true) => {
            s.load("index", params_key).and_then(|b| reptile::Reptile::from_snapshot_bytes(&b).ok())
        }
        _ => None,
    };
    let resumed_index = cached.is_some();

    let t0 = std::time::Instant::now();
    let rpt = match cached {
        Some(r) => {
            eprintln!("resumed Phase-1 index from {}", store.as_ref().unwrap().dir().display());
            r
        }
        None => {
            let r = reptile::Reptile::build_with_observed(&reads, params, tiles, &collector);
            if let Some(s) = store.as_mut() {
                s.save("index", params_key, &r.snapshot_bytes())?;
            }
            opts.crash_if_requested("index");
            r
        }
    };
    let stats = rpt.correct_in_place_observed(&mut reads, &collector);
    eprintln!(
        "corrected in {:.2?}: {} bases changed in {} reads \
         ({} tiles validated, {} corrected, {} unresolved)",
        t0.elapsed(),
        stats.bases_changed,
        stats.reads_changed,
        stats.tiles_validated,
        stats.tiles_corrected,
        stats.tiles_unresolved
    );
    let cost = stats.enumeration;
    eprintln!(
        "enumeration: {} tiles enumerated, {} neighbour probes, {} tile runs / {} entries scanned, \
         {} mutant tiles found",
        cost.enumerations,
        cost.neighbor_probes,
        cost.tile_runs_scanned,
        cost.tile_entries_scanned,
        cost.mutants_found
    );
    {
        let _s = collector.span("seqio.write");
        write_sequences(output, &reads)?;
    }
    eprintln!("wrote {output}");

    // A resumed run derives anchors and neighbour index inside the snapshot
    // load, outside any span; gate only on what this process recorded.
    let mut required = vec!["reptile.run", "reptile.build.tiles", "reptile.correct"];
    if !resumed_index {
        required.extend(["reptile.build.anchors", "reptile.build.neighbor_index"]);
    }
    drop(run_span);
    session.finish()?;
    emit_metrics(args, &collector, "reptile", &required)?;
    emit_trace(args, &collector)?;
    Ok(())
}

// ----------------------------------------------------------------- redeem

/// `redeem-detect` driver. Checkpointed stages: `model` (misread graph,
/// the expensive construction) and `em` (EM state, every
/// `--checkpoint-every` iterations).
pub fn redeem_detect(args: &Args) -> Result<()> {
    let input = args.require("input")?;
    let output = args.require("output")?;
    let k: usize = args.get_parsed("k", 13)?;
    let rate: f64 = args.get_parsed("error-rate", 0.01)?;
    let dmax: usize = args.get_parsed("dmax", 1)?;
    let max_iters: usize = args.get_parsed("max-iters", 60)?;
    let checkpoint_every: usize = args.get_parsed("checkpoint-every", 10)?;
    let opts = DurabilityOpts::from_args(args)?;
    let obs = ObserveOpts::from_args(args)?;
    apply_threads_flag(args)?;

    let collector = Arc::new(metrics_collector(args)?);
    let session = ObserveSession::begin(&obs, &collector, input);
    let run_span = collector.span("redeem.run");
    let mut reads = load_reads(input, &opts, &collector)?;

    let mut store = opts.store("redeem", input, &collector)?;
    let model_key = key_of(|w| {
        w.put_usize(k);
        w.put_f64(rate);
        w.put_usize(dmax);
    });

    let model = redeem::KmerErrorModel::uniform(k, rate);
    let cached = match (&store, opts.resume) {
        (Some(s), true) => {
            s.load("model", model_key).and_then(|b| redeem::Redeem::from_snapshot_bytes(&b).ok())
        }
        _ => None,
    };
    let rd = match cached {
        Some(r) => {
            eprintln!("resumed misread graph from checkpoint");
            r
        }
        None => {
            eprintln!("building misread graph (k={k}, dmax={dmax})");
            let r = redeem::Redeem::new_observed(&reads, k, &model, dmax, &collector);
            if let Some(s) = store.as_mut() {
                s.save("model", model_key, &r.snapshot_bytes())?;
            }
            opts.crash_if_requested("model");
            r
        }
    };
    eprintln!(
        "spectrum: {} distinct k-mers, average degree {:.2}",
        rd.spectrum().len(),
        rd.average_degree()
    );
    collector.add("redeem.kmers", rd.spectrum().len() as u64);
    collector.add("redeem.graph_edges", rd.edge_count() as u64);

    let cfg = redeem::EmConfig { dmax, max_iters, tol: 1e-7 };
    let em_key = key_of(|w| {
        w.put_u64(model_key);
        w.put_usize(cfg.max_iters);
        w.put_f64(cfg.tol);
    });
    let resume_state = match (&store, opts.resume) {
        (Some(s), true) => s.load("em", em_key).and_then(|b| redeem::EmState::from_bytes(&b).ok()),
        _ => None,
    };
    let start_iters = resume_state.as_ref().map_or(0, |s| s.iterations);
    if let Some(s) = &resume_state {
        eprintln!("resumed EM state at iteration {}", s.iterations);
    }

    let every = if store.is_some() { checkpoint_every } else { 0 };
    let mut hook_err: Option<NgsError> = None;
    let result = rd.run_resumable(
        &cfg,
        resume_state,
        every,
        &mut |state| {
            if let Some(s) = store.as_mut() {
                if let Err(e) = s.save("em", em_key, &state.to_bytes()) {
                    hook_err = Some(e);
                    return false;
                }
                opts.crash_if_requested("em");
            }
            true
        },
        &collector,
    );
    if let Some(e) = hook_err {
        return Err(e);
    }
    eprintln!("EM finished after {} iterations", result.iterations);

    let fit = redeem::fit_threshold_model_observed(&result.t, 3, &collector);
    let threshold = fit.as_ref().map(|f| f.threshold).unwrap_or(0.0);
    if let Some(f) = &fit {
        eprintln!(
            "mixture fit: G={} coverage constant={:.1} threshold={:.2} \
             genome length estimate={:.0}",
            f.g,
            f.coverage_constant,
            f.threshold,
            redeem::estimate_genome_length(&result.t, f.coverage_constant)
        );
    } else {
        eprintln!("mixture fit degenerate; reporting threshold 0 (nothing flagged)");
    }

    let mut file = ngs_durable::AtomicFile::create(output)?;
    {
        let mut out = std::io::BufWriter::new(&mut file);
        writeln!(out, "kmer\tY\tT\terroneous")?;
        // One line buffer for the whole table: k base letters, then the
        // numeric columns formatted in place.
        let mut line = Vec::with_capacity(k + 48);
        for (i, (kmer, _)) in rd.spectrum().iter().enumerate() {
            line.clear();
            line.extend((0..k).map(|pos| {
                ngs_core::alphabet::decode_base(ngs_kmer::packed::packed_base(kmer, k, pos))
            }));
            line.push(b'\t');
            push_u64(&mut line, rd.y()[i] as u64);
            line.push(b'\t');
            push_fixed3(&mut line, result.t[i]);
            line.extend_from_slice(if result.t[i] < threshold { b"\t1\n" } else { b"\t0\n" });
            out.write_all(&line)?;
        }
        out.flush()?;
    }
    file.commit()?;
    eprintln!("wrote {output}");

    if let Some(corrected_path) = args.value_of("correct")? {
        let cov = fit.as_ref().map(|f| f.coverage_constant).unwrap_or(20.0);
        {
            let _span = collector.span("redeem.correct");
            redeem::correct_reads_in_place(
                &rd,
                &model,
                &result.t,
                &mut reads,
                cov * 0.5,
                threshold,
            )
            .record_into(&collector);
        }
        {
            let _s = collector.span("seqio.write");
            write_sequences(corrected_path, &reads)?;
        }
        eprintln!("wrote corrected reads to {corrected_path}");
    }

    // A run resumed at (or past) convergence executes zero EM iterations,
    // so the iteration span only gates when iterations actually ran here.
    let mut required = vec!["redeem.run", "redeem.threshold.fit"];
    if result.iterations > start_iters {
        required.push("redeem.em.iteration");
    }
    drop(run_span);
    session.finish()?;
    emit_metrics(args, &collector, "redeem", &required)?;
    emit_trace(args, &collector)?;
    Ok(())
}

/// Appends the decimal digits of `v`.
fn push_u64(line: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    line.extend_from_slice(&digits[at..]);
}

/// Appends exactly what `format!("{x:.3}")` gives, without `fmt`, for
/// `+0.0 ≤ x < 2^43`: `x = m·2^−s` exactly, so `x·1000 = m·1000 / 2^s`
/// (`m·1000 < 2^63`) is rounded to an integer ties-to-even, as `{:.3}`
/// rounds the exact decimal expansion. Negative values (`−0.0` too),
/// non-finite ones and `x ≥ 2^43` go through `fmt`.
fn push_fixed3(line: &mut Vec<u8>, x: f64) {
    const LIMIT: u64 = ((1u64 << 43) as f64).to_bits();
    let bits = x.to_bits();
    // Non-negative values order like their bit patterns; a set sign bit,
    // +inf and NaN all land at or above the limit's.
    if bits >= LIMIT {
        write!(line, "{x:.3}").expect("writing to a Vec cannot fail");
        return;
    }
    let biased = (bits >> 52) as u32;
    let fraction = bits & ((1 << 52) - 1);
    // Below 2^43 every value has a negative exponent: shift ≥ 10.
    let (m, shift) =
        if biased == 0 { (fraction, 1074) } else { (fraction | 1 << 52, 1075 - biased) };
    let scaled = m * 1000;
    let milli = if shift >= 64 {
        0 // scaled < 2^63, so below one half
    } else {
        let (q, rem, half) = (scaled >> shift, scaled & ((1 << shift) - 1), 1u64 << (shift - 1));
        q + u64::from(rem > half || (rem == half && q & 1 == 1))
    };
    push_u64(line, milli / 1000);
    let frac = milli % 1000;
    line.extend_from_slice(&[
        b'.',
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ]);
}

// ----------------------------------------------------------------- closet

fn closet_edges_key(params: &closet::ClosetParams) -> u64 {
    // Only Phase-I-affecting parameters: the threshold series and γ shape
    // Phase II, which always re-runs from the edge list.
    key_of(|w| {
        w.put_usize(params.sketch.k);
        w.put_u64(params.sketch.modulus);
        w.put_usize(params.sketch.rounds);
        w.put_usize(params.sketch.cmax);
        w.put_f64(params.sketch.cmin);
        match params.validator {
            closet::Validator::Alignment { min_overlap } => {
                w.put_u8(0);
                w.put_usize(min_overlap);
            }
            closet::Validator::KmerContainment { k } => {
                w.put_u8(1);
                w.put_usize(k);
            }
        }
    })
}

/// `closet-cluster` driver. Checkpointed stage: `edges` (the validated edge
/// list closing Phase I). Phase II depends on the threshold series and is
/// re-run on resume; on the `closet-16s` benchmark input it is about half
/// of a run, more than sketching and validation together (DESIGN.md §CLOSET
/// Phase I).
pub fn closet_cluster(args: &Args) -> Result<()> {
    let input = args.require("input")?;
    let output = args.require("output")?;
    let thresholds = args.get_f64_list("thresholds", &[0.8, 0.7, 0.6])?;
    if !thresholds.iter().all(|t| (0.0..=1.0).contains(t))
        || thresholds.windows(2).any(|w| w[0] <= w[1])
    {
        return Err(NgsError::InvalidParameter(format!(
            "--thresholds: {thresholds:?} must lie in [0, 1] and be strictly decreasing"
        )));
    }
    let gamma: f64 = args.get_parsed("gamma", closet::DEFAULT_GAMMA)?;
    if gamma.is_nan() || gamma <= 0.0 || gamma > 1.0 {
        return Err(NgsError::InvalidParameter(format!("--gamma: {gamma} must lie in (0, 1]")));
    }
    let workers: usize =
        args.get_parsed("workers", std::thread::available_parallelism().map_or(4, |n| n.get()))?;
    let opts = DurabilityOpts::from_args(args)?;
    let obs = ObserveOpts::from_args(args)?;
    apply_threads_flag(args)?;

    // Per-task MapReduce spans need the collector on the job config, so it
    // lives in an Arc shared between the config and this scope.
    let collector = Arc::new(metrics_collector(args)?);
    let session = ObserveSession::begin(&obs, &collector, input);
    let run_span = collector.span("closet.run");
    let reads = load_reads(input, &opts, &collector)?;
    let avg_len = reads.iter().map(|r| r.len()).sum::<usize>() / reads.len().max(1);
    eprintln!("average read length {avg_len} bp");

    let mut params = closet::ClosetParams::standard(avg_len.max(32), thresholds, workers);
    params.gamma = gamma;
    if args.has_flag("align") {
        params.validator = closet::Validator::Alignment { min_overlap: 50 };
    }
    let mr_workers: usize = args.get_parsed("mr-workers", 0)?;
    if mr_workers > 0 {
        // Re-exec this binary in its hidden `--mr-worker` mode; the pool
        // appends the socket path and worker id per spawn.
        let exe = std::env::current_exe()
            .map_err(|e| NgsError::Io(format!("cannot locate own executable: {e}")))?;
        params.pool = Some(mapreduce_lite::PoolConfig::with_worker_cmd(
            mr_workers,
            vec![exe.to_string_lossy().into_owned(), "--mr-worker".into()],
        ));
        eprintln!("multi-process MapReduce: {mr_workers} worker processes");
    }
    if collector.is_enabled() {
        params.job.collector = Some(collector.clone());
    }

    let mut store = opts.store("closet", input, &collector)?;
    let edges_key = closet_edges_key(&params);
    let cached = match (&store, opts.resume) {
        (Some(s), true) => s
            .load("edges", edges_key)
            .and_then(|b| closet::EdgePhase::from_bytes(&b, reads.len()).ok()),
        _ => None,
    };

    let t0 = std::time::Instant::now();
    let edges = match cached {
        Some(e) => {
            eprintln!("resumed {} validated edges from checkpoint", e.validated.len());
            e.replay_observed(reads.len(), workers, &collector);
            e
        }
        None => {
            let e = closet::build_edges_observed(&reads, &params, &collector)
                .map_err(|e| NgsError::Io(format!("mapreduce job failed: {e}")))?;
            if let Some(s) = store.as_mut() {
                s.save("edges", edges_key, &e.to_bytes())?;
            }
            opts.crash_if_requested("edges");
            e
        }
    };
    let result = closet::cluster_edges_observed(&edges, &params, &collector)
        .map_err(|e| NgsError::Io(format!("mapreduce job failed: {e}")))?;
    eprintln!(
        "pipeline in {:.2?}: {} candidate edges, {} confirmed",
        t0.elapsed(),
        result.sketch_stats.unique_edges,
        result.confirmed_edges
    );
    if result.job_stats.task_failures > 0 {
        eprintln!(
            "  fault tolerance: {} task failures, {} retried tasks, {} corrupt frames",
            result.job_stats.task_failures,
            result.job_stats.retried_tasks,
            result.job_stats.corrupt_frames
        );
    }
    for stats in &result.threshold_stats {
        eprintln!(
            "  t={:.2}: {} edges, {} clusters ({} processed, {} rounds)",
            stats.threshold,
            stats.edges,
            stats.resulting_clusters,
            stats.clusters_processed,
            stats.rounds
        );
        if !stats.converged {
            eprintln!(
                "  warning: t={:.2} stopped at the {}-round cut-off with clusters still merging",
                stats.threshold, stats.rounds
            );
        }
    }

    let mut file = ngs_durable::AtomicFile::create(output)?;
    {
        let mut out = std::io::BufWriter::new(&mut file);
        writeln!(out, "threshold\tcluster\treads")?;
        for (t, clusters) in &result.clusters_by_threshold {
            for (ci, cluster) in clusters.iter().enumerate() {
                write!(out, "{t:.3}\t{ci}\t")?;
                for (i, &v) in cluster.vertices.iter().enumerate() {
                    if i > 0 {
                        out.write_all(b",")?;
                    }
                    out.write_all(reads[v as usize].id.as_bytes())?;
                }
                out.write_all(b"\n")?;
            }
        }
        out.flush()?;
    }
    file.commit()?;
    eprintln!("wrote {output}");

    // Static gate: a resumed run replays the Phase-I spans from the
    // checkpoint (EdgePhase::replay_observed), so all three always exist.
    drop(run_span);
    session.finish()?;
    emit_metrics(
        args,
        &collector,
        "closet",
        &["closet.run", "closet.sketch", "closet.validate", "closet.cluster"],
    )?;
    emit_trace(args, &collector)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `push_fixed3` against `{:.3}` on bit patterns drawn from the whole
    /// `f64` range and from the `T` range, exact ties `n + ½` at every
    /// scale, subnormals, zeros, non-finite values and the `2^43` edge.
    #[test]
    fn fixed3_matches_fmt() {
        let check = |x: f64| {
            let mut line = Vec::new();
            push_fixed3(&mut line, x);
            assert_eq!(
                String::from_utf8(line).unwrap(),
                format!("{x:.3}"),
                "bits {:#x}",
                x.to_bits()
            );
        };
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let two43 = (1u64 << 43) as f64;
        for _ in 0..50_000 {
            let r = next();
            check(f64::from_bits(r));
            check(f64::from_bits(r >> 1)); // non-negative
            check((r >> 11) as f64 / (1u64 << 53) as f64 * 1000.0);
            check((r >> 11) as f64 / (1u64 << 53) as f64 * two43);
            // An exact tie: x·1000 = n + ½ exactly only for x = odd / 16.
            check(((r >> (20 + r % 44)) | 1) as f64 / 16.0);
        }
        for x in [0.0625, 0.1875, 0.3125, 1.0625, 4095.9375, 0.0005, 0.9995, 999.9995] {
            check(x);
        }
        for x in [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            check(x);
        }
        for bits in [1u64, 2, 3, 0x000f_ffff_ffff_ffff, 0x0010_0000_0000_0000] {
            check(f64::from_bits(bits)); // smallest subnormals, largest, smallest normal
        }
        let below = f64::from_bits(two43.to_bits() - 1);
        for x in [below, two43, two43 + 0.5, 2.0 * two43, f64::MAX, -1.5, -0.0005] {
            check(x);
        }
    }

    #[test]
    fn push_u64_matches_fmt() {
        for v in [0u64, 7, 10, 99, 100, 12_345, u64::MAX / 3, u64::MAX] {
            let mut line = Vec::new();
            push_u64(&mut line, v);
            assert_eq!(String::from_utf8(line).unwrap(), v.to_string());
        }
    }

    #[test]
    fn thread_counts_parse_strictly() {
        assert_eq!(parse_thread_count("4", "--threads").unwrap(), 4);
        assert_eq!(parse_thread_count(" 8 ", "NGS_THREADS").unwrap(), 8);

        let zero = parse_thread_count("0", "--threads").unwrap_err();
        assert!(matches!(zero, NgsError::InvalidParameter(_)), "got: {zero:?}");
        assert!(zero.to_string().contains("--threads"), "got: {zero}");
        assert!(zero.to_string().contains("at least 1"), "got: {zero}");

        for bad in ["", "wat", "-2", "3.5", "0x8", "18446744073709551616000"] {
            let err = parse_thread_count(bad, "NGS_THREADS").unwrap_err();
            assert!(matches!(err, NgsError::InvalidParameter(_)), "{bad:?} -> {err:?}");
            assert!(err.to_string().contains("NGS_THREADS"), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn threads_flag_rejects_zero_and_garbage() {
        for bad in ["0", "lots"] {
            let args = Args::parse(["--threads".to_string(), bad.to_string()]).unwrap();
            let err = apply_threads_flag(&args).unwrap_err();
            assert!(matches!(err, NgsError::InvalidParameter(_)), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn env_thread_count_is_validated_not_silently_ignored() {
        // Process-global env var: other unit tests in this binary never
        // touch NGS_THREADS, and the determinism suite that does runs as a
        // separate integration-test process.
        std::env::set_var("NGS_THREADS", "O8");
        let args = Args::parse(std::iter::empty::<String>()).unwrap();
        let err = apply_threads_flag(&args).unwrap_err();
        std::env::remove_var("NGS_THREADS");
        assert!(matches!(err, NgsError::InvalidParameter(_)), "got: {err:?}");
        assert!(err.to_string().contains("NGS_THREADS"), "got: {err}");
        // A --threads flag takes precedence over the (now absent) env var.
        let args = Args::parse(["--threads".to_string(), "2".to_string()]).unwrap();
        apply_threads_flag(&args).unwrap();
    }
}
