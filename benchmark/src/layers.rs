//! The traced pass: every workload replayed stage by stage under the
//! benchmark's own spans, plus isolated probes of single layers.
//!
//! Spans wrap calls into each crate's public functions; nothing inside the
//! program is instrumented. A layer metric is named after its crate. Each
//! workload is replayed in a fresh child, after the same driver has run
//! end to end (untraced) in that child, so `trace.coverage_frac` can say
//! whether the replayed stages are the driver's pipeline.

use crate::child;
use crate::json::{self, Json};
use crate::run::{RunConfig, Scratch};
use crate::spans::{self, Recorder};
use crate::stats;
use crate::workloads::{path_str, ReptileData, Spec, Workload, WORKLOADS};
use closet::{ClosetParams, EdgePhase};
use mapreduce_lite::{FrameConn, JobConfig, Message, PoolConfig, WordCountSpec};
use ngs_core::Read;
use ngs_kmer::neighbor::NeighborStrategy;
use ngs_kmer::{KSpectrum, Kmer, NeighborTables, TileTable};
use redeem::{EmConfig, KmerErrorModel, Redeem};
use reptile::{Reptile, ReptileParams};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Untraced end-to-end repetitions a trace child times (after one warm-up)
/// as the reference for `trace.coverage_frac`.
const REFERENCE_REPS: usize = 3;

pub type Layer = BTreeMap<String, f64>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Seconds `f` takes, and its value.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let value = f();
    (t0.elapsed().as_secs_f64(), value)
}

fn file_mb(path: &Path) -> Result<f64, String> {
    Ok(std::fs::metadata(path).map_err(err)?.len() as f64 / 1e6)
}

fn read_input(workload: &Workload, dir: &Path) -> Result<Vec<Read>, String> {
    let file = std::fs::File::open(workload.input_path(dir)).map_err(err)?;
    if matches!(workload.spec, Spec::Closet { .. }) {
        ngs_seqio::read_fasta(file)
    } else {
        ngs_seqio::read_fastq(file)
    }
    .map_err(err)
}

/// K-mers of the first reads, as lookup keys for the probes.
fn sample_kmers(reads: &[Read], k: usize, want: usize) -> Vec<Kmer> {
    let mut out = Vec::with_capacity(want);
    for r in reads {
        ngs_kmer::for_each_kmer(&r.seq, k, |_, v| out.push(v));
        if out.len() >= want {
            break;
        }
    }
    out
}

// ---------------------------------------------------------------- reptile

struct ReptileReplay {
    pre: Vec<Read>,
    index: Reptile,
}

/// `read_fastq → from_data → preprocess_ambiguous → build → correct →
/// write_fastq`, the stages of `pipelines::reptile_correct`.
fn replay_reptile(
    workload: &Workload,
    data: ReptileData,
    dir: &Path,
    shrink: usize,
    rec: &Recorder,
    prefix: &str,
    layer: &mut Layer,
) -> Result<ReptileReplay, String> {
    let output = dir.join("replay.fastq");
    let replay = rec.span(workload.name, || -> Result<_, String> {
        let reads = rec.span("seqio.read_fastq", || read_input(workload, dir))?;
        let params = rec.span("reptile.params", || {
            let mut p = ReptileParams::from_data(&reads, data.genome_len / shrink);
            p.d = data.d;
            p
        });
        let pre = rec
            .span("reptile.preprocess", || reptile::ambig::preprocess_ambiguous(&reads, &params));
        let index = rec.span("reptile.build", || Reptile::build(&pre, params));
        let (corrected, stats) = rec.span("reptile.correct", || index.correct(&pre));
        rec.span("seqio.write_fastq", || ngs_cli::write_sequences(path_str(&output), &corrected))
            .map_err(err)?;

        let n = reads.len() as f64;
        let tiles = (stats.tiles_validated + stats.tiles_corrected + stats.tiles_unresolved) as f64;
        let mut put = |name: &str, v: f64| layer.insert(format!("reptile.{prefix}{name}"), v);
        put("correct_s", rec.total_s("reptile.correct"));
        put("correct_us_per_read", rec.total_s("reptile.correct") * 1e6 / n);
        put("build_s", rec.total_s("reptile.build"));
        put("tiles_corrected", stats.tiles_corrected as f64);
        put("validated_frac", stats.tiles_validated as f64 / tiles);
        put("bases_changed", stats.bases_changed as f64);
        if prefix.is_empty() {
            put("params_s", rec.total_s("reptile.params"));
            put("preprocess_s", rec.total_s("reptile.preprocess"));
            put("tiles_validated", stats.tiles_validated as f64);
            put("tiles_unresolved", stats.tiles_unresolved as f64);
        }
        Ok(ReptileReplay { pre, index })
    })?;
    if prefix.is_empty() {
        layer.insert(
            "seqio.parse_mb_per_s".into(),
            file_mb(&workload.input_path(dir))? / rec.total_s("seqio.read_fastq"),
        );
        layer.insert(
            "seqio.write_mb_per_s".into(),
            file_mb(&output)? / rec.total_s("seqio.write_fastq"),
        );
    }
    Ok(replay)
}

/// Isolated probes of `ngs_kmer`, `reptile::snapshot` and `ngs_durable` on
/// the `reptile-lowerr` data.
fn probe_kmer_layers(
    replay: &ReptileReplay,
    dir: &Path,
    rec: &Recorder,
    layer: &mut Layer,
) -> Result<(), String> {
    let params = replay.index.params().clone();
    let pre = &replay.pre;
    rec.span("probes", || -> Result<(), String> {
        let spectrum =
            rec.span("kmer.spectrum_build", || KSpectrum::from_reads_both_strands(pre, params.k));
        layer.insert(
            "kmer.spectrum_build_mkmers_per_s".into(),
            spectrum.total_instances() as f64 / 1e6 / rec.total_s("kmer.spectrum_build"),
        );
        let tiles = rec.span("kmer.tile_build", || {
            TileTable::build(pre, params.k, params.tile_overlap, params.qc)
        });
        let placements: usize =
            pre.iter().map(|r| (r.len() + 1).saturating_sub(tiles.tile_len())).sum();
        layer.insert(
            "kmer.tile_build_mtiles_per_s".into(),
            placements as f64 / 1e6 / rec.total_s("kmer.tile_build"),
        );
        let tables = rec.span("kmer.neighbor_build", || {
            NeighborTables::build(
                &spectrum,
                params.d,
                NeighborStrategy::MaskedReplicas { chunks: params.neighbor_chunks() },
            )
        });
        layer.insert("kmer.neighbor_build_s".into(), rec.total_s("kmer.neighbor_build"));

        let keys = sample_kmers(pre, params.k, 1_000_000);
        rec.span("kmer.spectrum_lookup", || {
            let mut seen = 0u64;
            for &key in &keys {
                seen += u64::from(spectrum.count(black_box(key)));
            }
            black_box(seen)
        });
        layer.insert(
            "kmer.spectrum_lookup_ns".into(),
            rec.total_s("kmer.spectrum_lookup") * 1e9 / keys.len() as f64,
        );
        let view = tables.view(&spectrum);
        let probes = &keys[..keys.len().min(100_000)];
        rec.span("kmer.neighbor_probe_d1", || {
            for &key in probes {
                black_box(view.neighbors(black_box(key), 1));
            }
        });
        layer.insert(
            "kmer.neighbor_probe_d1_ns".into(),
            rec.total_s("kmer.neighbor_probe_d1") * 1e9 / probes.len() as f64,
        );

        let snapshot = replay.index.snapshot_bytes();
        rec.span("reptile.snapshot_load", || Reptile::from_snapshot_bytes(&snapshot).map(|_| ()))
            .map_err(err)?;
        layer.insert("reptile.snapshot_load_s".into(), rec.total_s("reptile.snapshot_load"));
        let blob = dir.join("probe.bin");
        rec.span("durable.write_atomic", || ngs_durable::write_atomic(&blob, &snapshot))
            .map_err(err)?;
        layer.insert(
            "durable.write_atomic_mb_per_s".into(),
            snapshot.len() as f64 / 1e6 / rec.total_s("durable.write_atomic"),
        );
        Ok(())
    })
}

/// d = 2 neighbour walks on the `reptile-d2` index.
fn probe_d2_neighbors(replay: &ReptileReplay, rec: &Recorder, layer: &mut Layer) {
    let index = &replay.index;
    let view = index.neighbor_tables().view(index.spectrum());
    let probes = sample_kmers(&replay.pre, index.params().k, 50_000);
    let hits = rec.span("probes", || {
        rec.span("kmer.neighbor_probe_d2", || {
            probes.iter().map(|&key| view.neighbors(black_box(key), 2).len()).sum::<usize>()
        })
    });
    layer.insert(
        "kmer.neighbor_probe_d2_ns".into(),
        rec.total_s("kmer.neighbor_probe_d2") * 1e9 / probes.len() as f64,
    );
    layer.insert("kmer.neighbor_hits_per_probe_d2".into(), hits as f64 / probes.len() as f64);
}

/// Child mode `correct-only`: seconds of `Reptile::correct` alone, at
/// whatever `NGS_THREADS` the parent chose (the parallel-speedup probe).
pub fn correct_only_main(workload: &Workload, dir: &Path, shrink: usize) -> Result<Json, String> {
    let data = workload.reptile_data().ok_or("correct-only needs a reptile workload")?;
    let reads = read_input(workload, dir)?;
    let mut params = ReptileParams::from_data(&reads, data.genome_len / shrink);
    params.d = data.d;
    let pre = reptile::ambig::preprocess_ambiguous(&reads, &params);
    let index = Reptile::build(&pre, params);
    black_box(index.correct(&pre));
    let (correct_s, _) = timed(|| black_box(index.correct(&pre)));
    Ok(json::obj([("correct_s", json::num(correct_s))]))
}

// ----------------------------------------------------------------- redeem

/// `read_fastq → Redeem::new → run → fit_threshold_model → correct_reads →
/// write_fastq`, the stages of `pipelines::redeem_detect --correct`.
fn replay_redeem(
    workload: &Workload,
    dir: &Path,
    rec: &Recorder,
    layer: &mut Layer,
) -> Result<(), String> {
    let Spec::Redeem { k, error_rate, .. } = workload.spec else { unreachable!() };
    rec.span(workload.name, || -> Result<(), String> {
        let reads = rec.span("seqio.read_fastq", || read_input(workload, dir))?;
        let model = KmerErrorModel::uniform(k, error_rate);
        let graph = rec.span("redeem.graph_build", || Redeem::new(&reads, k, &model, 1));
        let em =
            rec.span("redeem.em", || graph.run(&EmConfig { dmax: 1, max_iters: 60, tol: 1e-7 }));
        let fit = rec.span("redeem.threshold_fit", || redeem::fit_threshold_model(&em.t, 3));
        let threshold = fit.as_ref().map_or(0.0, |f| f.threshold);
        let liberal = fit.as_ref().map_or(20.0, |f| f.coverage_constant) * 0.5;
        let corrected = rec.span("redeem.correct", || {
            redeem::correct_reads(&graph, &model, &em.t, &reads, liberal, threshold)
        });
        rec.span("seqio.write_fastq", || {
            ngs_cli::write_sequences(path_str(&dir.join("replay.fastq")), &corrected)
        })
        .map_err(err)?;

        let mut put = |name: &str, v: f64| layer.insert(format!("redeem.{name}"), v);
        put("graph_build_s", rec.total_s("redeem.graph_build"));
        put("graph_avg_degree", graph.average_degree());
        put("em_s", rec.total_s("redeem.em"));
        put("em_iterations", em.iterations as f64);
        put("em_ms_per_iter", rec.total_s("redeem.em") * 1e3 / em.iterations.max(1) as f64);
        put("threshold_fit_s", rec.total_s("redeem.threshold_fit"));
        put("correct_s", rec.total_s("redeem.correct"));
        put("kmers_flagged", em.t.iter().filter(|&&t| t < threshold).count() as f64);
        Ok(())
    })
}

// ----------------------------------------------------------------- closet

fn closet_params(workload: &Workload, reads: &[Read]) -> ClosetParams {
    let Spec::Closet { thresholds, .. } = workload.spec else { unreachable!() };
    let avg_len = reads.iter().map(Read::len).sum::<usize>() / reads.len().max(1);
    let thresholds =
        thresholds.split(',').map(|t| t.parse().expect("pinned thresholds parse")).collect();
    ClosetParams::standard(avg_len.max(32), thresholds, crate::THREADS)
}

fn mr_pool(workers: usize, dir: &Path) -> Result<PoolConfig, String> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut pool = PoolConfig::with_worker_cmd(
        workers,
        vec![exe.to_string_lossy().into_owned(), "--mr-worker".into()],
    );
    pool.socket_dir = Some(dir.to_path_buf());
    Ok(pool)
}

/// `read_fasta → build_candidate_edges_pooled → validate_edges →
/// cluster_edges_observed`, the stages of `pipelines::closet_cluster`.
fn replay_closet(
    workload: &Workload,
    dir: &Path,
    rec: &Recorder,
    layer: &mut Layer,
) -> Result<(), String> {
    let Spec::Closet { mr_workers, .. } = workload.spec else { unreachable!() };
    let pooled = mr_workers > 0;
    let pool = if pooled { Some(mr_pool(mr_workers, dir)?) } else { None };
    let (reads, params, candidates) = rec.span(workload.name, || -> Result<_, String> {
        let reads = rec.span("seqio.read_fasta", || read_input(workload, dir))?;
        let params = closet_params(workload, &reads);
        let (candidates, sketch_stats) = rec
            .span("closet.sketch", || {
                closet::build_candidate_edges_pooled(
                    &reads,
                    &params.sketch,
                    &params.job,
                    pool.as_ref(),
                )
            })
            .map_err(err)?;
        let validated = rec.span("closet.validate", || {
            closet::validate_edges(&reads, &candidates, &params.validator, params.sketch.cmin)
        });
        let edges = EdgePhase {
            validated,
            sketch_stats,
            sketch_time: Default::default(),
            validate_time: Default::default(),
        };
        let out = rec
            .span("closet.cluster", || {
                closet::cluster_edges_observed(&edges, &params, &ngs_observe::Collector::disabled())
            })
            .map_err(err)?;

        if pooled {
            let jobs = &edges.sketch_stats.job_stats;
            layer.insert("mapreduce.sketch_pooled_s".into(), rec.total_s("closet.sketch"));
            layer.insert("mapreduce.task_failures".into(), jobs.task_failures as f64);
            layer.insert("mapreduce.tasks_reassigned".into(), jobs.tasks_reassigned as f64);
            layer.insert("mapreduce.worker_deaths".into(), jobs.worker_deaths as f64);
            layer.insert("closet.validate_s".into(), rec.total_s("closet.validate"));
            layer.insert(
                "closet.validate_kedges_per_s".into(),
                candidates.len() as f64 / 1e3 / rec.total_s("closet.validate"),
            );
            layer.insert("closet.candidate_edges".into(), candidates.len() as f64);
            layer.insert("closet.confirmed_edges".into(), out.confirmed_edges as f64);
            layer.insert(
                "closet.edge_precision".into(),
                out.confirmed_edges as f64 / candidates.len().max(1) as f64,
            );
        } else {
            layer.insert("closet.sketch_s".into(), rec.total_s("closet.sketch"));
            layer.insert("closet.cluster_s".into(), rec.total_s("closet.cluster"));
            layer.insert(
                "closet.clusters_processed".into(),
                out.threshold_stats.iter().map(|s| s.clusters_processed).sum::<u64>() as f64,
            );
        }
        Ok((reads, params, candidates))
    })?;
    if let Some(pool) = &pool {
        probe_mapreduce(&reads, &params, &candidates, pool, rec, layer)?;
    }
    Ok(())
}

/// What the worker processes cost: the same sketch in process (which must
/// give the same edges), an empty pooled job, the frame codec, one IPC hop.
fn probe_mapreduce(
    reads: &[Read],
    params: &ClosetParams,
    pooled_edges: &[(u32, u32)],
    pool: &PoolConfig,
    rec: &Recorder,
    layer: &mut Layer,
) -> Result<(), String> {
    rec.span("probes", || -> Result<(), String> {
        let (inproc_edges, _) = rec
            .span("mapreduce.sketch_inproc", || {
                closet::build_candidate_edges_pooled(reads, &params.sketch, &params.job, None)
            })
            .map_err(err)?;
        if inproc_edges != pooled_edges {
            return Err(format!(
                "pooled sketch gave {} candidate edges, in-process {}: they must be equal",
                pooled_edges.len(),
                inproc_edges.len()
            ));
        }
        let inproc_s = rec.total_s("mapreduce.sketch_inproc");
        layer.insert("mapreduce.sketch_inproc_s".into(), inproc_s);
        layer
            .insert("mapreduce.pooled_over_inproc".into(), rec.total_s("closet.sketch") / inproc_s);

        // Spawn, handshake, drain and reap around a job of two records.
        let lines = ["a b".to_string(), "b c".to_string()];
        rec.span("mapreduce.pool_fixed_cost", || {
            mapreduce_lite::run_pooled(
                &WordCountSpec,
                &lines,
                &JobConfig::with_workers(crate::THREADS),
                pool,
            )
        })
        .map_err(err)?;
        layer
            .insert("mapreduce.pool_fixed_cost_s".into(), rec.total_s("mapreduce.pool_fixed_cost"));

        let records: Vec<(u32, Vec<u64>)> = reads
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u32, closet::sketch::read_hashes(r, params.sketch.k)))
            .collect();
        let (mb, ok) = rec.span("mapreduce.frame_codec", || {
            let bytes = mapreduce_lite::codec::encode_frames(&records);
            let back = mapreduce_lite::codec::decode_frames::<(u32, Vec<u64>)>(&bytes);
            (bytes.len() as f64 / 1e6, back.is_ok_and(|b| b == records))
        });
        if !ok {
            return Err("frame codec did not round-trip the sketch records".into());
        }
        // Encoded and decoded once each: 2 × the bytes.
        layer.insert(
            "mapreduce.frame_codec_mb_per_s".into(),
            2.0 * mb / rec.total_s("mapreduce.frame_codec"),
        );

        let round_trips = 20_000;
        let (a, b) = std::os::unix::net::UnixStream::pair().map_err(err)?;
        let (mut near, mut far) = (FrameConn::from_stream(a), FrameConn::from_stream(b));
        std::thread::scope(|s| -> Result<(), String> {
            let echo = s.spawn(move || -> Result<(), String> {
                for _ in 0..round_trips {
                    let msg = far.recv().map_err(err)?;
                    far.send(&msg).map_err(err)?;
                }
                Ok(())
            });
            rec.span("mapreduce.ipc_roundtrip", || -> Result<(), String> {
                for i in 0..round_trips {
                    near.send(&Message::Hello { worker_id: i, pid: 0, now_ns: i }).map_err(err)?;
                    black_box(near.recv().map_err(err)?);
                }
                Ok(())
            })?;
            echo.join().map_err(|_| "echo thread panicked".to_string())?
        })?;
        layer.insert(
            "mapreduce.ipc_roundtrip_us".into(),
            rec.total_s("mapreduce.ipc_roundtrip") * 1e6 / round_trips as f64,
        );
        Ok(())
    })
}

// ------------------------------------------------------------ child entry

/// Child mode `trace`: untraced reference repetitions through the shipped
/// driver, then the staged replay and the probes of this workload. Writes
/// the spans to `trace_out`.
pub fn trace_main(
    workload: &Workload,
    dir: &Path,
    shrink: usize,
    trace_out: &Path,
) -> Result<Json, String> {
    let argv = workload.driver_args(dir, shrink);
    crate::wake::wake_cores();
    workload.run_driver(&argv)?;
    let rep_times: Vec<f64> = (0..REFERENCE_REPS)
        .map(|_| {
            let (s, r) = timed(|| workload.run_driver(&argv));
            r.map(|()| s)
        })
        .collect::<Result<_, _>>()?;

    let rec = Recorder::new(workload.name);
    let mut layer = Layer::new();
    match workload.spec {
        Spec::Reptile(data) if data.d == 1 => {
            let replay = replay_reptile(workload, data, dir, shrink, &rec, "", &mut layer)?;
            probe_kmer_layers(&replay, dir, &rec, &mut layer)?;
        }
        Spec::Reptile(data) => {
            let replay = replay_reptile(workload, data, dir, shrink, &rec, "d2_", &mut layer)?;
            probe_d2_neighbors(&replay, &rec, &mut layer);
        }
        Spec::Redeem { .. } => replay_redeem(workload, dir, &rec, &mut layer)?,
        Spec::Closet { .. } => replay_closet(workload, dir, &rec, &mut layer)?,
        Spec::Serve { .. } => return Err("serve-open is traced from the load generator".into()),
    }
    ngs_durable::write_atomic(trace_out, json::to_string(&rec.to_json()).as_bytes())
        .map_err(err)?;

    let spans = rec.spans();
    let root = spans
        .iter()
        .find(|s| s.parent.is_none() && s.name == workload.name)
        .ok_or("no root span")?;
    let stages_s =
        spans.iter().filter(|s| s.parent == Some(root.id)).map(|s| s.duration_ns()).sum::<u64>()
            as f64
            / 1e9;
    Ok(json::obj([
        ("layer", json::obj(layer.into_iter().map(|(k, v)| (k, json::num(v))))),
        ("rep_s", json::num(stats::median(&rep_times))),
        ("stages_s", json::num(stages_s)),
        ("spans", json::num(spans.len() as f64)),
    ]))
}

// ------------------------------------------------------------ parent side

/// What the traced pass of one workload found.
pub struct Traced {
    /// Σ top-level stage spans ÷ median untraced end-to-end repetition.
    pub coverage_frac: f64,
    /// Time spent in the span recorder ÷ replay time.
    pub overhead_frac: f64,
}

fn number(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key).and_then(Json::as_f64).ok_or_else(|| format!("trace child result lacks {key}"))
}

/// Replay one batch workload in a fresh child; merges its layer metrics
/// into `layer`.
fn trace_batch(
    workload: &Workload,
    cfg: &RunConfig,
    span_cost_ns: f64,
    layer: &mut Layer,
) -> Result<Traced, String> {
    let scratch = Scratch::create(&cfg.out_dir, workload.name)?;
    let dir = scratch.0.as_path();
    workload.generate(cfg.seed, cfg.shrink(), dir)?;
    let trace_out = cfg.out_dir.join(format!("trace-{}.json", workload.name));

    let mut cmd = child::command("trace", workload, dir, crate::THREADS)?;
    cmd.args(["--shrink", &cfg.shrink().to_string(), "--trace-out", path_str(&trace_out)]);
    let result = child::run(cmd, dir)?;
    for (name, value) in
        result.get("layer").and_then(Json::as_obj).ok_or("trace child result lacks layer")?
    {
        layer.insert(name.clone(), value.as_f64().unwrap_or(f64::NAN));
    }

    if matches!(workload.spec, Spec::Reptile(data) if data.d == 1) {
        // Same data, same code, one thread: how much the pool buys.
        let mut cmd = child::command("correct-only", workload, dir, 1)?;
        cmd.args(["--shrink", &cfg.shrink().to_string()]);
        let single = number(&child::run(cmd, dir)?, "correct_s")?;
        layer.insert("reptile.par_speedup_t2".into(), single / layer["reptile.correct_s"]);
    }
    let stages_s = number(&result, "stages_s")?;
    Ok(Traced {
        coverage_frac: stages_s / number(&result, "rep_s")?,
        overhead_frac: number(&result, "spans")? * span_cost_ns / 1e9 / stages_s,
    })
}

/// The traced pass. Every workload is replayed (a layer metric always
/// comes from the workload that exercises that layer, whatever
/// `--workload` says); `selected` decides whose coverage and overhead are
/// reported as `trace.*`.
pub fn traced_pass(
    selected: &Workload,
    cfg: &RunConfig,
) -> Result<(Layer, BTreeMap<&'static str, Traced>), String> {
    let span_cost_ns = spans::calibrate_span_cost_ns();
    // Six workloads share one run: cap the load phases of the server.
    let cfg = &RunConfig { seconds: cfg.seconds.min(6.0), single_setup: true, ..cfg.clone() };
    let mut layer = Layer::new();
    let mut traced = BTreeMap::new();
    for workload in &WORKLOADS {
        let t = if matches!(workload.spec, Spec::Serve { .. }) {
            let rec = Recorder::new(workload.name);
            let (outcome, serve_layer) = crate::serve::run(workload, cfg, Some(&rec))?;
            if !outcome.correct() {
                return Err(format!("{}: {:?}", workload.name, outcome.problems));
            }
            let mut serve_layer = serve_layer;
            let coverage_frac =
                serve_layer.remove("trace.coverage_frac").ok_or("serve trace lacks coverage")?;
            layer.extend(serve_layer);
            let trace_out = cfg.out_dir.join(format!("trace-{}.json", workload.name));
            ngs_durable::write_atomic(&trace_out, json::to_string(&rec.to_json()).as_bytes())
                .map_err(err)?;
            let traced_s = rec.total_s("server.open_loop") + rec.total_s("server.service_probe");
            Traced {
                coverage_frac,
                overhead_frac: rec.len() as f64 * span_cost_ns / 1e9 / traced_s,
            }
        } else {
            trace_batch(workload, cfg, span_cost_ns, &mut layer)?
        };
        traced.insert(workload.name, t);
    }
    let own = &traced[selected.name];
    layer.insert("trace.coverage_frac".into(), own.coverage_frac);
    layer.insert("trace.overhead_frac".into(), own.overhead_frac);
    Ok((layer, traced))
}
