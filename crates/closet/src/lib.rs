//! `closet` — CLoud Open SequencE clusTering (Chapter 4).
//!
//! CLOSET clusters metagenomic reads without a reference database. The
//! pipeline is the paper's two phases, expressed as its eight MapReduce
//! tasks over [`mapreduce_lite`]:
//!
//! * **Phase I — edge construction and validation** (§4.3.1, Tasks 1–5):
//!   each read is converted to 64-bit k-mer hashes; per round `l`, the
//!   sketch keeps hashes `≡ l (mod M)`; reads sharing a sketch value become
//!   candidate pairs (hashes shared by more than `C_max` reads are deferred
//!   and folded back into the counts later); pairs whose sketch similarity
//!   `|S_i ∩ S_j| / min(|S_i|, |S_j|)` reaches `C_min` survive, are
//!   deduplicated across rounds, and validated by a pluggable similarity
//!   function `F`;
//! * **Phase II — incremental quasi-clique enumeration** (§4.3.2, Tasks
//!   6–8): for a decreasing threshold series `t₁ > t₂ > …`, edges with
//!   `F ≥ t_k` are added incrementally and clusters are grown as maximal
//!   γ-quasi-cliques (`|E_U| ≥ γ·C(|U|,2)`), allowing overlapping clusters
//!   — the paper's answer to imperfect similarity functions.

pub mod checkpoint;
pub mod dist;
pub mod quasiclique;
#[cfg(test)]
mod quasiclique_reference;
mod shingle;
pub mod sketch;
pub mod validate;

pub use dist::{register_specs, PairCountSpec, SketchGroupSpec};
pub use quasiclique::{enumerate_quasicliques, Cluster};
pub use sketch::{
    build_candidate_edges, build_candidate_edges_pooled, read_hashes, SketchParams, SketchStats,
};
pub use validate::{validate_edges, Validator};

use mapreduce_lite::{JobConfig, JobError, JobStats, PoolConfig};
use ngs_core::Read;
use std::time::{Duration, Instant};

/// The paper's quasi-clique density γ = 2/3, the one
/// [`ClosetParams::standard`] sets.
pub const DEFAULT_GAMMA: f64 = 2.0 / 3.0;

/// Full CLOSET configuration.
#[derive(Debug, Clone)]
pub struct ClosetParams {
    /// Sketching parameters (k, modulus, rounds, C_max, C_min).
    pub sketch: SketchParams,
    /// Edge validation function.
    pub validator: Validator,
    /// Quasi-clique density γ (paper default 2/3).
    pub gamma: f64,
    /// Decreasing similarity threshold series `t₁ > t₂ > …`.
    pub thresholds: Vec<f64>,
    /// MapReduce runtime configuration (worker count = "cluster size").
    pub job: JobConfig,
    /// When set, Phase I's sketch jobs (Tasks 1–2) run on a pool of
    /// crash-survivable worker *processes* instead of in-process threads
    /// — same output bytes, SIGKILL-tolerant. `None` (the default) keeps
    /// everything in-process.
    pub pool: Option<PoolConfig>,
    /// Safety cap on live clusters per enumeration round (0 = uncapped).
    /// When hit, the smallest clusters are dropped (among equal sizes, those
    /// whose vertex list sorts last) and the event is recorded in
    /// [`ThresholdStats::clusters_dropped`] — never silently.
    pub max_live_clusters: usize,
}

impl ClosetParams {
    /// Paper-flavoured defaults for reads of roughly `read_len` bases:
    /// k = 15, sketch modulus targeting ~10 sketch hashes per read, 3
    /// rounds, C_min = 60%, γ = 2/3.
    pub fn standard(read_len: usize, thresholds: Vec<f64>, workers: usize) -> ClosetParams {
        let kmers_per_read = read_len.saturating_sub(14).max(16);
        ClosetParams {
            sketch: SketchParams {
                k: 15,
                modulus: (kmers_per_read / 10).max(2) as u64,
                rounds: 3,
                cmax: 64,
                cmin: 0.6,
            },
            validator: Validator::KmerContainment { k: 15 },
            gamma: DEFAULT_GAMMA,
            thresholds,
            job: JobConfig::with_workers(workers),
            pool: None,
            max_live_clusters: 2_000_000,
        }
    }
}

/// Statistics for one threshold level of Phase II.
#[derive(Debug, Clone, Default)]
pub struct ThresholdStats {
    /// The threshold `t_k`.
    pub threshold: f64,
    /// Edges entering the clustering at this level (cumulative).
    pub edges: usize,
    /// Clusters generated and examined during merging ("clusters
    /// processed" of Table 4.2).
    pub clusters_processed: u64,
    /// Clusters in the final output at this level.
    pub resulting_clusters: usize,
    /// Clusters dropped by the safety cap (0 in normal operation).
    pub clusters_dropped: u64,
    /// Task 7/8 rounds this level ran.
    pub rounds: u32,
    /// False when the level stopped at the round cut-off with its clusters
    /// still changing — recorded, like the cap, never silent.
    pub converged: bool,
    /// Wall time of the filtering step (Task 6).
    pub filter_time: Duration,
    /// Wall time of the clustering step (Tasks 7–8).
    pub cluster_time: Duration,
}

/// Aggregate output of a CLOSET run.
#[derive(Debug, Clone)]
pub struct ClosetOutput {
    /// Clusters per threshold, in series order; cluster members are read
    /// indices into the input slice.
    pub clusters_by_threshold: Vec<(f64, Vec<Cluster>)>,
    /// Phase-I sketching statistics (Tables 4.2's edge rows).
    pub sketch_stats: SketchStats,
    /// Validated edge count ("confirmed edges").
    pub confirmed_edges: usize,
    /// Wall time of the sketching stage (Tasks 1–3).
    pub sketch_time: Duration,
    /// Wall time of the validation stage (Tasks 4–5).
    pub validate_time: Duration,
    /// Per-threshold Phase-II statistics.
    pub threshold_stats: Vec<ThresholdStats>,
    /// Merged MapReduce counters across every job of the run, including
    /// the fault-tolerance counters (task failures, retried tasks,
    /// corrupt worker frames) the Table 4.2/4.3-style reports surface.
    pub job_stats: JobStats,
}

/// §4.5.2's parameter-selection methodology: score every threshold level of
/// a finished run by the Adjusted Rand Index between its derived partition
/// (largest-cluster assignment, singletons for uncovered reads) and the
/// canonical labels of one taxonomic rank. "The parameter value set that
/// leads to the largest ARI value is considered to have the best
/// discrimination power at the corresponding taxonomic rank."
///
/// Returns `(threshold, ari)` pairs in series order.
pub fn ari_by_threshold(output: &ClosetOutput, labels: &[usize]) -> Vec<(f64, f64)> {
    output
        .clusters_by_threshold
        .iter()
        .map(|(t, clusters)| {
            let member_lists: Vec<Vec<usize>> =
                clusters.iter().map(|c| c.vertices.iter().map(|&v| v as usize).collect()).collect();
            let partition = ngs_eval::clusters_to_partition(&member_lists, labels.len());
            (*t, ngs_eval::adjusted_rand_index(&partition, labels))
        })
        .collect()
}

/// The threshold with the highest ARI against `labels` (first maximiser on
/// ties); `None` for an empty series.
pub fn select_threshold_by_ari(output: &ClosetOutput, labels: &[usize]) -> Option<(f64, f64)> {
    ari_by_threshold(output, labels).into_iter().max_by(|a, b| a.1.total_cmp(&b.1))
}

/// The output of Phase I (Tasks 1–5): validated edges plus the statistics
/// and timings needed to rebuild a [`ClosetOutput`] without re-running the
/// sketch. This is the stage boundary `closet-cluster --checkpoint-dir`
/// snapshots — see [`checkpoint`] for the byte format.
#[derive(Debug, Clone)]
pub struct EdgePhase {
    /// Validated edges `(i, j, F)` with `i < j`, as read indices.
    pub validated: Vec<(u32, u32, f64)>,
    /// Phase-I sketching statistics (includes the merged job counters).
    pub sketch_stats: SketchStats,
    /// Wall time of the sketching stage (Tasks 1–3).
    pub sketch_time: Duration,
    /// Wall time of the validation stage (Tasks 4–5).
    pub validate_time: Duration,
}

/// Run the full CLOSET pipeline on `reads`.
///
/// # Errors
/// Propagates [`JobError`] when any of the pipeline's MapReduce jobs
/// exhausts its task attempts (only possible under injected faults or a
/// persistently failing environment; transient failures are retried by
/// the substrate).
///
/// Composes [`build_edges_observed`] and [`cluster_edges_observed`]. Call
/// them directly to checkpoint (or resume from) the Phase-I boundary, or
/// with an enabled collector to observe the run: the three stages run
/// under the `closet.sketch` / `closet.validate` / `closet.cluster` spans
/// (one `closet.cluster` occurrence per threshold level), final cluster
/// sizes feed the `closet.clique_size` histogram, and the merged MapReduce
/// counters — fault-tolerance counters included — land under the
/// `closet.job.*` prefix via [`mapreduce_lite::record_job_stats`]. For
/// per-task-attempt spans, additionally set [`JobConfig::collector`] on
/// `params.job`.
pub fn run(reads: &[Read], params: &ClosetParams) -> Result<ClosetOutput, JobError> {
    // Reject a bad threshold series before paying for Phase I.
    assert_thresholds(&params.thresholds);
    let collector = ngs_observe::Collector::disabled();
    let edges = build_edges_observed(reads, params, &collector)?;
    cluster_edges_observed(&edges, params, &collector)
}

fn assert_thresholds(thresholds: &[f64]) {
    assert!(thresholds.windows(2).all(|w| w[0] > w[1]), "thresholds must be strictly decreasing");
}

/// Phase I (Tasks 1–5): sketch candidate edges and validate them with `F`,
/// under the `closet.sketch` / `closet.validate` spans.
///
/// # Errors
/// Propagates [`JobError`] as [`run`] does.
pub fn build_edges_observed(
    reads: &[Read],
    params: &ClosetParams,
    collector: &ngs_observe::Collector,
) -> Result<EdgePhase, JobError> {
    let workers = params.job.workers.max(1);
    collector.add("closet.reads", reads.len() as u64);

    // Phase I: hash every read once, then candidate edges via sketching
    // (Tasks 1–3).
    let t0 = Instant::now();
    let (arena, candidates, sketch_stats) = {
        let _span = collector.span_with_threads("closet.sketch", workers);
        let arena = shingle::ShingleArena::build(reads, params.sketch.k);
        let (candidates, sketch_stats) =
            sketch::candidate_edges(&arena, &params.sketch, &params.job, params.pool.as_ref())?;
        (arena, candidates, sketch_stats)
    };
    let sketch_time = t0.elapsed();
    collector.add("closet.candidate_edges", candidates.len() as u64);
    collector.add("closet.predicted_edges", sketch_stats.predicted_edges);
    collector.add("closet.sketch_entries", sketch_stats.sketch_entries);
    collector.add("closet.deferred_hashes", sketch_stats.deferred_hashes);

    // Tasks 4–5: validation, over the same shingle sets when `F` wants them.
    let t1 = Instant::now();
    let (validated, validate_stats) = {
        // Validation runs on the rayon pool (not the MapReduce workers),
        // so close the span with the parallelism it actually got.
        let mut span = collector.span_with_threads("closet.validate", workers);
        let validated = validate::validate_edges_on(
            reads,
            Some(&arena),
            &candidates,
            &params.validator,
            params.sketch.cmin,
        );
        span.set_threads(rayon::last_threads_used());
        validated
    };
    let validate_time = t1.elapsed();
    collector.add("closet.confirmed_edges", validated.len() as u64);
    collector.add("closet.shingles_hashed", arena.windows() + validate_stats.shingles_hashed);
    collector.add("closet.validate.merge_steps", validate_stats.merge_steps);
    collector.add("closet.validate.early_exits", validate_stats.early_exits);

    Ok(EdgePhase { validated, sketch_stats, sketch_time, validate_time })
}

/// Phase II (Tasks 6–8): incremental quasi-clique enumeration over a
/// finished [`EdgePhase`] — freshly built or restored from a checkpoint.
/// The returned [`ClosetOutput`] is identical to what [`run`] would have
/// produced in one shot.
///
/// # Errors
/// Propagates [`JobError`] as [`run`] does.
pub fn cluster_edges_observed(
    edges: &EdgePhase,
    params: &ClosetParams,
    collector: &ngs_observe::Collector,
) -> Result<ClosetOutput, JobError> {
    assert_thresholds(&params.thresholds);
    let workers = params.job.workers.max(1);
    let validated = &edges.validated;
    let confirmed_edges = validated.len();
    let mut job_stats = edges.sketch_stats.job_stats.clone();

    // Phase II: incremental quasi-clique enumeration per threshold, over one
    // cluster store that outlives the levels.
    let mut store = quasiclique::ClusterStore::default();
    let mut added = vec![false; validated.len()];
    let mut clusters_by_threshold = Vec::new();
    let mut threshold_stats = Vec::new();
    for &t in &params.thresholds {
        let mut stats = ThresholdStats { threshold: t, ..Default::default() };
        // Task 6: edge filtering — incremental (E_{k-1} ⊆ E_k).
        let tf = Instant::now();
        let mut new_edges = Vec::new();
        for (i, &(a, b, w)) in validated.iter().enumerate() {
            if !added[i] && w >= t {
                added[i] = true;
                new_edges.push((a, b));
            }
        }
        stats.edges = added.iter().filter(|&&f| f).count();
        stats.filter_time = tf.elapsed();

        // Tasks 7–8: merge quasi-cliques.
        let tc = Instant::now();
        let result = {
            let _span = collector.span_with_threads("closet.cluster", workers);
            store.advance(&new_edges, params.gamma, &params.job, params.max_live_clusters)?
        };
        job_stats.merge(&result.job_stats);
        stats.clusters_processed = result.clusters_processed;
        stats.clusters_dropped = result.clusters_dropped;
        stats.rounds = result.rounds;
        stats.converged = result.converged;
        stats.resulting_clusters = result.clusters.len();
        stats.cluster_time = tc.elapsed();
        collector.add("closet.clusters_processed", stats.clusters_processed);
        collector.add("closet.clusters_dropped", stats.clusters_dropped);
        collector.add("closet.enum.rounds", u64::from(result.rounds));
        collector.add("closet.enum.groups_reduced", result.groups_reduced);
        collector.add("closet.enum.groups_skipped", result.groups_skipped);
        collector.add("closet.enum.merges", result.merges);
        collector.add("closet.enum.unconverged", u64::from(!result.converged));

        clusters_by_threshold.push((t, result.clusters));
        threshold_stats.push(stats);
    }

    // Clique sizes of the final (lowest-threshold) level, pre-aggregated
    // locally so the collector is touched once.
    if collector.is_enabled() {
        let clusters = clusters_by_threshold.last().map_or(&[][..], |(_, c)| c);
        let mut sizes = ngs_observe::LogHistogram::default();
        for cluster in clusters {
            sizes.record(cluster.vertices.len() as u64);
        }
        collector.merge_histogram("closet.clique_size", &sizes);
        collector.add("closet.clusters", clusters.len() as u64);
    }
    mapreduce_lite::record_job_stats(collector, "closet.job", &job_stats);

    Ok(ClosetOutput {
        clusters_by_threshold,
        sketch_stats: edges.sketch_stats.clone(),
        confirmed_edges,
        sketch_time: edges.sketch_time,
        validate_time: edges.validate_time,
        threshold_stats,
        job_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_eval::{adjusted_rand_index, clusters_to_partition};
    use ngs_simulate::{simulate_community, CommunityConfig, RankSpec};

    /// Amplicon-style community: reads cover most of a short gene, so any
    /// same-species pair overlaps substantially (the regime in which the
    /// similarity ladder separates taxonomic ranks cleanly).
    fn community(n_reads: usize, seed: u64) -> ngs_simulate::SimulatedCommunity {
        let cfg = CommunityConfig {
            gene_len: 400,
            ranks: vec![
                RankSpec { name: "phylum", children: 3, divergence: 0.22 },
                RankSpec { name: "species", children: 2, divergence: 0.03 },
            ],
            n_reads,
            read_len_min: 250,
            read_len_max: 350,
            error_rate: 0.005,
            abundance_exponent: 0.6,
            seed,
        };
        simulate_community(&cfg)
    }

    #[test]
    fn pipeline_produces_clusters() {
        let c = community(400, 1);
        let params = ClosetParams::standard(300, vec![0.9, 0.8, 0.55], 4);
        let out = run(&c.reads, &params).expect("pipeline");
        assert!(out.sketch_stats.predicted_edges > 0);
        assert!(out.confirmed_edges > 0);
        assert_eq!(out.clusters_by_threshold.len(), 3);
        // Lower thresholds admit more edges.
        let e: Vec<usize> = out.threshold_stats.iter().map(|s| s.edges).collect();
        assert!(e[0] <= e[1] && e[1] <= e[2], "{e:?}");
        // Some clustering structure exists at every level.
        for (t, cl) in &out.clusters_by_threshold {
            assert!(!cl.is_empty(), "no clusters at t={t}");
        }
    }

    #[test]
    fn clustering_tracks_taxonomy() {
        let c = community(500, 2);
        let params = ClosetParams::standard(300, vec![0.85, 0.5], 4);
        let out = run(&c.reads, &params).expect("pipeline");
        // Like the paper's runs (Table 4.2: 5.6M reads → 3.3M clusters),
        // the output is many small *overlapping* quasi-cliques, so the
        // quality invariant is purity: clusters must not mix species.
        let (_, clusters) = &out.clusters_by_threshold[1];
        let species = c.canonical_labels(1);
        let pure = clusters
            .iter()
            .filter(|cl| {
                let s0 = species[cl.vertices[0] as usize];
                cl.vertices.iter().all(|&v| species[v as usize] == s0)
            })
            .count();
        let purity = pure as f64 / clusters.len() as f64;
        assert!(purity > 0.95, "species purity {purity} too low");
        // The derived partition still correlates with species labels above
        // chance, even though fragmentation depresses absolute ARI.
        let member_lists: Vec<Vec<usize>> =
            clusters.iter().map(|c| c.vertices.iter().map(|&v| v as usize).collect()).collect();
        let partition = clusters_to_partition(&member_lists, c.reads.len());
        let ari_species = adjusted_rand_index(&partition, &species);
        assert!(ari_species > 0.02, "species ARI {ari_species} not above chance");
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let c = community(200, 3);
        let mut p1 = ClosetParams::standard(300, vec![0.8, 0.6], 1);
        let mut p4 = ClosetParams::standard(300, vec![0.8, 0.6], 4);
        p1.max_live_clusters = 0;
        p4.max_live_clusters = 0;
        let o1 = run(&c.reads, &p1).expect("pipeline");
        let o4 = run(&c.reads, &p4).expect("pipeline");
        // Vertices and recorded edges, in the same order.
        assert_eq!(o1.clusters_by_threshold, o4.clusters_by_threshold);
    }

    /// Hand-made Phase I output: two 4-cliques at 0.9, then three edges at
    /// 0.7 that attach read 4 to the first of them.
    fn two_component_edges() -> EdgePhase {
        let mut validated = Vec::new();
        for base in [0u32, 10] {
            for a in base..base + 4 {
                for b in a + 1..base + 4 {
                    validated.push((a, b, 0.95));
                }
            }
        }
        validated.extend([(0, 4, 0.75), (1, 4, 0.75), (2, 4, 0.75)]);
        EdgePhase {
            validated,
            sketch_stats: SketchStats::default(),
            sketch_time: Duration::ZERO,
            validate_time: Duration::ZERO,
        }
    }

    #[test]
    fn enumeration_signals_reach_the_collector() {
        let params = ClosetParams::standard(300, vec![0.9, 0.7], 2);
        let collector = ngs_observe::Collector::new();
        let out =
            cluster_edges_observed(&two_component_edges(), &params, &collector).expect("phase II");
        let (_, last) = out.clusters_by_threshold.last().unwrap();
        let sets: Vec<&[u32]> = last.iter().map(|c| &c.vertices[..]).collect();
        assert_eq!(sets, [&[0, 1, 2, 3, 4][..], &[10, 11, 12, 13]]);
        assert!(out.threshold_stats.iter().all(|s| s.converged && s.rounds >= 1));

        let report = collector.report("closet");
        assert_eq!(report.counter("closet.enum.unconverged"), 0);
        let rounds: u64 = out.threshold_stats.iter().map(|s| u64::from(s.rounds)).sum();
        assert_eq!(report.counter("closet.enum.rounds"), rounds);
        assert!(report.counter("closet.enum.merges") > 0);
        assert!(report.counter("closet.enum.groups_reduced") > 0);
        // The second level leaves reads 10..14 alone in every round.
        let second = u64::from(out.threshold_stats[1].rounds);
        assert!(report.counter("closet.enum.groups_skipped") >= 4 * second, "{report:?}");
    }

    #[test]
    fn pooled_phase_one_matches_in_process() {
        let c = community(150, 7);
        let inproc = ClosetParams::standard(300, vec![0.8, 0.6], 2);
        let mut pooled = inproc.clone();
        let socks = std::env::temp_dir().join(format!("closet_lib_socks_{}", std::process::id()));
        pooled.pool =
            Some(PoolConfig { socket_dir: Some(socks.clone()), ..PoolConfig::with_workers(2) });
        let quiet = ngs_observe::Collector::disabled();
        let ea = build_edges_observed(&c.reads, &inproc, &quiet).expect("in-process");
        assert!(!ea.validated.is_empty());
        // Phase I twice in one process: each run is one session of its own,
        // and a finished session leaves no socket behind.
        let pooled_run = || {
            let eb = build_edges_observed(&c.reads, &pooled, &quiet).expect("pooled");
            assert_eq!(triple_bits(&ea.validated), triple_bits(&eb.validated));
            assert_eq!(ea.sketch_stats.unique_edges, eb.sketch_stats.unique_edges);
            let jobs = &eb.sketch_stats.job_stats;
            assert_eq!((jobs.pool_sessions, jobs.pool_spawns), (1, 2));
            assert_eq!(std::fs::read_dir(&socks).expect("socket dir").count(), 0);
            eb
        };
        pooled_run();
        let eb = pooled_run();
        std::fs::remove_dir(&socks).expect("remove the empty socket dir");
        let a = cluster_edges_observed(&ea, &inproc, &quiet).expect("in-process");
        let b = cluster_edges_observed(&eb, &pooled, &quiet).expect("pooled");
        for ((ta, ca), (tb, cb)) in a.clusters_by_threshold.iter().zip(&b.clusters_by_threshold) {
            assert_eq!(ta, tb);
            let va: Vec<&Vec<u32>> = ca.iter().map(|c| &c.vertices).collect();
            let vb: Vec<&Vec<u32>> = cb.iter().map(|c| &c.vertices).collect();
            assert_eq!(va, vb);
        }
    }

    /// Valid (`N`-free) k-mer windows over all `reads`.
    fn kmer_windows(reads: &[Read], k: usize) -> u64 {
        let mut n = 0;
        for r in reads {
            ngs_kmer::for_each_kmer(&r.seq, k, |_, _| n += 1);
        }
        n
    }

    /// Validated triples with the score as its bits, for exact comparison.
    fn triple_bits(validated: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
        validated.iter().map(|&(a, b, w)| (a, b, w.to_bits())).collect()
    }

    #[test]
    fn read_order_permutation_maps_the_edge_sets_through_it() {
        let c = community(120, 11);
        let params = ClosetParams::standard(300, vec![0.8], 2);
        // Read `i` of the original order sits at `at[i]` in the shuffled one.
        let n = c.reads.len();
        let at: Vec<usize> = (0..n).map(|i| (i * 37 + 5) % n).collect();
        let mut shuffled = c.reads.clone();
        for (i, read) in c.reads.iter().enumerate() {
            shuffled[at[i]] = read.clone();
        }
        let through = |a: u32, b: u32| {
            let (a, b) = (at[a as usize] as u32, at[b as usize] as u32);
            (a.min(b), a.max(b))
        };

        let phase_one = |reads: &[Read]| {
            let (candidates, _) =
                build_candidate_edges(reads, &params.sketch, &params.job).expect("sketch jobs");
            let validated =
                validate_edges(reads, &candidates, &params.validator, params.sketch.cmin);
            (candidates, validated)
        };
        let (candidates, validated) = phase_one(&c.reads);
        let (shuffled_candidates, shuffled_validated) = phase_one(&shuffled);
        assert!(validated.len() > 50 && validated.len() < candidates.len());

        let mut mapped: Vec<(u32, u32)> = candidates.iter().map(|&(a, b)| through(a, b)).collect();
        mapped.sort_unstable();
        assert_eq!(mapped, shuffled_candidates);
        let mut mapped: Vec<(u32, u32, u64)> = validated
            .iter()
            .map(|&(a, b, w)| {
                let (a, b) = through(a, b);
                (a, b, w.to_bits())
            })
            .collect();
        mapped.sort_unstable();
        assert_eq!(mapped, triple_bits(&shuffled_validated));
    }

    #[test]
    fn degenerate_inputs_run_through() {
        let params = ClosetParams::standard(300, vec![0.8, 0.6], 2);
        let c = community(40, 13);
        for reads in [&c.reads[..0], &c.reads[..1]] {
            let out = run(reads, &params).expect("pipeline");
            assert_eq!(out.confirmed_edges, 0);
            assert!(out.clusters_by_threshold.iter().all(|(_, clusters)| clusters.is_empty()));
        }
    }

    #[test]
    fn validator_with_its_own_k_hashes_for_itself() {
        let c = community(80, 17);
        let mut params = ClosetParams::standard(300, vec![0.8], 2);
        params.validator = Validator::KmerContainment { k: 12 };
        assert_ne!(params.sketch.k, 12);
        let collector = ngs_observe::Collector::new();
        let edges = build_edges_observed(&c.reads, &params, &collector).expect("phase I");
        // Same answer as the public entry points, each hashing on its own.
        let (candidates, _) =
            build_candidate_edges(&c.reads, &params.sketch, &params.job).expect("sketch jobs");
        let alone = validate_edges(&c.reads, &candidates, &params.validator, params.sketch.cmin);
        assert!(!alone.is_empty());
        assert_eq!(triple_bits(&edges.validated), triple_bits(&alone));
        // Two arenas were hashed, and the counter says so.
        assert_eq!(
            collector.report("closet").counter("closet.shingles_hashed"),
            kmer_windows(&c.reads, params.sketch.k) + kmer_windows(&c.reads, 12)
        );
    }

    #[test]
    fn phase_one_counters_pin_the_work_done() {
        let c = community(150, 19);
        let params = ClosetParams::standard(300, vec![0.8], 2);
        let collector = ngs_observe::Collector::new();
        let edges = build_edges_observed(&c.reads, &params, &collector).expect("phase I");
        let report = collector.report("closet");
        // Every read is hashed once per run: one hash per valid k-mer window.
        assert_eq!(
            report.counter("closet.shingles_hashed"),
            kmer_windows(&c.reads, params.sketch.k)
        );
        assert_eq!(report.counter("closet.sketch_entries"), edges.sketch_stats.sketch_entries);
        assert_eq!(report.counter("closet.deferred_hashes"), edges.sketch_stats.deferred_hashes);
        // Only a pair that ends up rejected can have its merge abandoned.
        let rejected = report.counter("closet.candidate_edges") - edges.validated.len() as u64;
        assert!(rejected > 0);
        assert!(report.counter("closet.validate.early_exits") <= rejected);
        let steps = report.counter("closet.validate.merge_steps");
        assert!(steps >= edges.validated.len() as u64 && steps > 0);
    }

    #[test]
    fn ari_threshold_selection_runs() {
        let c = community(300, 9);
        let params = ClosetParams::standard(300, vec![0.85, 0.5], 4);
        let out = run(&c.reads, &params).expect("pipeline");
        let species = c.canonical_labels(1);
        let scores = ari_by_threshold(&out, &species);
        assert_eq!(scores.len(), 2);
        for (_, ari) in &scores {
            assert!(ari.is_finite());
        }
        let best = select_threshold_by_ari(&out, &species).unwrap();
        assert!(scores.iter().any(|&(t, a)| t == best.0 && a == best.1));
        assert!(scores.iter().all(|&(_, a)| a <= best.1));
    }

    #[test]
    fn observed_run_reports_stage_spans_and_clique_sizes() {
        let c = community(200, 5);
        let mut params = ClosetParams::standard(300, vec![0.8, 0.6], 2);
        let collector = std::sync::Arc::new(ngs_observe::Collector::new());
        params.job.collector = Some(collector.clone());
        let edges = build_edges_observed(&c.reads, &params, &collector).expect("phase I");
        let out = cluster_edges_observed(&edges, &params, &collector).expect("phase II");
        let report = collector.report("closet");
        assert!(report
            .missing_spans(&["closet.sketch", "closet.validate", "closet.cluster"])
            .is_empty());
        // One closet.cluster occurrence per threshold level.
        assert_eq!(report.spans["closet.cluster"].count, 2);
        assert_eq!(report.counter("closet.confirmed_edges"), out.confirmed_edges as u64);
        // The clique-size histogram covers the final level's clusters.
        let (_, final_clusters) = out.clusters_by_threshold.last().unwrap();
        let hist = &report.histograms["closet.clique_size"];
        assert_eq!(hist.count(), final_clusters.len() as u64);
        assert_eq!(hist.sum(), final_clusters.iter().map(|c| c.vertices.len() as u64).sum::<u64>());
        // JobStats counters surface under closet.job.*, and per-task spans
        // from the shared JobConfig collector are present too.
        assert_eq!(report.counter("closet.job.map_input_records"), out.job_stats.map_input_records);
        assert!(report.spans.contains_key("mapreduce.task.map"));
        // Output must be identical to the un-instrumented entry point.
        params.job.collector = None;
        let plain = run(&c.reads, &params).expect("pipeline");
        assert_eq!(plain.confirmed_edges, out.confirmed_edges);
        assert_eq!(plain.clusters_by_threshold.len(), out.clusters_by_threshold.len());
    }

    #[test]
    #[should_panic(expected = "strictly decreasing")]
    fn unsorted_thresholds_rejected() {
        let c = community(50, 4);
        let params = ClosetParams::standard(300, vec![0.6, 0.9], 2);
        let _ = run(&c.reads, &params);
    }
}
