//! Phase I, Tasks 1–3: sketch selection, edge generation, deduplication
//! (§4.3.1, §4.4.1).
//!
//! Every read is converted to the 64-bit hashes of its k-mers; round `l`
//! keeps hashes `≡ l (mod M)` as the sketch. Reads sharing a sketch hash
//! become candidate pairs — except hashes shared by more than `C_max`
//! reads, which are deferred ("postpones using high frequency k-mers to
//! avoid generating exceedingly large number of read pairs … substrings
//! common to rRNAs from many organisms are not useful in differentiating
//! among them") and folded back into the pair counts afterwards (Algorithm
//! 3, line 14). A pair survives a round when
//! `J_ij = count / min(|S_i|, |S_j|) ≥ C_min`; an edge survives overall if
//! *any* round generates it (§4.3.1: "An edge survives as long as it is
//! generated by at least one of these sketches").

use crate::dist::{run_spec, PairCountSpec, SketchGroupSpec};
pub use crate::shingle::read_hashes;
use crate::shingle::{sorted_intersection_size, ShingleArena};
use mapreduce_lite::{JobConfig, JobError, JobStats, PoolConfig, PoolSession};
use ngs_core::Read;
use rayon::prelude::*;

/// Sketching-stage parameters.
#[derive(Debug, Clone)]
pub struct SketchParams {
    /// k-mer length used for shingling (paper: 15).
    pub k: usize,
    /// Sketch modulus `M`: round `l` keeps hashes `≡ l (mod M)`.
    pub modulus: u64,
    /// Number of sketch rounds `l` (paper: 3).
    pub rounds: usize,
    /// Hashes shared by more than this many reads are deferred (`C_max`).
    pub cmax: usize,
    /// Candidate similarity cutoff (`C_min`).
    pub cmin: f64,
}

/// Counters from the sketching stage (the edge rows of Table 4.2).
#[derive(Debug, Clone, Default)]
pub struct SketchStats {
    /// Pair records generated across all rounds, with multiplicity.
    pub predicted_edges: u64,
    /// Distinct candidate edges after Task 3's deduplication.
    pub unique_edges: u64,
    /// Sketch hashes deferred for exceeding `C_max`.
    pub deferred_hashes: u64,
    /// Total sketch entries selected over all rounds.
    pub sketch_entries: u64,
    /// Merged MapReduce counters of every job this stage ran (includes
    /// the fault-tolerance counters: task failures, retries, corrupt
    /// frames).
    pub job_stats: JobStats,
}

/// Run Tasks 1–3 and return deduplicated candidate edges `(i, j)` with
/// `i < j`, as read indices.
///
/// # Errors
/// Propagates [`JobError`] when an underlying MapReduce job exhausts its
/// task attempts.
#[allow(clippy::type_complexity)]
pub fn build_candidate_edges(
    reads: &[Read],
    params: &SketchParams,
    job: &JobConfig,
) -> Result<(Vec<(u32, u32)>, SketchStats), JobError> {
    build_candidate_edges_pooled(reads, params, job, None)
}

/// [`build_candidate_edges`] with an optional worker pool: when `pool` is
/// set, Tasks 1 and 2 run as [`SketchGroupSpec`] / [`PairCountSpec`] jobs
/// on crash-survivable worker processes instead of in-process threads —
/// one [`PoolSession`], so the same warm workers serve every round's jobs.
/// The output is byte-identical either way.
///
/// # Errors
/// Propagates [`JobError`] when an underlying MapReduce job exhausts its
/// task attempts or the worker pool exhausts its respawn budget.
#[allow(clippy::type_complexity)]
pub fn build_candidate_edges_pooled(
    reads: &[Read],
    params: &SketchParams,
    job: &JobConfig,
    pool: Option<&PoolConfig>,
) -> Result<(Vec<(u32, u32)>, SketchStats), JobError> {
    candidate_edges(&ShingleArena::build(reads, params.k), params, job, pool)
}

/// Reads whose sketches one pool task selects.
const BLOCK: usize = 256;

/// Counted pairs one pool task tops up and filters.
const PAIR_BLOCK: usize = 4096;

/// One input record of Task 1: a read id and its sketch of the round.
type SketchRecord = (u32, Vec<u64>);

/// Task 1's input for every round at once: `rounds[l]` holds one
/// `(read_id, sketch)` record per read, the sketch being the read's hashes
/// `≡ l (mod modulus)` in ascending order. Each hash is reduced once and
/// goes straight to the record of its residue.
fn round_inputs(arena: &ShingleArena, modulus: u64, n_rounds: usize) -> Vec<Vec<SketchRecord>> {
    if n_rounds == 0 {
        // No round to fill — and `modulus` may be the zero that caused it.
        return Vec::new();
    }
    let blocks: Vec<usize> = (0..arena.len()).step_by(BLOCK).collect();
    let per_block: Vec<Vec<Vec<SketchRecord>>> = blocks
        .into_par_iter()
        .map(|start| {
            let end = (start + BLOCK).min(arena.len());
            let mut rounds: Vec<Vec<SketchRecord>> =
                (0..n_rounds).map(|_| Vec::with_capacity(end - start)).collect();
            for rid in start..end {
                let set = arena.set(rid);
                let expected = set.len() / modulus as usize + 4;
                let mut sketches: Vec<Vec<u64>> =
                    (0..n_rounds).map(|_| Vec::with_capacity(expected)).collect();
                for &h in set {
                    let residue = h % modulus;
                    if residue < n_rounds as u64 {
                        sketches[residue as usize].push(h);
                    }
                }
                for (round, sketch) in rounds.iter_mut().zip(sketches) {
                    round.push((rid as u32, sketch));
                }
            }
            rounds
        })
        .collect();

    let mut rounds: Vec<Vec<SketchRecord>> =
        (0..n_rounds).map(|_| Vec::with_capacity(arena.len())).collect();
    for block in per_block {
        for (round, records) in rounds.iter_mut().zip(block) {
            round.extend(records);
        }
    }
    rounds
}

/// Tasks 1–3 over an already hashed read collection.
#[allow(clippy::type_complexity)]
pub(crate) fn candidate_edges(
    arena: &ShingleArena,
    params: &SketchParams,
    job: &JobConfig,
    pool: Option<&PoolConfig>,
) -> Result<(Vec<(u32, u32)>, SketchStats), JobError> {
    let mut stats = SketchStats::default();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Deferred hashes of each read in the current round, for the count
    // top-up of line 14.
    let mut deferred_of: Vec<Vec<u64>> = vec![Vec::new(); arena.len()];

    let n_rounds = params.rounds.min(params.modulus as usize);
    // One session for all `2 × n_rounds` jobs; dropped (workers drained and
    // reaped) on the way out, error or not.
    let mut session = match pool {
        Some(pool) if n_rounds > 0 => Some(PoolSession::start(pool)?),
        _ => None,
    };
    for input in round_inputs(arena, params.modulus, n_rounds) {
        let sketch_len: Vec<u32> = input.iter().map(|(_, s)| s.len() as u32).collect();
        stats.sketch_entries += sketch_len.iter().map(|&n| u64::from(n)).sum::<u64>();

        // Task 1: sketch value -> read ids; values over C_max are deferred.
        // Input records carry their sketch so the job is self-contained —
        // the process-portable form a pooled worker can execute.
        let (groups, group_stats) = run_spec(&SketchGroupSpec, &input, job, session.as_mut())?;
        drop(input);
        stats.job_stats.merge(&group_stats);
        let (small_groups, deferred): (Vec<_>, Vec<_>) =
            groups.into_iter().partition(|(_, rids)| rids.len() <= params.cmax);
        stats.deferred_hashes += deferred.len() as u64;

        deferred_of.iter_mut().for_each(Vec::clear);
        for (h, rids) in &deferred {
            for &rid in rids {
                deferred_of[rid as usize].push(*h);
            }
        }
        for hs in &mut deferred_of {
            hs.sort_unstable();
        }

        // Task 2: pair generation + counting.
        let (pairs, pair_stats) = run_spec(&PairCountSpec, &small_groups, job, session.as_mut())?;
        stats.predicted_edges += pair_stats.map_output_records;
        stats.job_stats.merge(&pair_stats);

        // Top-up with deferred co-membership, then apply the C_min filter.
        let survivors: Vec<Vec<(u32, u32)>> = pairs
            .par_chunks(PAIR_BLOCK)
            .map(|block| {
                let survives = |&((a, b), count): &((u32, u32), u32)| {
                    let (da, db) = (&deferred_of[a as usize], &deferred_of[b as usize]);
                    let (topup, _) = sorted_intersection_size(da, db, 0);
                    let count = count + topup.expect("a merge that needs nothing completes") as u32;
                    let denom = sketch_len[a as usize].min(sketch_len[b as usize]);
                    (denom > 0 && count as f64 / denom as f64 >= params.cmin).then_some((a, b))
                };
                block.iter().filter_map(survives).collect()
            })
            .collect();
        edges.extend(survivors.into_iter().flatten());
    }

    // Task 3: cross-round deduplication.
    edges.sort_unstable();
    edges.dedup();
    stats.unique_edges = edges.len() as u64;
    Ok((edges, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn params() -> SketchParams {
        SketchParams { k: 9, modulus: 2, rounds: 2, cmax: 16, cmin: 0.5 }
    }

    fn mk_reads(seqs: &[&[u8]]) -> Vec<Read> {
        seqs.iter().enumerate().map(|(i, s)| Read::new(format!("r{i}"), s)).collect()
    }

    #[test]
    fn identical_reads_linked() {
        let g: Vec<u8> = (0..120).map(|i| b"ACGT"[(i * 7 + i / 3) % 4]).collect();
        let reads = mk_reads(&[&g, &g, &g[..80]]);
        let (edges, stats) = build_candidate_edges(&reads, &params(), &JobConfig::with_workers(2))
            .expect("sketch jobs");
        assert!(edges.contains(&(0, 1)), "identical reads must pair: {edges:?}");
        // The contained prefix read shares all its hashes with both.
        assert!(edges.contains(&(0, 2)));
        assert!(stats.predicted_edges >= stats.unique_edges);
        assert!(stats.unique_edges >= 2);
    }

    #[test]
    fn unrelated_reads_not_linked() {
        // Two pseudo-random unrelated reads (an LCG avoids the periodic
        // sequences that would share their whole k-mer set).
        let mut state = 12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let a: Vec<u8> = (0..100).map(|_| b"ACGT"[next() % 4]).collect();
        let b: Vec<u8> = (0..100).map(|_| b"ACGT"[next() % 4]).collect();
        let reads = mk_reads(&[&a, &b]);
        let (edges, _) = build_candidate_edges(&reads, &params(), &JobConfig::with_workers(2))
            .expect("sketch jobs");
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn read_hashes_deduplicated_and_sorted() {
        let r = Read::new("r", b"ACGTACGTACGT"); // repeated 4-mers
        let hs = read_hashes(&r, 4);
        assert!(hs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(hs.len(), 4); // ACGT, CGTA, GTAC, TACG
    }

    #[test]
    fn high_frequency_hash_deferred_but_counted() {
        // Ten reads sharing everything: with cmax = 3 all hashes defer, so
        // no pairs can be generated from groups, but the deferral counter
        // must reflect it.
        let g: Vec<u8> = (0..60).map(|i| b"ACGT"[(i * 7 + i / 5) % 4]).collect();
        let seqs: Vec<&[u8]> = (0..10).map(|_| g.as_slice()).collect();
        let reads = mk_reads(&seqs);
        let mut p = params();
        p.cmax = 3;
        let (edges, stats) =
            build_candidate_edges(&reads, &p, &JobConfig::with_workers(2)).expect("sketch jobs");
        assert!(stats.deferred_hashes > 0);
        // All groups deferred -> no surviving pairs.
        assert!(edges.is_empty());
    }

    #[test]
    fn no_rounds_no_edges() {
        let g: Vec<u8> = (0..120).map(|i| b"ACGT"[(i * 7 + i / 3) % 4]).collect();
        let reads = mk_reads(&[&g, &g]);
        for (modulus, rounds) in [(0, 3), (2, 0)] {
            let p = SketchParams { modulus, rounds, ..params() };
            let (edges, stats) = build_candidate_edges(&reads, &p, &JobConfig::with_workers(2))
                .expect("sketch jobs");
            assert!(edges.is_empty());
            assert_eq!(stats.sketch_entries, 0);
        }
    }

    #[test]
    fn sorted_intersection_counts() {
        assert_eq!(sorted_intersection_size(&[1, 3, 5], &[2, 3, 5, 7], 0), (Some(2), 3));
        assert_eq!(sorted_intersection_size(&[], &[1], 0), (Some(0), 0));
        assert_eq!(sorted_intersection_size(&[4, 9], &[4, 9], 2), (Some(2), 2));
    }

    #[test]
    fn deterministic_across_workers() {
        let g: Vec<u8> = (0..150).map(|i| b"ACGT"[(i * 11 + i / 7) % 4]).collect();
        let mut variants: Vec<Vec<u8>> = Vec::new();
        for v in 0..6 {
            let mut s = g.clone();
            s[10 + v * 7] = b"TGCA"[v % 4];
            variants.push(s);
        }
        let seqs: Vec<&[u8]> = variants.iter().map(|v| v.as_slice()).collect();
        let reads = mk_reads(&seqs);
        let (e1, _) = build_candidate_edges(&reads, &params(), &JobConfig::with_workers(1))
            .expect("sketch jobs");
        let (e8, _) = build_candidate_edges(&reads, &params(), &JobConfig::with_workers(8))
            .expect("sketch jobs");
        assert_eq!(e1, e8);
    }
    /// §4.3.1 applied pair by pair: per round, a pair is generated when it
    /// shares a sketch hash that is not deferred, its count is topped up with
    /// the deferred hashes both reads hold, and it survives at
    /// `count / min(|S_i|, |S_j|) ≥ C_min`; the edge set is the union over
    /// rounds. No MapReduce job, no arena.
    fn all_pairs_reference(reads: &[Read], p: &SketchParams) -> (Vec<(u32, u32)>, SketchStats) {
        let mut stats = SketchStats::default();
        let mut edges = BTreeSet::new();
        for round in 0..p.rounds.min(p.modulus as usize) as u64 {
            let sketches: Vec<BTreeSet<u64>> = reads
                .iter()
                .map(|r| {
                    read_hashes(r, p.k).into_iter().filter(|h| h % p.modulus == round).collect()
                })
                .collect();
            stats.sketch_entries += sketches.iter().map(|s| s.len() as u64).sum::<u64>();
            let mut holders: BTreeMap<u64, u64> = BTreeMap::new();
            for h in sketches.iter().flatten() {
                *holders.entry(*h).or_default() += 1;
            }
            let deferred = |h: &u64| holders[h] > p.cmax as u64;
            for n in holders.values().filter(|&&n| n > 1) {
                if *n > p.cmax as u64 {
                    stats.deferred_hashes += 1;
                } else {
                    stats.predicted_edges += n * (n - 1) / 2;
                }
            }
            for a in 0..reads.len() {
                for b in a + 1..reads.len() {
                    let shared: Vec<&u64> = sketches[a].intersection(&sketches[b]).collect();
                    let denom = sketches[a].len().min(sketches[b].len());
                    if shared.iter().any(|h| !deferred(h))
                        && shared.len() as f64 / denom as f64 >= p.cmin
                    {
                        edges.insert((a as u32, b as u32));
                    }
                }
            }
        }
        stats.unique_edges = edges.len() as u64;
        (edges.into_iter().collect(), stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Differential oracle for Tasks 1–3 at n ≤ 40: the edge list and the
        /// stage counters equal the all-pairs definition exactly.
        #[test]
        fn candidate_edges_match_all_pairs_reference(
            templates in proptest::collection::vec(proptest::collection::vec(0usize..4, 20..70), 1..4),
            raw in proptest::collection::vec(
                (0usize..3, 0usize..30, 10usize..70, proptest::collection::vec(0usize..60, 0..4)),
                0..40,
            ),
            k in prop_oneof![Just(4usize), Just(6)],
            modulus in 1u64..5,
            rounds in 1usize..5,
            cmax in 1usize..7,
            cmin in prop_oneof![Just(0.0), Just(0.3), Just(0.6), Just(1.0)],
        ) {
            // Windows of a few templates with a few substitutions: reads that
            // share many hashes, some of them with more than `cmax` others.
            let reads: Vec<Read> = raw
                .iter()
                .enumerate()
                .map(|(i, (t, start, len, subs))| {
                    let template = &templates[t % templates.len()];
                    let start = start % template.len();
                    let mut seq: Vec<u8> =
                        template[start..].iter().take(*len).map(|&c| b"ACGT"[c]).collect();
                    for &at in subs {
                        let at = at % seq.len();
                        seq[at] = if seq[at] == b'A' { b'N' } else { b'A' };
                    }
                    Read::new(format!("r{i}"), &seq)
                })
                .collect();
            let params = SketchParams { k, modulus, rounds, cmax, cmin };
            let (edges, stats) =
                build_candidate_edges(&reads, &params, &JobConfig::with_workers(2)).expect("jobs");
            let (want_edges, want) = all_pairs_reference(&reads, &params);
            prop_assert_eq!(edges, want_edges);
            prop_assert_eq!(stats.unique_edges, want.unique_edges);
            prop_assert_eq!(stats.predicted_edges, want.predicted_edges);
            prop_assert_eq!(stats.deferred_hashes, want.deferred_hashes);
            prop_assert_eq!(stats.sketch_entries, want.sketch_entries);
        }
    }
}
